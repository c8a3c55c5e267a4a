"""Performance tracking: the cost-planner acceptance bench (``planner``)."""
