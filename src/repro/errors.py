"""Error types shared across layers.

They live outside :mod:`repro.comm` so the switch driver
(:mod:`repro.core.allreduce`), which ``repro.comm`` imports, can raise
them too; ``repro.comm`` re-exports both.
"""


class CommError(Exception):
    """Base error of the communicator layer."""


class CapabilityError(CommError):
    """No registered algorithm (or the named one) supports the request."""
