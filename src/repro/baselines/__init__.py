"""Reference models of competing in-network reduction systems.

SwitchML (NSDI'21, Tofino RMT pipeline) and SHARP (Mellanox
fixed-function switches) are the two systems Fig. 11 compares Flare
against; Table 1 compares thirteen systems along the three flexibility
axes.  These behavioral models encode the published envelopes and
constraints — they exist so the benchmark harness regenerates the
paper's comparison lines from executable artifacts rather than
hard-coded constants scattered through figure code.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "SwitchMLModel": "repro.baselines.switchml",
    "SHARPModel": "repro.baselines.sharp",
    "CAPABILITY_MATRIX": "repro.baselines.capability",
    "capability_table": "repro.baselines.capability",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
