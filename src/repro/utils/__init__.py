"""Shared utilities: unit conversions, seeded RNG helpers, ASCII tables.

These helpers keep unit handling explicit across the code base.  All
internal switch-model quantities are expressed in *cycles* (1 GHz clock,
so 1 cycle == 1 ns) and *bytes*; the network model uses *nanoseconds*
and *bytes*.  Conversions to the paper's presentation units (Tbps, MiB,
elements/s) happen only at the reporting boundary, through this module.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "KIB": "repro.utils.units",
    "MIB": "repro.utils.units",
    "GIB": "repro.utils.units",
    "GBPS": "repro.utils.units",
    "TBPS": "repro.utils.units",
    "bytes_to_mib": "repro.utils.units",
    "parse_size": "repro.utils.units",
    "seeded_rng": "repro.utils.rngtools",
    "ascii_table": "repro.utils.tables",
    "series_block": "repro.utils.tables",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
