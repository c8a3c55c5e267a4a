"""Shared utilities: unit conversions, seeded RNG helpers, ASCII tables.

These helpers keep unit handling explicit across the code base.  All
internal switch-model quantities are expressed in *cycles* (1 GHz clock,
so 1 cycle == 1 ns) and *bytes*; the network model uses *nanoseconds*
and *bytes*.  Conversions to the paper's presentation units (Tbps, MiB,
elements/s) happen only at the reporting boundary, through this module.
"""

from repro.utils.units import (
    KIB,
    MIB,
    GIB,
    GBPS,
    TBPS,
    bytes_to_mib,
    parse_size,
)
from repro.utils.rngtools import seeded_rng
from repro.utils.tables import ascii_table, series_block

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "GBPS",
    "TBPS",
    "bytes_to_mib",
    "parse_size",
    "seeded_rng",
    "ascii_table",
    "series_block",
]
