"""Unit constants and conversions.

The switch model is clocked at 1 GHz (paper Sec. 3), so one cycle is one
nanosecond.  Bandwidths in the paper are reported in Tbps (terabits per
second); memory in KiB/MiB.  These helpers make every conversion explicit
so no magic factors of 8 or 1024 hide in model code.
"""

from __future__ import annotations

import math

#: Binary size units (bytes).
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Link/switch rate units (bits per second).
GBPS = 1e9
TBPS = 1e12


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert Gbps to bytes per nanosecond."""
    return gbps * GBPS / 8.0 / 1e9


def bytes_to_mib(n: float) -> float:
    """Bytes -> MiB."""
    return n / MIB


_SIZE_SUFFIXES = {
    "B": 1,
    "KIB": KIB,
    "KB": 1000,
    "MIB": MIB,
    "MB": 1000 * 1000,
    "GIB": GIB,
    "GB": 1000 * 1000 * 1000,
}


def parse_size(text: str | int | float) -> int:
    """Parse a human-readable size such as ``"512KiB"`` into bytes.

    Integers/floats pass through (rounded).  Parsing is case-insensitive
    and tolerates whitespace between the number and the suffix.

    >>> parse_size("1KiB"), parse_size("1 MiB"), parse_size(42)
    (1024, 1048576, 42)
    >>> parse_size(1.9), parse_size("1.9")
    (2, 2)
    """
    if isinstance(text, (int, float)):
        if not math.isfinite(text):
            raise ValueError(f"size {text!r} is not finite")
        return int(round(text))
    s = text.strip().upper().replace(" ", "")
    scale = 1
    for suffix in sorted(_SIZE_SUFFIXES, key=len, reverse=True):
        if s.endswith(suffix):
            s, scale = s[: -len(suffix)], _SIZE_SUFFIXES[suffix]
            break
    try:
        return int(round(float(s) * scale))
    except (ValueError, OverflowError):      # not a number, or infinite
        raise ValueError(
            f"cannot parse size {text!r}: expected a number with an optional "
            f"suffix ({', '.join(_SIZE_SUFFIXES)})"
        ) from None


_TIME_SUFFIXES = {
    "NS": 1.0,
    "US": 1e3,
    "MS": 1e6,
    "S": 1e9,
}


def parse_time_ns(text: str | int | float) -> float:
    """Parse a human-readable duration such as ``"50us"`` into ns.

    Integers/floats pass through as nanoseconds.  Suffixes: ns, us,
    ms, s (case-insensitive, whitespace tolerated).

    >>> parse_time_ns("50us"), parse_time_ns("1 ms"), parse_time_ns(250)
    (50000.0, 1000000.0, 250.0)
    """
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip().upper().replace(" ", "")
    for suffix in sorted(_TIME_SUFFIXES, key=len, reverse=True):
        if s.endswith(suffix):
            return float(s[: -len(suffix)]) * _TIME_SUFFIXES[suffix]
    return float(s)
