"""Tests for unit conversions and table rendering."""

import pytest

from repro.utils.tables import ascii_table, series_block
from repro.utils.units import bytes_to_mib, gbps_to_bytes_per_ns, parse_size


def test_parse_size_variants():
    assert parse_size("1KiB") == 1024
    assert parse_size("1 MiB") == 1024**2
    assert parse_size("2GiB") == 2 * 1024**3
    assert parse_size("1kb") == 1000
    assert parse_size("512") == 512
    assert parse_size(4096) == 4096
    assert parse_size(2.5) == 2          # round-half-even, not truncation


def test_parse_size_rounds_instead_of_truncating():
    """The docstring promises floats are *rounded*; int() truncation
    used to turn 1.9 bytes into 1 (regression pin)."""
    assert parse_size(1.9) == 2
    assert parse_size(0.6) == 1
    assert parse_size("1.9") == 2
    # Suffix arithmetic rounds too: 0.0009765625 KiB is 0.9999... B.
    assert parse_size("0.0009765620 KiB") == 1
    # Round-half-even on the numeric passthrough (Python round()).
    assert parse_size(3.5) == 4
    assert parse_size(2.5) == 2


def test_parse_time_ns_passes_floats_through_exactly():
    """Mirror check of the parse_size rounding bug: durations are
    float ns end to end, so no rounding (or truncation) may happen."""
    from repro.utils.units import parse_time_ns

    assert parse_time_ns(1.9) == 1.9
    assert parse_time_ns("1.9") == 1.9
    assert parse_time_ns("2.5us") == 2500.0
    assert parse_time_ns(250) == 250.0
    assert isinstance(parse_time_ns(250), float)


def test_rate_conversions():
    assert gbps_to_bytes_per_ns(100.0) == pytest.approx(12.5)


def test_byte_unit_helpers():
    assert bytes_to_mib(3 * 1024**2) == 3


def test_ascii_table_alignment():
    text = ascii_table(["name", "x"], [["a", 1], ["bb", 2.5]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("name")
    assert "2.5" in lines[3]


def test_series_block():
    text = series_block("T", "size", ["1K", "2K"], {"a": [1, 2], "b": [3, 4]})
    assert text.splitlines()[0] == "T"
    assert "1K" in text and "4" in text


def test_rngtools():
    from repro.utils.rngtools import seeded_rng

    a, b = seeded_rng(3), seeded_rng(3)
    assert a.integers(0, 100) == b.integers(0, 100)
    gen = seeded_rng(a)
    assert gen is a
