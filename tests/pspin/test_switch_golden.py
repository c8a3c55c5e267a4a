"""Golden table of the single-switch dense allreduce.

Every row plans one switch-level allreduce (``plan_switch_allreduce``)
and executes it twice: on the packet-train fast path and, with
``REPRO_FASTPATH=0``, on the per-packet DES.  ``switch_golden.json``
pins what each run produced: the makespan, the contention wait, both
memory peaks, the i-cache fills, whether the fast path ran, and a
sha256 of the aggregated outputs.

The parity suites compare the two engines with each other, so a change
that moves both the same way passes them; this table pins the absolute
numbers.

The rows: single, multi(2), multi(4) and tree aggregation in int32 and
fp32, plus single buffer under a custom operator, under plain FCFS
scheduling and with a warm i-cache.

Regenerate only when a change to the simulated results is intended::

    PYTHONPATH=src python tests/pspin/test_switch_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.allreduce import plan_switch_allreduce
from repro.core.ops import ReductionOp

GOLDEN = Path(__file__).with_name("switch_golden.json")
ENGINES = {"fast": "1", "des": "0"}


def _absmax(acc: np.ndarray, values: np.ndarray) -> None:
    np.copyto(acc, np.where(np.abs(values) > np.abs(acc), values, acc))


ABSMAX = ReductionOp("absmax", _absmax, cycles_factor=1.2)

#: row -> (plan kwargs, execute kwargs)
ROWS: dict[str, tuple[dict, dict]] = {
    f"{aggregation}/{dtype}": ({"algorithm": aggregation, "dtype": dtype}, {})
    for aggregation in ("single", "multi(2)", "multi(4)", "tree")
    for dtype in ("int32", "float32")
}
ROWS["single/absmax"] = ({"algorithm": "single", "op": ABSMAX}, {})
ROWS["single/fcfs"] = ({"algorithm": "single", "scheduler": "fcfs"}, {})
ROWS["single/warm"] = ({"algorithm": "single", "dtype": "int32"}, {"cold_start": False})


def run_row(row: str, engine: str) -> dict:
    plan_kwargs, exec_kwargs = ROWS[row]
    old = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = ENGINES[engine]
    try:
        plan = plan_switch_allreduce("16KiB", children=8, n_clusters=2, **plan_kwargs)
        r = plan.execute(seed=5, jitter=0.5, **exec_kwargs)
    finally:
        if old is None:
            os.environ.pop("REPRO_FASTPATH", None)
        else:
            os.environ["REPRO_FASTPATH"] = old
    digest = hashlib.sha256()
    for block in sorted(r.outputs):
        digest.update(np.ascontiguousarray(r.outputs[block]).tobytes())
    return {
        "makespan_cycles": r.makespan_cycles,
        "contention_wait_cycles": r.contention_wait_cycles,
        "peak_input_buffer_bytes": r.peak_input_buffer_bytes,
        "peak_working_memory_bytes": r.peak_working_memory_bytes,
        "icache_fills": r.icache_fills,
        "fast_path_used": r.fast_path_used,
        "outputs": digest.hexdigest(),
    }


def cases() -> list[str]:
    return [f"{row}/{engine}" for row in ROWS for engine in ENGINES]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", cases())
def test_switch_golden(golden, case):
    row, engine = case.rsplit("/", 1)
    assert run_row(row, engine) == golden[case]


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    table = {case: run_row(*case.rsplit("/", 1)) for case in cases()}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
