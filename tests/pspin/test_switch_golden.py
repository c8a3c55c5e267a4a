"""Golden table of the single-switch dense and sparse allreduce.

Every row runs one switch-level allreduce twice: on the packet-train
fast path and, with ``REPRO_FASTPATH=0``, on the per-packet DES.  A
row plans it with ``plan_switch_allreduce`` (a sparse row with a
``density``).  For a dense row ``switch_golden.json`` pins the makespan,
the contention wait, both memory peaks, the i-cache fills, whether the
fast path ran, and a sha256 of the aggregated outputs.  For a sparse
row it pins the makespan, the contention wait, the block memory, the
spilled and egress bytes, the extra traffic, the completed blocks,
whether the fast path ran, feasibility with its reason, and the
outputs' sha256; an infeasible row reads its block memory, fast-path
flag and reason from the :class:`SwitchInfeasibleError`.

The parity suites compare the two engines with each other, so a change
that moves both the same way passes them; this table pins the absolute
numbers.

The dense rows: single, multi(2), multi(4) and tree aggregation in
int32 and fp32, plus single buffer under a custom operator, under plain
FCFS scheduling and with a warm i-cache.  The sparse rows: hash and
array storage at densities 0.01 and 0.1 in float32 and int32, a hash
table of one slot per packet element at density 0.5 whose blocks end
with residual spill (its float32 values are non-integer, so the merge's
add order shows in the bits), and an array too large for the switch's
working memory.

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

from repro.core.allreduce import SwitchInfeasibleError, plan_switch_allreduce
from repro.core.ops import ReductionOp
from repro.sparse.formats import SparseWorkload, make_sparse_workload

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

#: sparse row -> plan_switch_allreduce kwargs (besides the shared ones)
SPARSE_ROWS: dict[str, dict] = {
    f"sparse-{storage}/{density}/{dtype}": {
        "storage": storage, "density": density, "dtype": dtype,
    }
    for storage in ("hash", "array")
    for density in (0.01, 0.1)
    for dtype in ("float32", "int32")
}
SPARSE_ROWS["sparse-hash/spill"] = {
    "storage": "hash", "density": 0.5, "hash_slots_factor": 1, "noisy": True,
}
SPARSE_ROWS["sparse-array/infeasible"] = {
    "storage": "array", "density": 0.001, "data_bytes": "64KiB",
}


def _on_engine(engine: str, run):
    old = os.environ.get("REPRO_FASTPATH")
    os.environ["REPRO_FASTPATH"] = ENGINES[engine]
    try:
        return run()
    finally:
        if old is None:
            os.environ.pop("REPRO_FASTPATH", None)
        else:
            os.environ["REPRO_FASTPATH"] = old


def _digest(outputs: dict) -> str:
    digest = hashlib.sha256()
    for block in sorted(outputs):
        digest.update(np.ascontiguousarray(outputs[block]).tobytes())
    return digest.hexdigest()


def _noisy_workload(density: float) -> SparseWorkload:
    """The generated 8-host, 16-block workload with standard-normal
    float32 values in place of its small integers."""
    wl = make_sparse_workload(8, 16, 128, density, seed=5)
    values = np.random.default_rng(5).standard_normal(len(wl.values))
    return SparseWorkload.from_rows(
        wl.indices, values.astype(np.float32), wl.offsets, wl.n_hosts,
        wl.n_blocks, wl.block_span, wl.density, wl.dtype,
    )


def run_sparse_row(row: str, engine: str) -> dict:
    kwargs = dict(SPARSE_ROWS[row])
    data_bytes = kwargs.pop("data_bytes", "16KiB")
    workload = _noisy_workload(kwargs["density"]) if kwargs.pop("noisy", False) else None
    plan = plan_switch_allreduce(data_bytes, children=8, n_clusters=2, **kwargs)
    try:
        r = _on_engine(engine, lambda: plan.execute(workload, seed=5, jitter=0.5))
    except SwitchInfeasibleError as exc:
        return {
            "makespan_cycles": 0.0,
            "contention_wait_cycles": 0.0,
            "block_memory_bytes": exc.block_memory_bytes,
            "spilled_bytes": 0,
            "egress_payload_bytes": 0,
            "extra_traffic_pct": 0.0,
            "blocks_completed": 0,
            "fast_path_used": exc.fast_path_used,
            "feasible": False,
            "infeasible_reason": exc.reason,
            "outputs": _digest({}),
        }
    return {
        "makespan_cycles": r.makespan_cycles,
        "contention_wait_cycles": r.contention_wait_cycles,
        "block_memory_bytes": r.block_memory_bytes,
        "spilled_bytes": r.spilled_bytes,
        "egress_payload_bytes": r.egress_payload_bytes,
        "extra_traffic_pct": r.extra_traffic_pct,
        "blocks_completed": r.blocks_completed,
        "fast_path_used": r.fast_path_used,
        "feasible": True,
        "infeasible_reason": "",
        "outputs": _digest(r.outputs),
    }


def run_row(row: str, engine: str) -> dict:
    if row in SPARSE_ROWS:
        return run_sparse_row(row, engine)
    plan_kwargs, exec_kwargs = ROWS[row]
    r = _on_engine(engine, lambda: plan_switch_allreduce(
        "16KiB", children=8, n_clusters=2, **plan_kwargs
    ).execute(seed=5, jitter=0.5, **exec_kwargs))
    return {
        "makespan_cycles": r.makespan_cycles,
        "contention_wait_cycles": r.contention_wait_cycles,
        "peak_input_buffer_bytes": r.peak_input_buffer_bytes,
        "peak_working_memory_bytes": r.peak_working_memory_bytes,
        "icache_fills": r.icache_fills,
        "fast_path_used": r.fast_path_used,
        "outputs": _digest(r.outputs),
    }


def cases() -> list[str]:
    return [f"{row}/{engine}" for row in [*ROWS, *SPARSE_ROWS] for engine in ENGINES]


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
