"""The tree's fixed payload program (Sec. 6.3, F3) vs the per-packet DES.

The fast path evaluates the pair tree level by level: builtin float
operators over all blocks at once, custom operators block by block.
The DES merges in the order its handlers happen to climb.  Both must
give the same bits, because what combines with what (and in which
argument order) is fixed by the tree shape alone.
"""

import numpy as np
import pytest

from repro.core.allreduce import plan_switch_allreduce
from repro.core.ops import ReductionOp

#: A user operator that reuses the builtin's name: not recognised as a
#: builtin, so it runs block by block through its own combine_into.
CUSTOM_SUM = ReductionOp("sum", lambda acc, values: np.add(acc, values, out=acc))

SHAPES = [(6, "16KiB"), (12, "16KiB"), (64, "64KiB")]


def float_payloads(children, size, seed):
    """Values whose float32 sums round differently in different orders."""
    n_blocks = int(size[:-3])                 # one 1 KiB packet per block
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=(children, n_blocks, 256)).astype(np.float32)


@pytest.mark.parametrize("children,size", SHAPES)
@pytest.mark.parametrize("op", ["sum", "max", "min", "prod", CUSTOM_SUM],
                         ids=["sum", "max", "min", "prod", "custom-sum"])
@pytest.mark.parametrize("jitter", [0.0, 1.0])
def test_tree_float_program_bitwise_equal_to_des(
    monkeypatch, children, size, op, jitter
):
    data = float_payloads(children, size, seed=children)
    results = []
    for env in ("1", "0"):
        monkeypatch.setenv("REPRO_FASTPATH", env)
        plan = plan_switch_allreduce(
            size, children=children, algorithm="tree", dtype="float32",
            n_clusters=2, op=op,
        )
        results.append(plan.execute(data, seed=7, jitter=jitter))
    fast, des = results
    assert fast.fast_path_used and not des.fast_path_used
    assert fast.makespan_cycles == des.makespan_cycles
    assert fast.outputs.keys() == des.outputs.keys()
    for block_id, payload in des.outputs.items():
        assert fast.outputs[block_id].dtype == np.float32
        assert fast.outputs[block_id].tobytes() == payload.tobytes()


def test_float_payloads_are_order_sensitive():
    """The data above has teeth: summing host by host (arrival-order
    style) already differs from the tree's sum in some element."""
    data = float_payloads(64, "64KiB", seed=64)
    plan = plan_switch_allreduce("64KiB", children=64, algorithm="tree",
                                 dtype="float32", n_clusters=2)
    tree = np.stack([out for _b, out in sorted(plan.execute(data).outputs.items())])
    sequential = data[0].copy()
    for host in data[1:]:
        sequential += host
    assert not np.array_equal(tree, sequential)
