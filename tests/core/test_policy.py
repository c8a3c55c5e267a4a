"""Tests for the Sec. 6.4 algorithm-selection policy."""

from repro.core.ops import ReductionOp
from repro.core.policy import (
    ALGORITHMS,
    build_handler,
    parse_aggregation,
    select_algorithm,
)
from repro.core.handler_base import HandlerConfig


def test_paper_ladder_bands():
    assert select_algorithm("1MiB").label == "single"
    assert select_algorithm("513KiB").label == "single"
    assert select_algorithm("512KiB").label == "multi(4)"
    assert select_algorithm("300KiB").label == "multi(4)"
    assert select_algorithm("256KiB").label == "multi(2)"
    assert select_algorithm("200KiB").label == "multi(2)"
    assert select_algorithm("128KiB").label == "tree"
    assert select_algorithm("1KiB").label == "tree"


def test_reproducibility_forces_tree():
    choice = select_algorithm("4MiB", reproducible=True)
    assert choice.label == "tree"
    assert "reproducib" in choice.reason


def test_nonassociative_op_forces_tree():
    weird = ReductionOp("weird", lambda a, v: None, associative=False)
    assert select_algorithm("4MiB", op=weird).label == "tree"


def test_algorithm_labels_cover_paper_set():
    assert ALGORITHMS == ("single", "multi(2)", "multi(4)", "tree")


def test_build_handler_round_trip():
    hconf = HandlerConfig(allreduce_id=1, n_children=4)
    for size in ("1MiB", "300KiB", "200KiB", "1KiB"):
        choice = select_algorithm(size)
        handler = build_handler(choice, hconf)
        assert handler.name.startswith("flare-")


def test_parse_aggregation_round_trips_labels():
    for label in (*ALGORITHMS, "multi(3)"):
        assert parse_aggregation(label).label == label
    assert parse_aggregation("tree").n_buffers == 0
    assert parse_aggregation("single").n_buffers == 1

