"""Aggregation-algorithm selection (paper Sec. 6.4).

"To optimize both compute and memory resources, Flare uses single
buffer aggregation if the size of the data to be reduced is larger than
512KiB, multi buffers with 4 buffers if larger than 256KiB, with 2
buffers if larger than 128KiB, and tree aggregation otherwise.  When
reproducibility of floating-point summation is required, Flare always
uses tree aggregation."

A choice is one number: B shared buffers per block (Sec. 6.2), where
single buffer (Sec. 6.1) is B = 1, or ``0`` for tree aggregation
(Sec. 6.3).  :func:`select_algorithm` implements the prose ladder
literally; the contention model of Sec. 6.2 would swap its two
multi-buffer bands, a disagreement DESIGN.md discusses.
:func:`parse_aggregation` reads an explicit ``aggregation=`` name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.core.ops import ReductionOp, get_op
from repro.utils.units import KIB, parse_size

#: Algorithm identifiers used across handlers, models, and experiments.
ALGORITHMS = ("single", "multi(2)", "multi(4)", "tree")

_MULTI = re.compile(r"multi\(([1-9][0-9]*)\)")


@dataclass(frozen=True)
class AlgorithmChoice:
    """A selected aggregation design: B buffers per block, 0 for the tree."""

    n_buffers: int
    reason: str

    @property
    def label(self) -> str:
        if self.n_buffers == 0:
            return "tree"
        if self.n_buffers == 1:
            return "single"
        return f"multi({self.n_buffers})"


def parse_aggregation(name: str) -> AlgorithmChoice:
    """The design an explicit ``aggregation=`` name asks for.

    >>> parse_aggregation("multi(4)").n_buffers
    4
    >>> parse_aggregation("single").label
    'single'
    """
    if name == "tree":
        return AlgorithmChoice(0, "explicit")
    if name == "single":
        return AlgorithmChoice(1, "explicit")
    match = _MULTI.fullmatch(name) if isinstance(name, str) else None
    if match is None:
        raise ValueError(
            f"unknown aggregation {name!r}: use 'single', 'tree' or "
            f"'multi(B)' with an integer B >= 1"
        )
    return AlgorithmChoice(int(match[1]), "explicit")


def select_algorithm(
    data_bytes: int | str,
    reproducible: bool = False,
    op: "str | ReductionOp" = "sum",
) -> AlgorithmChoice:
    """Pick the aggregation design for a reduction of ``data_bytes``.

    Parameters
    ----------
    data_bytes:
        Size of the data each host contributes (Z * element size).
    reproducible:
        Request bitwise-reproducible floating-point aggregation (F3);
        forces tree aggregation.
    op:
        The reduction operator; non-commutative or non-associative
        custom operators force tree aggregation too, since only the
        fixed combine structure gives them well-defined semantics.
    """
    size = parse_size(data_bytes)
    operator = get_op(op)
    if reproducible:
        return AlgorithmChoice(0, "reproducibility requested (F3)")
    if not (operator.commutative and operator.associative):
        return AlgorithmChoice(
            0, f"operator {operator.name!r} needs a fixed combine structure"
        )
    if size > 512 * KIB:
        return AlgorithmChoice(1, "staggered sending covers delta_c >= L")
    if size > 256 * KIB:
        return AlgorithmChoice(4, "paper ladder band (256KiB, 512KiB]")
    if size > 128 * KIB:
        return AlgorithmChoice(2, "paper ladder band (128KiB, 256KiB]")
    return AlgorithmChoice(0, "small data: contention-free regardless of delta_c")


def build_handler(choice: AlgorithmChoice, handler_config) -> "object":
    """Instantiate the handler object for a choice.

    Imports locally to avoid a cycle (handlers import core modules).
    """
    from repro.core.multi_buffer import MultiBufferHandler
    from repro.core.tree_buffer import TreeAggregationHandler

    if choice.n_buffers == 0:
        return TreeAggregationHandler(handler_config)
    return MultiBufferHandler(handler_config, choice.n_buffers)
