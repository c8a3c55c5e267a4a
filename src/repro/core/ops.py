"""Reduction operators (paper flexibility axis F1).

Flare's headline flexibility claim is that aggregation functions are
plain sPIN handlers, so *any* operator over *any* element type can be
installed — unlike fixed-function switches (predefined MPI ops only) or
RMT pipelines (no floating point, no multiply).  This module is the
user-facing hook: a :class:`ReductionOp` bundles the combine function
(vectorized over numpy arrays), its algebraic properties, and a relative
cycle cost the switch model charges.

``commutative``/``associative`` matter for correctness guarantees:
single- and multi-buffer aggregation combine packets in arrival order
and fold partial buffers in buffer order, so they require commutativity
+ associativity of the *mathematical* operator (fp32 sum qualifies
mathematically but not bitwise — that is exactly the reproducibility
problem F3, solved by tree aggregation's fixed combine structure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ReductionOp:
    """A user-definable aggregation operator.

    Attributes
    ----------
    name:
        Identifier (also used in handler install messages).
    combine_into:
        ``f(acc, values) -> None`` — element-wise in-place combine,
        vectorized (numpy ufunc ``.at``-style semantics not needed; the
        dense path always combines full aligned slices).
    cycles_factor:
        Cost multiplier relative to the calibrated fp32 add (4 cycles per
        element).  A user multiply-add might be 1.5x; a custom clamp 2x.
    commutative / associative:
        Declared algebraic properties; the policy layer refuses designs
        whose correctness needs a property the operator lacks.
    """

    name: str
    combine_into: Callable[[np.ndarray, np.ndarray], None]
    cycles_factor: float = 1.0
    commutative: bool = True
    associative: bool = True


def _sum_into(acc: np.ndarray, values: np.ndarray) -> None:
    acc += values


def _min_into(acc: np.ndarray, values: np.ndarray) -> None:
    np.minimum(acc, values, out=acc)


def _max_into(acc: np.ndarray, values: np.ndarray) -> None:
    np.maximum(acc, values, out=acc)


def _prod_into(acc: np.ndarray, values: np.ndarray) -> None:
    acc *= values


SUM = ReductionOp("sum", _sum_into)
MIN = ReductionOp("min", _min_into)
MAX = ReductionOp("max", _max_into)
#: Multiplication: unsupported on Tofino-class RMT hardware even for
#: integers (Sec. 2.4) — on Flare it is just another handler.
PROD = ReductionOp("prod", _prod_into, cycles_factor=1.25)

BUILTIN_OPS: dict[str, ReductionOp] = {op.name: op for op in (SUM, MIN, MAX, PROD)}

#: The numpy ufunc each builtin's ``combine_into`` applies.
_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum, "prod": np.multiply}


def get_op(op: "str | ReductionOp") -> ReductionOp:
    """Resolve an operator by name or pass a custom one through."""
    if isinstance(op, ReductionOp):
        return op
    try:
        return BUILTIN_OPS[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}; known: {sorted(BUILTIN_OPS)}") from None


def builtin_ufunc(op: "str | ReductionOp") -> "np.ufunc | None":
    """The numpy ufunc of a builtin operator, or None for a custom one.

    Builtins are recognised by identity, not by name: a user
    :class:`ReductionOp` that reuses the name ``"sum"`` still runs its
    own ``combine_into``.
    """
    op = get_op(op)
    if BUILTIN_OPS.get(op.name) is not op:
        return None
    return _UFUNCS[op.name]


def order_free_ufunc(op: "str | ReductionOp", dtype) -> "np.ufunc | None":
    """The ufunc whose single whole-array ``reduce`` is bitwise equal to
    *any* combine order of ``op`` over ``dtype`` values, or None.

    True for builtins over integer dtypes: wrapping two's-complement
    sum and product, min and max are commutative and associative
    bit for bit.  Floats (rounding) and custom operators (unknown
    algebra) return None; their callers replay the exact combine order.
    """
    if np.dtype(dtype).kind not in "iu":
        return None
    return builtin_ufunc(op)
