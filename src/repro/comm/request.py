"""Unified collective request type.

A :class:`CollectiveRequest` describes *what* should be reduced — size,
participant count, operator, flexibility requirements (F1 custom ops,
F2 sparse, F3 reproducible) — plus, in ``params``, the fabric's wiring
and the algorithm's knobs.  It deliberately excludes payload values: two requests with
the same shape are the same request, which is what makes the plan cache
(:mod:`repro.comm.plan`) effective in the production steady state of
repeated identical allreduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.comm.wiring import Wiring
from repro.core.ops import ReductionOp, builtin_ufunc, get_op
from repro.sparse.densify import DENSE_ELEMENT_BYTES
from repro.utils.units import parse_size


@dataclass
class CollectiveRequest:
    """One collective's shape, independent of its payload values.

    Attributes
    ----------
    nbytes:
        Dense-equivalent bytes contributed per host (accepts "64KiB"
        style strings).
    n_hosts:
        Number of participating hosts (the reduction fan-in).
    collective:
        Collective kind; only ``"allreduce"`` is implemented today (any
        other raises ``ValueError``), the field exists so future
        collectives share the same front door.
    op:
        Reduction operator — a built-in name or a custom
        :class:`~repro.core.ops.ReductionOp` (flexibility axis F1).
    dtype:
        Element type name.
    algorithm:
        Registry algorithm name, or ``"auto"`` for capability-based
        selection.
    reproducible:
        Require bitwise-reproducible aggregation (F3).
    sparse / density:
        Sparse payload (F2) and its non-zero fraction.
    params:
        The fabric's wiring (read by :attr:`wiring`) and the algorithm's
        knobs (bound to its planner's keyword parameters).
    """

    nbytes: Union[int, float, str]
    n_hosts: int
    collective: str = "allreduce"
    op: Union[str, ReductionOp] = "sum"
    dtype: str = "float32"
    algorithm: str = "auto"
    reproducible: bool = False
    sparse: bool = False
    density: float = 1.0
    params: dict = field(default_factory=dict)
    _wiring: Optional[Wiring] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.collective != "allreduce":
            raise ValueError(
                f"collective must be 'allreduce' (the only one implemented), "
                f"got {self.collective!r}"
            )
        self.nbytes = float(parse_size(self.nbytes))
        if self.nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if self.n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")

    # ------------------------------------------------------------------
    @property
    def operator(self) -> ReductionOp:
        return get_op(self.op)

    @property
    def op_name(self) -> str:
        return self.operator.name

    @property
    def custom_op(self) -> bool:
        """True when ``op`` is not one of the built-in operators."""
        return builtin_ufunc(self.operator) is None

    @property
    def total_elements(self) -> float:
        """Dense vector length implied by ``nbytes`` (fp32 elements)."""
        return self.nbytes / DENSE_ELEMENT_BYTES

    @property
    def wiring(self) -> Wiring:
        """The fabric this request runs over, resolved once from the
        wiring names of ``params``."""
        if self._wiring is None:
            self._wiring = Wiring(self.params, self.n_hosts)
        return self._wiring

    # ------------------------------------------------------------------
    def signature(self) -> tuple:
        """Hashable shape key for the plan cache.

        Payload-independent: repeated allreduces of the same shape map
        to the same signature regardless of the data they carry.
        """
        operator = self.operator
        op_key: Any = operator.name
        if self.custom_op:
            op_key = (operator.name, id(operator))
        return (
            self.collective,
            self.algorithm,
            self.nbytes,
            self.n_hosts,
            op_key,
            self.dtype,
            self.reproducible,
            self.sparse,
            self.density,
            _freeze(self.params),
        )


def _freeze(value: Any) -> Any:
    """Recursively convert ``value`` into something hashable.

    Containers become tuples.  Objects exposing a ``fingerprint()``
    (topologies) freeze to it — preferring ``live_fingerprint()`` when
    offered, which additionally folds in the current failure state —
    so two equal-but-distinct topology objects key the *same* cached
    plan, while ``fail_link``/``fail_switch`` mutations change the key
    and force a replan over the live (wounded) topology instead of
    serving a stale plan that routes through dead hardware.
    Everything else without a natural hash key (cost models,
    workloads) degrades to identity, which keeps the cache correct
    (same object -> same plan) at the price of a miss when an
    equal-but-distinct object is passed.
    """
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (str, bytes, int, float, bool)) or value is None:
        return value
    fingerprint = getattr(value, "live_fingerprint", None) or getattr(
        value, "fingerprint", None
    )
    if callable(fingerprint):
        return fingerprint()
    return (type(value).__name__, id(value))
