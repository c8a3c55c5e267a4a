"""Algorithm registry with declared capabilities.

Every allreduce implementation in the repository — host-based and
in-network schedules on the network simulator, and the switch-level
PsPIN drivers — registers here under a stable name with an
:class:`AlgorithmCaps` declaration.  ``algorithm="auto"`` requests are
resolved by *capability matching*: filter the registry down to entries
that support the request (dense/sparse, operator, reproducibility,
host-count constraints), then pick the highest-priority survivor.  This
generalizes the Sec. 6.4 size ladder of
:func:`repro.core.policy.select_algorithm` — which still picks the
aggregation *design* inside the switch-level backend — up to the level
of whole collectives.  ``auto_mode="cost"`` picks by the fitted cost
model instead.

A registered planner takes the request and its knobs (keyword-only
parameters with defaults) and returns the schedule a
:class:`~repro.comm.plan.CollectivePlan` issues: any object with
``issue(net, *, flow, payloads, op, on_complete)``.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.comm.request import CollectiveRequest
from repro.comm.wiring import WIRING_PARAMS
from repro.errors import CapabilityError, CommError


class UnknownAlgorithmError(CommError, KeyError):
    """Requested algorithm name is not registered."""

    def __str__(self) -> str:  # KeyError would repr-quote the message
        return self.args[0] if self.args else ""


class UnknownKnobError(CapabilityError):
    """A request or a run names a knob its algorithm does not declare."""


def knob_defaults(signature: inspect.Signature) -> dict:
    """The knobs (keyword-only parameters) of ``signature``, with defaults."""
    return {k: p.default for k, p in signature.parameters.items() if p.kind is p.KEYWORD_ONLY}


def bind_knobs(signature: inspect.Signature, owner: str, *args, **knobs):
    """Python's own binding of ``args`` and ``knobs`` to ``signature``,
    defaults applied; a knob it does not declare raises
    :class:`UnknownKnobError` naming ``owner`` and its knobs."""
    try:
        bound = signature.bind_partial(*args, **knobs)
    except TypeError:
        declared = knob_defaults(signature)
        unknown = ", ".join(repr(k) for k in knobs if k not in declared)
        listing = ", ".join(f"{k}={v!r}" for k, v in declared.items()) or "none"
        raise UnknownKnobError(f"{owner} takes no knob {unknown}; its knobs: {listing}") from None
    bound.apply_defaults()
    return bound


#: Request params the ``auto`` selectors read (``auto_mode``) or write
#: (``congestion``); like the wiring names, they are no algorithm's knobs.
SELECTOR_PARAMS = frozenset({"auto_mode", "congestion"})


@dataclass(frozen=True)
class AlgorithmCaps:
    """Declared capabilities of one registered algorithm.

    ``ops`` lists supported built-in operator names, with ``"*"``
    meaning every built-in; ``custom_ops`` additionally admits
    user-defined :class:`~repro.core.ops.ReductionOp` handlers (F1).
    ``topologies`` lists the wiring families the algorithm's schedule
    understands (``"*"`` = any routable topology); in-network
    algorithms additionally require the fabric's switches to be
    aggregation-capable.  ``priority`` ranks candidates during
    ``auto`` selection (higher wins); in-network algorithms outrank
    host-based ones, mirroring the paper's wire-efficiency argument.
    """

    dense: bool = True
    sparse: bool = False
    in_network: bool = False
    reproducible: bool = False
    ops: tuple[str, ...] = ("sum",)
    custom_ops: bool = False
    power_of_two_hosts: bool = False
    min_hosts: int = 1
    topologies: tuple[str, ...] = ("*",)
    priority: int = 0
    description: str = ""

    def rejects(self, request: CollectiveRequest) -> Optional[str]:
        """Why this algorithm cannot serve ``request`` (None = it can)."""
        if request.sparse and not self.sparse:
            return "sparse payloads unsupported"
        if not request.sparse and not self.dense:
            return "dense payloads unsupported"
        wiring = request.wiring
        if "*" not in self.topologies and wiring.family not in self.topologies:
            return f"topology family {wiring.family!r} unsupported"
        if self.in_network and not wiring.aggregates:
            return (
                "needs in-network aggregation but the topology's switches "
                "cannot aggregate (aggregation=False)"
            )
        if request.reproducible and not self.reproducible:
            return "cannot guarantee bitwise reproducibility"
        if request.custom_op:
            if not self.custom_ops:
                return f"custom operator {request.op_name!r} unsupported"
        elif "*" not in self.ops and request.op_name not in self.ops:
            return f"operator {request.op_name!r} unsupported"
        if request.n_hosts < self.min_hosts:
            return f"needs at least {self.min_hosts} hosts"
        if self.power_of_two_hosts and request.n_hosts & (request.n_hosts - 1):
            return "needs a power-of-two host count"
        return None


@dataclass(frozen=True)
class AlgorithmEntry:
    """A registered algorithm: name, capabilities, planner."""

    name: str
    caps: AlgorithmCaps
    #: ``planner(request, *, knob=default, ...) -> schedule`` — performs
    #: all one-time setup (tree construction, handler selection, message
    #: sizing) and returns an object with ``issue(net, *, flow, payloads,
    #: op, on_complete)`` (:mod:`repro.comm.plan`); its keyword-only
    #: parameters are the algorithm's knobs (:meth:`bind`).
    planner: Callable[..., "object"]
    #: Optional ``(request, payloads) -> reason | None`` — why this
    #: algorithm cannot execute the given concrete payloads (shape or
    #: dtype constraints the declarative caps cannot express).  ``None``
    #: means payloads are accepted; entries without a hook accept any.
    payload_rejects: Optional[
        Callable[[CollectiveRequest, object], Optional[str]]
    ] = None
    signature: inspect.Signature = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature", inspect.signature(self.planner))

    @property
    def knobs(self) -> dict:
        """The knobs the planner declares, with their defaults."""
        return knob_defaults(self.signature)

    def bind(self, request: CollectiveRequest) -> inspect.BoundArguments:
        """``request`` and its knobs bound to the planner: every param
        that is neither wiring (:data:`WIRING_PARAMS`) nor a selector's
        (:data:`SELECTOR_PARAMS`) must be a declared knob, or this raises
        :class:`UnknownKnobError`."""
        knobs = {k: v for k, v in request.params.items()
                 if k not in WIRING_PARAMS and k not in SELECTOR_PARAMS}
        return bind_knobs(self.signature, f"algorithm {self.name!r}", request, **knobs)


_REGISTRY: dict[str, AlgorithmEntry] = {}


def _registry() -> dict[str, AlgorithmEntry]:
    """The registry, the built-in algorithms of
    :mod:`repro.comm.backends` registered before its first use."""
    if "repro.comm.backends" not in sys.modules:
        import repro.comm.backends  # noqa: F401  (registers the built-ins)
    return _REGISTRY


def register_algorithm(
    name: str,
    *,
    caps: AlgorithmCaps,
    payload_rejects: Optional[Callable] = None,
) -> Callable:
    """Decorator registering a planner function as algorithm ``name``.

    Usage::

        @register_algorithm("ring", caps=AlgorithmCaps(...))
        def plan_ring(request: CollectiveRequest, *, sub_chunk_bytes=...):
            return ExchangeTable("ring", hosts, request.nbytes, ...)
    """

    def decorate(planner: Callable) -> Callable:
        if name in _registry():
            raise ValueError(f"algorithm {name!r} is already registered")
        _REGISTRY[name] = AlgorithmEntry(
            name=name, caps=caps, planner=planner, payload_rejects=payload_rejects
        )
        return planner

    return decorate


def unregister_algorithm(name: str) -> None:
    """Remove a registration (mainly for tests)."""
    _registry().pop(name, None)


def get_algorithm(name: str) -> AlgorithmEntry:
    """Look up a registered algorithm by name."""
    try:
        return _registry()[name]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; registered: {available_algorithms()}"
        ) from None


def available_algorithms() -> tuple[str, ...]:
    return tuple(sorted(_registry()))


def iter_algorithms() -> Iterator[AlgorithmEntry]:
    for name in available_algorithms():
        yield _REGISTRY[name]


def match_algorithms(request: CollectiveRequest) -> list[AlgorithmEntry]:
    """Entries that support ``request``, best (highest priority) first."""
    matches = [e for e in _registry().values() if e.caps.rejects(request) is None]
    matches.sort(key=lambda e: (-e.caps.priority, e.name))
    return matches


def rejection_reasons(request: CollectiveRequest) -> dict[str, str]:
    """name -> why it was rejected, for every non-matching entry."""
    out = {}
    for entry in iter_algorithms():
        reason = entry.caps.rejects(request)
        if reason is not None:
            out[entry.name] = reason
    return out


#: The ``auto`` selection modes, named by ``request.params["auto_mode"]``:
#: ``"static"`` (the default) takes the highest-priority candidate,
#: ``"cost"`` the cheapest by the fitted cost model of
#: :mod:`repro.comm.planner` (imported on the mode's first use).  The
#: cost selector receives the request plus the capability- and
#: payload-accepted candidates in static priority order (never empty)
#: and may write tuned knobs (chunk sizes) into ``request.params``; the
#: plan-cache key is computed from the request *after* resolution, so
#: tuned knobs key the cache.
DEFAULT_AUTO_MODE = "static"
_AUTO_MODES = ("cost", "static")


def available_auto_modes() -> tuple[str, ...]:
    return _AUTO_MODES


def resolve(
    request: CollectiveRequest, payloads: Optional[object] = None
) -> AlgorithmEntry:
    """Pick the algorithm serving ``request``.

    An explicit ``request.algorithm`` is validated against its declared
    capabilities; ``"auto"`` runs capability matching and hands the
    surviving candidates to the selection strategy named by
    ``request.params["auto_mode"]`` (default ``"static"``: the
    highest-priority candidate; ``"cost"``: the fitted cost model of
    :mod:`repro.comm.planner`).  When concrete ``payloads`` accompany
    the request, each candidate's ``payload_rejects`` hook is consulted
    too, so auto selection never lands on an algorithm that cannot
    execute the actual data (wrong shape/dtype, or simulation-only).
    The request's wiring is validated once, before any candidate.
    """
    request.wiring.check()
    if request.algorithm != "auto":
        entry = get_algorithm(request.algorithm)
        reason = entry.caps.rejects(request)
        if reason is None and payloads is not None and entry.payload_rejects:
            reason = entry.payload_rejects(request, payloads)
        if reason is not None:
            raise CapabilityError(
                f"algorithm {entry.name!r} cannot serve this request: {reason}"
            )
        return entry
    mode = request.params.get("auto_mode", DEFAULT_AUTO_MODE)
    if mode not in _AUTO_MODES:
        raise CommError(
            f"unknown auto_mode {mode!r}; available: {available_auto_modes()}"
        )
    candidates: list[AlgorithmEntry] = []
    payload_rejected: dict[str, str] = {}
    for entry in match_algorithms(request):
        if payloads is not None and entry.payload_rejects:
            reason = entry.payload_rejects(request, payloads)
            if reason is not None:
                payload_rejected[entry.name] = reason
                continue
        candidates.append(entry)
    if candidates:
        if mode == "cost":
            from repro.comm.planner import cost_select

            return cost_select(request, candidates)
        return candidates[0]
    # Combined failure detail: a candidate that matched capabilities
    # but refused the concrete payloads must report its payload
    # verdict — the more specific diagnosis — never be shadowed by (or
    # merged with) a capability line for the same algorithm.
    reasons = {
        name: reason
        for name, reason in rejection_reasons(request).items()
        if name not in payload_rejected
    }
    reasons.update(payload_rejected)
    detail = "; ".join(f"{n}: {r}" for n, r in sorted(reasons.items()))
    raise CapabilityError(f"no registered algorithm supports this request ({detail})")
