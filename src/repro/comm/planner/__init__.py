"""Cost-model-driven auto-tuning planner.

Serves the ``"cost"`` auto-selection mode (the registry imports this
package on the mode's first use): instead of the static
priority ladder, ``algorithm="auto"`` requests with
``params["auto_mode"] = "cost"`` are priced by a fitted alpha-beta +
congestion model (:mod:`repro.comm.planner.model`) and the cheapest
candidate wins, with its chunking knobs tuned to the request size
(written back into ``request.params`` so they key the plan cache).

Scope: the cost mode ranks the algorithms its model prices — ring,
swing, butterfly and flare_dense for dense requests; sparcml and
flare_sparse for sparse ones.  Every algorithm issues onto the shared
fabric, but the model has no price for ``flare_switch`` and
``flare_switch_sparse`` (trees whose switches the PsPIN simulation
prices), so neither is ranked; when only unranked candidates survive
capability matching the cost mode falls back to the static priority
order unchanged.

The congestion input comes from ``params["congestion"]`` — a small
quantized level the :class:`~repro.comm.planner.tuner.OnlineTuner`
derives from live fabric telemetry between issues (fabric-attached
communicators wire this automatically under ``auto_mode="cost"``).

Offline calibration (:mod:`repro.comm.planner.calibrate`, CLI
``python -m repro planner fit``) fits the model's coefficients against
the event-driven simulator and commits them as ``coefficients.json``.
"""

from __future__ import annotations

import math

from repro.comm.registry import AlgorithmEntry
from repro.comm.request import CollectiveRequest
from repro.comm.planner.model import (
    FEATURES,
    CoefficientsError,
    PlannerModel,
    default_model,
    load_coefficients,
    reset_default_model,
)
from repro.comm.planner.tuner import OnlineTuner, congestion_level

_KIB = 1024


def _pow2_clamp(value: float, lo: int, hi: int) -> int:
    """Nearest power of two, clamped — quantized so tuned knobs do not
    churn the plan-cache key between near-identical requests."""
    value = max(lo, min(hi, value))
    return 1 << int(round(math.log2(max(1.0, value))))


def tune_knobs(algorithm: str, request: CollectiveRequest) -> None:
    """Write size-matched chunking knobs into ``request.params``.

    Explicit user knobs are never overridden.  Targets: ~4 sub-chunks
    per step message for the host schedules (enough intra-step
    pipelining over multi-hop paths without per-event overhead), ~16
    pipelined chunks through the aggregation tree for flare_dense.
    """
    p = request.params
    Z = float(request.nbytes)
    P = max(2, request.n_hosts)
    if algorithm == "ring" and "sub_chunk_bytes" not in p:
        p["sub_chunk_bytes"] = _pow2_clamp(Z / (4 * P), 4 * _KIB, 256 * _KIB)
    elif algorithm in ("swing", "butterfly") and "sub_chunk_bytes" not in p:
        p["sub_chunk_bytes"] = _pow2_clamp(Z / 8, 4 * _KIB, 256 * _KIB)
    elif algorithm == "flare_dense" and "chunk_bytes" not in p:
        p["chunk_bytes"] = _pow2_clamp(Z / 16, 64 * _KIB, 4096 * _KIB)


def cost_select(
    request: CollectiveRequest, candidates: list[AlgorithmEntry]
) -> AlgorithmEntry:
    """The ``auto_mode="cost"`` selector.

    Ranks the candidates the model prices by modeled cost (congestion-
    adjusted), tunes the winner's knobs, and records the decision in
    ``params["planned_costs"]``-free form (the plan setup carries the
    knobs).  Falls back to the static pick when no candidate is
    priceable (e.g. only the switch-level backends survived).
    """
    congestion = float(request.params.get("congestion", 0) or 0)
    model = default_model()
    ranked = model.rank([e.name for e in candidates], request, congestion)
    if not ranked:
        return candidates[0]          # static fallback: nothing priceable
    best_name = ranked[0][1]
    tune_knobs(best_name, request)
    by_name = {e.name: e for e in candidates}
    return by_name[best_name]


def note_congestion(request: CollectiveRequest, fabric) -> None:
    """Online re-tuning: fold ``fabric``'s live load regime into a
    cost-mode request's contention term (``params["congestion"]``,
    unless the caller set one).  The level is quantized (see
    :mod:`~repro.comm.planner.tuner`), so the plan-cache key only
    changes when the regime does."""
    p = request.params
    if "congestion" not in p:
        p["congestion"] = congestion_level(fabric)


__all__ = [
    "CoefficientsError",
    "FEATURES",
    "OnlineTuner",
    "PlannerModel",
    "congestion_level",
    "cost_select",
    "default_model",
    "load_coefficients",
    "reset_default_model",
    "tune_knobs",
]
