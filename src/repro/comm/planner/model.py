"""Closed-form per-algorithm cost model with fitted coefficients.

The planner prices each candidate algorithm with an alpha-beta form
augmented by a congestion term::

    cost_ns = a * f_alpha(P) * alpha
            + b * (f_beta(P, Z, density) / beta) * (1 + g * congestion)
            + c

``f_alpha`` counts latency-bearing steps and ``f_beta`` the per-host
byte volume each algorithm's schedule moves — textbook quantities the
simulator does not need to run to produce.  The coefficients ``(a, b,
c, g)`` are *fitted offline* against the event-driven simulator by
:mod:`repro.comm.planner.calibrate` and committed as
``coefficients.json``: ``a``/``b`` absorb everything the closed form
elides (multi-hop path lengths, pipelining efficiency, per-family
path overlap — Swing's torus advantage is a smaller fitted ``b``
there), ``c`` the fixed per-collective overhead, and ``g`` how much
of the schedule's byte volume contends with co-running tenants
(fitted from multi-tenant overlap runs).

Coefficients are keyed per ``(algorithm, topology-family)`` with an
``"*"`` family fallback; algorithms without a feature model price as
``None`` and are skipped by the cost selector.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

from repro.comm.request import CollectiveRequest
from repro.utils.units import gbps_to_bytes_per_ns

#: Shipped coefficients, fitted by ``python -m repro planner fit``.
DEFAULT_COEFFICIENTS_PATH = Path(__file__).with_name("coefficients.json")

#: Neutral coefficients: pure (unscaled) alpha-beta, no congestion
#: sensitivity.  Used for any (algorithm, family) pair the fit did not
#: cover.
NEUTRAL = {"a": 1.0, "b": 1.0, "c": 0.0, "g": 0.0}


def _log2(n: int) -> float:
    return math.log2(max(2, n))


def _features_ring(request: CollectiveRequest) -> tuple[float, float]:
    P, Z = request.n_hosts, float(request.nbytes)
    return 2.0 * (P - 1), 2.0 * Z * (P - 1) / P


def _features_halving(request: CollectiveRequest) -> tuple[float, float]:
    P, Z = request.n_hosts, float(request.nbytes)
    return 2.0 * _log2(P), 2.0 * Z * (P - 1) / P


def _features_flare_dense(request: CollectiveRequest) -> tuple[float, float]:
    # Each host sends Z up the tree once and receives Z back; chunks
    # pipeline, so depth contributes latency, not serialization.
    P, Z = request.n_hosts, float(request.nbytes)
    return _log2(P) + 1.0, Z


def _features_sparcml(request: CollectiveRequest) -> tuple[float, float]:
    P, Z = request.n_hosts, float(request.nbytes)
    return 2.0 * _log2(P), 2.0 * Z * request.density


def _features_flare_sparse(request: CollectiveRequest) -> tuple[float, float]:
    P, Z = request.n_hosts, float(request.nbytes)
    return _log2(P) + 1.0, Z * request.density


#: algorithm -> (f_alpha, f_beta) feature extractor.  Only these
#: algorithms are priceable; the cost selector skips the rest.
FEATURES = {
    "ring": _features_ring,
    "swing": _features_halving,
    "butterfly": _features_halving,
    "flare_dense": _features_flare_dense,
    "sparcml": _features_sparcml,
    "flare_sparse": _features_flare_sparse,
}


def link_model(request: CollectiveRequest) -> tuple[float, float]:
    """(alpha ns, beta bytes/ns) of the links the request's wiring
    resolves to."""
    gbps, latency_ns = request.wiring.links()
    return latency_ns, gbps_to_bytes_per_ns(gbps)


class PlannerModel:
    """Coefficient table + prediction.

    ``coefficients`` maps ``algorithm -> {family_or_star -> {a,b,c,g}}``;
    ``None`` loads the committed ``coefficients.json``.
    """

    def __init__(self, coefficients: Optional[dict] = None) -> None:
        if coefficients is None:
            coefficients = load_coefficients()
        self.coefficients = coefficients

    # ------------------------------------------------------------------
    def coeffs(self, algorithm: str, family: str) -> dict:
        table = self.coefficients.get(algorithm, {})
        entry = table.get(family) or table.get("*") or NEUTRAL
        return {**NEUTRAL, **entry}

    def predict(
        self,
        algorithm: str,
        request: CollectiveRequest,
        congestion: float = 0.0,
    ) -> Optional[float]:
        """Modeled completion time in ns, or ``None`` if unpriceable."""
        features = FEATURES.get(algorithm)
        if features is None:
            return None
        f_alpha, f_beta = features(request)
        alpha, beta = link_model(request)
        k = self.coeffs(algorithm, request.wiring.family)
        return (
            k["a"] * f_alpha * alpha
            + k["b"] * (f_beta / beta) * (1.0 + k["g"] * max(0.0, congestion))
            + k["c"]
        )

    def rank(
        self,
        algorithms: list[str],
        request: CollectiveRequest,
        congestion: float = 0.0,
    ) -> list[tuple[float, str]]:
        """Priceable algorithms as sorted (cost, name) pairs."""
        scored = []
        for name in algorithms:
            cost = self.predict(name, request, congestion)
            if cost is not None:
                scored.append((cost, name))
        scored.sort()
        return scored


class CoefficientsError(ValueError):
    """A cost-model coefficients file is missing or unreadable."""


def load_coefficients(path: Optional[Path] = None) -> dict:
    """Read a coefficients JSON; a missing or unreadable file raises
    :class:`CoefficientsError` naming it."""
    path = Path(path) if path is not None else DEFAULT_COEFFICIENTS_PATH
    try:
        coefficients = json.loads(path.read_text())["coefficients"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CoefficientsError(
            f"cannot read cost-model coefficients from {path}: {exc!r}"
        ) from None
    if not isinstance(coefficients, dict):
        raise CoefficientsError(f"{path}: 'coefficients' is not a table")
    return coefficients


_DEFAULT_MODEL: Optional[PlannerModel] = None


def default_model() -> PlannerModel:
    """Process-wide model over the committed coefficients (cached)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = PlannerModel()
    return _DEFAULT_MODEL


def reset_default_model() -> None:
    """Drop the cached model (tests, or after refitting on disk)."""
    global _DEFAULT_MODEL
    _DEFAULT_MODEL = None
