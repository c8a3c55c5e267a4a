"""Offline calibration of the planner's cost model.

Runs the event-driven simulator over a small (family × size × hosts)
grid for every priceable algorithm, then least-squares fits the
``(a, b, c)`` coefficients of the closed form in
:mod:`repro.comm.planner.model` per (algorithm, family), and the
congestion coefficient ``g`` from multi-tenant overlap runs on a
shared fabric.  The fitted table is committed as
``coefficients.json`` next to the model (CLI:
``python -m repro planner fit``), so ``auto_mode="cost"`` never pays
simulation time at selection.

Everything here is deterministic — the simulator is seeded and the
grid is fixed — so refitting on an unchanged simulator reproduces the
committed coefficients.  CI's ``planner-smoke`` job refits and fails
when any coefficient differs from the committed one by more than 1e-6
relative: a simulator change that moves the fit commits the refit.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.fabric import Fabric
from repro.comm.future import wait_all
from repro.comm.planner.model import (
    DEFAULT_COEFFICIENTS_PATH,
    FEATURES,
    link_model,
    reset_default_model,
)
from repro.comm.registry import get_algorithm
from repro.comm.request import CollectiveRequest
from repro.utils.units import parse_size

#: The default calibration grid.  Small enough for CI's planner-smoke
#: job, wide enough to identify three coefficients per (algorithm,
#: family) pair from six (dense) or twelve (sparse) observations.
FAMILIES = ("fat-tree", "dragonfly", "torus")
SIZES = ("64KiB", "256KiB", "1MiB", "4MiB", "16MiB")
HOSTS = (8, 16)
DENSE_ALGORITHMS = ("ring", "swing", "butterfly", "flare_dense")
SPARSE_ALGORITHMS = ("sparcml", "flare_sparse")
SPARSE_DENSITIES = (0.1, 0.4)
CONGESTION_TENANTS = 4


def topology_params(family: str, n_hosts: int) -> dict:
    """Grid wiring for ``n_hosts`` (power of two, >= 8) per family."""
    if family == "fat-tree":
        return {"n_hosts": n_hosts, "hosts_per_leaf": 4, "n_spines": 2}
    if family == "dragonfly":
        return {
            "n_groups": 2,
            "routers_per_group": n_hosts // 4,
            "hosts_per_router": 2,
        }
    if family == "torus":
        switches = n_hosts // 2
        dim_x = 2
        while (dim_x * 2) * (dim_x * 2) <= switches:
            dim_x *= 2
        return {
            "dim_x": dim_x,
            "dim_y": switches // dim_x,
            "hosts_per_switch": 2,
        }
    raise ValueError(f"no grid wiring for family {family!r}")


def _grid_communicator(family: str, n_hosts: int) -> Communicator:
    return Communicator(
        n_hosts=n_hosts,
        topology=family,
        topology_params=topology_params(family, n_hosts),
    )


def _tuned_knobs(algorithm: str, family: str, n_hosts: int, nbytes) -> dict:
    """The chunking knobs ``auto_mode="cost"`` would deploy for this
    point.  Calibrating with them keeps the fitted slopes honest: the
    model prices exactly the configuration the planner will issue."""
    from repro.comm.planner import tune_knobs

    request = _point_request(family, n_hosts, nbytes)
    tune_knobs(algorithm, request)
    return {
        k: v
        for k, v in request.params.items()
        if k in ("sub_chunk_bytes", "chunk_bytes")
    }


def measure(
    algorithm: str,
    family: str,
    n_hosts: int,
    nbytes,
    *,
    sparse: bool = False,
    density: float = 1.0,
) -> float:
    """Simulated completion time (ns) for one solo grid point."""
    comm = _grid_communicator(family, n_hosts)
    result = comm.allreduce(
        nbytes,
        algorithm=algorithm,
        sparse=sparse,
        density=density,
        **_tuned_knobs(algorithm, family, n_hosts, nbytes),
    )
    return result.time_ns


def _point_request(
    family: str, n_hosts: int, nbytes, *, sparse: bool = False,
    density: float = 1.0,
) -> CollectiveRequest:
    return CollectiveRequest(
        nbytes=nbytes,
        n_hosts=n_hosts,
        sparse=sparse,
        density=density,
        params={
            "topology": family,
            "topology_params": topology_params(family, n_hosts),
        },
    )


def _nonneg_lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares with coefficients clamped non-negative.

    Negative a/b/c would price some request negative; instead of
    trusting extrapolation, drop the most-negative feature and refit
    (active-set flavor of NNLS, small enough here to be exact).
    """
    active = list(range(A.shape[1]))
    coef = np.zeros(A.shape[1])
    while active:
        sol, *_ = np.linalg.lstsq(A[:, active], y, rcond=None)
        if (sol >= -1e-12).all():
            coef[active] = np.maximum(sol, 0.0)
            return coef
        active.pop(int(np.argmin(sol)))
    return coef


def fit_point_set(
    algorithm: str,
    family: str,
    *,
    sizes=SIZES,
    hosts=HOSTS,
    sparse: bool = False,
    densities=SPARSE_DENSITIES,
) -> Optional[dict]:
    """Fit (a, b, c) for one (algorithm, family) pair; None if the
    algorithm cannot run anywhere on the grid (capability-rejected)."""
    features = FEATURES[algorithm]
    rows, targets = [], []
    density_grid = densities if sparse else (1.0,)
    for n_hosts in hosts:
        for size in sizes:
            for density in density_grid:
                request = _point_request(
                    family, n_hosts, size, sparse=sparse, density=density
                )
                if get_algorithm(algorithm).caps.rejects(request) is not None:
                    continue
                f_alpha, f_beta = features(request)
                alpha, beta = link_model(request)
                time_ns = measure(
                    algorithm, family, n_hosts, size,
                    sparse=sparse, density=density,
                )
                rows.append([f_alpha * alpha, f_beta / beta, 1.0])
                targets.append(time_ns)
    if len(rows) < 3:
        return None
    A = np.asarray(rows)
    y = np.asarray(targets)
    # Weight each observation by 1/target: minimize *relative* error.
    # Unweighted least squares is dominated by the largest sizes (their
    # residuals are thousands of times bigger in ns), which wrecks the
    # small-message end of the fit — exactly where algorithm choice
    # matters most.
    a, b, c = _nonneg_lstsq(A / y[:, None], np.ones_like(y))
    return {"a": float(a), "b": float(b), "c": float(c)}


def fit_congestion(
    algorithm: str,
    family: str,
    coeffs: dict,
    *,
    n_hosts: int = 8,
    nbytes="1MiB",
    tenants: int = CONGESTION_TENANTS,
    sparse: bool = False,
    density: float = 0.25,
) -> float:
    """Fit ``g`` from the overlap slowdown of ``tenants`` concurrent
    identical collectives on one shared fabric.

    The model says ``overlapped = solo + g * level * b * f_beta/beta``
    with ``level = tenants - 1`` (each co-runner is one congestion
    unit), so ``g`` falls out of one measured ratio.
    """
    kwargs = dict(sparse=sparse, density=density) if sparse else {}
    kwargs.update(_tuned_knobs(algorithm, family, n_hosts, nbytes))
    solo = measure(algorithm, family, n_hosts, nbytes, sparse=sparse,
                   density=density if sparse else 1.0)
    fabric = Fabric(
        topology=family,
        topology_params=topology_params(family, n_hosts),
        n_hosts=n_hosts,
    )
    comms = [fabric.communicator(name=f"cal{i}") for i in range(tenants)]
    futures = [
        c.iallreduce(nbytes, algorithm=algorithm, **kwargs) for c in comms
    ]
    wait_all(futures)
    overlapped = max(f.result().time_ns for f in futures)
    request = _point_request(
        family, n_hosts, nbytes, sparse=sparse,
        density=density if sparse else 1.0,
    )
    _, f_beta = FEATURES[algorithm](request)
    _, beta = link_model(request)
    beta_term = coeffs["b"] * f_beta / beta
    level = max(1, tenants - 1)
    if beta_term <= 0:
        return 0.0
    g = (overlapped - solo) / (level * beta_term)
    return float(min(10.0, max(0.0, g)))


def calibrate(
    *,
    families=FAMILIES,
    sizes=SIZES,
    hosts=HOSTS,
    congestion_tenants: int = CONGESTION_TENANTS,
    log=None,
) -> dict:
    """Fit the full coefficient table over the grid.

    Returns ``{algorithm: {family: {a, b, c, g}}}``.
    """
    say = log or (lambda *_: None)
    table: dict[str, dict] = {}
    jobs = [(alg, False) for alg in DENSE_ALGORITHMS]
    jobs += [(alg, True) for alg in SPARSE_ALGORITHMS]
    for algorithm, sparse in jobs:
        for family in families:
            coeffs = fit_point_set(
                algorithm, family, sizes=sizes, hosts=hosts, sparse=sparse
            )
            if coeffs is None:
                say(f"{algorithm}/{family}: no feasible grid points, skipped")
                continue
            coeffs["g"] = fit_congestion(
                algorithm,
                family,
                coeffs,
                n_hosts=min(hosts),
                nbytes=sizes[-1],
                tenants=congestion_tenants,
                sparse=sparse,
            )
            table.setdefault(algorithm, {})[family] = coeffs
            say(
                f"{algorithm}/{family}: a={coeffs['a']:.3g} "
                f"b={coeffs['b']:.3g} c={coeffs['c']:.3g} g={coeffs['g']:.3g}"
            )
    return table


def write_coefficients(
    table: dict,
    path: Optional[str] = None,
    *,
    grid: Optional[dict] = None,
) -> Path:
    """Serialize a fitted table (plus its grid provenance) to JSON and
    drop the cached default model so new lookups see the refit."""
    path = Path(path) if path is not None else DEFAULT_COEFFICIENTS_PATH
    payload = {
        "version": 1,
        "grid": grid
        or {
            "families": list(FAMILIES),
            "sizes": [int(parse_size(s)) for s in SIZES],
            "hosts": list(HOSTS),
            "congestion_tenants": CONGESTION_TENANTS,
        },
        "coefficients": table,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    reset_default_model()
    return path
