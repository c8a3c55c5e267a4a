"""Workload generation for the long-running fabric service.

Two sources feed :class:`repro.service.engine.FabricService` with
training jobs:

* :class:`PoissonWorkload` — open-loop seeded Poisson arrivals per
  tenant class (the classic service-evaluation arrival process);
* :class:`TraceWorkload` — deterministic replay of a JSON trace of
  training-job epochs.

Both produce the same :class:`Job` records: a job is one training
tenant's run — ``iterations`` allreduces of ``nbytes`` each, separated
by an ``gap_ns`` inter-iteration compute gap — annotated with the QoS
class it bills to and an algorithm hint for the planner.

Every random draw comes from :func:`repro.utils.rngtools.child_rng`
streams keyed by purpose and class name, so arrival processes never
share a stream with fault schedules or payload fills: adding a draw to
one component cannot perturb any other (process-stable splitting).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.utils.rngtools import child_rng
from repro.utils.units import parse_size, parse_time_ns

#: Version of the trace-file schema :class:`TraceWorkload` reads (and
#: the example under ``examples/traces/``).  Bump on field changes.
TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TenantClass:
    """One QoS class of tenants sharing a weight and job shape.

    ``rate_per_s`` is the Poisson arrival rate (jobs per simulated
    second); the remaining fields describe the job every arrival of
    this class runs.  ``n_hosts=None`` means every job spans the full
    fabric (no placement — the single-tenant-identical path).
    """

    name: str
    weight: float = 1.0
    rate_per_s: float = 100.0
    nbytes: float = 1024 * 1024
    n_hosts: Optional[int] = None
    iterations: int = 4
    gap_ns: float = 20_000.0
    algorithm: str = "auto"
    dtype: str = "float32"
    sparse: bool = False
    density: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r}: weight must be positive")
        if self.iterations < 1:
            raise ValueError(f"class {self.name!r}: iterations must be >= 1")


@dataclass
class Job:
    """One training job: a tenant running ``iterations`` allreduces."""

    job_id: int
    tenant_class: str
    arrival_ns: float
    nbytes: float
    n_hosts: Optional[int]
    iterations: int
    gap_ns: float
    algorithm: str = "auto"
    dtype: str = "float32"
    sparse: bool = False
    density: float = 1.0
    #: Filled by the scheduler at arrival: the placed host subset
    #: (None = whole fabric).
    hosts: Optional[tuple] = None
    #: Engine progress state.
    iterations_done: int = 0
    status: str = "pending"         # pending | running | queued | done
    queue_waits_ns: list = field(default_factory=list)
    iteration_times_ns: list = field(default_factory=list)
    first_issue_ns: Optional[float] = None
    finish_ns: Optional[float] = None


class PoissonWorkload:
    """Seeded open-loop Poisson arrivals for a set of tenant classes.

    Arrivals for each class are drawn from an independent
    ``child_rng(seed, "arrivals", class_name)`` stream: exponential
    inter-arrival gaps at ``rate_per_s``, truncated at ``duration_ns``.
    The full arrival sequence is materialized up front (it is part of
    the experiment's identity), sorted by time with job id as the
    deterministic tie-break.
    """

    def __init__(
        self,
        classes: Iterable[TenantClass],
        *,
        seed: int = 0,
        duration_ns: float = 1e9,
    ) -> None:
        self.classes = {c.name: c for c in classes}
        if len(self.classes) < 1:
            raise ValueError("need at least one tenant class")
        self.seed = seed
        self.duration_ns = float(duration_ns)

    def jobs(self) -> list[Job]:
        arrivals: list[tuple[float, str]] = []
        for name, cls in sorted(self.classes.items()):
            rng = child_rng(self.seed, "arrivals", name)
            mean_gap_ns = 1e9 / cls.rate_per_s
            t = 0.0
            while True:
                t += rng.exponential(mean_gap_ns)
                if t > self.duration_ns:
                    break
                arrivals.append((t, name))
        arrivals.sort()
        out: list[Job] = []
        for job_id, (t, name) in enumerate(arrivals):
            cls = self.classes[name]
            out.append(
                Job(
                    job_id=job_id,
                    tenant_class=name,
                    arrival_ns=t,
                    nbytes=float(cls.nbytes),
                    n_hosts=cls.n_hosts,
                    iterations=cls.iterations,
                    gap_ns=cls.gap_ns,
                    algorithm=cls.algorithm,
                    dtype=cls.dtype,
                    sparse=cls.sparse,
                    density=cls.density,
                )
            )
        return out


def _check_job(index: int, j: dict) -> None:
    """Reject a trace job that could not run as written."""
    name = f"trace job {index} (tenant {j.get('tenant')!r})"
    iterations = j.get("iterations", 1)
    if type(iterations) is not int or iterations < 1:
        raise ValueError(
            f"{name}: iterations must be an integer >= 1, got {iterations!r}"
        )
    for field in ("arrival", "gap"):
        raw = j.get(field, 0)
        try:
            value = parse_time_ns(raw)
        except (TypeError, ValueError):
            value = math.nan
        if not 0 <= value < math.inf:       # also rejects nan
            raise ValueError(
                f"{name}: {field} must be a finite time >= 0, got {raw!r}"
            )


class TraceWorkload:
    """Deterministic replay of a JSON trace of training-job epochs.

    Trace schema (``schema_version`` 1)::

        {
          "schema_version": 1,
          "classes": {"prod": {"weight": 4.0}, "batch": {"weight": 1.0}},
          "jobs": [
            {"tenant": "prod", "arrival": "0us", "size": "4MiB",
             "dtype": "float32", "algorithm": "flare_dense",
             "gap": "50us", "iterations": 8, "n_hosts": 8}
          ]
        }

    ``arrival`` and ``gap`` take the time syntax of
    :func:`repro.utils.units.parse_time_ns` (``"50us"``, ``"1ms"``,
    bare ns numbers); ``size`` takes
    :func:`repro.utils.units.parse_size` (``"4MiB"``); ``algorithm``
    is a hint for the planner (``"auto"`` lets capability-based
    selection pick).  A job's ``tenant`` must name an entry of
    ``classes`` (weights default to 1.0 for unlisted classes).
    ``iterations`` must be an integer >= 1, and ``arrival`` and ``gap``
    finite and >= 0; a job that breaks this raises ``ValueError`` at
    load, naming the job (its index in ``jobs``) and the field.
    """

    def __init__(self, source) -> None:
        if isinstance(source, (str, bytes)):
            with open(source) as fh:
                spec = json.load(fh)
        else:
            spec = dict(source)
        version = spec.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"trace schema_version {version!r} unsupported; this "
                f"reader speaks version {TRACE_SCHEMA_VERSION}"
            )
        raw_jobs = spec.get("jobs")
        if not raw_jobs:
            raise ValueError("trace lists no jobs")
        for index, j in enumerate(raw_jobs):
            _check_job(index, j)
        class_spec = spec.get("classes") or {}
        names = {j["tenant"] for j in raw_jobs} | set(class_spec)
        self.classes = {
            name: TenantClass(
                name=name,
                weight=float(class_spec.get(name, {}).get("weight", 1.0)),
            )
            for name in sorted(names)
        }
        self._jobs: list[Job] = []
        records = sorted(
            raw_jobs, key=lambda j: (parse_time_ns(j.get("arrival", 0)),)
        )
        for job_id, j in enumerate(records):
            self._jobs.append(
                Job(
                    job_id=job_id,
                    tenant_class=j["tenant"],
                    arrival_ns=parse_time_ns(j.get("arrival", 0)),
                    nbytes=float(parse_size(j.get("size", "1MiB"))),
                    n_hosts=j.get("n_hosts"),
                    iterations=j.get("iterations", 1),
                    gap_ns=parse_time_ns(j.get("gap", 0)),
                    algorithm=j.get("algorithm", "auto"),
                    dtype=j.get("dtype", "float32"),
                    sparse=bool(j.get("sparse", False)),
                    density=float(j.get("density", 1.0)),
                )
            )
        self.duration_ns = max(j.arrival_ns for j in self._jobs)

    def jobs(self) -> list[Job]:
        return [
            Job(**{
                k: list(v) if isinstance(v, list) else v
                for k, v in vars(j).items()
            })
            for j in self._jobs
        ]
