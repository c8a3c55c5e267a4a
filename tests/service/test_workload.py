"""Workload sources: seeded Poisson arrivals and JSON trace replay."""

import json

import pytest

from repro.service import (
    TRACE_SCHEMA_VERSION,
    PoissonWorkload,
    TenantClass,
    TraceWorkload,
)


def _two_classes():
    return [
        TenantClass("prod", weight=4.0, rate_per_s=2000.0, n_hosts=8),
        TenantClass("batch", weight=1.0, rate_per_s=500.0, n_hosts=8),
    ]


# ----------------------------------------------------------------------
# Poisson arrivals
# ----------------------------------------------------------------------
def test_poisson_is_deterministic_per_seed():
    a = PoissonWorkload(_two_classes(), seed=7, duration_ns=5e6).jobs()
    b = PoissonWorkload(_two_classes(), seed=7, duration_ns=5e6).jobs()
    assert [(j.arrival_ns, j.tenant_class) for j in a] == [
        (j.arrival_ns, j.tenant_class) for j in b
    ]
    c = PoissonWorkload(_two_classes(), seed=8, duration_ns=5e6).jobs()
    assert [(j.arrival_ns, j.tenant_class) for j in a] != [
        (j.arrival_ns, j.tenant_class) for j in c
    ]


def test_poisson_arrivals_sorted_and_bounded():
    jobs = PoissonWorkload(_two_classes(), seed=3, duration_ns=5e6).jobs()
    times = [j.arrival_ns for j in jobs]
    assert times == sorted(times)
    assert all(0 < t <= 5e6 for t in times)
    assert [j.job_id for j in jobs] == list(range(len(jobs)))


def test_poisson_class_streams_are_independent():
    # Dropping one class must not perturb the other's arrival times
    # (each class draws from its own child_rng stream).
    both = PoissonWorkload(_two_classes(), seed=7, duration_ns=5e6).jobs()
    prod_only = PoissonWorkload(
        [_two_classes()[0]], seed=7, duration_ns=5e6
    ).jobs()
    assert [j.arrival_ns for j in both if j.tenant_class == "prod"] == [
        j.arrival_ns for j in prod_only
    ]


def test_poisson_rate_roughly_matches():
    jobs = PoissonWorkload(
        [TenantClass("t", rate_per_s=1000.0)], seed=0, duration_ns=1e9
    ).jobs()
    assert 850 <= len(jobs) <= 1150      # ~1000 expected, wide tolerance


def test_poisson_jobs_carry_class_shape():
    cls = TenantClass(
        "t", nbytes=2048.0, n_hosts=4, iterations=3, gap_ns=5_000.0,
        algorithm="ring", dtype="float16",
    )
    job = PoissonWorkload([cls], seed=0, duration_ns=1e7).jobs()[0]
    assert (job.nbytes, job.n_hosts, job.iterations) == (2048.0, 4, 3)
    assert (job.gap_ns, job.algorithm, job.dtype) == (5_000.0, "ring", "float16")


def test_tenant_class_validation():
    with pytest.raises(ValueError, match="weight"):
        TenantClass("t", weight=0.0)
    with pytest.raises(ValueError, match="iterations"):
        TenantClass("t", iterations=0)
    with pytest.raises(ValueError, match="tenant class"):
        PoissonWorkload([])


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def _trace():
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "classes": {"prod": {"weight": 4.0}},
        "jobs": [
            {"tenant": "batch", "arrival": "200us", "size": "8MiB",
             "gap": "100us", "iterations": 3, "n_hosts": 8},
            {"tenant": "prod", "arrival": "50us", "size": "1MiB",
             "algorithm": "flare_dense", "iterations": 2},
        ],
    }


def test_trace_parses_units_and_sorts_arrivals():
    wl = TraceWorkload(_trace())
    jobs = wl.jobs()
    assert [j.tenant_class for j in jobs] == ["prod", "batch"]
    assert jobs[0].arrival_ns == 50_000.0
    assert jobs[1].arrival_ns == 200_000.0
    assert jobs[1].nbytes == 8 * 1024 * 1024
    assert jobs[1].gap_ns == 100_000.0
    assert jobs[0].n_hosts is None          # omitted -> whole fabric
    assert wl.duration_ns == 200_000.0


def test_trace_classes_include_unlisted_tenants():
    wl = TraceWorkload(_trace())
    assert wl.classes["prod"].weight == 4.0
    assert wl.classes["batch"].weight == 1.0   # default for unlisted


def test_trace_rejects_wrong_schema_version():
    bad = _trace()
    bad["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        TraceWorkload(bad)
    del bad["schema_version"]
    bad["schema_version"] = None
    with pytest.raises(ValueError, match="schema_version"):
        TraceWorkload(bad)


def test_trace_rejects_empty_jobs():
    with pytest.raises(ValueError, match="no jobs"):
        TraceWorkload({"schema_version": TRACE_SCHEMA_VERSION, "jobs": []})


def test_trace_reads_files(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(_trace()))
    assert len(TraceWorkload(str(path)).jobs()) == 2


def test_trace_jobs_returns_fresh_copies():
    wl = TraceWorkload(_trace())
    first = wl.jobs()
    first[0].iterations_done = 99
    first[0].queue_waits_ns.append(1.0)
    second = wl.jobs()
    assert second[0].iterations_done == 0
    assert second[0].queue_waits_ns == []


def test_example_trace_file_parses():
    from pathlib import Path

    trace = (
        Path(__file__).resolve().parents[2]
        / "examples" / "traces" / "training_epochs.json"
    )
    wl = TraceWorkload(str(trace))
    jobs = wl.jobs()
    assert len(jobs) == 6
    assert wl.classes["prod"].weight == 4.0
    assert {j.tenant_class for j in jobs} == {"prod", "batch"}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("iterations", 0, "iterations must be an integer >= 1"),
        ("iterations", -1, "iterations must be an integer >= 1"),
        ("iterations", 2.5, "iterations must be an integer >= 1"),
        ("iterations", "4", "iterations must be an integer >= 1"),
        ("iterations", True, "iterations must be an integer >= 1"),
        ("arrival", -5, "arrival must be a finite time >= 0"),
        ("arrival", "-5us", "arrival must be a finite time >= 0"),
        ("arrival", float("nan"), "arrival must be a finite time >= 0"),
        ("arrival", "inf", "arrival must be a finite time >= 0"),
        ("arrival", "soon", "arrival must be a finite time >= 0"),
        ("gap", -5, "gap must be a finite time >= 0"),
        ("gap", "-5us", "gap must be a finite time >= 0"),
        ("gap", float("inf"), "gap must be a finite time >= 0"),
        ("gap", "nanus", "gap must be a finite time >= 0"),
    ],
)
def test_trace_rejects_jobs_that_cannot_run(field, value, message):
    # Each of these used to load: 0 or -1 iterations ran one, 2.5 ran
    # two, and a negative, NaN or infinite time failed only mid-run.
    bad = _trace()
    bad["jobs"][1][field] = value
    with pytest.raises(ValueError, match=rf"trace job 1 \(tenant 'prod'\): {message}"):
        TraceWorkload(bad)


def test_trace_accepts_zero_times_and_one_iteration():
    trace = _trace()
    trace["jobs"][1].update(arrival=0, gap="0us", iterations=1)
    job = TraceWorkload(trace).jobs()[0]
    assert (job.arrival_ns, job.gap_ns, job.iterations) == (0.0, 0.0, 1)
