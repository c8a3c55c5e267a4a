"""Smoke test of the performance ledger at ``--scale smoke``.

Runs every workload through the real child-process pipeline (one rep,
one traced rep) and checks the ledger's own contract: metric names,
the self-time identity of the trace, seed determinism of the simulated
metrics, and the comparator's row labels.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SEED = 7


def _ledger(path: Path, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--reps", "1",
         "--seed", str(SEED), "--out", str(path), *extra],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return _ledger(tmp / "a.json"), _ledger(tmp / "b.json", "--trace", "0")


def test_metric_names_match_benchmark_json(ledgers, spec):
    traced, _ = ledgers
    assert list(traced["workloads"]) == [w["name"] for w in spec["workloads"]]
    for res in traced["workloads"].values():
        assert res["failed"] == 0
        assert list(res["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert sorted(res["per_layer"]) == sorted(m["name"] for m in spec["per_layer"])
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def test_self_times_add_up_to_traced_host_time(ledgers):
    for name, res in ledgers[0]["workloads"].items():
        total = sum(layer["self_s"] for layer in res["layers"].values())
        assert total == pytest.approx(res["traced_host_s"], rel=0.01), name
        assert res["per_layer"]["bench.self_s"] == res["layers"]["bench"]["self_s"]


def test_same_seed_gives_identical_sim_metrics(ledgers):
    a, b = ledgers
    for name in a["workloads"]:
        for metric, value in a["workloads"][name]["end_to_end"].items():
            if metric.startswith("sim_"):
                assert b["workloads"][name]["end_to_end"][metric]["median"] == value["median"]


def test_seed_changes_generated_inputs():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, inputs_digest

    for w in WORKLOADS.values():
        first = inputs_digest(w.inputs(SEED, "smoke"))
        assert first == inputs_digest(w.inputs(SEED, "smoke")), w.name
        assert first != inputs_digest(w.inputs(SEED + 1, "smoke")), w.name


def test_comparator_labels():
    sys.path.insert(0, str(HERE))
    from run import label

    def row(*samples):
        s = sorted(samples)
        return {"median": s[len(s) // 2], "q1": s[0], "q3": s[-1], "samples": list(s)}

    assert label(row(100, 101, 102), row(100, 101, 102), 0.1, "higher", False) == "unchanged"
    assert label(row(100, 101, 102), row(80, 81, 82), 0.1, "higher", False) == "regressed"
    assert label(row(100, 101, 102), row(130, 131, 132), 0.1, "higher", False) == "improved"
    assert label(row(50, 100, 150), row(60, 101, 140), 0.1, "higher", False) == "unresolved"
    assert label(row(5.0), row(5.0 * (1 + 1e-12)), 0.1, "lower", True) == "unchanged"
    assert label(row(5.0), row(5.001), 0.1, "lower", True) == "regressed"
