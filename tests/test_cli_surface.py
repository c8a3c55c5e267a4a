"""The ``flare-repro`` option surface, pinned: every option string,
``dest``, default and choice of ``bench``, ``service``, ``prov
list|show|diff`` and ``planner bench``, so a flag cannot drift or
vanish; and one-tenant ``bench`` runs that set a fabric-only flag."""

import argparse

import pytest

from repro.__main__ import build_parser, main
from repro.comm.fabric import TIMELINE_SCHEMA_VERSION, load_timeline

#: Stands for the ``--routing`` choices: every registered router.
ROUTERS = "every registered router"

#: The flags ``bench`` and ``service`` share, declared once.
SHARED = {
    "seed": (("--seed",), 0, None),
    "topology": (("--topology",), None, None),
    "topo_params": (("--topo-params",), None, None),
    "routing": (("--routing",), None, ROUTERS),
    "timeline_out": (("--timeline-out",), None, None),
    "faults": (("--faults",), None, None),
    "fault_seed": (("--fault-seed",), None, None),
    "max_retransmits": (("--max-retransmits",), None, None),
    "ack_timeout": (("--ack-timeout",), None, None),
    "provenance_db": (("--provenance-db",), None, None),
}

#: dest -> (option strings, default, choices), per subcommand.
SURFACE = {
    "bench": {
        **SHARED,
        "algorithm": ((), None, None),
        "size": (("--size",), "64KiB", None),
        "hosts": (("--hosts",), 16, None),
        "clusters": (("--clusters",), 2, None),
        "op": (("--op",), "sum", ("sum", "min", "max", "prod")),
        "sparse": (("--sparse",), False, None),
        "density": (("--density",), None, None),
        "reproducible": (("--reproducible",), False, None),
        "repeat": (("--repeat",), 3, None),
        "auto_mode": (("--auto-mode",), None, ("static", "cost")),
        "tenants": (("--tenants",), 1, None),
        "overlap": (("--overlap",), False, None),
        "weights": (("--weights",), None, None),
        "perf_json": (("--perf-json",), None, None),
    },
    "service": {
        **SHARED,
        "trace": (("--trace",), None, None),
        "duration": (("--duration",), "5ms", None),
        "tenant_class": (("--class",), None, None),
        "placement": (("--placement",), "pack", ("pack", "spread")),
        "queue": (("--queue",), "wfq", ("wfq", "fifo")),
        "hosts": (("--hosts",), 32, None),
        "max_per_switch": (("--max-per-switch",), 8, None),
        "switch_memory": (("--switch-memory",), None, None),
        "quota": (("--quota",), None, None),
        "snapshot_interval": (("--snapshot-interval",), None, None),
        "slo_out": (("--slo-out",), None, None),
        "checkpoint": (("--checkpoint",), None, None),
        "resume": (("--resume",), False, None),
        "kill_at": (("--kill-at",), None, None),
    },
    "prov list": {
        "db": (("--db",), "provenance.db", None),
    },
    "prov show": {
        "run": ((), None, None),
        "db": (("--db",), "provenance.db", None),
        "json": (("--json",), False, None),
    },
    "prov diff": {
        "run_a": ((), None, None),
        "run_b": ((), None, None),
        "db": (("--db",), "provenance.db", None),
        "json": (("--json",), False, None),
    },
    "planner bench": {
        "hosts": (("--hosts",), 16, None),
        "out": (("--out",), None, None),
        "no_check": (("--no-check",), False, None),
    },
}


def _subparser(parser: argparse.ArgumentParser, path: str):
    for name in path.split():
        [subs] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parser = subs.choices[name]
    return parser


@pytest.mark.parametrize("path", sorted(SURFACE))
def test_option_surface_is_pinned(path):
    from repro.network import available_routers

    parser, _ = build_parser()
    got = {
        a.dest: (tuple(a.option_strings), a.default,
                 None if a.choices is None else tuple(a.choices))
        for a in _subparser(parser, path)._actions
        if a.dest != "help"
    }
    want = {
        dest: (opts, default,
               tuple(available_routers()) if choices == ROUTERS else choices)
        for dest, (opts, default, choices) in SURFACE[path].items()
    }
    assert got == want


def test_fabric_only_flags_are_the_shared_fabric_group():
    _, fabric_only = build_parser()
    assert set(fabric_only) == set(SHARED) - {
        "seed", "topology", "topo_params", "routing",
    }


def test_one_tenant_timeline_out_writes_the_timeline(tmp_path, capsys):
    path = tmp_path / "solo.json"
    assert main(["bench", "ring", "--size", "64KiB", "--hosts", "8",
                 "--repeat", "1", "--timeline-out", str(path)]) == 0
    assert f"[timeline written to {path}]" in capsys.readouterr().out
    timeline = load_timeline(str(path))
    assert timeline["schema_version"] == TIMELINE_SCHEMA_VERSION == 3
    [event] = timeline["events"]
    assert event["algorithm"] == "ring" and event["status"] == "done"


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--weights", "banana"],
                 "--weights must be comma-separated numbers", id="weights"),
    pytest.param(["--ack-timeout", "banana"], "BANANA", id="ack-timeout"),
])
def test_one_tenant_fabric_flag_is_checked(capsys, argv, message):
    assert main(["bench", "ring", "--hosts", "8", "--repeat", "1", *argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err
