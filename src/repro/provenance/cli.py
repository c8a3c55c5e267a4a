"""``flare-repro prov`` — inspect and diff the provenance database.

Three subcommands over a :class:`~repro.provenance.store
.ProvenanceStore` file (``--db``, default ``provenance.db``):

* ``prov list`` — one line per recorded run (id, timestamp, git SHA,
  engine, algorithm, makespan, energy total).
* ``prov show <run>`` — full identity, per-switch and per-link counter
  tables, and the energy breakdown for one run; run ids accept unique
  prefixes.
* ``prov diff <run-a> <run-b>`` — compare two runs: makespan and
  energy deltas, counter-family deltas, and the hottest links by byte
  delta, with regressions (slower / more energy / more rejections)
  highlighted.  With no run arguments it diffs the two most recent
  runs, which is what the CI smoke job does after benching twice.

All output is plain text on stdout; ``--json`` switches ``show`` and
``diff`` to a machine-readable document for scripting.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.provenance.store import ProvenanceStore

#: Counter families where an *increase* is a regression worth flagging
#: (as opposed to e.g. bytes, which simply track workload size).
_REGRESSION_COUNTERS = {
    "admission_rejections",
    "deferred_arrivals",
    "stalled_admissions",
    "dropped_packets",
    "alloc_failures",
    "drops",
    "duplicates",
    "contention_wait_cycles",
    "queue_depth_peak",
}


def _fmt(value: float) -> str:
    if value != value or abs(value) >= 1e15:
        return str(value)
    if value == int(value) and abs(value) < 1e12:
        return f"{int(value):,}"
    return f"{value:,.4g}"


def _fmt_delta(a: float, b: float) -> str:
    delta = b - a
    sign = "+" if delta >= 0 else ""
    pct = ""
    if a:
        pct = f" ({sign}{100.0 * delta / a:.1f}%)"
    return f"{_fmt(a)} -> {_fmt(b)}  [{sign}{_fmt(delta)}{pct}]"


def _sum_family(table: dict) -> dict:
    """Collapse ``{entity: {counter: value}}`` to family totals."""
    out: dict[str, float] = {}
    for counters in table.values():
        for name, value in counters.items():
            out[name] = out.get(name, 0.0) + value
    return out


def _resolve(store: ProvenanceStore, run_id: str) -> dict:
    run = store.run(run_id)
    if run is None:
        raise SystemExit(f"prov: no run matching {run_id!r} in {store.path}")
    return run


def _run_line(store: ProvenanceStore, run: dict) -> str:
    energy = store.energy(run["run_id"]).get("run", {})
    sha = (run.get("git_sha") or "-")[:9]
    if run.get("git_dirty"):
        sha += "*"
    makespan = run.get("makespan_ns")
    total = energy.get("total_j")
    return (
        f"{run['run_id']}  {run.get('created_utc') or '-':20s} "
        f"{sha:10s} {run.get('arbitration') or '-'} "
        f"{(run.get('algorithm') or '-'):24.24s} "
        f"makespan={_fmt(makespan) if makespan is not None else '-':>14s}ns "
        f"energy={f'{total:.3f}J' if total is not None else '-'}"
        + (f"  [{run['label']}]" if run.get("label") else "")
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_list(store: ProvenanceStore, args) -> int:
    runs = store.runs()
    if not runs:
        print(f"prov: no runs recorded in {store.path}")
        return 0
    for run in runs:
        print(_run_line(store, run))
    return 0


def _show_doc(store: ProvenanceStore, run: dict) -> dict:
    run_id = run["run_id"]
    return {
        "run": {k: v for k, v in run.items() if k != "config_json"},
        "switch_counters": store.switch_counters(run_id),
        "link_counters": {
            f"{src}->{dst}": counters
            for (src, dst), counters in store.link_counters(run_id).items()
        },
        "energy": store.energy(run_id),
    }


def cmd_show(store: ProvenanceStore, args) -> int:
    run = _resolve(store, args.run)
    doc = _show_doc(store, run)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
        return 0
    print(_run_line(store, run))
    info = doc["run"]
    for key in ("seed", "routing", "topology_family", "n_hosts", "topology"):
        if info.get(key) is not None:
            print(f"  {key}: {info[key]}")
    for title, table in (
        ("switch counters", doc["switch_counters"]),
        ("link counters", doc["link_counters"]),
    ):
        if not table:
            continue
        print(f"  {title}:")
        for entity in sorted(table):
            parts = ", ".join(
                f"{name}={_fmt(value)}"
                for name, value in sorted(table[entity].items())
            )
            print(f"    {entity}: {parts}")
    if doc["energy"]:
        print("  energy:")
        for scope in sorted(doc["energy"]):
            parts = ", ".join(
                f"{name}={value:.6g}J"
                for name, value in sorted(doc["energy"][scope].items())
            )
            print(f"    {scope}: {parts}")
    return 0


def diff_runs(store: ProvenanceStore, id_a: str, id_b: str) -> dict:
    """The machine-readable diff document ``prov diff`` renders.

    Structure: run identities, makespan/energy deltas, per-family
    switch and link counter deltas, hottest links by byte delta, and a
    ``regressions`` list naming every flagged increase.
    """
    run_a, run_b = _resolve(store, id_a), _resolve(store, id_b)
    a, b = run_a["run_id"], run_b["run_id"]
    regressions: list[str] = []

    makespan = {
        "a": run_a.get("makespan_ns"),
        "b": run_b.get("makespan_ns"),
    }
    if makespan["a"] and makespan["b"] and makespan["b"] > makespan["a"]:
        regressions.append(
            f"makespan_ns: {_fmt_delta(makespan['a'], makespan['b'])}"
        )

    energy_a = store.energy(a).get("run", {})
    energy_b = store.energy(b).get("run", {})
    energy = {
        name: {"a": energy_a.get(name, 0.0), "b": energy_b.get(name, 0.0)}
        for name in sorted(set(energy_a) | set(energy_b))
    }
    total = energy.get("total_j")
    if total and total["b"] > total["a"]:
        regressions.append(f"total_j: {_fmt_delta(total['a'], total['b'])}")

    def family_diff(table_a: dict, table_b: dict) -> dict:
        fam_a, fam_b = _sum_family(table_a), _sum_family(table_b)
        out = {}
        for name in sorted(set(fam_a) | set(fam_b)):
            va, vb = fam_a.get(name, 0.0), fam_b.get(name, 0.0)
            out[name] = {"a": va, "b": vb}
            if name in _REGRESSION_COUNTERS and vb > va:
                regressions.append(f"{name}: {_fmt_delta(va, vb)}")
        return out

    links_a, links_b = store.link_counters(a), store.link_counters(b)
    hot = sorted(
        (
            (
                abs(
                    links_b.get(key, {}).get("bytes", 0.0)
                    - links_a.get(key, {}).get("bytes", 0.0)
                ),
                key,
            )
            for key in set(links_a) | set(links_b)
        ),
        reverse=True,
    )
    hot_links = [
        {
            "link": f"{key[0]}->{key[1]}",
            "bytes_a": links_a.get(key, {}).get("bytes", 0.0),
            "bytes_b": links_b.get(key, {}).get("bytes", 0.0),
        }
        for delta, key in hot[:8]
        if delta
    ]

    return {
        "a": {k: run_a.get(k) for k in (
            "run_id", "created_utc", "git_sha", "git_dirty", "seed",
            "arbitration", "routing", "algorithm", "label",
        )},
        "b": {k: run_b.get(k) for k in (
            "run_id", "created_utc", "git_sha", "git_dirty", "seed",
            "arbitration", "routing", "algorithm", "label",
        )},
        "makespan_ns": makespan,
        "energy": energy,
        "switch_counters": family_diff(
            store.switch_counters(a), store.switch_counters(b)
        ),
        "link_counters": family_diff(links_a, links_b),
        "hot_links": hot_links,
        "regressions": regressions,
    }


def cmd_diff(store: ProvenanceStore, args) -> int:
    id_a, id_b = args.run_a, args.run_b
    if id_a is None or id_b is None:
        runs = store.runs()
        if len(runs) < 2:
            raise SystemExit(
                "prov diff: need two recorded runs (or pass two run ids)"
            )
        id_a = id_a or runs[-2]["run_id"]
        id_b = id_b or runs[-1]["run_id"]
    doc = diff_runs(store, id_a, id_b)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
        return 0

    print(f"diff {doc['a']['run_id']} (a) .. {doc['b']['run_id']} (b)")
    for side in ("a", "b"):
        info = doc[side]
        sha = (info.get("git_sha") or "-")[:9] + ("*" if info.get("git_dirty") else "")
        print(
            f"  {side}: {info['run_id']}  {info.get('created_utc') or '-'}"
            f"  {sha}  {info.get('arbitration') or '-'}"
            f"  {info.get('algorithm') or '-'}"
            + (f"  [{info['label']}]" if info.get("label") else "")
        )
    ms = doc["makespan_ns"]
    if ms["a"] is not None and ms["b"] is not None:
        print(f"  makespan_ns: {_fmt_delta(ms['a'], ms['b'])}")
    if doc["energy"]:
        print("  energy:")
        for name, pair in doc["energy"].items():
            print(f"    {name}: {_fmt_delta(pair['a'], pair['b'])}")
    for title in ("switch_counters", "link_counters"):
        table = doc[title]
        changed = {
            name: pair for name, pair in table.items()
            if pair["a"] != pair["b"]
        }
        if not changed:
            continue
        print(f"  {title.replace('_', ' ')} (changed families):")
        for name, pair in changed.items():
            print(f"    {name}: {_fmt_delta(pair['a'], pair['b'])}")
    if doc["hot_links"]:
        print("  hottest links by byte delta:")
        for entry in doc["hot_links"]:
            print(
                f"    {entry['link']}: "
                f"{_fmt_delta(entry['bytes_a'], entry['bytes_b'])}"
            )
    if doc["regressions"]:
        print("  REGRESSIONS:")
        for line in doc["regressions"]:
            print(f"    !! {line}")
    else:
        print("  no regressions flagged")
    return 0


# ----------------------------------------------------------------------
def add_prov_parser(subparsers) -> None:
    """Mount ``prov list|show|diff`` under an existing subparser set."""
    prov = subparsers.add_parser(
        "prov", help="inspect/diff the provenance database"
    )
    prov_sub = prov.add_subparsers(dest="prov_cmd", required=True)

    p_list = prov_sub.add_parser("list", help="list recorded runs")
    p_show = prov_sub.add_parser("show", help="show one run in full")
    p_show.add_argument("run", help="run id (unique prefix ok)")
    p_diff = prov_sub.add_parser("diff", help="diff two runs")
    p_diff.add_argument("run_a", nargs="?", default=None,
                        help="first run id (default: second-latest)")
    p_diff.add_argument("run_b", nargs="?", default=None,
                        help="second run id (default: latest)")
    for p in (p_list, p_show, p_diff):
        p.add_argument("--db", default="provenance.db",
                       help="provenance database path (default: %(default)s)")
    for p in (p_show, p_diff):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON document")


def run_prov(args) -> int:
    """Dispatch a parsed ``prov`` namespace (see :func:`add_prov_parser`)."""
    from repro.provenance.store import ProvenanceStore, SchemaVersionError

    try:
        store = ProvenanceStore(args.db)
    except SchemaVersionError as exc:
        raise SystemExit(f"prov: {exc}") from None
    with store:
        if args.prov_cmd == "list":
            return cmd_list(store, args)
        if args.prov_cmd == "show":
            return cmd_show(store, args)
        return cmd_diff(store, args)
