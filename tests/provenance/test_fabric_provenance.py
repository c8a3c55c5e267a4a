"""Fabric-attached provenance: the database a run leaves behind.

End-to-end over real collectives: run rows carry the fabric's identity
and makespan, switch counters are snapshotted as collectives settle,
link counters are read at shutdown, and the energy estimate lands with
the quiescence flush.
"""

import pytest

from repro.comm import Fabric, FabricError, wait_all
from repro.provenance import identity
from repro.core.allreduce import make_dense_blocks
from repro.provenance.collect import (
    LINK_COUNTER_FAMILIES,
    SWITCH_COUNTER_FAMILIES,
)
from repro.provenance.energy import ENERGY_COMPONENTS
from repro.provenance.store import ProvenanceStore


def _record_run(db_path):
    """One two-tenant run — a PsPIN switch collective (switch counters)
    and a host ring (wire traffic) — recorded into ``db_path``."""
    fabric = Fabric(
        n_hosts=32, hosts_per_leaf=8, n_spines=2, routing="updown",
        provenance_db=db_path, run_label="unit",
    )
    a = fabric.communicator(name="A", n_clusters=1)
    b = fabric.communicator(name="B")
    data = make_dense_blocks(32, 4, 256, dtype="float32", seed=11)
    wait_all([
        a.iallreduce(data, algorithm="flare_switch", seed=11),
        b.iallreduce("1MiB", algorithm="ring"),
    ])
    run_id, makespan = fabric.run_id, fabric.now
    fabric.shutdown()
    return run_id, makespan


def test_end_to_end_run_record(tmp_path):
    db = str(tmp_path / "prov.db")
    run_id, makespan = _record_run(db)
    with ProvenanceStore(db) as store:
        run = store.run(run_id)
        assert run["run_id"] == run_id
        assert run["label"] == "unit"
        assert run["makespan_ns"] == makespan
        assert run["n_hosts"] == 32
        assert run["algorithm"] == "flare_switch,ring"
        assert sorted(run["config"]["tenants"]) == ["A", "B"]
        # Every switch counter family was snapshotted (zero-valued peak
        # gauges included — the CI gate checks family presence).
        switch = store.switch_counters(run_id)
        assert switch
        for counters in switch.values():
            assert set(counters) == set(SWITCH_COUNTER_FAMILIES)
        # Link rows exist and use only known families.
        links = store.link_counters(run_id)
        assert links
        for counters in links.values():
            assert set(counters) <= set(LINK_COUNTER_FAMILIES)
            assert counters["bytes"] > 0
        # Energy: run scope has every component; per-tenant attribution
        # covers both tenants; components sum to the total.
        energy = store.energy(run_id)
        assert set(energy["run"]) == set(ENERGY_COMPONENTS)
        assert {"tenant:A", "tenant:B"} <= set(energy)
        parts = (
            energy["run"]["hpu_active_j"]
            + energy["run"]["link_transfer_j"]
            + energy["run"]["switch_static_j"]
        )
        assert energy["run"]["total_j"] == pytest.approx(parts)


def test_tick_streams_rows_before_flush(tmp_path):
    """The service-mode cadence: tick() upserts run + counters while
    the run is live; energy only lands with the final flush."""
    db = str(tmp_path / "live.db")
    fabric = Fabric(n_hosts=16, hosts_per_leaf=8, n_spines=2,
                    provenance_db=db)
    comm = fabric.communicator(name="t0")
    comm.iallreduce("256KiB", algorithm="ring").result()
    fabric.provenance.tick()
    with ProvenanceStore(db) as reader:
        run = reader.run(fabric.run_id)
        assert run is not None
        assert run["makespan_ns"] == fabric.now
        assert reader.link_counters(fabric.run_id)
        assert reader.energy(fabric.run_id) == {}  # not flushed yet
    fabric.shutdown()
    with ProvenanceStore(db) as reader:
        assert set(reader.energy(fabric.run_id)["run"]) == set(
            ENERGY_COMPONENTS
        )


def test_attach_provenance_twice_raises(tmp_path):
    fabric = Fabric(n_hosts=8, provenance_db=str(tmp_path / "a.db"))
    try:
        with pytest.raises(FabricError, match="already attached"):
            fabric.attach_provenance(str(tmp_path / "b.db"))
    finally:
        fabric.shutdown()


def test_shared_store_across_fabrics(tmp_path):
    """Two runs into one database — the prov-diff workflow."""
    db = str(tmp_path / "shared.db")
    first, _ = _record_run(db)
    second, _ = _record_run(db)
    assert first != second
    with ProvenanceStore(db) as store:
        assert [r["run_id"] for r in store.runs()] == [first, second]


def test_recorder_keeps_zero_peak_families(tmp_path):
    """A collective whose peak gauges are zero still records the
    family (regression: max-merge used to drop never-positive peaks)."""
    fabric = Fabric(n_hosts=8, provenance_db=str(tmp_path / "z.db"))
    zeros = {name: 0.0 for name in SWITCH_COUNTER_FAMILIES}
    fabric.provenance.add_switch_counters("s0", zeros)
    fabric.provenance.add_switch_counters("s0", zeros)
    fabric.shutdown()
    with ProvenanceStore(str(tmp_path / "z.db")) as store:
        assert set(store.switch_counters(fabric.run_id)["s0"]) == set(
            SWITCH_COUNTER_FAMILIES
        )


def test_sparse_switch_tree_records_its_pricing_runs(tmp_path, monkeypatch):
    """A flare_switch_sparse tree records every tree switch's counters,
    as flare_switch does: each switch's one-chunk sparse pricing run,
    folded once per chunk (peaks max-merged, which for one collective
    is the run's own peak)."""
    from repro.core.allreduce import SwitchAllreducePlan

    priced = []
    execute = SwitchAllreducePlan.execute

    def recording(self, *args, **kwargs):
        r = execute(self, *args, **kwargs)
        priced.append(r.provenance)
        return r

    monkeypatch.setattr(SwitchAllreducePlan, "execute", recording)
    db = str(tmp_path / "sparse.db")
    fabric = Fabric(n_hosts=8, provenance_db=db)
    comm = fabric.communicator(name="sparse", n_clusters=1)
    request = dict(algorithm="flare_switch_sparse", sparse=True, density=0.1)
    tree_switches = comm.plan(nbytes="16KiB", **request).setup["tree_switches"]
    r = comm.iallreduce("16KiB", **request).result()
    fabric.shutdown()
    n_chunks = r.extra["n_chunks"]
    with ProvenanceStore(db) as store:
        recorded = store.switch_counters(fabric.run_id)
        energy = store.energy(fabric.run_id)
    assert sorted(recorded) == sorted(tree_switches)
    for switch, counters in recorded.items():
        assert set(counters) == set(SWITCH_COUNTER_FAMILIES)
        run = r.extra["switch_counters"][switch]
        assert run in priced
        assert counters == {
            name: value if name.endswith("_peak_bytes") else value * n_chunks
            for name, value in run.items()
        }
        assert counters["packets_in"] > 0
    assert energy["run"]["hpu_active_j"] > 0


def test_every_table_and_run_column_gets_written(tmp_path, monkeypatch):
    """Guard against schema leftovers: one labelled run with a sparse
    switch tree writes a row to every table but ``meta`` and fills
    every ``runs`` column.  A table or column nothing records fails it.
    The git state is pinned, since outside a checkout it is None."""
    monkeypatch.setattr(
        identity, "_GIT_CACHE", {"git_sha": "0" * 40, "git_dirty": False}
    )
    db = str(tmp_path / "guard.db")
    fabric = Fabric(n_hosts=8, provenance_db=db, run_label="guard")
    comm = fabric.communicator(name="sparse", n_clusters=1)
    comm.iallreduce("16KiB", algorithm="flare_switch_sparse", sparse=True,
                    density=0.1).result()
    fabric.shutdown()
    with ProvenanceStore(db) as store:
        conn = store._conn
        tables = [
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        columns = [row[1] for row in conn.execute("PRAGMA table_info(runs)")]
        counts = {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in tables if table != "meta"
        }
        nulls = {
            column: conn.execute(
                f"SELECT COUNT(*) FROM runs WHERE {column} IS NULL"
            ).fetchone()[0]
            for column in columns
        }
    assert counts and all(counts.values()), counts
    assert counts["runs"] == 1
    assert not any(nulls.values()), nulls
