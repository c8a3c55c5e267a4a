"""Per-run provenance recording glued onto a live fabric.

A :class:`ProvenanceRecorder` owns the run's identity and accumulates
what the fabric layer cannot read back later: per-switch counters are
snapshotted from each settled collective's result (the simulated switch
object is per-execution and gone afterwards), while link counters are
read live from the network simulator at every flush.

Two flush cadences:

* :meth:`tick` — incremental upsert of the run row + current counters;
  :class:`~repro.service.engine.FabricService` calls it on every SLO
  snapshot tick so a long service run can be watched live (``prov
  show`` against the DB while the service is still running).
* :meth:`flush` — the quiescence flush: final makespan, final counter
  tables, and the energy rows (energy integrates static power over the
  makespan, so it is only meaningful once the run has settled).

Writes are idempotent per run id, so tick-then-flush never duplicates.
"""

from __future__ import annotations

from typing import Optional

from repro.provenance.collect import (
    collect_links,
    link_rows_to_table,
    tenant_wire_bytes,
)
from repro.provenance.energy import EnergyModel, energy_rows
from repro.provenance.identity import run_identity
from repro.provenance.store import ProvenanceStore


class ProvenanceRecorder:
    """Records one fabric run into a :class:`ProvenanceStore`.

    ``store`` may be a path (the recorder opens and owns it) or an
    already-open store shared across runs in one session.
    """

    def __init__(
        self,
        store: "ProvenanceStore | str",
        fabric,
        *,
        run_id: Optional[str] = None,
        label: Optional[str] = None,
        seed: Optional[int] = None,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        if isinstance(store, ProvenanceStore):
            self.store = store
            self._owns_store = False
        else:
            self.store = ProvenanceStore(store)
            self._owns_store = True
        self.fabric = fabric
        self.energy_model = energy_model or EnergyModel()
        self.label = label
        self.identity = run_identity(
            seed=fabric.routing_seed if seed is None else seed,
            engine={
                "arbitration": fabric.net.arbitration,
                "routing": fabric.net.router.name,
            },
            run_id=run_id,
        )
        self.run_id = self.identity["run_id"]
        #: switch name -> accumulated counter dict (peaks max-merged,
        #: monotone counters summed across the run's collectives).
        self._switch_counters: dict[str, dict] = {}
        self.flushed = False

    # ------------------------------------------------------------------
    # Accumulation (driven by the fabric as collectives settle)
    # ------------------------------------------------------------------
    def add_switch_counters(
        self, switch: str, counters: dict, repeats: int = 1
    ) -> None:
        """Fold one collective's switch snapshot, ``repeats`` times (a
        tree switch's one-chunk snapshot, once per chunk), into the run
        totals.

        Peak gauges (``*_peak_bytes``) max-merge — each collective ran
        on its own simulated switch instance, so the run-level
        high-water mark is the worst single collective; monotone
        counters sum.
        """
        acc = self._switch_counters.setdefault(switch, {})
        for name, value in counters.items():
            if name.endswith("_peak_bytes"):
                # ``not in`` rather than a > 0 default: a zero peak is
                # still a recorded family (the CI gate checks presence).
                if name not in acc or value > acc[name]:
                    acc[name] = value
            else:
                acc[name] = acc.get(name, 0.0) + value * repeats

    # ------------------------------------------------------------------
    # Row assembly
    # ------------------------------------------------------------------
    def _run_row(self) -> dict:
        fabric = self.fabric
        topo = fabric.topology
        algorithms = sorted({
            e["algorithm"] for e in fabric.timeline() if e.get("algorithm")
        })
        ident = self.identity
        return {
            "run_id": self.run_id,
            "created_utc": ident["created_utc"],
            "git_sha": ident["git_sha"],
            "git_dirty": ident["git_dirty"],
            "seed": ident["seed"],
            "arbitration": fabric.net.arbitration,
            "routing": fabric.net.router.name,
            "topology": repr(topo.fingerprint()),
            "topology_family": topo.family,
            "n_hosts": topo.n_hosts,
            "algorithm": ",".join(algorithms) or None,
            "makespan_ns": fabric.now,
            "label": self.label,
            "config_json": {
                "engine": ident["engine"],
                "tenants": list(fabric.tenants),
                "topology": {
                    k: str(v) for k, v in topo.describe().items()
                },
            },
        }

    def _switch_rows(self) -> list[tuple]:
        return [
            (switch, counter, value)
            for switch in sorted(self._switch_counters)
            for counter, value in sorted(self._switch_counters[switch].items())
        ]

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Incremental flush: upsert the run row and current counters
        (no energy — that waits for the makespan to settle)."""
        self.store.upsert_run(self._run_row())
        self.store.upsert_switch_counters(self.run_id, self._switch_rows())
        self.store.upsert_link_counters(
            self.run_id, collect_links(self.fabric.net)
        )

    def flush(self) -> None:
        """Quiescence flush: final counters plus the energy estimate.
        Idempotent; re-flushing re-upserts the same rows."""
        fabric = self.fabric
        link_rows = collect_links(fabric.net)
        switch_table = {s: dict(c) for s, c in self._switch_counters.items()}
        rows = energy_rows(
            self.energy_model,
            switch_table,
            link_rows_to_table(link_rows),
            fabric.now,
            len(fabric.topology.switches),
            tenant_wire_bytes(fabric),
        )
        self.store.upsert_run(self._run_row())
        self.store.upsert_switch_counters(self.run_id, self._switch_rows())
        self.store.upsert_link_counters(self.run_id, link_rows)
        self.store.upsert_energy(self.run_id, rows)
        self.flushed = True

    def close(self) -> None:
        """Flush (if not yet flushed) and release an owned store."""
        if not self.flushed:
            self.flush()
        if self._owns_store:
            self.store.close()
