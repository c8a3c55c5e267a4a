"""Provenance + energy observability subsystem.

One sqlite database per session records who ran what (git SHA, seed,
engine config, topology fingerprint), what it cost (per-switch HPU and
memory counters, per-link traffic and reliability counters), and the
derived energy estimate — queryable and diffable after every process
has exited via ``flare-repro prov list|show|diff``.

Layering:

* :mod:`~repro.provenance.identity` — run ids and git/timestamp/seed
  identity blocks (also stamped into ``--perf-json`` and timelines).
* :mod:`~repro.provenance.store` — the sqlite schema (one version,
  no migrations).
* :mod:`~repro.provenance.collect` — canonical counter families and
  the collectors that read switches and network simulators.
* :mod:`~repro.provenance.energy` — the energy model over counters.
* :mod:`~repro.provenance.recorder` — glue onto a live fabric (per
  settled collective accumulation, service-tick streaming, quiescence
  flush).
* :mod:`~repro.provenance.cli` — the ``prov`` subcommand.
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first access.
_EXPORTS = {
    "ENERGY_COMPONENTS": "repro.provenance.energy",
    "EnergyModel": "repro.provenance.energy",
    "LINK_COUNTER_FAMILIES": "repro.provenance.collect",
    "ProvenanceRecorder": "repro.provenance.recorder",
    "ProvenanceStore": "repro.provenance.store",
    "SCHEMA_VERSION": "repro.provenance.store",
    "SWITCH_COUNTER_FAMILIES": "repro.provenance.collect",
    "SchemaVersionError": "repro.provenance.store",
    "collect_links": "repro.provenance.collect",
    "collect_switch": "repro.provenance.collect",
    "diff_runs": "repro.provenance.cli",
    "energy_rows": "repro.provenance.energy",
    "git_state": "repro.provenance.identity",
    "link_rows_to_table": "repro.provenance.collect",
    "new_run_id": "repro.provenance.identity",
    "run_identity": "repro.provenance.identity",
    "tenant_wire_bytes": "repro.provenance.collect",
    "utc_now": "repro.provenance.identity",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
