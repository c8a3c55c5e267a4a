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

from repro.provenance.collect import (
    LINK_COUNTER_FAMILIES,
    SWITCH_COUNTER_FAMILIES,
    collect_links,
    collect_switch,
    link_rows_to_table,
    tenant_wire_bytes,
)
from repro.provenance.cli import diff_runs
from repro.provenance.energy import ENERGY_COMPONENTS, EnergyModel, energy_rows
from repro.provenance.identity import (
    git_state,
    new_run_id,
    run_identity,
    utc_now,
)
from repro.provenance.recorder import ProvenanceRecorder
from repro.provenance.store import (
    SCHEMA_VERSION,
    ProvenanceStore,
    SchemaVersionError,
)

__all__ = [
    "ENERGY_COMPONENTS",
    "EnergyModel",
    "LINK_COUNTER_FAMILIES",
    "ProvenanceRecorder",
    "ProvenanceStore",
    "SCHEMA_VERSION",
    "SWITCH_COUNTER_FAMILIES",
    "SchemaVersionError",
    "collect_links",
    "collect_switch",
    "diff_runs",
    "energy_rows",
    "git_state",
    "link_rows_to_table",
    "new_run_id",
    "run_identity",
    "tenant_wire_bytes",
    "utc_now",
]
