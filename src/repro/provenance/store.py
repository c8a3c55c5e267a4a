"""Sqlite-backed provenance database: one file per session directory.

Modeled on SpiNNFrontEndCommon's ``interface/provenance`` pattern: a
single sqlite file accumulates one row per *run* plus long-format
counter tables, so a whole benchmarking session (or a long service run
streaming incremental rows) stays queryable after every process exits::

    with ProvenanceStore("provenance.db") as store:
        store.record_run(run_row, switch_rows, link_rows, energy_rows)
        ...
    # later, possibly from another process:
    flare-repro prov list --db provenance.db
    flare-repro prov diff run-ab12 run-cd34 --db provenance.db

Schema (version 3)
------------------
* ``meta(key, value)`` — schema version and bookkeeping.
* ``runs`` — one row per recorded run: identity (run id, git SHA,
  UTC timestamp, seed), engine config (arbitration, routing; the
  ``workers`` column is kept for old databases and is 0 in new runs),
  topology fingerprint, algorithm, makespan, and the full config JSON.
* ``switch_counters(run_id, switch, counter, value)`` — long format:
  HPU cycles, handler dispatches, L1/L2 high-water marks, admission
  rejections... one row per (switch, counter family).
* ``link_counters(run_id, src, dst, counter, value)`` — bytes, busy
  time, drops/duplicates, WFQ queue-depth peaks per directed link.
* ``energy(run_id, scope, component, joules)`` — the energy model's
  output per run (scope ``"run"``) and per tenant (``"tenant:<name>"``);
  added by the version 1 → 2 migration.
* ``degradations(run_id, seq, sim_time_ns, event, reason,
  detail_json)`` — engine degradation events: a run that did not
  execute the way it was configured to while its results stayed
  bitwise identical.  Added by the version 2 → 3 migration.  The
  sharded engine that wrote these rows is gone; new runs record none,
  and rows in older databases stay readable (``prov show``/``diff``).

Writes are idempotent upserts keyed on the run id, which is what lets
:class:`~repro.provenance.recorder.ProvenanceRecorder` stream the same
run's rows incrementally on every service-mode SLO tick.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Iterable, Optional

#: Current schema version.  Version 1 lacked the ``energy`` table,
#: version 2 the ``degradations`` table; :data:`_MIGRATIONS` upgrades
#: older files in place on open.
SCHEMA_VERSION = 3

_DDL_V1 = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE IF NOT EXISTS runs (
    run_id          TEXT PRIMARY KEY,
    created_utc     TEXT,
    git_sha         TEXT,
    git_dirty       INTEGER,
    seed            INTEGER,
    workers         INTEGER,
    arbitration     TEXT,
    routing         TEXT,
    topology        TEXT,
    topology_family TEXT,
    n_hosts         INTEGER,
    algorithm       TEXT,
    makespan_ns     REAL,
    label           TEXT,
    config_json     TEXT
);
CREATE TABLE IF NOT EXISTS switch_counters (
    run_id  TEXT NOT NULL,
    switch  TEXT NOT NULL,
    counter TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_id, switch, counter)
);
CREATE TABLE IF NOT EXISTS link_counters (
    run_id  TEXT NOT NULL,
    src     TEXT NOT NULL,
    dst     TEXT NOT NULL,
    counter TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_id, src, dst, counter)
);
"""

_DDL_ENERGY = """
CREATE TABLE IF NOT EXISTS energy (
    run_id    TEXT NOT NULL,
    scope     TEXT NOT NULL,
    component TEXT NOT NULL,
    joules    REAL NOT NULL,
    PRIMARY KEY (run_id, scope, component)
);
"""

_DDL_DEGRADATIONS = """
CREATE TABLE IF NOT EXISTS degradations (
    run_id      TEXT NOT NULL,
    seq         INTEGER NOT NULL,
    sim_time_ns REAL,
    event       TEXT NOT NULL,
    reason      TEXT,
    detail_json TEXT,
    PRIMARY KEY (run_id, seq)
);
"""

#: Column order of the ``runs`` table (minus the primary key), used by
#: the upsert; values default to None when a run row omits them.
_RUN_COLUMNS = (
    "created_utc", "git_sha", "git_dirty", "seed", "workers",
    "arbitration", "routing", "topology", "topology_family", "n_hosts",
    "algorithm", "makespan_ns", "label", "config_json",
)


def _migrate_1_to_2(conn: sqlite3.Connection) -> None:
    """Version 1 predates the energy model: add its table."""
    conn.executescript(_DDL_ENERGY)


def _migrate_2_to_3(conn: sqlite3.Connection) -> None:
    """Version 2 predates degradation events: add their table."""
    conn.executescript(_DDL_DEGRADATIONS)


_MIGRATIONS = {1: _migrate_1_to_2, 2: _migrate_2_to_3}


class ProvenanceStore:
    """One sqlite provenance database (see module docstring).

    Opens (creating or migrating as needed) immediately; usable as a
    context manager.  All mutating calls commit before returning, so a
    crash between ticks never loses settled rows.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        self._init_schema()

    # ------------------------------------------------------------------
    # Schema & migration
    # ------------------------------------------------------------------
    def _init_schema(self) -> None:
        conn = self._conn
        conn.executescript(_DDL_V1)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            # Fresh database: write the full current schema.
            conn.executescript(_DDL_ENERGY)
            conn.executescript(_DDL_DEGRADATIONS)
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            conn.commit()
            return
        version = int(row["value"])
        if version > SCHEMA_VERSION:
            raise ValueError(
                f"provenance DB {self.path!r} has schema version {version}; "
                f"this build reads up to {SCHEMA_VERSION} — upgrade the code, "
                "not the database"
            )
        while version < SCHEMA_VERSION:
            _MIGRATIONS[version](conn)
            version += 1
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(version),),
            )
            conn.commit()

    @property
    def schema_version(self) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row["value"])

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def upsert_run(self, run_row: dict) -> None:
        """Insert or update one ``runs`` row (keyed on ``run_id``).

        Unknown keys land in ``config_json`` untouched only if the
        caller put them there; this method writes exactly the declared
        columns.
        """
        run_id = run_row["run_id"]
        row = dict(run_row)
        config = row.get("config_json")
        if isinstance(config, dict):
            row["config_json"] = json.dumps(config, sort_keys=True, default=str)
        if row.get("git_dirty") is not None:
            row["git_dirty"] = int(bool(row["git_dirty"]))
        columns = ("run_id", *_RUN_COLUMNS)
        self._conn.execute(
            f"INSERT OR REPLACE INTO runs ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' * len(columns))})",
            (run_id, *(row.get(c) for c in _RUN_COLUMNS)),
        )
        self._conn.commit()

    def upsert_switch_counters(
        self, run_id: str, rows: Iterable[tuple]
    ) -> None:
        """``rows`` are ``(switch, counter, value)`` tuples."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO switch_counters "
            "(run_id, switch, counter, value) VALUES (?, ?, ?, ?)",
            [(run_id, s, c, float(v)) for s, c, v in rows],
        )
        self._conn.commit()

    def upsert_link_counters(self, run_id: str, rows: Iterable[tuple]) -> None:
        """``rows`` are ``(src, dst, counter, value)`` tuples."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO link_counters "
            "(run_id, src, dst, counter, value) VALUES (?, ?, ?, ?, ?)",
            [(run_id, a, b, c, float(v)) for a, b, c, v in rows],
        )
        self._conn.commit()

    def upsert_energy(self, run_id: str, rows: Iterable[tuple]) -> None:
        """``rows`` are ``(scope, component, joules)`` tuples."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO energy "
            "(run_id, scope, component, joules) VALUES (?, ?, ?, ?)",
            [(run_id, s, c, float(j)) for s, c, j in rows],
        )
        self._conn.commit()

    def upsert_degradations(self, run_id: str, rows: Iterable[tuple]) -> None:
        """``rows`` are ``(seq, sim_time_ns, event, reason,
        detail_json)`` tuples, idempotent per (run, seq)."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO degradations "
            "(run_id, seq, sim_time_ns, event, reason, detail_json) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [
                (
                    run_id, int(seq),
                    None if t is None else float(t),
                    event, reason, detail,
                )
                for seq, t, event, reason, detail in rows
            ],
        )
        self._conn.commit()

    def record_run(
        self,
        run_row: dict,
        switch_rows: Iterable[tuple] = (),
        link_rows: Iterable[tuple] = (),
        energy_rows: Iterable[tuple] = (),
        degradation_rows: Iterable[tuple] = (),
    ) -> None:
        """Write one complete run (row + all counter families) at once."""
        self.upsert_run(run_row)
        run_id = run_row["run_id"]
        self.upsert_switch_counters(run_id, switch_rows)
        self.upsert_link_counters(run_id, link_rows)
        self.upsert_energy(run_id, energy_rows)
        self.upsert_degradations(run_id, degradation_rows)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def runs(self) -> list[dict]:
        """All recorded runs, oldest first."""
        rows = self._conn.execute(
            "SELECT * FROM runs ORDER BY created_utc, run_id"
        ).fetchall()
        return [self._run_dict(r) for r in rows]

    def run(self, run_id: str) -> Optional[dict]:
        """One run row (None when absent).  ``run_id`` may be a unique
        prefix — ``prov show run-ab`` works like git's short SHAs."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            matches = self._conn.execute(
                "SELECT * FROM runs WHERE run_id LIKE ?", (run_id + "%",)
            ).fetchall()
            if len(matches) == 1:
                row = matches[0]
            elif len(matches) > 1:
                raise ValueError(
                    f"run id prefix {run_id!r} is ambiguous: "
                    f"{[m['run_id'] for m in matches]}"
                )
        return self._run_dict(row) if row is not None else None

    @staticmethod
    def _run_dict(row: sqlite3.Row) -> dict:
        out = dict(row)
        if out.get("config_json"):
            try:
                out["config"] = json.loads(out["config_json"])
            except (TypeError, ValueError):
                out["config"] = None
        if out.get("git_dirty") is not None:
            out["git_dirty"] = bool(out["git_dirty"])
        return out

    def switch_counters(self, run_id: str) -> dict:
        """``{switch: {counter: value}}`` for one run."""
        out: dict[str, dict] = {}
        for row in self._conn.execute(
            "SELECT switch, counter, value FROM switch_counters "
            "WHERE run_id = ? ORDER BY switch, counter", (run_id,)
        ):
            out.setdefault(row["switch"], {})[row["counter"]] = row["value"]
        return out

    def link_counters(self, run_id: str) -> dict:
        """``{(src, dst): {counter: value}}`` for one run."""
        out: dict[tuple, dict] = {}
        for row in self._conn.execute(
            "SELECT src, dst, counter, value FROM link_counters "
            "WHERE run_id = ? ORDER BY src, dst, counter", (run_id,)
        ):
            out.setdefault((row["src"], row["dst"]), {})[row["counter"]] = (
                row["value"]
            )
        return out

    def energy(self, run_id: str) -> dict:
        """``{scope: {component: joules}}`` for one run."""
        out: dict[str, dict] = {}
        for row in self._conn.execute(
            "SELECT scope, component, joules FROM energy "
            "WHERE run_id = ? ORDER BY scope, component", (run_id,)
        ):
            out.setdefault(row["scope"], {})[row["component"]] = row["joules"]
        return out

    def degradations(self, run_id: str) -> list[dict]:
        """Recorded degradation events for one run, in order."""
        out = []
        for row in self._conn.execute(
            "SELECT seq, sim_time_ns, event, reason, detail_json "
            "FROM degradations WHERE run_id = ? ORDER BY seq", (run_id,)
        ):
            entry = {
                "seq": row["seq"],
                "sim_time_ns": row["sim_time_ns"],
                "event": row["event"],
                "reason": row["reason"],
            }
            if row["detail_json"]:
                try:
                    entry["detail"] = json.loads(row["detail_json"])
                except (TypeError, ValueError):
                    entry["detail"] = None
            out.append(entry)
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_v1_database(path: str) -> None:
    """Write an empty *version 1* database (no energy table).

    Exists for the schema-migration test and as executable
    documentation of what the migration upgrades from.
    """
    conn = sqlite3.connect(path)
    try:
        conn.executescript(_DDL_V1)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', '1')"
        )
        conn.commit()
    finally:
        conn.close()
