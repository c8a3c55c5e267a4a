"""Sqlite-backed provenance database: one file per session directory.

Modeled on SpiNNFrontEndCommon's ``interface/provenance`` pattern: a
single sqlite file accumulates one row per *run* plus long-format
counter tables, so a whole benchmarking session (or a long service run
streaming incremental rows) stays queryable after every process exits::

    with ProvenanceStore("provenance.db") as store:
        store.upsert_run(run_row)
        store.upsert_switch_counters(run_row["run_id"], switch_rows)
        ...
    # later, possibly from another process:
    flare-repro prov list --db provenance.db
    flare-repro prov diff run-ab12 run-cd34 --db provenance.db

Schema (version 4)
------------------
* ``meta(key, value)`` — the schema version.
* ``runs`` — one row per recorded run: identity (run id, git SHA,
  UTC timestamp, seed), engine config (arbitration, routing),
  topology fingerprint, algorithm, makespan, and the full config JSON.
* ``switch_counters(run_id, switch, counter, value)`` — long format:
  HPU cycles, handler dispatches, L1/L2 high-water marks, admission
  rejections... one row per (switch, counter family).
* ``link_counters(run_id, src, dst, counter, value)`` — bytes, busy
  time, drops/duplicates, WFQ queue-depth peaks per directed link.
* ``energy(run_id, scope, component, joules)`` — the energy model's
  output per run (scope ``"run"``) and per tenant (``"tenant:<name>"``).

A file stamped with any other version is refused with
:class:`SchemaVersionError` and left untouched: there are no
migrations, so after an upgrade record into a new file.

Writes are idempotent upserts keyed on the run id, which is what lets
:class:`~repro.provenance.recorder.ProvenanceRecorder` stream the same
run's rows incrementally on every service-mode SLO tick.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Iterable, Optional

#: The one schema version this build reads and writes.
SCHEMA_VERSION = 4

_DDL = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
CREATE TABLE runs (
    run_id          TEXT PRIMARY KEY,
    created_utc     TEXT,
    git_sha         TEXT,
    git_dirty       INTEGER,
    seed            INTEGER,
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
CREATE TABLE switch_counters (
    run_id  TEXT NOT NULL,
    switch  TEXT NOT NULL,
    counter TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_id, switch, counter)
);
CREATE TABLE link_counters (
    run_id  TEXT NOT NULL,
    src     TEXT NOT NULL,
    dst     TEXT NOT NULL,
    counter TEXT NOT NULL,
    value   REAL NOT NULL,
    PRIMARY KEY (run_id, src, dst, counter)
);
CREATE TABLE energy (
    run_id    TEXT NOT NULL,
    scope     TEXT NOT NULL,
    component TEXT NOT NULL,
    joules    REAL NOT NULL,
    PRIMARY KEY (run_id, scope, component)
);
"""

#: Column order of the ``runs`` table (minus the primary key), used by
#: the upsert; values default to None when a run row omits them.
_RUN_COLUMNS = (
    "created_utc", "git_sha", "git_dirty", "seed",
    "arbitration", "routing", "topology", "topology_family", "n_hosts",
    "algorithm", "makespan_ns", "label", "config_json",
)


class SchemaVersionError(ValueError):
    """A provenance file stamped with a schema version other than
    :data:`SCHEMA_VERSION` (or with none).  The file is not modified."""


class ProvenanceStore:
    """One sqlite provenance database (see module docstring).

    Opens (creating the schema in an empty file) immediately; usable as
    a context manager.  All mutating calls commit before returning, so a
    crash between ticks never loses settled rows.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.row_factory = sqlite3.Row
        try:
            self._init_schema()
        except Exception:
            self._conn.close()
            raise

    def _init_schema(self) -> None:
        """Create the schema in an empty file; otherwise check the
        version stamp before anything is written."""
        conn = self._conn
        tables = {
            row["name"] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        if not tables:
            # One transaction: a file never holds tables without a stamp.
            conn.executescript(
                f"BEGIN; {_DDL} INSERT INTO meta (key, value) "
                f"VALUES ('schema_version', '{SCHEMA_VERSION}'); COMMIT;"
            )
            return
        row = None
        if "meta" in tables:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        version = None if row is None else row["value"]
        if version != str(SCHEMA_VERSION):
            raise SchemaVersionError(
                f"provenance DB {self.path!r} has schema version {version}; "
                f"this build reads only version {SCHEMA_VERSION} and does "
                "not migrate — record into a new file"
            )

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

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ProvenanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

