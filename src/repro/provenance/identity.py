"""Run identity: who produced a measurement, and from what tree.

Every recorded run — a provenance-DB row, a ``--perf-json`` report, a
version-3 timeline envelope — carries the same identity block so a
number in an artifact can be traced back to the exact code state and
configuration that produced it:

* ``run_id`` — short unique id (sha1 over the identity fields plus a
  process-unique nonce); the provenance database's primary key.
* ``git_sha`` — ``git rev-parse HEAD`` of the working tree (None when
  not in a git checkout or git is unavailable), plus a ``git_dirty``
  flag so a measurement from an uncommitted tree is never mistaken for
  the commit's.
* ``created_utc`` — ISO-8601 UTC timestamp.
* ``seed`` / ``engine`` — the run's RNG seed and engine configuration
  (arbitration, routing, ...), whatever the caller used.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from typing import Optional

#: Process-local nonce: two identities minted in the same second from
#: the same config still get distinct run ids.
_COUNTER = itertools.count()

_GIT_CACHE: "dict[str, object] | None" = None


def git_state(repo_dir: Optional[str] = None) -> dict:
    """``{"git_sha": ..., "git_dirty": ...}`` of the enclosing checkout.

    Both fields are None outside a git checkout (or when the git binary
    is missing) — identity degrades gracefully rather than failing the
    run.  The answer is cached per process: benches mint many
    identities and ``git`` is a subprocess.
    """
    global _GIT_CACHE
    import subprocess

    if repo_dir is None and _GIT_CACHE is not None:
        return dict(_GIT_CACHE)
    cwd = repo_dir or os.getcwd()
    out = {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode == 0:
            out["git_sha"] = sha.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd, capture_output=True, text=True, timeout=10,
            )
            if status.returncode == 0:
                out["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    if repo_dir is None:
        _GIT_CACHE = dict(out)
    return out


def utc_now() -> str:
    """ISO-8601 UTC timestamp (microsecond resolution — ``prov list``
    and the diff-latest-two default sort runs by this string, and two
    runs recorded back to back land within the same second)."""
    now = time.time()
    return time.strftime(
        "%Y-%m-%dT%H:%M:%S", time.gmtime(now)
    ) + f".{int((now % 1) * 1e6):06d}Z"


def new_run_id(*parts: object) -> str:
    """A short, unique run id (``run-`` + 12 hex chars).

    ``parts`` season the hash with caller context (seed, config); a
    process-local counter plus pid/clock guarantee uniqueness even for
    identical parts.
    """
    seed = "|".join((
        *(str(p) for p in parts),
        str(os.getpid()),
        repr(time.time()),
        str(next(_COUNTER)),
    ))
    return "run-" + hashlib.sha1(seed.encode()).hexdigest()[:12]


def run_identity(
    seed: Optional[int] = None,
    engine: Optional[dict] = None,
    run_id: Optional[str] = None,
    repo_dir: Optional[str] = None,
) -> dict:
    """The identity block stamped into every recorded artifact.

    ``engine`` is a JSON-serializable dict of whatever configuration
    shaped the run (arbitration, routing, scale points...).
    """
    engine = dict(engine or {})
    git = git_state(repo_dir)
    if run_id is None:
        run_id = new_run_id(git["git_sha"], seed, json.dumps(engine, sort_keys=True, default=str))
    return {
        "run_id": run_id,
        "created_utc": utc_now(),
        "seed": seed,
        "engine": engine,
        **git,
    }
