"""Deterministic random-number-generation helpers.

Every stochastic component (exponential packet arrivals, sparse index
generation, synthetic gradients) takes an explicit seed or Generator so
that simulations are reproducible run-to-run — which matters doubly for
a paper whose F3 flexibility axis *is* reproducibility.
"""

from __future__ import annotations

import hashlib

import numpy as np


def seeded_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts an existing Generator (returned unchanged), an integer seed,
    or ``None`` for OS entropy (discouraged outside exploratory use).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_hash(*parts: object, salt: int = 0) -> int:
    """Process-stable non-negative hash of ``parts``.

    Python's builtin ``hash`` is salted per interpreter run for
    strings, which silently breaks cross-run reproducibility of
    anything keyed on it (ECMP path selection, for one).  A truncated
    blake2b over the repr of the parts is stable everywhere and — being
    non-linear, unlike a CRC — actually reshuffles the low bits when
    the salt changes, which is what makes distinct routing seeds pick
    distinct path assignments.
    """
    text = "|".join(repr(p) for p in parts) + f"|{salt}"
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


def ecmp_salt(seed: int | None = 0) -> int:
    """Derive a hash salt from a seed via the shared RNG machinery.

    Same seed -> same salt -> identical ECMP path picks run to run,
    which is the reproducibility contract the routing layer tests pin.
    """
    return int(seeded_rng(seed).integers(0, 2**31))


def child_rng(seed: int, *tag: object) -> np.random.Generator:
    """Split an independent child stream off ``seed``, keyed by ``tag``.

    Stream splitting for components that must never share randomness:
    the service engine draws arrival times, fault schedules, and payload
    fills from ``child_rng(seed, "arrivals", cls)``-style children so
    adding a consumer (or reordering draws) in one component can never
    perturb another — the classic shared-stream reproducibility bug.

    Children are derived via ``SeedSequence(entropy=seed,
    spawn_key=(stable_hash(*tag),))``: the key is the *process-stable*
    :func:`stable_hash` of the tag parts, so the same ``(seed, tag)``
    yields the bitwise-identical stream across interpreter runs,
    platforms, and ``PYTHONHASHSEED`` values.  Distinct tags give
    statistically independent streams (SeedSequence's spawn guarantee).
    """
    key = stable_hash(*tag)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    return np.random.default_rng(ss)
