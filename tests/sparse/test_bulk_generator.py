"""The bulk sparse workload generator against the row-by-row one.

``make_sparse_workload`` draws every (host, block) row at once.  Its
bits differ from the row-by-row generator it replaced, which is copied
below as the distribution oracle: on a fixed seed grid, the two must
agree on the statistics the sparse experiments depend on — how many
non-zeros a row holds, where they fall in the block, and how much the
hosts' index sets overlap.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.sparse import formats
from repro.sparse.formats import (
    SparseBlock,
    SparseWorkload,
    _uniform_subsets,
    make_sparse_workload,
)

HOSTS, BLOCKS, EPP = 16, 8, 32
SEEDS = range(10)
GRID = [(d, c) for d in (0.01, 0.1, 0.5, 1.0) for c in (0.0, 0.5, 0.9)]


def oracle_workload(n_hosts, n_blocks, elements_per_packet, density,
                    dtype="float32", seed=0, correlation=0.0):
    """The row-by-row generator, as it was before the bulk draws."""
    span = max(1, int(round(elements_per_packet / density)))
    rng = np.random.default_rng(seed)
    hot_size = max(1, elements_per_packet)
    blocks: list[list[SparseBlock]] = [[] for _ in range(n_hosts)]
    for b in range(n_blocks):
        hot = rng.choice(span, size=min(hot_size, span), replace=False)
        for h in range(n_hosts):
            nnz = min(span, rng.poisson(elements_per_packet)) if density < 1 else span
            nnz = max(0, min(nnz, span))
            n_hot = int(round(correlation * nnz))
            picks = []
            if n_hot > 0:
                picks.append(rng.choice(hot, size=min(n_hot, len(hot)), replace=False))
            n_cold = nnz - (len(picks[0]) if picks else 0)
            if n_cold > 0:
                picks.append(rng.choice(span, size=n_cold, replace=False))
            if len(picks) == 2:
                idx = np.unique(np.concatenate(picks))
            elif picks:
                idx = np.sort(picks[0])
            else:
                idx = np.array([], dtype=np.int64)
            values = rng.integers(1, 7, size=len(idx)).astype(dtype)
            blocks[h].append(SparseBlock(b, span, idx.astype(np.int32), values))
    return SparseWorkload(blocks, n_hosts, n_blocks, span, density, dtype)


def _stats(make, density, correlation):
    """Per-row nnz, pooled position counts, and the mean number of
    positions two hosts share in a block, over the seed grid."""
    nnz, counts, overlap = [], 0, []
    for seed in SEEDS:
        wl = make(HOSTS, BLOCKS, EPP, density, seed=seed, correlation=correlation)
        nnz.append(wl.row_nnz())
        pos, _vals = wl.flat()
        per_block = np.bincount(pos, minlength=BLOCKS * wl.block_span)
        counts = counts + per_block.reshape(BLOCKS, -1).sum(axis=0)
        # Sum over host pairs of |A_h & A_h'| = sum over positions of C(c, 2).
        pairs = (per_block * (per_block - 1) // 2).reshape(BLOCKS, -1).sum(axis=1)
        overlap.append(pairs / (HOSTS * (HOSTS - 1) / 2))
    nnz = np.concatenate(nnz)
    return nnz.mean(), nnz.var(), counts, float(np.mean(overlap))


def _chi2_uniform(counts) -> tuple[float, float]:
    """Chi-square statistic of ``counts`` against a flat distribution,
    and its 1e-4 upper quantile (Wilson-Hilferty)."""
    dof = len(counts) - 1
    expect = counts.sum() / len(counts)
    stat = float(((counts - expect) ** 2).sum() / expect)
    z = 3.72
    bound = dof * (1 - 2 / (9 * dof) + z * math.sqrt(2 / (9 * dof))) ** 3
    return stat, bound


@functools.lru_cache(maxsize=None)
def _pair(density, correlation):
    """(bulk, oracle) statistics at one grid point, computed once."""
    return (_stats(make_sparse_workload, density, correlation),
            _stats(oracle_workload, density, correlation))


@pytest.mark.parametrize("density,correlation", GRID)
def test_nnz_mean_and_variance_match_oracle(density, correlation):
    """Bands: the mean within 2.5% (about 6 standard errors of the
    difference at 1,280 Poisson(32) rows), the variance within 20%
    (a full row has variance 0, so there the bound is absolute)."""
    (mean, var, _c, _o), (want_mean, want_var, _wc, _wo) = _pair(density, correlation)
    assert mean == pytest.approx(want_mean, rel=0.025)
    assert var == pytest.approx(want_var, rel=0.2, abs=1.5)


@pytest.mark.parametrize("density", [0.01, 0.1, 0.5])
def test_positions_are_uniform_over_the_block(density):
    """Without correlation every position is equally likely: both
    generators pass a chi-square test at the 1e-4 level."""
    (_m, _v, counts, _o), (_wm, _wv, want_counts, _wo) = _pair(density, 0.0)
    stat, bound = _chi2_uniform(counts)
    assert stat < bound
    assert _chi2_uniform(want_counts)[0] < bound


@pytest.mark.parametrize("density,correlation", GRID)
def test_cross_host_overlap_matches_oracle(density, correlation):
    """The mean number of positions two hosts share in a block, within
    10% of the oracle's (at correlation 0 and density 0.01 it is only
    ~0.3, so the bound there is absolute)."""
    (_m, _v, _c, overlap), (_wm, _wv, _wc, want) = _pair(density, correlation)
    assert overlap == pytest.approx(want, rel=0.1, abs=0.05)


def test_overlap_grows_with_correlation():
    """Where the hot set is a small part of the span.  (At density 0.5
    it is half the span, and the hot/cold merge shrinks rows instead.)"""
    for d in (0.01, 0.1):
        shared = [_pair(d, c)[0][3] for c in (0.0, 0.5, 0.9)]
        assert shared == sorted(shared) and shared[2] > 2 * shared[0]


@pytest.mark.parametrize("density,correlation", GRID)
def test_every_row_is_sorted_and_unique(density, correlation):
    wl = make_sparse_workload(HOSTS, BLOCKS, EPP, density, seed=3,
                              correlation=correlation)
    rows = np.repeat(np.arange(HOSTS * BLOCKS), wl.row_nnz())
    step = np.diff(wl.indices.astype(np.int64))
    same_row = rows[1:] == rows[:-1]
    assert np.all(step[same_row] > 0)
    assert wl.indices.dtype == np.int32
    assert wl.values.dtype == np.float32
    assert set(np.unique(wl.values).tolist()) <= {1, 2, 3, 4, 5, 6}


@pytest.mark.parametrize("n,k", [(5, 2), (5, 4), (6, 3)])
def test_subsets_are_uniform(n, k):
    """Every k-subset of range(n) equally likely, on both sides of the
    complement switch at n / 2."""
    rows = 30_000
    keys = _uniform_subsets(np.random.default_rng(5), np.full(rows, k), n)
    assert len(keys) == rows * k
    members = (keys % n).reshape(rows, k)
    assert np.all(np.diff(members, axis=1) > 0)
    code = (1 << members).sum(axis=1)
    counts = np.bincount(code, minlength=1 << n)
    counts = counts[counts > 0]
    assert len(counts) == math.comb(n, k)
    stat, bound = _chi2_uniform(counts)
    assert stat < bound


class _CountingRng:
    """A Generator that counts its method calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls: dict[str, int] = {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


#: Redraw rounds after the first draw: the worst case (rows half full)
#: halves the repeats each round, about log2 of a million draws.
MAX_ROUNDS = 30


@pytest.mark.parametrize("correlation", [0.0, 0.7])
def test_generator_calls_do_not_grow_with_rows(monkeypatch, correlation):
    counts = []
    for n_hosts, n_blocks in ((2, 2), (64, 64)):
        rng = _CountingRng(1)
        monkeypatch.setattr(formats, "seeded_rng", lambda seed, rng=rng: rng)
        make_sparse_workload(n_hosts, n_blocks, EPP, 0.5, seed=1,
                             correlation=correlation)
        counts.append(sum(rng.calls.values()))
        assert set(rng.calls) <= {"poisson", "integers"}
        assert rng.calls["poisson"] == 1
    # One draw per subset kind (cold picks; hot sets and hot picks with
    # correlation) plus its redraw rounds, one for the values.
    bound = 2 + (3 if correlation else 1) * (1 + MAX_ROUNDS)
    assert max(counts) <= bound < 64 * 64


def test_redraw_rounds_are_bounded_on_half_full_rows():
    rng = _CountingRng(2)
    keys = _uniform_subsets(rng, np.full(20_000, 50), 100)
    assert len(keys) == 20_000 * 50
    assert rng.calls["integers"] <= 1 + MAX_ROUNDS
