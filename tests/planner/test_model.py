"""The cost model itself: features, prediction, coefficient fallback."""

import math

import pytest

from repro.comm.planner.model import (
    FEATURES,
    NEUTRAL,
    CoefficientsError,
    PlannerModel,
    default_model,
    link_model,
    load_coefficients,
)
from repro.comm.request import CollectiveRequest
from repro.utils.units import MIB


def _request(nbytes=MIB, n_hosts=16, **params):
    return CollectiveRequest(nbytes=nbytes, n_hosts=n_hosts, params=params)


def test_features_textbook_quantities():
    r = _request()
    Z, P = float(MIB), 16
    assert FEATURES["ring"](r) == (2 * 15, 2 * Z * 15 / 16)
    assert FEATURES["swing"](r) == (2 * 4, 2 * Z * 15 / 16)
    assert FEATURES["butterfly"](r) == FEATURES["swing"](r)
    assert FEATURES["flare_dense"](r) == (5.0, Z)


def test_sparse_features_scale_with_density():
    r = CollectiveRequest(nbytes=MIB, n_hosts=16, sparse=True, density=0.25)
    _, beta_sparcml = FEATURES["sparcml"](r)
    _, beta_flare = FEATURES["flare_sparse"](r)
    assert beta_sparcml == 2 * MIB * 0.25
    assert beta_flare == MIB * 0.25


def test_link_model_honors_params():
    alpha, beta = link_model(_request(link_latency_ns=500.0, link_gbps=200.0))
    assert alpha == 500.0
    assert beta == pytest.approx(25.0)


def test_neutral_fallback_for_unfitted_pairs():
    model = PlannerModel(coefficients={})
    assert model.coeffs("ring", "hypercube") == NEUTRAL
    r = _request()
    f_alpha, f_beta = FEATURES["ring"](r)
    alpha, beta = link_model(r)
    assert model.predict("ring", r) == pytest.approx(
        f_alpha * alpha + f_beta / beta
    )


def test_family_then_star_then_neutral_lookup():
    model = PlannerModel(coefficients={
        "ring": {"fat-tree": {"a": 2.0}, "*": {"b": 3.0}},
    })
    assert model.coeffs("ring", "fat-tree")["a"] == 2.0
    assert model.coeffs("ring", "fat-tree")["b"] == NEUTRAL["b"]
    assert model.coeffs("ring", "torus")["b"] == 3.0
    assert model.coeffs("swing", "torus") == NEUTRAL


def test_congestion_scales_only_the_beta_term():
    model = PlannerModel(coefficients={"ring": {"*": {"g": 0.5}}})
    r = _request()
    quiet = model.predict("ring", r, congestion=0.0)
    busy = model.predict("ring", r, congestion=2.0)
    _, f_beta = FEATURES["ring"](r)
    _, beta = link_model(r)
    assert busy - quiet == pytest.approx(0.5 * 2.0 * f_beta / beta)
    # Negative congestion never *discounts* the quiet prediction.
    assert model.predict("ring", r, congestion=-3.0) == quiet


def test_unpriceable_algorithms_return_none_and_are_skipped():
    model = PlannerModel(coefficients={})
    r = _request()
    assert model.predict("flare_switch", r) is None
    ranked = model.rank(["flare_switch", "ring", "butterfly"], r)
    assert [name for _, name in ranked] == ["butterfly", "ring"]
    assert ranked == sorted(ranked)


def test_committed_coefficients_load_and_cover_the_grid():
    """The shipped coefficients.json parses and covers every priceable
    algorithm on every calibration family."""
    table = load_coefficients()
    assert table, "committed coefficients.json missing or unreadable"
    for algorithm in FEATURES:
        assert algorithm in table, f"{algorithm} not fitted"
        for family in ("fat-tree", "dragonfly", "torus"):
            coeffs = default_model().coeffs(algorithm, family)
            assert coeffs["b"] > 0, f"{algorithm}/{family}: no beta slope"
            assert all(
                not math.isnan(v) and v >= 0 for v in coeffs.values()
            )


def test_missing_or_corrupt_file_raises(tmp_path):
    """A missing or unreadable table is an error naming the file: the
    cost mode never prices every candidate with NEUTRAL silently."""
    missing = tmp_path / "nope.json"
    with pytest.raises(CoefficientsError, match="nope.json"):
        load_coefficients(missing)
    corrupt = tmp_path / "bad.json"
    corrupt.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        load_coefficients(corrupt)
