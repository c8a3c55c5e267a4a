"""Registry: registration, capability matching, resolution errors."""

from types import SimpleNamespace

import pytest

from repro.comm import (
    AlgorithmCaps,
    CapabilityError,
    CommError,
    Communicator,
    FabricError,
    UnknownAlgorithmError,
    available_algorithms,
    available_auto_modes,
    get_algorithm,
    match_algorithms,
    register_algorithm,
    rejection_reasons,
    resolve,
    unregister_algorithm,
)
from repro.comm.request import CollectiveRequest
from repro.core.ops import ReductionOp


def _request(**kw):
    defaults = dict(nbytes=1024, n_hosts=8)
    defaults.update(kw)
    return CollectiveRequest(**defaults)


BUILTINS = {
    "ring",
    "rabenseifner",
    "recursive_doubling",
    "sparcml",
    "flare_dense",
    "flare_sparse",
    "flare_switch",
    "flare_switch_sparse",
}


def test_builtins_registered():
    assert BUILTINS <= set(available_algorithms())


def test_get_unknown_algorithm_raises_with_listing():
    with pytest.raises(UnknownAlgorithmError, match="unknown algorithm 'nope'"):
        get_algorithm("nope")


def test_register_and_unregister_custom_algorithm():
    caps = AlgorithmCaps(dense=True, description="test-only")

    @register_algorithm("test_noop", caps=caps)
    def plan_noop(request):
        return SimpleNamespace(issue=lambda net, **kwargs: None)

    try:
        entry = get_algorithm("test_noop")
        assert entry.caps.description == "test-only"
        # A standalone run whose schedule drains without finishing
        # raises the typed fabric error.
        assert issubclass(FabricError, CommError)
        with pytest.raises(FabricError, match="drained"):
            Communicator(n_hosts=4).allreduce("1KiB", algorithm="test_noop")
        # Double registration under the same name is an error.
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("test_noop", caps=caps)(plan_noop)
    finally:
        unregister_algorithm("test_noop")
    with pytest.raises(UnknownAlgorithmError):
        get_algorithm("test_noop")


def test_capability_matching_dense_vs_sparse():
    dense = {e.name for e in match_algorithms(_request())}
    sparse = {e.name for e in match_algorithms(_request(sparse=True, density=0.1))}
    assert "ring" in dense and "flare_switch" in dense
    assert "sparcml" not in dense and "flare_sparse" not in dense
    assert sparse & {"sparcml", "flare_sparse", "flare_switch_sparse"} == {
        "sparcml", "flare_sparse", "flare_switch_sparse",
    }
    assert "ring" not in sparse


def test_capability_matching_reproducible():
    names = {e.name for e in match_algorithms(_request(reproducible=True))}
    assert "flare_switch" in names          # tree aggregation (F3)
    assert "rabenseifner" in names          # fixed combine structure
    assert "flare_dense" not in names       # arrival-order aggregation


def test_capability_matching_power_of_two_hosts():
    names = {e.name for e in match_algorithms(_request(n_hosts=6))}
    assert "rabenseifner" not in names and "recursive_doubling" not in names
    assert "ring" in names
    reasons = rejection_reasons(_request(n_hosts=6))
    assert "power-of-two" in reasons["rabenseifner"]


def test_custom_op_routes_to_switch_only():
    op = ReductionOp("xor-ish", lambda a, v: None)
    names = {e.name for e in match_algorithms(_request(op=op))}
    assert names == {"flare_switch"}


def test_resolve_auto_prefers_in_network():
    entry = resolve(_request())
    assert entry.name == "flare_switch"
    entry = resolve(_request(sparse=True, density=0.1))
    assert entry.name == "flare_sparse"


def test_resolve_explicit_checks_capabilities():
    with pytest.raises(CapabilityError, match="sparse payloads unsupported"):
        resolve(_request(algorithm="ring", sparse=True, density=0.5))
    with pytest.raises(CapabilityError, match="reproducibility"):
        resolve(_request(algorithm="flare_dense", reproducible=True))


def test_resolve_no_candidate_reports_reasons():
    # Sparse + reproducible: nothing declares both today.
    with pytest.raises(CapabilityError, match="no registered algorithm"):
        resolve(_request(sparse=True, density=0.5, reproducible=True))


def test_resolve_auto_all_matches_payload_rejected_combines_reasons():
    """auto + payloads, every capability match payload-rejected: the
    error lists capability reasons for non-matches AND the payload
    verdicts for the matches that refused the concrete data."""
    import numpy as np

    # reproducible + 6 hosts + float64: the capability matches are ring
    # (payload-rejects under auto: simulation-only) and flare_switch
    # (payload-rejects: no float64 cost); rabenseifner & co are
    # capability-rejected (power-of-two hosts).
    payloads = np.ones((6, 16), dtype=np.float64)
    request = _request(n_hosts=6, dtype="float64", reproducible=True)
    with pytest.raises(CapabilityError) as exc_info:
        resolve(request, payloads)
    detail = str(exc_info.value)
    assert "ring: " in detail and "timing/traffic simulation" in detail
    assert "flare_switch: " in detail and "float64" in detail
    assert "rabenseifner: " in detail and "power-of-two" in detail


def test_resolve_payload_reason_wins_over_capability_reason():
    """When an algorithm lands in *both* reason dicts (a capability
    probe that flips after matching), the payload verdict — the more
    specific diagnosis — must win in the combined message."""
    import numpy as np

    class FlakyCaps(AlgorithmCaps):
        calls = 0

        def rejects(self, request):
            FlakyCaps.calls += 1
            # Match once (so the payload hook runs and rejects), then
            # claim a capability reason on the rejection_reasons pass.
            return None if FlakyCaps.calls == 1 else "stale capability reason"

    @register_algorithm(
        "test_flaky",
        caps=FlakyCaps(dense=True, reproducible=True),
        payload_rejects=lambda req, p: "the payload verdict",
    )
    def plan_flaky(request):
        return SimpleNamespace(issue=lambda net, **kwargs: None)

    try:
        payloads = np.ones((6, 16), dtype=np.float64)
        request = _request(n_hosts=6, dtype="float64", reproducible=True)
        with pytest.raises(CapabilityError) as exc_info:
            resolve(request, payloads)
        detail = str(exc_info.value)
        assert "test_flaky: the payload verdict" in detail
        assert "stale capability reason" not in detail
    finally:
        unregister_algorithm("test_flaky")


def test_resolve_unknown_auto_mode_raises():
    with pytest.raises(CommError, match="unknown auto_mode 'nope'"):
        resolve(_request(params={"auto_mode": "nope"}))


def test_auto_modes_catalog_and_static_default():
    modes = available_auto_modes()
    assert "static" in modes and "cost" in modes
    explicit = resolve(_request(params={"auto_mode": "static"}))
    assert explicit.name == resolve(_request()).name == "flare_switch"


def test_request_validation():
    with pytest.raises(ValueError, match="nbytes"):
        CollectiveRequest(nbytes=0, n_hosts=4)
    with pytest.raises(ValueError, match="n_hosts"):
        CollectiveRequest(nbytes=64, n_hosts=0)
    with pytest.raises(ValueError, match="density"):
        CollectiveRequest(nbytes=64, n_hosts=4, density=0.0)
    # Only allreduce is implemented.
    with pytest.raises(ValueError, match="collective .*'broadcast'"):
        CollectiveRequest(nbytes=64, n_hosts=4, collective="broadcast",
                          algorithm="ring")


def test_request_signature_ignores_payload_but_not_shape():
    a = _request().signature()
    b = _request().signature()
    c = _request(nbytes=2048).signature()
    d = _request(params={"scheduler": "fcfs"}).signature()
    assert a == b
    assert a != c and a != d
