"""Cross-feature integration: the engine's optional features must
compose (policies × index kinds × tiers × churn × consistency)."""

import pytest

from repro.consistency import AdaptiveTTLPolicy
from repro.core import Organization, SimulationConfig, simulate
from repro.index.staleness import PeriodicUpdatePolicy


def test_slru_policy_end_to_end(small_trace):
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.1,
        proxy_policy="slru",
        browser_policy="slru",
    )
    r = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert 0 < r.hit_ratio < 1
    assert r.by_location_remote_hits() > 0


def test_mixed_policies_browser_vs_proxy(small_trace):
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.1,
        proxy_policy="gdsf",
        browser_policy="lru",
    )
    r = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert r.n_requests == len(small_trace)


def test_bloom_index_with_churn(small_trace):
    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.1, index_kind="bloom"
    ).with_(holder_availability=0.6)
    r = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert r.holder_unavailable > 0
    assert r.n_requests == len(small_trace)


def test_periodic_index_with_consistency(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        index_update_policy=PeriodicUpdatePolicy(threshold=0.1),
        consistency=AdaptiveTTLPolicy(),
    )
    r = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert r.n_requests == len(small_trace)
    assert r.consistency_stats.validations > 0


def test_tiered_with_ttl_and_security(small_trace):
    from repro.security import SecurityOverheadModel

    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.1,
        memory_fraction=0.1,
        security=SecurityOverheadModel(),
    )
    r = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert r.uses_memory_tier
    if r.by_location_remote_hits():
        assert r.overhead.security_time > 0


def test_everything_at_once(small_trace):
    """The kitchen sink must still conserve requests."""
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.1,
        browser_sizing="average",
        memory_fraction=0.1,
        browser_memory_fraction=0.5,
        index_kind="bloom",
    ).with_(
        holder_availability=0.8,
        consistency=AdaptiveTTLPolicy(),
    )
    from repro.core import HitLocation

    r = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    total = r.hits + r.by_location[HitLocation.ORIGIN].misses
    assert total == len(small_trace)
    assert r.n_requests == len(small_trace)
    assert 0 < r.hit_ratio < 1
    assert abs(r.breakdown().total - r.hit_ratio) < 1e-9


def test_tiered_rejects_slru(small_trace):
    from repro.core import Simulator

    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.1, memory_fraction=0.1, browser_policy="slru"
    )
    with pytest.raises(ValueError, match="LRU"):
        Simulator(small_trace, Organization.PROXY_AND_LOCAL_BROWSER, config)
