"""Property-based tests on the simulation engine (hypothesis).

Random small traces through random configurations must preserve the
engine's conservation laws and mode-independent invariants.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core import HitLocation, Organization, SimulationConfig, simulate
from repro.traces.record import Trace
from repro.traces.stats import compute_stats


@st.composite
def traces(draw):
    n = draw(st.integers(1, 120))
    n_clients = draw(st.integers(1, 6))
    n_docs = draw(st.integers(1, 25))
    clients = draw(
        st.lists(st.integers(0, n_clients - 1), min_size=n, max_size=n)
    )
    # Dense-id contract: the engine rejects gaps in the client id space,
    # so remap the drawn ids to 0..k-1 (ascending, like Trace.renumbered).
    remap = {c: i for i, c in enumerate(sorted(set(clients)))}
    clients = [remap[c] for c in clients]
    docs = draw(st.lists(st.integers(0, n_docs - 1), min_size=n, max_size=n))
    base_sizes = draw(
        st.lists(st.integers(1, 2_000), min_size=n_docs, max_size=n_docs)
    )
    # versions bump monotonically per doc with small probability
    bumps = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    versions = []
    current: dict[int, int] = {}
    sizes = []
    for i in range(n):
        d = docs[i]
        v = current.get(d, 0)
        if bumps[i] and d in current:
            v += 1
        current[d] = v
        versions.append(v)
        sizes.append(base_sizes[d] + v)  # version changes the size
    return Trace(
        timestamps=np.arange(n, dtype=float),
        clients=np.array(clients),
        docs=np.array(docs),
        sizes=np.array(sizes),
        versions=np.array(versions),
        name="prop",
    )


CONFIGS = st.builds(
    SimulationConfig,
    proxy_capacity=st.integers(0, 5_000),
    browser_capacity=st.integers(0, 2_000),
)


@settings(max_examples=60, deadline=None)
@given(trace=traces(), config=CONFIGS, org=st.sampled_from(list(Organization)))
def test_conservation_laws(trace, config, org):
    r = simulate(trace, org, config)
    # every request is classified exactly once
    total = sum(s.hits for s in r.by_location.values()) + r.by_location[
        HitLocation.ORIGIN
    ].misses
    assert total == len(trace)
    assert r.n_requests == len(trace)
    assert r.total_bytes == trace.total_bytes
    # ratios are proper fractions bounded by the infinite-cache maxima
    st_ = compute_stats(trace)
    assert 0.0 <= r.hit_ratio <= st_.max_hit_ratio + 1e-9
    assert 0.0 <= r.byte_hit_ratio <= st_.max_byte_hit_ratio + 1e-9
    # breakdown reconciles with the headline ratio
    assert abs(r.breakdown().total - r.hit_ratio) < 1e-9


@settings(max_examples=40, deadline=None)
@given(trace=traces(), config=CONFIGS)
def test_locations_match_organization_features(trace, config):
    for org in Organization:
        r = simulate(trace, org, config)
        f = org.features
        if not f.has_browsers:
            assert r.by_location[HitLocation.LOCAL_BROWSER].hits == 0
        if not f.has_proxy:
            assert r.by_location[HitLocation.PROXY].hits == 0
        if not f.has_index:
            assert r.by_location[HitLocation.REMOTE_BROWSER].hits == 0
        # core organizations never touch hierarchy locations
        assert r.by_location[HitLocation.SIBLING_PROXY].hits == 0
        assert r.by_location[HitLocation.PARENT_PROXY].hits == 0


@settings(max_examples=30, deadline=None)
@given(trace=traces(), config=CONFIGS)
def test_exact_index_never_false_hits(trace, config):
    r = simulate(trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert r.index_false_hits == 0


@settings(max_examples=30, deadline=None)
@given(trace=traces(), config=CONFIGS)
def test_determinism(trace, config):
    a = simulate(trace, Organization.BROWSERS_AWARE_PROXY, config)
    b = simulate(trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert a.hit_ratio == b.hit_ratio
    assert a.byte_hit_ratio == b.byte_hit_ratio
    assert a.by_location_remote_hits() == b.by_location_remote_hits()


@settings(max_examples=30, deadline=None)
@given(trace=traces(), capacity=st.integers(0, 5_000))
def test_zero_browser_baps_equals_proxy_only(trace, capacity):
    """With 0-byte browser caches, BAPS degenerates to proxy-cache-only."""
    config = SimulationConfig(proxy_capacity=capacity, browser_capacity=0)
    baps = simulate(trace, Organization.BROWSERS_AWARE_PROXY, config)
    proxy = simulate(trace, Organization.PROXY_ONLY, config)
    assert baps.hit_ratio == proxy.hit_ratio
    assert baps.by_location_remote_hits() == 0
