"""Cooperative multi-proxy federation (repro.federation).

Covers the digest layer (build/exchange/staleness accounting), the
federated engine's request path (cross-proxy hits, digest false hits
never silently rescued, missed hits), the single-proxy bit-identity
anchor, the bloom sizing agreement between the browser index and the
inter-proxy digests, the journal round-trip of the new counters, and
the end-to-end ``baps run federation`` sweep with its bracketing
anchors.
"""

import dataclasses
import hashlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.consistency.policies import (
    AdaptiveTTLPolicy,
    AlwaysValidatePolicy,
    FixedTTLPolicy,
)
from repro.core import (
    ChaosPlan,
    ChurnModel,
    FederationConfig,
    HitLocation,
    Organization,
    ProxyFaultModel,
    SimulationConfig,
    run_policy_sweep,
    simulate,
)
from repro.core.simulator import Simulator, bloom_expected_docs
from repro.index import PeriodicUpdatePolicy
from repro.index.checkpoint import CheckpointPolicy
from repro.experiments import federation as federation_experiment
from repro.federation import digest as digest_module
from repro.federation import (
    DigestDirectory,
    FederatedSimulator,
    LinkFaultModel,
    build_proxy_digest,
)
from repro.hierarchy.config import assign_proxy
from repro.traces.profiles import small_paper_trace
from repro.traces.record import Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from tests.conftest import assert_result_roundtrips, example_budget

ORG = Organization.BROWSERS_AWARE_PROXY


def make_trace(rows, name="fed-test"):
    """rows: (t, client, doc, size, version) tuples."""
    t, c, d, s, v = zip(*rows)
    return Trace(
        timestamps=np.array(t, dtype=np.float64),
        clients=np.array(c, dtype=np.int64),
        docs=np.array(d, dtype=np.int64),
        sizes=np.array(s, dtype=np.int64),
        versions=np.array(v, dtype=np.int64),
        name=name,
    )


# -- FederationConfig / partitioning ------------------------------------------


def test_federation_config_validates():
    with pytest.raises(ValueError):
        FederationConfig(n_proxies=0)
    with pytest.raises(ValueError):
        FederationConfig(digest_period=-1.0)
    with pytest.raises(ValueError):
        FederationConfig(interproxy_bandwidth_bps=0.0)
    with pytest.raises(ValueError):
        FederationConfig(partition="stripes")


def test_federation_transfer_time_is_setup_plus_wire_time():
    fed = FederationConfig(interproxy_setup=0.01, interproxy_bandwidth_bps=8e6)
    # 1000 bytes at 8 Mbit/s = 1 ms on the wire.
    assert fed.transfer_time(1000) == pytest.approx(0.01 + 0.001)


def test_assign_proxy_partitions():
    assert [assign_proxy(c, 3, 7, "interleave") for c in range(7)] == [
        0, 1, 2, 0, 1, 2, 0,
    ]
    # blocks: ceil(7/3) = 3 clients per block, last proxy takes the tail.
    assert [assign_proxy(c, 3, 7, "blocks") for c in range(7)] == [
        0, 0, 0, 1, 1, 1, 2,
    ]
    with pytest.raises(ValueError):
        assign_proxy(0, 2, 4, "stripes")


# -- single-proxy anchor -------------------------------------------------------


def test_single_proxy_federation_bit_identical(small_trace):
    """n_proxies=1 must reproduce the plain engine exactly, field for
    field — the anchor the experiment's bracketing relies on."""
    base = SimulationConfig.relative(small_trace, 0.10, browser_sizing="minimum")
    plain = simulate(small_trace, ORG, base)
    federated = simulate(
        small_trace, ORG, base.with_(federation=FederationConfig(n_proxies=1))
    )
    assert dataclasses.asdict(federated) == dataclasses.asdict(plain)
    assert federated.interproxy_hits == 0
    assert federated.digest_bytes_exchanged == 0


@pytest.mark.parametrize(
    "consistency",
    [None, FixedTTLPolicy(ttl=600.0), AlwaysValidatePolicy(), AdaptiveTTLPolicy()],
    ids=["none", "fixed-ttl", "always-validate", "adaptive-ttl"],
)
@pytest.mark.parametrize("org", list(Organization))
def test_single_proxy_identity_holds_for_every_organization(
    small_trace, org, consistency
):
    base = SimulationConfig.relative(
        small_trace, 0.05, browser_sizing="minimum", consistency=consistency
    )
    plain = simulate(small_trace, org, base)
    federated = simulate(
        small_trace, org, base.with_(federation=FederationConfig(n_proxies=1))
    )
    assert dataclasses.asdict(federated) == dataclasses.asdict(plain)


# -- multi-proxy fault runs, pinned ---------------------------------------------

#: sha256 of ``repr(dataclasses.asdict(result))`` for multi-proxy runs
#: whose proxies crash while peers probe them; recorded from the
#: federated engine's own loop before it moved onto
#: ``Simulator._replay``.  A peer probe that crashes a proxy must
#: rebind the handles the loop uses when that proxy next routes a
#: request; without that rebind all four digests change.
PINNED_FAULT_DIGESTS = {
    "crash": "33c05dc6fa36afa0bfd15b71f97a796b7933cc4761e8d8decd859265b19f4d75",
    "checkpoint": "1960e83085add62675face1049b6401e55c3f76de02a83b092bc8f254a65e253",
    "crash-rate": "c7af8060da1241df3c40f2e8ca5aec45b040887f2a80dcb9587e209b5f345f79",
    "chaos": "04b63fc824bb87e0ff002727ec8f64fc68acca442f529cbb5ebc76e4b9c7061c",
}


def _pinned_fault_config(trace, case):
    span = trace.duration
    base = SimulationConfig.relative(
        trace, 0.10, browser_sizing="minimum", max_holder_retries=1
    )
    crashes = ProxyFaultModel(crash_times=(0.3 * span, 0.65 * span))
    if case == "crash":
        return base.with_(
            proxy_faults=crashes,
            reannounce_rate=0.05,
            federation=FederationConfig(n_proxies=3, digest_period=span / 10),
        )
    if case == "checkpoint":
        return base.with_(
            index_kind="bloom",
            proxy_faults=crashes,
            reannounce_rate=0.05,
            checkpoint=CheckpointPolicy(interval=span / 20),
            federation=FederationConfig(n_proxies=4, digest_period=span / 10),
        )
    if case == "crash-rate":
        return base.with_(
            proxy_faults=ProxyFaultModel(crash_rate=4.0 / span),
            reannounce_rate=0.05,
            federation=FederationConfig(n_proxies=3, digest_period=span / 10),
        )
    return base.with_(
        index_kind="bloom",
        federation=FederationConfig(n_proxies=2, digest_period=span / 10),
        chaos=ChaosPlan(
            proxy_faults=ProxyFaultModel(crash_times=(0.3 * span, 0.7 * span)),
            churn=ChurnModel(),
            link_faults=LinkFaultModel(
                partition_windows=((0.4 * span, 0.6 * span),)
            ),
            check_invariants_every=500,
        ),
    )


@pytest.mark.parametrize("case", sorted(PINNED_FAULT_DIGESTS))
def test_multi_proxy_fault_runs_are_pinned(small_trace, case):
    result = simulate(small_trace, ORG, _pinned_fault_config(small_trace, case))
    assert result.proxy_crashes > 0 and result.interproxy_hits > 0
    digest = hashlib.sha256(repr(dataclasses.asdict(result)).encode()).hexdigest()
    assert digest == PINNED_FAULT_DIGESTS[case]


# -- digest build & exchange ---------------------------------------------------


def test_build_proxy_digest_covers_proxy_and_index_contents():
    trace = make_trace([
        (0.0, 0, 7, 100, 0),
        (1.0, 0, 8, 100, 0),
    ])
    config = SimulationConfig(proxy_capacity=10_000, browser_capacity=10_000)
    sim = Simulator(trace, ORG, config)
    sim.run()
    digest = build_proxy_digest(sim, capacity=64, bits_per_doc=16.0)
    assert 7 in digest and 8 in digest
    # the proxy holds both docs and the index claims both for client 0
    assert set(sim.index.claimed_docs()) == {7, 8}
    assert sim.index.claims_doc(7) and not sim.index.claims_doc(99)


def test_digest_exchange_respects_period_and_charges_bytes():
    # clients 0 (proxy 0) and 1 (proxy 1); requests at t=0, 50, 100
    # with a 100 s period: exchanges at t=0 and t=100 only.
    trace = make_trace([
        (0.0, 0, 1, 100, 0),
        (50.0, 1, 2, 100, 0),
        (100.0, 0, 3, 100, 0),
    ])
    fed = FederationConfig(n_proxies=2, digest_period=100.0)
    config = SimulationConfig(
        proxy_capacity=10_000, browser_capacity=10_000, federation=fed
    )
    engine = FederatedSimulator(trace, ORG, config)
    result = engine.run()
    assert engine.directory.exchanges == 2
    # each exchange: both proxies send one digest to their one peer
    per_exchange = sum(
        d.size_bytes for d in engine.directory.digests if d is not None
    )
    assert result.digest_bytes_exchanged == 2 * per_exchange
    assert result.interproxy_bandwidth_time > 0.0


def test_oracle_digest_period_charges_no_exchange_bytes():
    trace = make_trace([
        (0.0, 1, 1, 100, 0),
        (1.0, 0, 1, 100, 0),  # cross-proxy hit via live claims
    ])
    fed = FederationConfig(n_proxies=2, digest_period=0.0)
    config = SimulationConfig(
        proxy_capacity=10_000, browser_capacity=10_000, federation=fed
    )
    result = simulate(trace, ORG, config)
    assert result.interproxy_hits == 1
    assert result.digest_bytes_exchanged == 0
    assert result.digest_missed_hits == 0


@settings(max_examples=example_budget(20), deadline=None)
@given(
    n_proxies=st.integers(2, 4),
    index_knobs=st.sampled_from([
        {},
        {"index_kind": "bloom"},
        {"index_update_policy": PeriodicUpdatePolicy(threshold=1.0, min_docs=20)},
    ]),
    crash_frac=st.floats(0.1, 0.8),
    window_start=st.floats(0.1, 0.5),
    window_len=st.floats(0.1, 0.3),
    period_divisor=st.sampled_from([20, 40]),
    trace_seed=st.integers(0, 3),
    memory_fraction=st.sampled_from([None, 0.25]),
)
def test_counting_digests_match_from_scratch_builds(
    n_proxies, index_knobs, crash_frac, window_start, window_len,
    period_divisor, trace_seed, memory_fraction,
):
    """Every digest a proxy ships — periodic exchange or post-heal
    anti-entropy after the partition every run has, across a proxy
    crash that empties its proxy cache, from a plain or a tiered
    (memory/disk) proxy cache — has the bits, ``n_added`` and size of a
    from-scratch build at the same instant, and a digest already held
    in a (partitioned) view never changes afterwards."""
    trace = generate_trace(
        SyntheticTraceConfig(n_requests=1_500, n_clients=12, name="digests"),
        seed=trace_seed,
    )
    span = trace.duration
    window = (window_start * span, (window_start + window_len) * span)
    config = SimulationConfig.relative(
        trace, 0.10, browser_sizing="minimum"
    ).with_(
        max_holder_retries=1,
        proxy_faults=ProxyFaultModel(crash_times=(crash_frac * span,)),
        reannounce_rate=0.05,
        federation=FederationConfig(
            n_proxies=n_proxies,
            digest_period=span / period_divisor,
            link_faults=LinkFaultModel(partition_windows=(window,)),
        ),
        memory_fraction=memory_fraction,
        **index_knobs,
    )
    engine = FederatedSimulator(trace, ORG, config)
    build = digest_module.build_proxy_digest
    shipped = []

    def checked_build(sim, capacity, bits_per_doc, summary=None):
        assert summary is not None
        digest = build(sim, capacity, bits_per_doc, summary)
        scratch = build(sim, capacity, bits_per_doc)
        assert digest._bits.tolist() == scratch._bits.tolist()
        assert digest.n_added == scratch.n_added
        assert digest.size_bytes == scratch.size_bytes
        shipped.append((digest, digest._bits.tolist()))
        return digest

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digest_module, "build_proxy_digest", checked_build)
        result = engine.run()
    directory = engine.directory
    assert directory.antientropy_refreshes >= 1
    assert result.digest_exchanges_lost > 0 and result.proxy_crashes > 0
    assert result.uses_memory_tier == (memory_fraction is not None)
    for digest, bits in shipped:
        assert digest._bits.tolist() == bits
    held = {id(d) for row in directory.views for d in row if d is not None}
    assert held <= {id(d) for d, _ in shipped}


@settings(max_examples=example_budget(20), deadline=None)
@given(
    n_proxies=st.integers(2, 4),
    oracle=st.booleans(),
    partitioned=st.booleans(),
    index_knobs=st.sampled_from([{}, {"index_kind": "bloom"}]),
    crash_fracs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
    window_start=st.floats(0.1, 0.5),
    window_len=st.floats(0.1, 0.3),
    trace_seed=st.integers(0, 3),
)
@example(  # a probe crashes an oracle-claimed peer before the missed-hit loop
    n_proxies=2, oracle=True, partitioned=False, index_knobs={},
    crash_fracs=[0.05], window_start=0.5, window_len=0.25, trace_seed=0,
)
@example(
    n_proxies=3, oracle=False, partitioned=True, index_knobs={"index_kind": "bloom"},
    crash_fracs=[0.3, 0.7], window_start=0.3, window_len=0.2, trace_seed=1,
)
def test_interproxy_fetch_acts_on_fresh_claims(
    n_proxies, oracle, partitioned, index_knobs, crash_fracs, window_start,
    window_len, trace_seed,
):
    """Every claim ``_interproxy_fetch`` acts on equals a fresh
    ``DigestDirectory.claims`` call at the same instant.  The probe
    loop probes exactly the reachable peers claiming the document
    (read when the fetch starts: probing one peer leaves the others
    untouched), in order, until one serves; the missed-hit loop checks
    exactly the reachable peers not claiming it once the probes are
    done, in order, until one could have served.  Covers shared and
    partitioned views across exchanges, a partition heal (anti-entropy)
    and peer crashes, and oracle mode (``digest_period=0``), where a
    probe that crashes a peer changes that peer's claim between the
    two loops."""
    trace = generate_trace(
        SyntheticTraceConfig(n_requests=1_500, n_clients=12, name="claims"),
        seed=trace_seed,
    )
    span = trace.duration
    window = (window_start * span, (window_start + window_len) * span)
    config = SimulationConfig.relative(
        trace, 0.10, browser_sizing="minimum"
    ).with_(
        max_holder_retries=1,
        proxy_faults=ProxyFaultModel(crash_times=tuple(f * span for f in crash_fracs)),
        reannounce_rate=0.05,
        federation=FederationConfig(
            n_proxies=n_proxies,
            digest_period=0.0 if oracle else span / 20,
            link_faults=(
                LinkFaultModel(partition_windows=(window,)) if partitioned else None
            ),
        ),
        **index_knobs,
    )
    engine = FederatedSimulator(trace, ORG, config)
    directory, sims = engine.directory, engine.sims
    fetch, advance, could_serve = (
        engine._interproxy_fetch, engine._advance, engine._could_serve
    )
    acted: dict[str, list] | None = None  # the running fetch's actions
    fetches = probes = 0

    def spy_advance(q, t):
        if acted is not None:
            acted["probed"].append(q)
        advance(q, t)

    def spy_could_serve(qsim, c, d, v):
        acted["checked"].append(sims.index(qsim))
        return could_serve(qsim, c, d, v)

    def spy_fetch(home, pid, c, d, s, v, t):
        nonlocal acted, fetches, probes
        peers = [(pid + offset) % n_proxies for offset in range(1, n_proxies)]
        schedule = engine.link_schedule
        reachable = [
            q for q in peers if schedule is None or schedule.connected(pid, q)
        ]
        claimed = {q for q in peers if directory.claims(sims, q, d, viewer=pid)}
        acted = {"probed": [], "checked": []}
        served, memory = fetch(home, pid, c, d, s, v, t)
        probed, checked = acted["probed"], acted["checked"]
        acted = None
        fetches += 1
        probes += len(probed)
        want = [q for q in reachable if q in claimed]
        if served:
            assert probed and probed == want[: len(probed)]
            assert not checked
            return served, memory
        assert probed == want
        want = []
        for q in reachable:
            if not directory.claims(sims, q, d, viewer=pid):
                want.append(q)
                if could_serve(sims[q], c, d, v):
                    break
        assert checked == want
        return served, memory

    engine._interproxy_fetch = spy_fetch
    engine._advance = spy_advance
    engine._could_serve = spy_could_serve
    result = engine.run()
    assert fetches > 0 and probes > 0 and result.proxy_crashes > 0
    if not oracle:
        assert directory.exchanges > 1
        if partitioned:
            assert directory.antientropy_refreshes >= 1


# -- the cross-proxy request path ---------------------------------------------


def test_interproxy_hit_is_served_and_priced():
    # t=0: client 1 (proxy 1) fetches doc A from the origin.
    # t=100: client 1 re-hits A locally; the exchange at t=100 makes
    #        proxy 1's digest claim A.
    # t=101: client 0 (proxy 0) misses locally, digest directs it to
    #        proxy 1 — a SIBLING_PROXY hit over the inter-proxy link.
    trace = make_trace([
        (0.0, 1, 1, 100, 0),
        (100.0, 1, 1, 100, 0),
        (101.0, 0, 1, 100, 0),
    ])
    fed = FederationConfig(n_proxies=2, digest_period=100.0)
    config = SimulationConfig(
        proxy_capacity=10_000, browser_capacity=10_000, federation=fed
    )
    result = simulate(trace, ORG, config)
    assert result.interproxy_hits == 1
    assert result.hits == 2  # the local browser re-hit + the sibling hit
    assert result.interproxy_bandwidth_time >= fed.transfer_time(100)
    assert result.digest_false_hits == 0
    # the home proxy cached the cross-proxy fetch: a fourth request by
    # client 0 would now hit locally (checked via the shared ledger)
    follow_up = simulate(
        make_trace([
            (0.0, 1, 1, 100, 0),
            (100.0, 1, 1, 100, 0),
            (101.0, 0, 1, 100, 0),
            (102.0, 0, 1, 100, 0),
        ]),
        ORG,
        config,
    )
    assert follow_up.interproxy_hits == 1
    assert follow_up.hits == 3


def test_stale_digest_false_hit_is_charged_not_rescued():
    """A document evicted at the peer between exchanges: the digest
    still claims it, the probe must fail, charge
    ``wasted_false_hit_time``, and escalate to the origin — never be
    silently served from state the digest could not have known."""
    # browser_capacity 100 = one doc; proxy_capacity 100 with
    # cache_remote_hits... the proxy also holds one doc, so doc B
    # evicts A from both the browser and the proxy at the peer.
    trace = make_trace([
        (0.0, 1, 1, 100, 0),    # peer caches A (browser + proxy)
        (100.0, 1, 1, 100, 0),  # exchange at t=100: digest claims A
        (101.0, 1, 2, 100, 0),  # B evicts A everywhere at the peer
        (102.0, 0, 1, 100, 0),  # stale claim: probe fails, origin serves
    ])
    fed = FederationConfig(n_proxies=2, digest_period=100.0)
    config = SimulationConfig(
        proxy_capacity=100, browser_capacity=100, federation=fed
    )
    result = simulate(trace, ORG, config)
    assert result.digest_false_hits == 1
    assert result.interproxy_hits == 0
    assert result.overhead.wasted_false_hit_time >= fed.interproxy_setup
    # the request still completed — from the origin
    assert result.by_location[HitLocation.ORIGIN].misses == result.n_requests - result.hits


def test_stale_digest_false_hit_agrees_with_bloom_index_accounting():
    """Same eviction race with a bloom browser index at the peer: the
    per-proxy index charges its own false hit for the stale filter
    claim AND the federation charges the digest false hit — the two
    layers account the same wasted probe consistently.

    The peer's browser and proxy each hold 23 documents.  A client's
    filter is rebuilt after ``0.10 * max(cached, 20)`` changes: inserts
    2, 4, ..., 20 and 23 rebuild it, so the racing evict of A plus
    insert of B make 2 changes against a 2.3 threshold, and the filter
    still claims A."""
    trace = make_trace(
        [(float(doc), 1, doc, 100, 0) for doc in range(1, 24)]  # A = doc 1
        + [
            (100.0, 1, 2, 100, 0),  # local hit; exchange: digest claims A
            (101.0, 1, 24, 100, 0),  # B evicts A everywhere at the peer
            (102.0, 0, 1, 100, 0),  # stale claim: probe fails, origin serves
        ]
    )
    fed = FederationConfig(n_proxies=2, digest_period=100.0)
    config = SimulationConfig(
        proxy_capacity=2_300,
        browser_capacity=2_300,
        index_kind="bloom",
        federation=fed,
    )
    result = simulate(trace, ORG, config)
    assert result.digest_false_hits == 1
    assert result.interproxy_hits == 0
    # the peer's own bloom index also recorded the stale-claim probe
    assert result.index_false_hits >= 1
    lan_setup = config.lan.connection_setup
    assert result.overhead.wasted_false_hit_time >= (
        fed.interproxy_setup + lan_setup
    )


def test_missed_hit_counts_content_invisible_until_next_exchange():
    # digests exchanged at t=0 (empty); the peer acquires A afterwards;
    # client 0's request at t=5 cannot see it until the next exchange.
    trace = make_trace([
        (1.0, 1, 1, 100, 0),   # peer caches A after the t=1 exchange...
        (5.0, 0, 1, 100, 0),   # ...invisible: origin serves, missed hit
    ])
    fed = FederationConfig(n_proxies=2, digest_period=1000.0)
    config = SimulationConfig(
        proxy_capacity=10_000, browser_capacity=10_000, federation=fed
    )
    result = simulate(trace, ORG, config)
    assert result.interproxy_hits == 0
    assert result.digest_missed_hits == 1
    assert result.digest_false_hits == 0


@pytest.mark.parametrize("crash_seen_by", ["peer probe", "own local hit"])
def test_peak_entries_follow_a_crash_outside_a_sampled_request(crash_seen_by):
    """The federation-wide index peak is sampled after requests that
    reach the fill tail.  Both proxies crash at t=2.5.  Proxy 0 (client
    0) learns it on its next request and refills to one entry: 1 + 2
    sampled, the peak.  Proxy 1 (client 1, two entries) learns it
    outside a sampled request: in proxy 0's peer probe for doc 1
    (oracle claims read proxy 1's pre-crash cache), or in client 1's
    own local browser hit.  Proxy 0's next fill must then sample 2 + 0
    entries, not a stale 2 + 2 for proxy 1."""
    rows = [
        (0.0, 1, 1, 100, 0),
        (1.0, 1, 2, 100, 0),
        (3.0, 0, 10, 100, 0),
    ]
    if crash_seen_by == "peer probe":
        rows.append((4.0, 0, 1, 100, 0))
    else:
        rows += [(4.0, 1, 1, 100, 0), (5.0, 0, 11, 100, 0)]
    config = SimulationConfig(
        proxy_capacity=10_000,
        browser_capacity=10_000,
        proxy_faults=ProxyFaultModel(crash_times=(2.5,)),
        reannounce_rate=1e-6,
        federation=FederationConfig(n_proxies=2, digest_period=0.0),
    )
    result = simulate(make_trace(rows), ORG, config)
    assert result.proxy_crashes == 2
    assert result.index_peak_entries == 3
    if crash_seen_by == "peer probe":
        assert result.digest_false_hits == 1


def test_blocks_partition_changes_ownership():
    # 3 clients over 2 proxies.  Interleave puts clients 0 and 1 on
    # different proxies (cross-proxy hit); blocks groups them on proxy
    # 0 (plain home-proxy hit, no inter-proxy traffic for doc 1).
    rows = [
        (0.0, 1, 1, 100, 0),
        (0.5, 2, 9, 50, 0),  # client 2 only widens the population
        (1.0, 0, 1, 100, 0),
    ]
    roomy = dict(proxy_capacity=10_000, browser_capacity=10_000)
    interleave = simulate(
        make_trace(rows), ORG,
        SimulationConfig(
            federation=FederationConfig(n_proxies=2, digest_period=0.0), **roomy
        ),
    )
    blocks = simulate(
        make_trace(rows), ORG,
        SimulationConfig(
            federation=FederationConfig(
                n_proxies=2, digest_period=0.0, partition="blocks"
            ),
            **roomy,
        ),
    )
    assert interleave.interproxy_hits == 1
    assert blocks.interproxy_hits == 0
    assert blocks.by_location[HitLocation.PROXY].hits == 1


# -- bloom sizing agreement (regression) --------------------------------------


def test_bloom_index_and_digest_share_sizing_arithmetic(small_trace):
    """``Simulator._new_index`` and the federation digest must size
    their filters from the same ``bloom_expected_docs`` arithmetic, so
    both layers budget false positives for the same claim set."""
    config = SimulationConfig.relative(
        small_trace, 0.10, browser_sizing="minimum"
    ).with_(index_kind="bloom")
    sim = Simulator(small_trace, ORG, config)
    n_clients = int(small_trace.clients.max()) + 1
    expected = bloom_expected_docs(small_trace, config.browser_capacity)
    assert sim.index.expected_docs == expected

    engine = FederatedSimulator(
        small_trace, ORG,
        config.with_(federation=FederationConfig(n_proxies=2)),
    )
    members = -(-n_clients // 2)
    avg_doc = max(1, int(small_trace.sizes.mean()))
    assert engine.directory.capacity == (
        max(1, config.proxy_capacity // avg_doc) + expected * members
    )


def test_bloom_expected_docs_fallback_paths():
    empty = Trace.empty()
    assert bloom_expected_docs(empty, 4096) == max(8, 4096 // 1)
    trace = make_trace([(0.0, 0, 1, 100, 0)])
    assert bloom_expected_docs(trace, 1000) == max(8, 1000 // 100)
    assert bloom_expected_docs(trace, 0) == 8


# -- the holder map behind truth queries ----------------------------------------


def browser_walk(sim):
    """doc -> {client: version}, walked from every browser cache."""
    holders = {}
    for c, cache in enumerate(sim.browsers):
        for doc in cache:
            holders.setdefault(doc, {})[c] = cache.peek(doc).version
    return holders


@pytest.mark.parametrize(
    "index_knobs",
    [
        {"index_kind": "bloom"},
        {"index_update_policy": PeriodicUpdatePolicy(threshold=1.0, min_docs=50)},
    ],
    ids=["bloom", "periodic"],
)
def test_holder_map_matches_browser_caches(small_trace, index_knobs):
    """A per-proxy engine answers truth queries (missed-hit, false-miss
    and lost-to-recovery checks) from its holder map, which only its
    member clients ever enter, because a non-member's browser cache at
    a proxy is never written.  After a run with churn, failover and a
    proxy crash, every proxy's map equals a walk of its browser
    caches."""
    config = SimulationConfig.relative(
        small_trace, 0.10, browser_sizing="minimum"
    ).with_(
        churn=ChurnModel(),
        max_holder_retries=2,
        proxy_faults=ProxyFaultModel(crash_times=(0.5 * small_trace.duration,)),
        reannounce_rate=0.001,
        federation=FederationConfig(n_proxies=4, digest_period=600.0),
        **index_knobs,
    )
    engine = FederatedSimulator(small_trace, ORG, config)
    result = engine.run()
    for pid, sim in enumerate(engine.sims):
        for c, cache in enumerate(sim.browsers):
            if engine.owner[c] != pid:
                assert len(cache) == 0, (pid, c)
        assert sim._holders, pid  # (else the comparison is vacuous)
        assert sim._holders == browser_walk(sim), pid
    assert result.proxy_crashes > 0
    assert result.digest_missed_hits > 0
    assert result.hits_lost_to_recovery > 0
    if "index_update_policy" in index_knobs:
        assert result.index_stats.false_misses > 0


# -- journal round-trip --------------------------------------------------------


def test_federated_result_roundtrips_through_journal(small_trace):
    config = SimulationConfig.relative(
        small_trace, 0.10, browser_sizing="minimum"
    ).with_(federation=FederationConfig(n_proxies=2, digest_period=600.0))
    result = simulate(small_trace, ORG, config)
    assert result.interproxy_hits > 0
    assert result.digest_bytes_exchanged > 0
    restored = assert_result_roundtrips(result)
    assert restored.interproxy_hits == result.interproxy_hits
    assert restored.digest_false_hits == result.digest_false_hits
    assert restored.digest_missed_hits == result.digest_missed_hits
    assert restored.digest_bytes_exchanged == result.digest_bytes_exchanged
    assert restored.interproxy_bandwidth_time == result.interproxy_bandwidth_time


# -- the end-to-end experiment -------------------------------------------------


@pytest.fixture(scope="module")
def federation_run():
    trace = small_paper_trace("NLANR-uc")
    return trace, federation_experiment.run(trace=trace, workers=0)


def test_experiment_single_anchor_matches_plain_sweep(federation_run):
    """The sweep's single-proxy anchor must be the existing ``baps
    run`` result for the same cell — bit-identical, not just 1e-9."""
    trace, res = federation_run
    sweep = run_policy_sweep(
        trace, organizations=(ORG,), fractions=(0.10,),
        browser_sizing="minimum",
    )
    anchor = sweep.results[(ORG, 0.10)]
    assert dataclasses.asdict(res.single_proxy) == dataclasses.asdict(anchor)
    assert abs(res.single_proxy.hit_ratio - anchor.hit_ratio) < 1e-9


def test_experiment_brackets_every_federated_cell(federation_run):
    """Every federated point lands strictly between the single-proxy
    floor and its fresh-digest oracle ceiling."""
    _, res = federation_run
    assert res.brackets_all()
    floor = res.single_proxy.hit_ratio
    for n in res.proxy_counts:
        top = res.fresh[n].hit_ratio
        assert floor < top
        for period in res.digest_periods:
            assert floor < res.cell(n, period).hit_ratio < top


def test_experiment_counters_are_exercised(federation_run):
    _, res = federation_run
    for cell in res.cells.values():
        assert cell.interproxy_hits > 0
        assert cell.digest_bytes_exchanged > 0
        assert cell.interproxy_bandwidth_time > 0.0
    # staleness must actually show up somewhere in the grid
    assert sum(c.digest_false_hits for c in res.cells.values()) > 0
    assert sum(c.digest_missed_hits for c in res.cells.values()) > 0
    # the oracle anchors exchange nothing
    for n in res.proxy_counts:
        assert res.fresh[n].digest_bytes_exchanged == 0
        assert res.fresh[n].digest_missed_hits == 0


def test_experiment_render_mentions_anchors(federation_run):
    _, res = federation_run
    table = res.render()
    assert "fresh digest" in table
    assert "single proxy" in table
