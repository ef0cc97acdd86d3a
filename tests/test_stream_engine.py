"""The flat-state streaming engine is bit-identical to the simulator.

``simulate_stream`` replays the same loop as ``simulate`` with
per-client hot state in flat arrays instead of per-client cache
objects; every field of the returned :class:`SimulationResult` —
counters, accumulated float overheads, index statistics — must match
exactly for every supported configuration, whether the source is a
materialised ``Trace`` or a ``TraceStream``.  The support matrix at
the end classifies every :class:`SimulationConfig` field as supported
(with an identity case) or rejected by name.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.consistency.policies import FixedTTLPolicy
from repro.core import (
    AdversarialConfig,
    ChaosPlan,
    CheckpointPolicy,
    ChurnModel,
    FederationConfig,
    MassChurnSchedule,
    Organization,
    ProxyFaultModel,
    SimulationConfig,
    simulate,
    simulate_stream,
)
from repro.cache import LRUCache
from repro.cache.flat import DOC_BITS, DOC_MASK
from repro.core.simulator import Simulator
from repro.core.stream_engine import StreamSimulator, check_stream_config
from repro.federation import FederatedSimulator
from repro.index import BrowserIndex, IndexEntry
from repro.index.chain import ChainIndex
from repro.index.engine_bloom import BloomBrowserIndex
from repro.index.staleness import PeriodicUpdatePolicy
from repro.network.ethernet import EthernetModel
from repro.network.latency import MemoryDiskModel
from repro.network.topology import WANModel
from repro.security.protocols import SecurityOverheadModel
from repro.traces import SyntheticTraceConfig, TraceStream, generate_trace
from repro.traces.record import Trace
from tests.conftest import example_budget

ALL_ORGS = list(Organization)


def assert_identical(trace, config, orgs=ALL_ORGS, source=None):
    for org in orgs:
        a = dataclasses.asdict(simulate(trace, org, config))
        b = dataclasses.asdict(simulate_stream(source or trace, org, config))
        assert a == b, f"stream engine diverged for {org}"


def small_trace(seed=0, n=2_000, clients=25):
    return generate_trace(
        SyntheticTraceConfig(n_requests=n, n_clients=clients), seed=seed
    )


def test_identical_base_config():
    t = small_trace()
    assert_identical(t, SimulationConfig.relative(t, proxy_frac=0.1, browser_sizing="minimum"))


def test_identical_fifo_proxy():
    t = small_trace(2)
    cfg = SimulationConfig.relative(t, proxy_frac=0.1, browser_sizing="minimum").with_(
        proxy_policy="fifo"
    )
    assert_identical(t, cfg)


def test_identical_security_model():
    t = small_trace(5)
    cfg = SimulationConfig.relative(t, proxy_frac=0.1, browser_sizing="minimum").with_(
        security=SecurityOverheadModel()
    )
    assert_identical(t, cfg)


def test_identical_from_trace_stream():
    tc = SyntheticTraceConfig(n_requests=1_500, n_clients=20)
    trace = generate_trace(tc, seed=7)
    stream = TraceStream(tc, seed=7, chunk_rows=256)
    cfg = SimulationConfig.relative(trace, proxy_frac=0.1, browser_sizing="minimum")
    assert_identical(trace, cfg, source=stream)


@st.composite
def fault_knobs(draw):
    """The fault knobs the flat backend accepts that run remote delivery
    and failover between a request's browser probe and its fill: churn,
    failover retries, corruption with quarantine, and the bloom index."""
    kw = {
        "max_holder_retries": draw(st.integers(0, 3)),
        "index_kind": draw(st.sampled_from(["exact", "bloom"])),
        "availability_seed": draw(st.integers(0, 2**20)),
    }
    if draw(st.booleans()):
        # sessions of minutes to hours over the one-day trace
        kw["churn"] = ChurnModel(
            mean_on_seconds=draw(st.floats(300.0, 20_000.0)),
            mean_off_seconds=draw(st.floats(300.0, 20_000.0)),
            distribution=draw(st.sampled_from(["exponential", "pareto"])),
        )
    if draw(st.booleans()):
        kw["corruption_rate"] = draw(st.sampled_from([0.1, 0.3, 0.6]))
        kw["quarantine_threshold"] = draw(st.integers(0, 2))
    return kw


@st.composite
def trace_shapes(draw):
    """A spread trace (up to 300 requests over up to 12 clients) or a
    clustered one (300-600 requests over 4-8 clients, almost all
    re-references to shared documents).  Spread traces seldom reach the
    code between a probe and its fill; clustered ones serve a remote hit
    in most examples, and with the fault knobs fail over or reject a
    corrupt transfer in many."""
    if draw(st.booleans()):
        return SyntheticTraceConfig(
            n_requests=draw(st.integers(300, 600)),
            n_clients=draw(st.integers(4, 8)),
            p_new=0.15,
            p_self=0.05,
            private_doc_frac=0.0,
        )
    return SyntheticTraceConfig(
        n_requests=draw(st.integers(1, 300)), n_clients=draw(st.integers(1, 12))
    )


@given(
    seed=st.integers(0, 2**31),
    shape=trace_shapes(),
    proxy_frac=st.sampled_from([0.02, 0.1, 0.5]),
    knobs=fault_knobs(),
)
@settings(max_examples=example_budget(30), deadline=None)
def test_identical_property(seed, shape, proxy_frac, knobs):
    t = generate_trace(shape, seed=seed)
    if not t.has_dense_clients:  # n < clients cannot cover every id
        t = t.renumbered()
    cfg = SimulationConfig.relative(
        t, proxy_frac=proxy_frac, browser_sizing="minimum"
    ).with_(**knobs)
    assert_identical(t, cfg)


# -- tiny hand traces hit the cache corner cases -------------------------------


def hand(rows, versions=None):
    n = len(rows)
    return Trace(
        timestamps=np.array([float(r[0]) for r in rows]),
        clients=np.array([r[1] for r in rows], dtype=np.int64),
        docs=np.array([r[2] for r in rows], dtype=np.int64),
        sizes=np.array([r[3] for r in rows], dtype=np.int64),
        versions=np.array(versions or [0] * n, dtype=np.int64),
        name="hand",
    )


def test_identical_oversized_and_refresh_corners():
    # oversized insert, oversized refresh (evicts itself), and a
    # version bump refreshing in place
    t = hand(
        [(0.0, 0, 0, 80), (1.0, 0, 1, 200), (2.0, 0, 0, 150), (3.0, 1, 0, 150)],
        versions=[0, 0, 1, 1],
    )
    cfg = SimulationConfig(proxy_capacity=0, browser_capacity=100)
    assert_identical(t, cfg)


def test_identical_zero_capacity_and_empty():
    t = hand([(0.0, 0, 0, 10), (1.0, 1, 0, 10)])
    for browser_capacity in (0, 50):
        cfg = SimulationConfig(proxy_capacity=0, browser_capacity=browser_capacity)
        assert_identical(t, cfg)
    empty = Trace(
        timestamps=np.array([]),
        clients=np.array([], dtype=np.int64),
        docs=np.array([], dtype=np.int64),
        sizes=np.array([], dtype=np.int64),
        versions=np.array([], dtype=np.int64),
        name="empty",
    )
    assert_identical(empty, SimulationConfig(proxy_capacity=10, browser_capacity=10))


# -- subset validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "knob",
    [
        dict(memory_fraction=0.5),
        dict(browser_policy="fifo"),
    ],
)
def test_unsupported_knobs_rejected(knob):
    t = hand([(0.0, 0, 0, 10)])
    cfg = SimulationConfig(proxy_capacity=100, browser_capacity=100).with_(**knob)
    with pytest.raises(ValueError, match="simulate_stream does not support"):
        simulate_stream(t, Organization.BROWSERS_AWARE_PROXY, cfg)


def test_check_stream_config_accepts_defaults():
    check_stream_config(SimulationConfig(proxy_capacity=1, browser_capacity=1))


def test_sparse_source_rejected():
    t = hand([(0.0, 0, 0, 10), (1.0, 7, 0, 10)])
    cfg = SimulationConfig(proxy_capacity=100, browser_capacity=100)
    with pytest.raises(ValueError, match="sparse client ids"):
        simulate_stream(t, Organization.PROXY_AND_LOCAL_BROWSER, cfg)
    # fewer requests than clients: the stream cannot cover every id
    stream = TraceStream(SyntheticTraceConfig(n_requests=5, n_clients=50), seed=0)
    assert not stream.has_dense_clients
    with pytest.raises(ValueError, match="sparse client ids"):
        simulate_stream(stream, Organization.PROXY_AND_LOCAL_BROWSER, cfg)


def test_doc_id_beyond_packed_key_refused():
    t = hand([(0.0, 0, 0, 10), (1.0, 1, 2**40, 10)])
    cfg = SimulationConfig(proxy_capacity=100, browser_capacity=100)
    with pytest.raises(ValueError, match=f"packed-key limit \\({2**40}\\)"):
        simulate_stream(t, Organization.BROWSERS_AWARE_PROXY, cfg)
    # one below the limit replays
    ok = hand([(0.0, 0, 0, 10), (1.0, 1, 2**40 - 1, 10)])
    assert_identical(ok, cfg)


def test_flat_state_no_per_client_objects():
    """A high-client-count replay must not allocate per-client cache
    objects: flat arrays keep per-client cost to a few machine words."""
    import tracemalloc

    n_clients = 200_000
    n = 250_000
    rng = np.random.default_rng(0)
    clients = np.concatenate(
        [
            np.arange(n_clients, dtype=np.int64),  # every id appears
            rng.integers(0, n_clients, size=n - n_clients, dtype=np.int64),
        ]
    )
    t = Trace(
        timestamps=np.arange(n, dtype=float),
        clients=clients,
        docs=rng.integers(0, 5_000, size=n, dtype=np.int64),
        sizes=np.full(n, 1_000, dtype=np.int64),
        versions=np.zeros(n, dtype=np.int64),
        name="wide",
    )
    cfg = SimulationConfig(proxy_capacity=10_000_000, browser_capacity=10_000)

    tracemalloc.start()
    try:
        simulate(t, Organization.PROXY_AND_LOCAL_BROWSER, cfg)
        _, object_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    tracemalloc.start()
    try:
        simulate_stream(t, Organization.PROXY_AND_LOCAL_BROWSER, cfg)
        _, flat_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    # the materialised engine allocates an LRUCache + OrderedDict per
    # client plus per-client handle lists; the flat slot pool must cost
    # well under half of that at this client width.
    assert flat_peak < object_peak / 2, (
        f"flat replay peaked at {flat_peak:,} B, object engine at "
        f"{object_peak:,} B — expected < half"
    )


def test_truth_queries_read_the_holder_map_not_the_caches(monkeypatch):
    """Truth queries (missed-hit, false-miss and lost-to-recovery
    checks) answer from the engine's holder map, which on the flat
    backend is the pool's holder chains: on a stream + bloom cell the
    chains equal a walk of the slot pool, and a query makes no
    ``FlatBrowsers.probe``/``LRUCache.peek`` call.  Cells where no truth
    query can be asked (exact index, no crash recovery, no federation of
    several proxies) allocate no map, and flat cells keep chains only
    where the exact index or a truth query reads them."""
    trace = small_trace()
    base = SimulationConfig.relative(trace, 0.10, browser_sizing="minimum")
    baps = Organization.BROWSERS_AWARE_PROXY
    sim = StreamSimulator(trace, baps, base.with_(index_kind="bloom"))
    sim.run()
    flat = sim.flat
    walked = {}
    for c in range(len(flat.head)):
        slot = flat.head[c]
        while slot >= 0:
            walked.setdefault(flat.e_key[slot] & DOC_MASK, {})[c] = flat.e_ver[slot]
            slot = flat.e_next[slot]
    chained = {}
    for doc, slot in flat.chain_head.items():
        while slot >= 0:
            chained.setdefault(doc, {})[flat.e_key[slot] >> DOC_BITS] = flat.e_ver[slot]
            slot = flat.e_hnext[slot]
    assert walked and chained == walked and sim._holders is None

    peeks = []
    monkeypatch.setattr(flat, "probe", lambda *a: peeks.append(a) or -1)
    monkeypatch.setattr(LRUCache, "peek", lambda *a: peeks.append(a))
    for doc, held in walked.items():
        for v in {*held.values(), max(held.values()) + 1}:
            for exclude in (-1, *held):
                want = any(c != exclude and w == v for c, w in held.items())
                assert sim._truth_holds(doc, v, exclude) == want
    assert not sim._truth_holds(max(walked) + 1, 0, -1)
    assert peeks == []
    monkeypatch.undo()

    checkpoint_only = base.with_(checkpoint=CheckpointPolicy(interval=60.0))
    for engine in (Simulator, StreamSimulator):
        flat = engine is StreamSimulator
        for config in (base, checkpoint_only):
            quiet = engine(trace, baps, config)
            quiet.run()
            assert quiet._holders is None
            if flat:
                # only the exact index (a chain index on this cell) reads chains
                chains = quiet.flat.chain_head is not None
                assert chains == isinstance(quiet.index, ChainIndex) == (config is base)
        for knobs in (
            {"index_kind": "bloom"},
            {"index_update_policy": PeriodicUpdatePolicy(threshold=1.0, min_docs=20)},
            {"proxy_faults": ProxyFaultModel(crash_times=(trace.duration / 2,))},
        ):
            tracked = engine(trace, baps, base.with_(**knobs))
            if flat:
                assert tracked._holders is None and tracked.flat.chain_head == {}
            else:
                assert tracked._holders == {}
    # no index, no reader: the pool keeps no chains
    no_index = StreamSimulator(trace, Organization.PROXY_AND_LOCAL_BROWSER, base)
    assert no_index.index is None and no_index.flat.chain_head is None
    for n_proxies in (1, 2):
        federated = FederatedSimulator(
            trace, baps, base.with_(federation=FederationConfig(n_proxies=n_proxies))
        )
        assert [s._holders is None for s in federated.sims] == [n_proxies == 1] * n_proxies


# -- knob support matrix -------------------------------------------------------

MATRIX_TRACE = small_trace(11)
_SPAN = MATRIX_TRACE.duration
_CRASHES = ProxyFaultModel(crash_times=(0.3 * _SPAN, 0.6 * _SPAN))

#: supported config field -> overrides exercising it; each replays
#: bit-identically through ``simulate_stream`` and ``simulate``.
SUPPORTED = {
    "proxy_capacity": dict(proxy_capacity=20_000),
    "browser_capacity": dict(browser_capacity=4_000),
    "proxy_policy": dict(proxy_policy="fifo"),
    "index_kind": dict(index_kind="bloom"),
    "index_update_policy": dict(
        index_update_policy=PeriodicUpdatePolicy(threshold=0.5, min_docs=8)
    ),
    "lan": dict(lan=EthernetModel(bandwidth_bps=100e6, connection_setup=0.01)),
    "wan": dict(wan=WANModel(connection_setup=0.2, bandwidth_bps=5e6)),
    "storage": dict(storage=MemoryDiskModel(disk_page_bytes=8192)),
    "security": dict(security=SecurityOverheadModel()),
    "holder_availability": dict(holder_availability=0.6, max_holder_retries=2),
    "churn": dict(churn=ChurnModel(mean_on_seconds=60.0, mean_off_seconds=30.0)),
    "max_holder_retries": dict(max_holder_retries=3, holder_availability=0.5),
    "corruption_rate": dict(corruption_rate=0.3, max_holder_retries=1),
    "proxy_faults": dict(proxy_faults=_CRASHES),
    "checkpoint": dict(
        proxy_faults=_CRASHES, checkpoint=CheckpointPolicy(interval=_SPAN / 10)
    ),
    "reannounce_rate": dict(proxy_faults=_CRASHES, reannounce_rate=0.005),
    "availability_seed": dict(holder_availability=0.7, availability_seed=99),
    "adversarial": dict(
        adversarial=AdversarialConfig(
            polluter_fraction=0.2,
            flapper_fraction=0.2,
            flap_schedule=MassChurnSchedule(windows=((0.2 * _SPAN, 0.5 * _SPAN),)),
        ),
        max_holder_retries=2,
    ),
    "quarantine_threshold": dict(
        corruption_rate=0.4, quarantine_threshold=1, max_holder_retries=2
    ),
    "static_blacklist": dict(static_blacklist=(0, 3, 5)),
    "chaos": dict(
        chaos=ChaosPlan(
            proxy_faults=_CRASHES,
            churn=ChurnModel(),
            seed=3,
            check_invariants_every=100,
        )
    ),
}

#: supported config field -> the index class a flat BAPS cell builds
#: with its overrides: the chain index (a view of the slot pool), or a
#: ``BrowserIndex``/``BloomBrowserIndex`` fed by the fills' event handles
#: where entries need state the slots do not keep (bloom filters,
#: periodic batches, crash snapshots and re-announcements).
FLAT_INDEX = {
    **dict.fromkeys(
        (
            "proxy_capacity",
            "browser_capacity",
            "proxy_policy",
            "lan",
            "wan",
            "storage",
            "security",
            "holder_availability",
            "churn",
            "max_holder_retries",
            "corruption_rate",
            "availability_seed",
            "adversarial",
            "quarantine_threshold",
            "static_blacklist",
        ),
        ChainIndex,
    ),
    "index_kind": BloomBrowserIndex,
    **dict.fromkeys(
        (
            "index_update_policy",
            "proxy_faults",
            "checkpoint",
            "reannounce_rate",
            "chaos",
        ),
        BrowserIndex,
    ),
}

#: rejected config field -> (overrides tripping the rejection, the
#: knob name the error carries).
REJECTED = {
    "memory_fraction": (dict(memory_fraction=0.5), "the tiered memory model"),
    "browser_memory_fraction": (
        dict(memory_fraction=0.5, browser_memory_fraction=0.25),
        "the tiered memory model",
    ),
    "browser_policy": (dict(browser_policy="fifo"), "browser_policy='fifo'"),
    "consistency": (dict(consistency=FixedTTLPolicy(ttl=10.0)), "consistency"),
    "federation": (dict(federation=FederationConfig(n_proxies=2)), "federation"),
}


def test_support_matrix_classifies_every_field():
    """A new SimulationConfig field fails here until someone decides
    whether the flat backend supports it or rejects it by name."""
    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    assert not set(SUPPORTED) & set(REJECTED)
    assert set(SUPPORTED) | set(REJECTED) == fields
    # ... and, if supported, which index the flat backend builds for it
    assert set(FLAT_INDEX) == set(SUPPORTED)


def _matrix_base() -> SimulationConfig:
    return SimulationConfig.relative(
        MATRIX_TRACE, proxy_frac=0.05, browser_sizing="minimum"
    )


@pytest.mark.parametrize("field", sorted(SUPPORTED))
def test_supported_knob_identical(field):
    assert_identical(MATRIX_TRACE, _matrix_base().with_(**SUPPORTED[field]))


@pytest.mark.parametrize("field", sorted(SUPPORTED))
def test_supported_knob_builds_its_index(field):
    config = _matrix_base().with_(**SUPPORTED[field])
    sim = StreamSimulator(MATRIX_TRACE, Organization.BROWSERS_AWARE_PROXY, config)
    assert type(sim.index) is FLAT_INDEX[field]


@pytest.mark.parametrize(
    "proxy_capacity", [1_000_000_000, 500_000], ids=["unbounded-proxy", "small-proxy"]
)
def test_chain_index_cell_reports_no_browser_event(monkeypatch, proxy_capacity):
    """A cell shaped like the streamed 1M-client BAPS cell (exact index,
    20 kB browsers) replays with every per-event index path disabled,
    and equals the object engine's replay.  The unbounded proxy of that
    cell holds every document some browser holds, so only the small
    proxy sends requests down the remote-browser path."""
    tc = SyntheticTraceConfig(n_requests=3_000, n_clients=300)
    config = SimulationConfig(proxy_capacity=proxy_capacity, browser_capacity=20_000)
    baps = Organization.BROWSERS_AWARE_PROXY

    def refuse(*args, **kwargs):
        raise AssertionError("per-event index call on a chain-index cell")

    with monkeypatch.context() as patched:
        for target, name in (
            (BrowserIndex, "record_insert"),
            (BrowserIndex, "record_evict"),
            (IndexEntry, "__init__"),
        ):
            patched.setattr(target, name, refuse)
        flat = simulate_stream(TraceStream(tc, seed=5), baps, config)
    want = simulate(generate_trace(tc, seed=5), baps, config)
    assert flat.index_lookups > 0 and flat.overhead.index_update_messages > 0
    assert (flat.by_location_remote_hits() > 0) == (proxy_capacity < 1_000_000_000)
    assert dataclasses.asdict(flat) == dataclasses.asdict(want)


@pytest.mark.parametrize("field", sorted(REJECTED))
def test_rejected_knob_named(field):
    overrides, knob = REJECTED[field]
    cfg = _matrix_base().with_(**overrides)
    with pytest.raises(ValueError, match=f"does not support {re.escape(knob)}"):
        simulate_stream(MATRIX_TRACE, Organization.BROWSERS_AWARE_PROXY, cfg)
