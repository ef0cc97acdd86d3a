"""Differential tests: the optimized engine vs the frozen reference.

:mod:`repro.core.simulator` replays the request path through heavily
optimized loops (inlined timing arithmetic, batched counters, direct
C-level LRU probes, inlined cache puts); :mod:`repro.core.reference`
keeps a frozen copy of the straight-line pre-optimization engine,
including frozen copies of the old cache and index implementations.
Every optimization must be *bit-identical*: for randomized traces and
configurations covering every engine knob — churn, Bernoulli
availability, failover budgets, corruption, proxy crashes,
checkpointing, re-announcement, tiered caches, bloom vs exact index,
periodic index updates, TTL'd index entries, FIFO vs LRU, consistency
policies — both engines must produce exactly equal
:class:`~repro.core.metrics.SimulationResult`\\ s, compared field for
field through :func:`dataclasses.asdict`.  The same holds for the flat
client-state backend (``simulate_stream``) on the configurations it
accepts, and for a one-proxy federation, whose router sends every
request through the same loop.

The example budget follows ``HYPOTHESIS_PROFILE``: 25 examples per
test by default (fast enough for the tier-1 run), 200 under the
``ci-nightly`` profile.
"""

from __future__ import annotations

import dataclasses
import os

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, assume, given, settings

from repro.consistency.policies import (
    AdaptiveTTLPolicy,
    AlwaysValidatePolicy,
    FixedTTLPolicy,
)
from repro.core.churn import ChurnModel
from repro.core.config import FederationConfig, SimulationConfig
from repro.core.policies import Organization
from repro.core.proxy_faults import ProxyFaultModel
from repro.core.reference import reference_simulate
from repro.core.simulator import simulate
from repro.core.stream_engine import simulate_stream
from repro.index.checkpoint import CheckpointPolicy
from repro.index.staleness import PeriodicUpdatePolicy
from repro.traces.record import Trace
from repro.util.profiling import ReplayProfile

settings.register_profile("default", max_examples=25, deadline=None)
settings.register_profile(
    "ci-nightly",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@st.composite
def traces(draw):
    """Small traces with real time structure (so churn sessions, crash
    times, checkpoint intervals, and TTLs all bite) and per-document
    version bumps that change the size (the paper's size-change rule)."""
    n = draw(st.integers(10, 150))
    n_clients = draw(st.integers(2, 6))
    n_docs = draw(st.integers(2, 30))
    gaps = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
    clients = draw(st.lists(st.integers(0, n_clients - 1), min_size=n, max_size=n))
    # Dense-id contract: the engine rejects gaps in the client id space,
    # so remap the drawn ids to 0..k-1 (ascending, like Trace.renumbered).
    remap = {c: i for i, c in enumerate(sorted(set(clients)))}
    clients = [remap[c] for c in clients]
    docs = draw(st.lists(st.integers(0, n_docs - 1), min_size=n, max_size=n))
    base_sizes = draw(st.lists(st.integers(1, 2_000), min_size=n_docs, max_size=n_docs))
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
        sizes.append(base_sizes[d] + v)
    return Trace(
        timestamps=np.cumsum(gaps),
        clients=np.array(clients),
        docs=np.array(docs),
        sizes=np.array(sizes),
        versions=np.array(versions),
        name="diff",
    )


@st.composite
def configs(draw):
    """A configuration drawing every knob the engines branch on."""
    kw: dict = {
        "proxy_capacity": draw(st.integers(0, 6_000)),
        "browser_capacity": draw(st.integers(0, 1_500)),
        "proxy_policy": draw(st.sampled_from(("lru", "fifo"))),
        "browser_policy": draw(st.sampled_from(("lru", "fifo"))),
        "max_holder_retries": draw(st.integers(0, 3)),
        "corruption_rate": draw(st.sampled_from((0.0, 0.1, 0.3))),
        "availability_seed": draw(st.integers(0, 2**20)),
    }
    # the tiered memory model supports only LRU caches
    if (
        kw["proxy_policy"] == "lru"
        and kw["browser_policy"] == "lru"
        and draw(st.booleans())
    ):
        kw["memory_fraction"] = draw(st.sampled_from((0.25, 0.5)))
    index_kind = draw(st.sampled_from(("exact", "bloom")))
    kw["index_kind"] = index_kind
    if index_kind == "exact" and draw(st.booleans()):
        kw["index_update_policy"] = PeriodicUpdatePolicy(
            threshold=draw(st.sampled_from((0.05, 0.2))),
            min_docs=draw(st.integers(1, 10)),
        )
    availability = draw(st.sampled_from(("none", "bernoulli", "churn")))
    if availability == "bernoulli":
        kw["holder_availability"] = draw(st.floats(0.3, 0.95))
    elif availability == "churn":
        kw["churn"] = ChurnModel(
            mean_on_seconds=draw(st.floats(5.0, 100.0)),
            mean_off_seconds=draw(st.floats(1.0, 50.0)),
            distribution=draw(st.sampled_from(("exponential", "pareto"))),
        )
    if draw(st.booleans()):
        crash_times = draw(
            st.lists(st.floats(1.0, 120.0), min_size=1, max_size=3, unique=True)
        )
        kw["proxy_faults"] = ProxyFaultModel(crash_times=tuple(sorted(crash_times)))
        kw["reannounce_rate"] = draw(st.sampled_from((0.5, 5.0, 50.0)))
    if draw(st.booleans()):
        kw["checkpoint"] = CheckpointPolicy(interval=draw(st.floats(5.0, 60.0)))
    consistency = draw(st.sampled_from((None, "fixed", "adaptive", "always")))
    if consistency == "fixed":
        kw["consistency"] = FixedTTLPolicy(ttl=draw(st.floats(1.0, 60.0)))
    elif consistency == "adaptive":
        kw["consistency"] = AdaptiveTTLPolicy()
    elif consistency == "always":
        kw["consistency"] = AlwaysValidatePolicy()
    # Invariant under test: federation defaulting *off* must leave the
    # single-proxy engines untouched for every sampled knob combination
    # — the frozen reference knows nothing about multi-proxy mode.
    kw["federation"] = None
    # Same invariant for the adversarial-peer and quarantine knobs: off
    # by default, and the frozen reference must keep matching — the new
    # counters stay zero on every config the reference can express.
    kw["adversarial"] = None
    kw["quarantine_threshold"] = 0
    return SimulationConfig(**kw)


ORGS = st.sampled_from(list(Organization))


@given(trace=traces(), config=configs(), org=ORGS)
def test_optimized_matches_reference(trace, config, org):
    """The optimized loops must be bit-identical to the frozen engine."""
    ref = dataclasses.asdict(reference_simulate(trace, org, config))
    opt = dataclasses.asdict(simulate(trace, org, config))
    assert opt == ref


@given(trace=traces(), config=configs(), org=ORGS)
def test_profiled_matches_reference(trace, config, org):
    """The instrumented loops add observation, never behaviour."""
    ref = dataclasses.asdict(reference_simulate(trace, org, config))
    profile = ReplayProfile()
    opt = dataclasses.asdict(simulate(trace, org, config, profile=profile))
    assert opt == ref
    assert profile.n_requests == len(trace)
    assert profile.wall_seconds > 0.0


@given(trace=traces(), config=configs(), org=ORGS)
def test_single_proxy_federation_matches_reference(trace, config, org):
    """A one-proxy federation routes every request through the same
    loop, so it must equal the frozen engine on every drawn knob."""
    ref = dataclasses.asdict(reference_simulate(trace, org, config))
    federated = config.with_(federation=FederationConfig(n_proxies=1))
    assert dataclasses.asdict(simulate(trace, org, federated)) == ref


@given(trace=traces(), config=configs(), org=ORGS)
@settings(
    # about one drawn config in ten is inside the flat subset
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow]
)
def test_stream_matches_reference(trace, config, org):
    """The flat client-state backend is bit-identical on its subset."""
    assume(
        config.browser_policy == "lru"
        and config.memory_fraction is None
        and config.consistency is None
    )
    ref = dataclasses.asdict(reference_simulate(trace, org, config))
    assert dataclasses.asdict(simulate_stream(trace, org, config)) == ref
