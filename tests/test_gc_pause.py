"""The replay loop runs with the cyclic garbage collector paused.

``Simulator.run`` (plain and profiled, object and flat backends) and
``FederatedSimulator.run`` pause the collector around the loop and
restore the caller's state afterwards, also when the replay raises.
The pause is only safe while a replay creates no reference cycles:
the collector would otherwise never see them until the run ends, so
the leak tests below run a replay between two collections and require
the second to find nothing.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import (
    ChurnModel,
    CheckpointPolicy,
    FederationConfig,
    Organization,
    ProxyFaultModel,
    SimulationConfig,
    StreamSimulator,
)
from repro.core.simulator import Simulator
from repro.federation import FederatedSimulator
from repro.federation.linkfaults import LinkFaultModel
from repro.traces import SyntheticTraceConfig, TraceStream
from repro.util.profiling import ReplayProfile

BAPS = Organization.BROWSERS_AWARE_PROXY


def stream_baps(trace):
    """The stream-baps shape: flat pool, exact index, 10 requests a client."""
    stream = TraceStream(SyntheticTraceConfig(n_requests=4_000, n_clients=400), seed=0)
    config = SimulationConfig(proxy_capacity=1_000_000_000, browser_capacity=20_000)
    return StreamSimulator(stream, BAPS, config)


def fig2_cell(trace):
    """One Figure 2 cell: object caches, exact index."""
    config = SimulationConfig.relative(trace, proxy_frac=0.05, browser_sizing="minimum")
    return Simulator(trace, BAPS, config)


def federated_chaos(trace):
    """4 proxies, bloom index and digests, churn, failover, a partition."""
    span = trace.duration
    config = SimulationConfig.relative(
        trace, proxy_frac=0.10, browser_sizing="minimum"
    ).with_(
        index_kind="bloom",
        churn=ChurnModel(),
        max_holder_retries=2,
        federation=FederationConfig(
            n_proxies=4,
            digest_period=900.0,
            link_faults=LinkFaultModel(partition_windows=((0.4 * span, 0.6 * span),)),
        ),
    )
    return FederatedSimulator(trace, BAPS, config)


def crash_checkpoint(trace):
    """Two proxy crashes, checkpoint restores and re-announcement."""
    span = trace.duration
    config = SimulationConfig.relative(trace, proxy_frac=0.05).with_(
        proxy_faults=ProxyFaultModel(crash_times=(span / 3, 2 * span / 3)),
        checkpoint=CheckpointPolicy(interval=span / 10),
    )
    return Simulator(trace, BAPS, config)


def profiled(trace):
    config = SimulationConfig.relative(trace, proxy_frac=0.05)
    return Simulator(trace, BAPS, config, profile=ReplayProfile())


def profiled_stream(trace):
    config = SimulationConfig.relative(trace, proxy_frac=0.05)
    return StreamSimulator(trace, BAPS, config, profile=ReplayProfile())


ENGINES = {
    "stream": stream_baps,
    "object": fig2_cell,
    "federated": federated_chaos,
    "crash-checkpoint": crash_checkpoint,
    "profiled": profiled,
    "profiled-stream": profiled_stream,
}


@pytest.fixture()
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _record_gc_at_finalise(monkeypatch, raises: bool = False) -> list[bool]:
    """Note the collector state when the loop finalises its result
    (inside the replay), optionally raising there."""
    seen: list[bool] = []
    finalise = Simulator._finalise

    def spy(self, fed=None):
        seen.append(gc.isenabled())
        if raises:
            raise RuntimeError("replay failed")
        return finalise(self, fed)

    monkeypatch.setattr(Simulator, "_finalise", spy)
    return seen


@pytest.mark.parametrize("name", ENGINES)
@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_pauses_gc_and_restores_the_callers_state(
    small_trace, monkeypatch, restore_gc, name, caller_enabled
):
    engine = ENGINES[name](small_trace)
    seen = _record_gc_at_finalise(monkeypatch)
    if caller_enabled:
        gc.enable()
    else:
        gc.disable()
    engine.run()
    assert seen == [False]
    assert gc.isenabled() is caller_enabled


@pytest.mark.parametrize("name", ["stream", "object", "federated", "profiled"])
def test_gc_is_restored_when_the_replay_raises(small_trace, monkeypatch, restore_gc, name):
    engine = ENGINES[name](small_trace)
    seen = _record_gc_at_finalise(monkeypatch, raises=True)
    gc.enable()
    with pytest.raises(RuntimeError, match="replay failed"):
        engine.run()
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize(
    "name", ["stream", "object", "federated", "crash-checkpoint"]
)
def test_replay_creates_no_cyclic_garbage(small_trace, name):
    """What the paused collector would have found: nothing.  The engine
    stays referenced, so only garbage the replay made is counted."""
    engine = ENGINES[name](small_trace)
    gc.collect()
    result = engine.run()
    assert result.n_requests > 0
    assert gc.collect() == 0
