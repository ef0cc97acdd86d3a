"""The profiler observes the production replay loop, and only observes.

A :class:`~repro.util.profiling.ReplayProfile` runs the one replay loop
under a ``SIGPROF`` sampler.  These tests pin that a profiled run is the
same run (``tests/test_chaos.py`` pins the monitor ticks), that its event
counts are the result's own counters, that samples land on the loop
step that did the work, that the signal state is restored, and that the
conservation laws are checked at finalise on every run of every engine.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys

import pytest

from repro.adversarial import AdversarialConfig
from repro.cli import main
from repro.core import (
    ChaosPlan,
    FederationConfig,
    InvariantViolation,
    Organization,
    SimulationConfig,
    simulate,
    simulate_stream,
)
from repro.core.churn import ChurnModel, MassChurnSchedule
from repro.core.events import HitLocation
from repro.core.overhead import OverheadReport
from repro.core.parallel import EngineOptions
from repro.core.proxy_faults import ProxyFaultModel
from repro.core.simulator import Simulator, _loop_phase_map
from repro.core.sweep import run_policy_sweep
from repro.index.browser_index import BrowserIndex
from repro.util import profiling
from repro.util.profiling import PHASES, ReplayProfile

BAPS = Organization.BROWSERS_AWARE_PROXY


def _asdict_pair(trace, org, config):
    plain = dataclasses.asdict(simulate(trace, org, config))
    profile = ReplayProfile()
    profiled = dataclasses.asdict(simulate(trace, org, config, profile=profile))
    return plain, profiled, profile


# -- a profiled run is the same run ----------------------------------------


def test_profiled_adversarial_quarantine_run_is_identical(small_trace):
    duration = float(small_trace.timestamps.max())
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.10,
        adversarial=AdversarialConfig(
            polluter_fraction=0.25,
            flapper_fraction=0.25,
            flap_schedule=MassChurnSchedule(
                windows=((0.3 * duration, 0.6 * duration),)
            ),
        ),
        quarantine_threshold=2,
        max_holder_retries=2,
    )
    plain, profiled, profile = _asdict_pair(small_trace, BAPS, config)
    assert profiled == plain
    assert plain["quarantined_peers"] > 0
    assert profile.n_requests == len(small_trace)


def test_profiled_chaos_run_is_identical(small_trace):
    duration = float(small_trace.timestamps.max())
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.10,
        max_holder_retries=1,
        chaos=ChaosPlan(
            proxy_faults=ProxyFaultModel(crash_times=(0.4 * duration,)),
            churn=ChurnModel(mean_on_seconds=600.0, mean_off_seconds=300.0),
            seed=5,
            check_invariants_every=250,
        ),
    )
    plain, profiled, profile = _asdict_pair(small_trace, BAPS, config)
    assert profiled == plain
    assert plain["proxy_crashes"] == 1 and plain["holder_unavailable"] > 0
    assert profile.phase_counts["recovery"] == len(small_trace)


def test_profiled_federated_run_is_sampled_and_identical(small_trace):
    """A two-proxy federation runs the same loop, so a profile samples
    it phase by phase (the peer step included) and changes nothing."""
    duration = float(small_trace.timestamps.max())
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.10,
        federation=FederationConfig(n_proxies=2, digest_period=duration / 12),
    )
    plain, profiled, profile = _asdict_pair(small_trace, BAPS, config)
    assert profiled == plain
    assert plain["interproxy_hits"] > 0
    counts = profile.phase_counts
    assert counts["recovery"] == len(small_trace)
    misses = plain["by_location"][HitLocation.ORIGIN]["misses"]
    assert counts["peer_fetch"] == plain["interproxy_hits"] + misses
    assert counts["origin_fetch"] == misses
    assert set(profile.phase_seconds) <= set(PHASES)
    # samples landed in the shared loop's phases, not only wall clock
    assert profile.total_phase_seconds > 0.0


def test_profiled_stream_run_is_identical(small_trace):
    """``simulate_stream`` takes a profile too: the flat backend runs the
    same loop, so a profiled run equals the plain one field for field
    and reports the loop's exact event counts."""
    config = SimulationConfig.relative(small_trace, proxy_frac=0.10)
    plain = dataclasses.asdict(simulate_stream(small_trace, BAPS, config))
    profile = ReplayProfile()
    profiled = dataclasses.asdict(
        simulate_stream(small_trace, BAPS, config, profile=profile)
    )
    assert profiled == plain
    counts = profile.phase_counts
    assert counts["browser_probe"] == len(small_trace)
    assert counts["origin_fetch"] == plain["by_location"][HitLocation.ORIGIN]["misses"] > 0
    assert profile.n_requests == len(small_trace)


# -- exact counts, sampled seconds ------------------------------------------


def test_samples_are_charged_to_the_step_that_did_the_work(small_trace, monkeypatch):
    """Drive the sampler's handler by hand from inside the loop: a
    sample in the index lookup counts for ``index_lookup`` (and its
    parent ``remote_delivery``); a sample in the fill tail counts for
    the step that served the request."""
    sampler = profiling._Sampler(_loop_phase_map())

    lookup = BrowserIndex.lookup

    def sampled_lookup(self, *args):
        sampler._on_sample(signal.SIGPROF, sys._getframe())
        return lookup(self, *args)

    monkeypatch.setattr(BrowserIndex, "lookup", sampled_lookup)
    config = SimulationConfig.relative(small_trace, proxy_frac=0.10, memory_fraction=0.5)
    sim = Simulator(small_trace, BAPS, config)
    # every browser fill is one call to the browser store's bound fill
    store = sim._browser_store
    browser_fill = store.fill

    def sampled_browser_fill(*args):
        sampler._on_sample(signal.SIGPROF, sys._getframe())
        return browser_fill(*args)

    sim._browser_store = store._replace(fill=sampled_browser_fill)
    result = sim.run()

    by_location = result.by_location
    proxy_hits = by_location[HitLocation.PROXY].hits
    remote_hits = by_location[HitLocation.REMOTE_BROWSER].hits
    misses = by_location[HitLocation.ORIGIN].misses
    assert proxy_hits and remote_hits and misses
    assert sampler.samples == {
        "index_lookup": result.index_lookups,
        "remote_delivery": result.index_lookups + remote_hits,
        "proxy_probe": proxy_hits,
        "origin_fetch": misses,
    }
    assert sampler.total == result.index_lookups + proxy_hits + remote_hits + misses


def test_samples_in_the_peer_step_are_charged_to_peer_fetch(small_trace, monkeypatch):
    from repro.federation.engine import FederatedSimulator

    sampler = profiling._Sampler(_loop_phase_map())
    fetch = FederatedSimulator._interproxy_fetch

    def sampled_fetch(self, *args):
        sampler._on_sample(signal.SIGPROF, sys._getframe())
        return fetch(self, *args)

    monkeypatch.setattr(FederatedSimulator, "_interproxy_fetch", sampled_fetch)
    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.10, federation=FederationConfig(n_proxies=2)
    )
    result = simulate(small_trace, BAPS, config)
    misses = result.by_location[HitLocation.ORIGIN].misses
    assert result.interproxy_hits > 0
    assert sampler.samples == {"peer_fetch": result.interproxy_hits + misses}


def test_every_phase_marker_is_in_the_loop():
    phase_map = _loop_phase_map()
    assert set(phase_map.phases.values()) == set(PHASES) | {profiling.TAIL}


def test_sampler_restores_signal_state(small_trace):
    seen = []

    def previous(signum, frame):
        seen.append(signum)

    old = signal.signal(signal.SIGPROF, previous)
    try:
        config = SimulationConfig.relative(small_trace, proxy_frac=0.10)
        simulate(small_trace, BAPS, config, profile=ReplayProfile())
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGPROF, old)
    assert seen == []


# -- the CLI and sweep surfaces ---------------------------------------------


def test_profile_command_json(tmp_path, capsys, small_trace):
    from repro.traces.squid import parse_squid_log, write_squid_log

    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    assert main(["profile", "--log", str(path), "-o", "all", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)

    trace = parse_squid_log(path, name=str(path))
    config = SimulationConfig.relative(trace, proxy_frac=0.10, browser_sizing="minimum")
    assert set(summary["organizations"]) == {org.value for org in Organization}
    for org in Organization:
        report = summary["organizations"][org.value]
        result = simulate(trace, org, config)
        counts = report["phase_counts"]
        assert set(report["phase_seconds"]) <= set(PHASES)
        assert set(counts) <= set(PHASES)
        assert report["n_requests"] == result.n_requests
        assert set(report["phase_seconds"]) == set(counts)
        if org.features.has_browsers:
            assert counts["browser_probe"] == result.n_requests
        if org.features.has_proxy:
            assert counts["proxy_probe"] == (
                result.n_requests - result.by_location[HitLocation.LOCAL_BROWSER].hits
            )
        assert counts["origin_fetch"] == result.by_location[HitLocation.ORIGIN].misses
        assert counts.get("index_lookup", 0) == result.index_lookups
        assert counts.get("remote_delivery", 0) == result.index_lookups
        disjoint = sum(
            s for phase, s in report["phase_seconds"].items() if phase != "index_lookup"
        )
        assert disjoint <= report["wall_seconds"] + 1e-9


@pytest.mark.slow
def test_run_fig2_profile_prints_phase_rows(capsys):
    assert main(["run", "fig2", "--profile"]) == 0
    out = capsys.readouterr().out
    for phase in ("browser_probe", "proxy_probe", "remote_delivery", "origin_fetch"):
        assert f"phase: {phase}" in out


def test_profiled_serial_sweep_with_cell_timeout_restores_handlers(small_trace):
    before = (signal.getsignal(signal.SIGPROF), signal.getsignal(signal.SIGALRM))
    sweep = run_policy_sweep(
        small_trace,
        fractions=(0.05,),
        options=EngineOptions(profile=True, cell_timeout=120.0),
    )
    assert not sweep.failures
    phases = dict(sweep.timing.phase_seconds)
    assert {"browser_probe", "proxy_probe", "origin_fetch"} <= set(phases) <= set(PHASES)
    after = (signal.getsignal(signal.SIGPROF), signal.getsignal(signal.SIGALRM))
    assert after == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- conservation laws at finalise on every run ------------------------------


def _corrupting_absorb_bus(monkeypatch):
    """Break the wasted-round-trip ledger as the bus is absorbed."""
    absorb = OverheadReport.absorb_bus

    def corrupt(self, stats):
        absorb(self, stats)
        self.wasted_offline_time += 1.0

    monkeypatch.setattr(OverheadReport, "absorb_bus", corrupt)


@pytest.mark.parametrize("engine", ["simulator", "stream", "federated"])
def test_final_invariants_checked_on_every_run(small_trace, monkeypatch, engine):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.10)
    assert config.chaos is None
    if engine == "federated":
        config = config.with_(federation=FederationConfig(n_proxies=2))
    run = simulate_stream if engine == "stream" else simulate
    run(small_trace, BAPS, config)  # intact: passes
    _corrupting_absorb_bus(monkeypatch)
    with pytest.raises(InvariantViolation, match="covers its breakdown"):
        run(small_trace, BAPS, config)
