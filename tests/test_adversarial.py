"""Adversarial peer profiles, the quarantine defense, and surge workloads.

Covers the role-assignment machinery (:class:`PeerPopulation`), the
per-holder corruption draws and the reputation/quarantine path in the
failover loop, the surge generators, and the ``stress`` experiment —
plus the bit-identity guarantees: an absent (or empty, with corruption
off) :class:`AdversarialConfig` changes nothing, the new counters stay
zero on every pre-existing configuration, and adversarial sweeps stay
deterministic across worker counts and journal resume.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.adversarial import AdversarialConfig, PeerPopulation
from repro.core import (
    MassChurnSchedule,
    Organization,
    SimulationConfig,
    run_policy_sweep,
    simulate,
    simulate_stream,
)
from repro.security.protocols import SecurityOverheadModel
from repro.traces.record import Trace
from repro.traces.synthetic import (
    FlashCrowdSpec,
    inject_flash_crowd,
    mass_churn_schedule,
)
from repro.util.rng import derive_seed

from tests.conftest import assert_result_roundtrips

BAPS = Organization.BROWSERS_AWARE_PROXY


def _chain_trace(n_requesters: int = 3) -> Trace:
    """Clients 0..n-1 request doc0 in sequence: each requester probes
    the browsers that already hold it (the proxy holds nothing with
    ``proxy_capacity=0``) before falling back to the server."""
    n = n_requesters
    return Trace(
        timestamps=np.arange(n, dtype=float),
        clients=np.arange(n),
        docs=np.zeros(n, dtype=np.int64),
        sizes=np.full(n, 100),
        versions=np.zeros(n, dtype=np.int64),
        name="chain",
    )


def _chain_config(**overrides) -> SimulationConfig:
    return SimulationConfig(
        proxy_capacity=0, browser_capacity=10_000, **overrides
    )


# ---------------------------------------------------------------------------
# configuration validation


def test_adversarial_config_validates_fractions():
    with pytest.raises(ValueError, match="polluter-fraction"):
        AdversarialConfig(polluter_fraction=1.5)
    with pytest.raises(ValueError, match="polluter_corruption_rate"):
        AdversarialConfig(polluter_corruption_rate=-0.1)
    with pytest.raises(ValueError, match="one profile"):
        AdversarialConfig(
            polluter_fraction=0.6,
            flapper_fraction=0.6,
            flap_schedule=MassChurnSchedule(windows=((0.0, 1.0),)),
        )
    with pytest.raises(ValueError, match="flap_schedule"):
        AdversarialConfig(flapper_fraction=0.2)


def test_quarantine_knobs_validate():
    with pytest.raises(ValueError, match="quarantine-threshold"):
        SimulationConfig(
            proxy_capacity=100, browser_capacity=100, quarantine_threshold=-1
        )
    with pytest.raises(ValueError, match="static_blacklist"):
        SimulationConfig(
            proxy_capacity=100, browser_capacity=100, static_blacklist=(-1,)
        )


def test_static_blacklist_normalized_sorted_deduplicated():
    config = SimulationConfig(
        proxy_capacity=100, browser_capacity=100, static_blacklist=(2, 0, 2)
    )
    assert config.static_blacklist == (0, 2)


def test_mass_churn_schedule_validates():
    with pytest.raises(ValueError, match="at least one"):
        MassChurnSchedule(windows=())
    with pytest.raises(ValueError, match="start"):
        MassChurnSchedule(windows=((-1.0, 2.0),))
    with pytest.raises(ValueError):
        MassChurnSchedule(windows=((3.0, 3.0),))
    with pytest.raises(ValueError, match="overlap"):
        MassChurnSchedule(windows=((0.0, 5.0), (4.0, 8.0)))


def test_mass_churn_schedule_offline_at():
    schedule = MassChurnSchedule(windows=((1.0, 2.0), (4.0, 6.0)))
    assert not schedule.offline_at(0.5)
    assert schedule.offline_at(1.0)
    assert not schedule.offline_at(2.0)  # end is exclusive
    assert schedule.offline_at(5.0)
    assert not schedule.offline_at(7.0)


# ---------------------------------------------------------------------------
# role assignment


def test_peer_population_deterministic_and_disjoint():
    config = AdversarialConfig(
        polluter_fraction=0.1,
        flapper_fraction=0.2,
        flap_schedule=MassChurnSchedule(windows=((0.0, 1.0),)),
    )
    a = PeerPopulation(config, 100, seed=7)
    b = PeerPopulation(config, 100, seed=7)
    assert a.polluters == b.polluters and a.flappers == b.flappers
    assert len(a.polluters) == 10 and len(a.flappers) == 20
    assert not (a.polluters & a.flappers)
    assert a.is_polluter(next(iter(a.polluters)))
    assert not a.is_polluter(next(iter(a.flappers)))
    c = PeerPopulation(config, 100, seed=8)
    assert c.polluters != a.polluters


def test_for_simulation_matches_engine_seed_derivation():
    config = AdversarialConfig(polluter_fraction=0.3)
    via_classmethod = PeerPopulation.for_simulation(config, 50, 1234)
    direct = PeerPopulation(config, 50, derive_seed(1234, "adversarial"))
    assert via_classmethod.polluters == direct.polluters


# ---------------------------------------------------------------------------
# bit-identity and counter gating on pre-existing configurations


def test_empty_adversarial_config_is_baseline_identical(small_trace):
    base = SimulationConfig.relative(small_trace, proxy_frac=0.1)
    plain = simulate(small_trace, BAPS, base)
    empty = simulate(small_trace, BAPS, base.with_(adversarial=AdversarialConfig()))
    assert dataclasses.asdict(empty) == dataclasses.asdict(plain)


def test_new_counters_stay_zero_without_adversary(small_trace):
    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.1, corruption_rate=0.3
    )
    result = simulate(small_trace, BAPS, config)
    # the global corruption coin still fires, but attribution counters
    # belong to the adversarial model and must stay zero — the frozen
    # differential reference knows nothing about them.
    assert result.integrity_failures > 0
    assert result.corrupt_deliveries == 0
    assert result.poisoned_requests == 0
    assert result.quarantined_peers == 0
    assert result.quarantine_rescued_hits == 0


# ---------------------------------------------------------------------------
# polluters and the per-attempt verification charge (satellite fix)


def test_polluters_charge_verify_cost_on_every_failed_attempt():
    """Every corrupted probe pays transfer + verify, not just the last:
    with two polluter holders and a retry budget, the third requester's
    walk charges the integrity-retransmission meter twice."""
    trace = _chain_trace(3)
    config = _chain_config(
        max_holder_retries=2,
        adversarial=AdversarialConfig(polluter_fraction=1.0),
    )
    result = simulate(trace, BAPS, config)
    # t1: client1 probes holder 0 (corrupt); t2: client2 probes holders
    # 0 and 1 (both corrupt) — three failed attempts in all.
    assert result.integrity_failures == 3
    assert result.corrupt_deliveries == 3
    assert result.poisoned_requests == 2
    per_attempt = config.lan.transfer_time(100) + SecurityOverheadModel().verify_cost(100)
    assert result.overhead.integrity_retransmission_time == pytest.approx(
        3 * per_attempt
    )


def test_background_corruption_rate_applies_to_honest_holders(small_trace):
    """With profiles armed but polluter_fraction=0 every holder is
    honest: draws move to per-holder streams, stay governed by the
    global corruption_rate, and never count as corrupt deliveries."""
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.1,
        corruption_rate=0.3,
        adversarial=AdversarialConfig(polluter_fraction=0.0),
    )
    result = simulate(small_trace, BAPS, config)
    assert result.integrity_failures > 0
    assert result.corrupt_deliveries == 0
    assert result.poisoned_requests == result.poisoned_requests  # round-trips
    assert result.poisoned_requests >= result.integrity_failures // (
        config.max_holder_retries + 1
    )


# ---------------------------------------------------------------------------
# flappers


def test_flappers_go_offline_during_schedule_windows():
    trace = Trace(
        timestamps=np.array([0.0, 5.0, 8.0]),
        clients=np.array([0, 1, 2]),
        docs=np.zeros(3, dtype=np.int64),
        sizes=np.full(3, 100),
        versions=np.zeros(3, dtype=np.int64),
        name="flap",
    )
    config = _chain_config(
        adversarial=AdversarialConfig(
            flapper_fraction=1.0,
            flap_schedule=MassChurnSchedule(windows=((4.0, 6.0),)),
        ),
    )
    result = simulate(trace, BAPS, config)
    # t=5 falls in the offline window: the only holder is unreachable.
    assert result.holder_unavailable == 1
    # t=8 is outside it: some holder served the third request remotely.
    assert result.by_location_remote_hits() == 1


# ---------------------------------------------------------------------------
# quarantine


def test_quarantine_bans_after_threshold():
    trace = _chain_trace(3)
    adversarial = AdversarialConfig(polluter_fraction=1.0)
    undefended = simulate(
        trace, BAPS, _chain_config(max_holder_retries=2, adversarial=adversarial)
    )
    defended = simulate(
        trace,
        BAPS,
        _chain_config(
            max_holder_retries=2,
            adversarial=adversarial,
            quarantine_threshold=1,
        ),
    )
    # one strike bans: each polluter is probed exactly once ever.
    assert undefended.integrity_failures == 3
    assert defended.integrity_failures == 2
    assert defended.quarantined_peers == 2
    assert undefended.quarantined_peers == 0


def test_static_blacklist_suppresses_holder_and_rescues_hit():
    trace = _chain_trace(3)
    config = _chain_config(static_blacklist=(0,))
    result = simulate(trace, BAPS, config)
    # client1's only candidate is blacklisted: no probe, no rescue.
    # client2 still hits remotely off client1 while the ban list
    # filtered a qualifying candidate — a rescued hit.
    assert result.integrity_failures == 0
    assert result.quarantined_peers == 0  # static entries are not counted
    assert result.by_location_remote_hits() == 1
    assert result.quarantine_rescued_hits == 1


# ---------------------------------------------------------------------------
# journal round-trip and sweep determinism


def _attack_overrides(duration: float) -> dict:
    return dict(
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


def test_adversarial_counters_roundtrip_through_journal(small_trace):
    duration = float(small_trace.timestamps.max())
    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.1, **_attack_overrides(duration)
    )
    result = simulate(small_trace, BAPS, config)
    assert result.corrupt_deliveries > 0
    assert result.poisoned_requests > 0
    assert result.quarantined_peers > 0
    restored = assert_result_roundtrips(result)
    assert restored.corrupt_deliveries == result.corrupt_deliveries
    assert restored.quarantine_rescued_hits == result.quarantine_rescued_hits


@pytest.mark.parametrize("workers", [1, 4])
def test_adversarial_sweep_bit_identical_across_worker_counts(
    small_trace, workers
):
    duration = float(small_trace.timestamps.max())
    grid = dict(
        organizations=(BAPS, Organization.GLOBAL_BROWSERS_ONLY),
        fractions=(0.05, 0.2),
        **_attack_overrides(duration),
    )
    serial = run_policy_sweep(small_trace, workers=0, **grid)
    parallel = run_policy_sweep(small_trace, workers=workers, **grid)
    assert not serial.failures and not parallel.failures
    for key in serial.results:
        assert dataclasses.asdict(serial.results[key]) == dataclasses.asdict(
            parallel.results[key]
        ), f"adversarial cell {key} diverged at workers={workers}"
    assert any(r.quarantined_peers > 0 for r in serial.results.values())


def test_adversarial_sweep_resumes_from_journal_bit_identical(
    small_trace, tmp_path
):
    from repro.core import EngineOptions

    duration = float(small_trace.timestamps.max())
    grid = dict(
        organizations=(BAPS,),
        fractions=(0.05, 0.2),
        **_attack_overrides(duration),
    )
    journal = str(tmp_path / "adversarial.jsonl")
    live = run_policy_sweep(
        small_trace, workers=0, options=EngineOptions(journal=journal), **grid
    )
    assert not live.failures
    resumed = run_policy_sweep(
        small_trace, workers=0, options=EngineOptions(resume=journal), **grid
    )
    assert not resumed.failures
    assert all(n == 0 for n in resumed.attempts.values())
    for key in live.results:
        assert dataclasses.asdict(live.results[key]) == dataclasses.asdict(
            resumed.results[key]
        )
        assert (
            resumed.results[key].corrupt_deliveries
            == live.results[key].corrupt_deliveries
        )


# ---------------------------------------------------------------------------
# the flat client-state backend replays the same hostile populations


def test_stream_engine_replays_adversarial_profiles(small_trace):
    span = small_trace.duration
    config = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        adversarial=AdversarialConfig(
            polluter_fraction=0.2,
            flapper_fraction=0.2,
            flap_schedule=MassChurnSchedule(windows=((0.3 * span, 0.7 * span),)),
        ),
        max_holder_retries=2,
    )
    expected = simulate(small_trace, BAPS, config)
    assert expected.corrupt_deliveries > 0
    got = simulate_stream(small_trace, BAPS, config)
    assert dataclasses.asdict(got) == dataclasses.asdict(expected)


def test_stream_engine_replays_quarantine(small_trace):
    base = SimulationConfig.relative(small_trace, proxy_frac=0.1).with_(
        adversarial=AdversarialConfig(polluter_fraction=0.2),
        max_holder_retries=2,
    )
    for config in (
        base.with_(quarantine_threshold=1),
        base.with_(static_blacklist=(0,)),
    ):
        expected = simulate(small_trace, BAPS, config)
        assert expected.quarantine_rescued_hits > 0
        got = simulate_stream(small_trace, BAPS, config)
        assert dataclasses.asdict(got) == dataclasses.asdict(expected)


# ---------------------------------------------------------------------------
# surge generators


def test_flash_crowd_is_deterministic_and_consistent(small_trace):
    duration = float(small_trace.timestamps.max())
    spec = FlashCrowdSpec(start=duration / 3, end=2 * duration / 3, multiplier=6.0)
    surged = inject_flash_crowd(small_trace, spec, seed=0)
    again = inject_flash_crowd(small_trace, spec, seed=0)
    assert surged.name == f"{small_trace.name}:flash"
    assert len(surged) == len(small_trace)
    for column in ("timestamps", "clients", "docs", "sizes", "versions"):
        assert (
            getattr(surged, column).tobytes() == getattr(again, column).tobytes()
        ), column
    # requesters and request times are untouched — only targets moved
    assert surged.timestamps.tobytes() == small_trace.timestamps.tobytes()
    assert surged.clients.tobytes() == small_trace.clients.tobytes()
    # the surge actually concentrated in-window popularity
    window = (surged.timestamps >= spec.start) & (surged.timestamps < spec.end)
    target = np.bincount(surged.docs[window]).argmax()
    before = int((small_trace.docs[window] == target).sum())
    after = int((surged.docs[window] == target).sum())
    assert after > before
    # sizes stay a function of (doc, version)
    pairs = {}
    for d, v, s in zip(surged.docs, surged.versions, surged.sizes):
        assert pairs.setdefault((int(d), int(v)), int(s)) == int(s)


def test_flash_crowd_empty_window_is_identity(small_trace):
    duration = float(small_trace.timestamps.max())
    spec = FlashCrowdSpec(start=duration + 10, end=duration + 20)
    assert inject_flash_crowd(small_trace, spec) is small_trace


def test_flash_crowd_validates():
    with pytest.raises(ValueError, match="start"):
        FlashCrowdSpec(start=5.0, end=5.0)
    with pytest.raises(ValueError, match="multiplier"):
        FlashCrowdSpec(start=0.0, end=1.0, multiplier=1.0)
    with pytest.raises(ValueError, match="doc"):
        FlashCrowdSpec(start=0.0, end=1.0, doc=-1)


def test_flash_crowd_rejects_absent_target(small_trace):
    duration = float(small_trace.timestamps.max())
    absent = int(small_trace.docs.max()) + 1
    spec = FlashCrowdSpec(start=0.0, end=duration, doc=absent)
    with pytest.raises(ValueError, match="never"):
        inject_flash_crowd(small_trace, spec)


def test_mass_churn_schedule_generator_deterministic():
    a = mass_churn_schedule(10_000.0, n_waves=3, offline_seconds=600.0, seed=5)
    b = mass_churn_schedule(10_000.0, n_waves=3, offline_seconds=600.0, seed=5)
    assert a.windows == b.windows
    assert 1 <= len(a.windows) <= 3
    for start, end in a.windows:
        assert 0.0 <= start < end <= 10_000.0
    # windows are sorted and non-overlapping (MassChurnSchedule enforces
    # it at construction; this pins the generator's merging too)
    flat = [edge for window in a.windows for edge in window]
    assert flat == sorted(flat)


# ---------------------------------------------------------------------------
# the stress experiment


@pytest.fixture(scope="module")
def stress_trace():
    from repro.traces.profiles import get_profile

    # 100 clients: large enough for cohort statistics (the 20-client
    # unit-test trace makes a 10% polluter cohort pure noise).
    return get_profile("NLANR-uc").scaled(6_000).generate()


def test_stress_sweep_small(monkeypatch, stress_trace):
    from repro.experiments import stress

    monkeypatch.setattr(
        stress, "load_paper_trace", lambda name, cache=True: stress_trace
    )
    result = stress.run()
    text = result.render()
    assert "adversarial stress" in text
    assert "no defense" in text and "oracle" in text
    assert result.betweenness_holds()
    assert result.has_strict_cell()
    # acceptance: at polluter_fraction >= 0.1 the best threshold
    # recovers at least half of the recoverable hit-ratio loss.
    for fraction in result.polluter_fractions:
        if fraction >= 0.1:
            assert result.best_recovered_fraction(fraction) >= 0.5
    # the attack and the defense both demonstrably fired in every cell
    assert all(r.corrupt_deliveries > 0 for r in result.cells.values())
    assert all(r.quarantined_peers > 0 for r in result.cells.values())
    assert all(r.corrupt_deliveries > 0 for r in result.no_defense.values())
    assert all(r.quarantined_peers == 0 for r in result.no_defense.values())


def test_stress_sweep_flash_crowd_and_runner_forwarding(
    monkeypatch, stress_trace
):
    from repro.experiments import runner, stress

    monkeypatch.setattr(
        stress, "load_paper_trace", lambda name, cache=True: stress_trace
    )
    result = runner.run_experiment(
        "stress",
        polluter_fractions=(0.2,),
        quarantine_thresholds=(1,),
        flash_crowd=True,
    )
    assert result.flash_crowd
    assert result.polluter_fractions == (0.2,)
    assert result.trace_name.endswith(":flash")
    assert "flash crowd" in result.render()
    assert result.betweenness_holds()


def test_stress_sweep_rejects_zero_threshold(monkeypatch, stress_trace):
    from repro.experiments import stress

    monkeypatch.setattr(
        stress, "load_paper_trace", lambda name, cache=True: stress_trace
    )
    with pytest.raises(ValueError, match="quarantine"):
        stress.run(quarantine_thresholds=(0,))
