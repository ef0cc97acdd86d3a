"""Inter-proxy partition tolerance + composed chaos (PR 9).

Covers the link-fault schedule mechanics, the validation helpers'
CLI-flag-naming errors, partition semantics in the federated engine
(dropped digest exchanges are not charged, fail-fast probes land on
``wasted_partition_time``, healing triggers anti-entropy), the
:class:`~repro.core.ChaosPlan` composition rules, the
:class:`~repro.core.InvariantMonitor` positive and negative paths,
composed-fault scenarios (crash during partition, quarantine under
partition), the streaming engine's rejection of the new knobs, and the
end-to-end ``baps run chaos`` sweep with its bracketing anchors.
"""

import dataclasses

import pytest

from repro.adversarial import AdversarialConfig
from repro.core import (
    ChaosPlan,
    FederationConfig,
    InvariantMonitor,
    InvariantViolation,
    Organization,
    SimulationConfig,
    simulate,
    simulate_stream,
)
from repro.consistency.policies import FixedTTLPolicy
from repro.core.churn import ChurnModel
from repro.core.proxy_faults import ProxyFaultModel
from repro.core.simulator import Simulator
from repro.util.profiling import ReplayProfile
from repro.experiments import chaos as chaos_experiment
from repro.federation import FederatedSimulator, LinkFaultModel, PartitionSchedule
from repro.traces.profiles import small_paper_trace
from repro.util.validation import (
    check_partition_schedule,
    check_partition_windows,
)
from tests.conftest import assert_result_roundtrips

ORG = Organization.BROWSERS_AWARE_PROXY


def fed_config(trace, period=300.0, link=None, n_proxies=2, **kwargs):
    return SimulationConfig.relative(
        trace,
        proxy_frac=0.10,
        browser_sizing="minimum",
        federation=FederationConfig(
            n_proxies=n_proxies, digest_period=period, link_faults=link
        ),
        **kwargs,
    )


# -- LinkFaultModel / PartitionSchedule ---------------------------------------


def test_link_fault_model_validates():
    with pytest.raises(ValueError, match="partition source"):
        LinkFaultModel()
    with pytest.raises(ValueError, match="not both"):
        LinkFaultModel(partition_rate=0.1, partition_windows=((0.0, 1.0),))
    with pytest.raises(ValueError, match="--partition-at"):
        LinkFaultModel(partition_windows=())
    with pytest.raises(ValueError, match="--partition-length"):
        LinkFaultModel(partition_windows=((5.0, 5.0),))
    with pytest.raises(ValueError, match="non-overlapping"):
        LinkFaultModel(partition_windows=((0.0, 10.0), (5.0, 20.0)))
    with pytest.raises(ValueError, match="mean_partition_seconds"):
        LinkFaultModel(partition_rate=0.1, mean_partition_seconds=0.0)


def test_link_fault_model_sorts_windows():
    model = LinkFaultModel(partition_windows=((30.0, 40.0), (0.0, 10.0)))
    assert model.partition_windows == ((0.0, 10.0), (30.0, 40.0))
    assert model.is_explicit


def test_partition_window_span_check_names_flags():
    with pytest.raises(ValueError, match=r"--partition-at.*trace span"):
        check_partition_windows(((100.0, 200.0),), span=50.0)
    # a window straddling the span end is fine — it fires.
    check_partition_windows(((40.0, 200.0),), span=50.0)


def test_partition_schedule_source_errors_name_chaos_seed():
    with pytest.raises(ValueError, match="--chaos-seed"):
        check_partition_schedule(0.0, None)


def test_explicit_schedule_state_machine():
    model = LinkFaultModel(partition_windows=((10.0, 20.0), (30.0, 40.0)))
    sched = PartitionSchedule(model, n_proxies=4)
    assert sched.poll(5.0) == (0, 0)
    assert not sched.active
    assert sched.poll(10.0) == (1, 0)  # half-open: starts at 10
    assert sched.active
    # the split: {0,1} vs {2,3}
    assert sched.connected(0, 1)
    assert sched.connected(2, 3)
    assert not sched.connected(0, 2)
    assert not sched.connected(1, 3)
    assert sched.connected(2, 2)
    assert sched.poll(19.9) == (0, 0)
    assert sched.poll(20.0) == (0, 1)  # half-open: healed at 20
    assert sched.connected(0, 2)
    # a gap spanning a whole window counts both edges exactly once.
    assert sched.poll(99.0) == (1, 1)
    assert not sched.active


def test_rate_schedule_is_seed_deterministic():
    model = LinkFaultModel(partition_rate=1 / 50.0, mean_partition_seconds=20.0)

    def windows(seed):
        sched = PartitionSchedule(model, n_proxies=2, seed=seed)
        out = []
        state = False
        for t in range(0, 2000):
            sched.poll(float(t))
            if sched.active != state:
                state = sched.active
                out.append((t, state))
        return out

    assert windows(7) == windows(7)
    assert windows(7) != windows(8)
    assert any(active for _, active in windows(7))


# -- partition semantics in the federated engine ------------------------------


def test_never_firing_window_is_bit_identical(small_trace):
    span = small_trace.duration
    base = fed_config(small_trace)
    # A window entirely past the last request: the schedule exists but
    # never fires, and the replay must not change by a single bit.
    idle = fed_config(
        small_trace, link=LinkFaultModel(partition_windows=((span + 1, span + 2),))
    )
    a = simulate(small_trace, ORG, base)
    b = simulate(small_trace, ORG, idle)
    assert a.hit_ratio == b.hit_ratio
    assert a.digest_bytes_exchanged == b.digest_bytes_exchanged
    assert b.partition_windows == 0
    assert b.digest_exchanges_lost == 0
    assert b.wasted_partition_time == 0.0
    assert b.antientropy_bytes == 0


def test_partition_degrades_and_heals(small_trace):
    span = small_trace.duration
    window = (0.25 * span, 0.75 * span)
    cfg = fed_config(
        small_trace, link=LinkFaultModel(partition_windows=(window,))
    )
    baseline = simulate(small_trace, ORG, fed_config(small_trace))
    result = simulate(small_trace, ORG, cfg)
    assert result.partition_windows == 1
    assert result.digest_exchanges_lost > 0
    assert result.wasted_partition_time > 0.0
    # healing triggers one anti-entropy refresh, charged separately.
    assert result.antientropy_bytes > 0
    assert result.hit_ratio < baseline.hit_ratio
    # the fail-fast probes are part of the wasted round-trip ledger.
    assert (
        result.overhead.wasted_round_trip_time
        >= result.wasted_partition_time
    )
    assert_result_roundtrips(result)


def test_dropped_exchanges_are_not_charged(small_trace):
    """Regression: a digest copy the partition dropped must not be
    billed to ``digest_bytes_exchanged`` — the bytes never crossed."""
    span = small_trace.duration
    always = fed_config(
        small_trace,
        link=LinkFaultModel(partition_windows=((0.0, span + 1.0),)),
    )
    result = simulate(small_trace, ORG, always)
    assert result.digest_exchanges_lost > 0
    assert result.digest_bytes_exchanged == 0
    assert result.interproxy_bandwidth_time == 0.0
    # nothing heals inside the trace, so no anti-entropy either.
    assert result.antientropy_bytes == 0
    assert result.interproxy_hits == 0


def test_partial_partition_charges_only_delivered_copies(small_trace):
    """With the window covering half the trace, the charged digest
    bytes must land strictly between zero and the no-fault bill."""
    span = small_trace.duration
    half = fed_config(
        small_trace,
        link=LinkFaultModel(partition_windows=((0.0, 0.5 * span),)),
    )
    clean = simulate(small_trace, ORG, fed_config(small_trace))
    result = simulate(small_trace, ORG, half)
    assert 0 < result.digest_bytes_exchanged < clean.digest_bytes_exchanged


# -- ChaosPlan composition ----------------------------------------------------


def test_chaos_plan_route_matches_direct_route(small_trace):
    span = small_trace.duration
    link = LinkFaultModel(partition_windows=((0.25 * span, 0.75 * span),))
    direct = simulate(small_trace, ORG, fed_config(small_trace, link=link))
    via_plan = simulate(
        small_trace,
        ORG,
        fed_config(small_trace, chaos=ChaosPlan(link_faults=link)),
    )
    assert dataclasses.asdict(direct) == dataclasses.asdict(via_plan)


def test_chaos_plan_owns_its_fault_models(small_trace):
    churn = ChurnModel()
    with pytest.raises(ValueError, match="chaos plan owns"):
        SimulationConfig(
            proxy_capacity=1000,
            browser_capacity=100,
            churn=churn,
            chaos=ChaosPlan(churn=churn),
        )


def test_chaos_link_faults_require_federation():
    link = LinkFaultModel(partition_windows=((0.0, 1.0),))
    with pytest.raises(ValueError, match="federation"):
        SimulationConfig(
            proxy_capacity=1000,
            browser_capacity=100,
            chaos=ChaosPlan(link_faults=link),
        )
    with pytest.raises(ValueError):
        SimulationConfig(
            proxy_capacity=1000,
            browser_capacity=100,
            federation=FederationConfig(n_proxies=2, link_faults=link),
            chaos=ChaosPlan(link_faults=link),
        )


def test_compose_is_idempotent():
    plan = ChaosPlan(
        proxy_faults=ProxyFaultModel(crash_times=(10.0,)),
        seed=3,
        check_invariants_every=100,
    )
    cfg = SimulationConfig(
        proxy_capacity=1000, browser_capacity=100, chaos=plan
    )
    once = plan.compose(cfg)
    assert once.proxy_faults == plan.proxy_faults
    assert once.chaos == ChaosPlan(check_invariants_every=100)
    assert once.availability_seed != cfg.availability_seed
    # composing the residual again changes nothing.
    assert once.chaos.compose(once) == once


def test_chaos_seed_folds_into_substreams(small_trace):
    base = SimulationConfig.relative(
        small_trace, proxy_frac=0.10, browser_sizing="minimum",
        churn=ChurnModel(),
    )
    seeded = base.with_(churn=None, chaos=ChaosPlan(churn=ChurnModel(), seed=11))
    a = simulate(small_trace, ORG, base)
    b = simulate(small_trace, ORG, seeded)
    # same churn model, different derived stream: offline probes differ.
    assert a.holder_unavailable != b.holder_unavailable
    # and the fold is itself deterministic.
    assert (
        simulate(small_trace, ORG, seeded).holder_unavailable
        == b.holder_unavailable
    )


def test_chaos_plan_validates_cadence():
    with pytest.raises(ValueError, match="check_invariants_every"):
        ChaosPlan(check_invariants_every=-1)


# -- InvariantMonitor ---------------------------------------------------------


def _monitored_result(trace, **plan_kwargs):
    cfg = SimulationConfig.relative(
        trace, proxy_frac=0.10, browser_sizing="minimum",
        chaos=ChaosPlan(check_invariants_every=500, **plan_kwargs),
    )
    sim = Simulator(trace, ORG, cfg)
    return sim, sim.run()


def test_monitor_runs_mid_replay_and_stays_clean(small_trace):
    sim, result = _monitored_result(
        small_trace, proxy_faults=ProxyFaultModel(crash_times=(20_000.0,))
    )
    assert result.proxy_crashes == 1
    # checked during the replay, not just at finalise.
    assert sim._monitor is not None
    assert sim._monitor.checks_run >= len(small_trace) // 500 - 1


@pytest.mark.parametrize("consistency", [None, FixedTTLPolicy(ttl=600.0)])
def test_profiled_run_keeps_the_invariant_monitor_ticking(small_trace, consistency):
    """A profiled run is the production run: the armed monitor ticks
    exactly as often, with and without coherence, and the results
    match field for field."""
    config = SimulationConfig.relative(
        small_trace,
        proxy_frac=0.10,
        consistency=consistency,
        chaos=ChaosPlan(check_invariants_every=100),
    )
    plain = Simulator(small_trace, ORG, config)
    profiled = Simulator(small_trace, ORG, config, profile=ReplayProfile())
    plain_result = plain.run()
    profiled_result = profiled.run()
    assert plain._monitor.checks_run > len(small_trace) // 100 - 1
    assert profiled._monitor.checks_run == plain._monitor.checks_run
    assert dataclasses.asdict(profiled_result) == dataclasses.asdict(plain_result)


def test_monitor_clean_on_federated_partition_run(small_trace):
    span = small_trace.duration
    link = LinkFaultModel(partition_windows=((0.25 * span, 0.75 * span),))
    cfg = fed_config(
        small_trace,
        chaos=ChaosPlan(link_faults=link, check_invariants_every=500),
    )
    engine = FederatedSimulator(small_trace, ORG, cfg)
    result = engine.run()
    assert result.partition_windows == 1
    assert engine.monitor is not None
    assert engine.monitor.checks_run > 1


def test_monitor_catches_injected_corruption(small_trace):
    sim, result = _monitored_result(small_trace)
    monitor = InvariantMonitor(sim.config, check_every=1)
    monitor.check_final(result)  # intact result passes

    broken = dataclasses.replace(result)
    broken.n_requests += 1
    with pytest.raises(InvariantViolation, match="hits . misses == requests"):
        monitor.check_final(broken)

    broken = dataclasses.replace(result)
    broken.overhead = dataclasses.replace(result.overhead)
    broken.overhead.wasted_offline_time += 1e6
    with pytest.raises(InvariantViolation, match="covers its breakdown"):
        monitor.check_final(broken)

    broken = dataclasses.replace(result)
    broken.overhead = dataclasses.replace(result.overhead)
    broken.overhead.proxy_hit_time = float("nan")
    with pytest.raises(InvariantViolation, match="finite"):
        monitor.check_final(broken)

    broken = dataclasses.replace(result)
    broken.partition_windows = 3
    with pytest.raises(
        InvariantViolation, match="partition_windows stays zero"
    ):
        monitor.check_final(broken)


def test_monitor_violation_names_request_index(small_trace):
    sim, result = _monitored_result(small_trace)
    monitor = InvariantMonitor(sim.config, check_every=1)
    broken = dataclasses.replace(result)
    broken.proxy_crashes = 5
    with pytest.raises(InvariantViolation, match=r"at request 8000"):
        monitor.check_final(broken)


def test_monitor_validates_cadence(small_trace):
    cfg = SimulationConfig.relative(
        small_trace, proxy_frac=0.10, browser_sizing="minimum"
    )
    with pytest.raises(ValueError, match="check_every"):
        InvariantMonitor(cfg, check_every=0)


# -- composed faults ----------------------------------------------------------


def test_crash_during_partition_composes(small_trace):
    span = small_trace.duration
    plan = ChaosPlan(
        proxy_faults=ProxyFaultModel(crash_times=(0.5 * span,)),
        link_faults=LinkFaultModel(
            partition_windows=((0.4 * span, 0.6 * span),)
        ),
        check_invariants_every=1000,
    )
    cfg = fed_config(small_trace, chaos=plan)
    result = simulate(small_trace, ORG, cfg)
    assert result.proxy_crashes >= 1
    assert result.partition_windows == 1
    assert result.digest_exchanges_lost > 0
    assert result.recovery_time > 0.0
    assert_result_roundtrips(result)


def test_quarantine_under_partition_composes(small_trace):
    span = small_trace.duration
    plan = ChaosPlan(
        adversarial=AdversarialConfig(polluter_fraction=0.3),
        link_faults=LinkFaultModel(
            partition_windows=((0.3 * span, 0.7 * span),)
        ),
        check_invariants_every=1000,
    )
    cfg = fed_config(
        small_trace,
        chaos=plan,
        quarantine_threshold=2,
        max_holder_retries=2,
    )
    result = simulate(small_trace, ORG, cfg)
    assert result.corrupt_deliveries > 0
    assert result.quarantined_peers > 0
    assert result.partition_windows == 1
    assert result.digest_exchanges_lost > 0
    assert_result_roundtrips(result)


# -- streaming engine stays honest about its subset ---------------------------


def test_stream_rejects_chaos_and_link_faults(small_trace):
    cfg = SimulationConfig.relative(
        small_trace, proxy_frac=0.10, browser_sizing="minimum"
    )
    with pytest.raises(
        ValueError, match="simulate_stream does not support chaos plans"
    ):
        simulate_stream(
            small_trace, ORG, cfg.with_(chaos=ChaosPlan(seed=1))
        )
    link = LinkFaultModel(partition_windows=((0.0, 1.0),))
    with pytest.raises(
        ValueError, match="simulate_stream does not support link_faults"
    ):
        simulate_stream(
            small_trace,
            ORG,
            cfg.with_(federation=FederationConfig(n_proxies=2, link_faults=link)),
        )


# -- the experiment -----------------------------------------------------------


def test_chaos_experiment_brackets(small_trace):
    span = small_trace.duration
    res = chaos_experiment.run(
        trace=small_trace,
        partition_lengths=(0.3 * span,),
        digest_periods=(span / 12,),
        workers=0,
    )
    assert res.brackets_all()
    cell = res.cell(0.3 * span, span / 12)
    assert cell.partition_windows == 1
    assert cell.digest_exchanges_lost > 0
    for period in res.digest_periods:
        assert res.floor[period].digest_bytes_exchanged == 0
        assert res.ceiling[period].partition_windows == 0
    table = res.render()
    assert "partition" in table
    assert "exchanges lost" in table
    assert_result_roundtrips(cell)


def test_chaos_experiment_worker_identity():
    trace = small_paper_trace("NLANR-uc", 4_000)
    span = trace.duration
    kwargs = dict(
        trace=trace,
        partition_lengths=(0.3 * span,),
        digest_periods=(span / 12,),
    )
    serial = chaos_experiment.run(workers=0, **kwargs)
    pooled = chaos_experiment.run(workers=2, **kwargs)
    for key in serial.cells:
        assert dataclasses.asdict(serial.cells[key]) == dataclasses.asdict(
            pooled.cells[key]
        )
