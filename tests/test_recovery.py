"""Proxy crash recovery: fault schedules, checkpoints, rebuild, degraded mode."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    CheckpointPolicy,
    IndexCheckpointer,
    Organization,
    ProxyFaultModel,
    ProxyFaultSchedule,
    SimulationConfig,
    result_from_jsonable,
    result_to_jsonable,
    run_policy_sweep,
    simulate,
)
from repro.index.browser_index import BrowserIndex
from repro.index.engine_bloom import BloomBrowserIndex
from repro.traces.record import Trace

from tests.conftest import assert_result_roundtrips

BAPS = Organization.BROWSERS_AWARE_PROXY


# -- fault model validation ---------------------------------------------------


def test_fault_model_needs_a_crash_source():
    with pytest.raises(ValueError, match="--proxy-crash-rate"):
        ProxyFaultModel()


def test_fault_model_rejects_both_sources():
    with pytest.raises(ValueError, match="not both"):
        ProxyFaultModel(crash_rate=0.1, crash_times=(10.0,))


def test_fault_model_rejects_empty_schedule():
    with pytest.raises(ValueError, match="--proxy-crash-at"):
        ProxyFaultModel(crash_times=())


def test_fault_model_rejects_negative_times():
    with pytest.raises(ValueError, match="--proxy-crash-at"):
        ProxyFaultModel(crash_times=(10.0, -1.0))


def test_fault_model_rejects_negative_rate():
    with pytest.raises(ValueError, match="--proxy-crash-rate"):
        ProxyFaultModel(crash_rate=-0.5)


def test_fault_model_rejects_unknown_distribution():
    with pytest.raises(ValueError, match="distribution"):
        ProxyFaultModel(crash_rate=0.1, distribution="weibull")


def test_fault_model_rejects_heavy_pareto():
    with pytest.raises(ValueError, match="pareto_alpha"):
        ProxyFaultModel(crash_rate=0.1, distribution="pareto", pareto_alpha=1.0)


def test_fault_model_sorts_crash_times():
    model = ProxyFaultModel(crash_times=(30.0, 10.0, 20.0))
    assert model.crash_times == (10.0, 20.0, 30.0)
    assert model.is_explicit


def test_checkpoint_policy_validation():
    with pytest.raises(ValueError, match="--checkpoint-interval"):
        CheckpointPolicy(interval=0.0)
    with pytest.raises(ValueError, match="full_every"):
        CheckpointPolicy(full_every=0)


def test_reannounce_rate_validation():
    with pytest.raises(ValueError, match="--reannounce-rate"):
        SimulationConfig(
            proxy_capacity=1000, browser_capacity=100, reannounce_rate=0.0
        )


# -- fault schedule -----------------------------------------------------------


def test_explicit_schedule_constructs_no_rng():
    schedule = ProxyFaultSchedule(ProxyFaultModel(crash_times=(5.0, 9.0)))
    assert schedule._rng is None
    assert schedule.peek(4.0) is None
    assert schedule.peek(5.0) == 5.0
    assert schedule.pop() == 5.0
    assert schedule.peek(5.0) is None
    assert schedule.peek(100.0) == 9.0
    assert schedule.pop() == 9.0
    assert schedule.peek(1e9) is None


def test_rate_schedule_is_seed_deterministic():
    model = ProxyFaultModel(crash_rate=0.01)

    def draw(seed, n=5):
        schedule = ProxyFaultSchedule(model, seed=seed)
        out = []
        for _ in range(n):
            assert schedule.peek(1e12) is not None
            out.append(schedule.pop())
        return out

    a, b = draw(7), draw(7)
    assert a == b
    assert a == sorted(a)  # crash times strictly advance
    assert draw(8) != a  # and depend on the seed


def test_pareto_schedule_draws_positive_gaps():
    model = ProxyFaultModel(
        crash_rate=0.01, distribution="pareto", pareto_alpha=2.5
    )
    schedule = ProxyFaultSchedule(model, seed=3)
    last = 0.0
    for _ in range(10):
        t = schedule.pop()
        assert t > last
        last = t


# -- checkpointer -------------------------------------------------------------


def _filled_index(n_docs: int = 5) -> BrowserIndex:
    index = BrowserIndex(n_clients=4)
    for doc in range(n_docs):
        index.record_insert(doc % 4, doc, version=0, size=100, now=float(doc))
    return index


def test_checkpointer_full_then_incremental():
    ck = IndexCheckpointer(CheckpointPolicy(interval=10.0, full_every=3))
    index = _filled_index()
    assert ck.next_due(9.0) is None
    assert ck.next_due(10.0) == 10.0
    cost = ck.take(index, 10.0)
    assert cost == pytest.approx(ck.latest().n_bytes / 50e6)
    assert ck.latest().full
    assert ck.full_snapshots == 1
    # next deadline advanced; the second snapshot is incremental and
    # delta-sized (no events since -> the 64-byte floor).
    assert ck.next_due(19.0) is None
    ck.take(index, 20.0)
    second = ck.latest()
    assert not second.full
    assert second.n_bytes == IndexCheckpointer.MIN_SNAPSHOT_BYTES
    # restore chain = full + incremental
    assert second.restore_bytes > second.n_bytes
    assert ck.restore_time() == pytest.approx(second.restore_bytes / 50e6)


def test_checkpointer_reset_after_crash_goes_full():
    ck = IndexCheckpointer(CheckpointPolicy(interval=10.0, full_every=5))
    index = _filled_index()
    ck.take(index, 10.0)
    ck.take(index, 20.0)
    assert ck.incremental_snapshots == 1
    ck.reset_after_crash(25.0)
    assert ck.next_due(34.9) is None
    assert ck.next_due(35.0) == 35.0
    ck.take(index, 35.0)
    assert ck.latest().full  # post-crash snapshot restarts the chain


# -- index snapshot / restore / reannounce ------------------------------------


def test_exact_index_snapshot_roundtrip():
    index = _filled_index()
    payload = index.export_snapshot()
    fresh = BrowserIndex(n_clients=4)
    fresh.restore_snapshot(payload)
    assert fresh.n_entries == index.n_entries
    for doc in range(5):
        assert fresh.holders_of(doc) == index.holders_of(doc)


def test_exact_index_restored_entries_tracked():
    index = _filled_index()
    fresh = BrowserIndex(n_clients=4)
    fresh.restore_snapshot(index.export_snapshot())
    fresh.record_false_hit(client=0, doc=0)
    assert fresh.stats.false_hits == 1
    assert fresh.stats.false_hits_after_restore == 1
    # a live event refreshes the pair: no longer recovery staleness
    fresh.record_insert(0, 0, version=1, size=100, now=50.0, replace=True)
    fresh.record_false_hit(client=0, doc=0)
    assert fresh.stats.false_hits == 2
    assert fresh.stats.false_hits_after_restore == 1


def test_exact_index_reannounce_replaces_client_state():
    index = _filled_index()
    fresh = BrowserIndex(n_clients=4)
    fresh.restore_snapshot(index.export_snapshot())
    # client 0 actually holds only doc 7 now
    n = fresh.reannounce(0, [(7, 0, 100)], now=60.0)
    assert n == 1
    assert fresh.holders_of(7) == [0]
    assert 0 not in fresh.holders_of(0)
    assert 0 not in fresh.holders_of(4)
    assert fresh.reannouncements == 1
    # announced entries are live, not restored
    fresh.record_false_hit(client=0, doc=7)
    assert fresh.stats.false_hits_after_restore == 0


def test_bloom_index_snapshot_roundtrip_and_reannounce():
    index = BloomBrowserIndex(n_clients=3, expected_docs_per_client=8)
    for doc in range(4):
        index.record_insert(doc % 3, doc, version=0, size=100, now=float(doc))
    payload = index.export_snapshot()
    fresh = BloomBrowserIndex(n_clients=3, expected_docs_per_client=8)
    fresh.restore_snapshot(payload)
    for doc in range(4):
        assert fresh.holders_of(doc) == index.holders_of(doc)
    # restored summaries count recovery false hits until re-announced
    fresh.record_false_hit(client=1, doc=1)
    assert fresh.stats.false_hits_after_restore == 1
    fresh.reannounce(1, [(9, 0, 100)], now=10.0)
    assert 1 in fresh.holders_of(9)
    fresh.record_false_hit(client=1, doc=9)
    assert fresh.stats.false_hits_after_restore == 1  # unchanged
    assert fresh.reannouncements == 1


def test_restore_does_not_mutate_donor_snapshot():
    index = BloomBrowserIndex(n_clients=2, expected_docs_per_client=8)
    index.record_insert(0, 1, version=0, size=100, now=0.0)
    payload = index.export_snapshot()
    fresh = BloomBrowserIndex(n_clients=2, expected_docs_per_client=8)
    fresh.restore_snapshot(payload)
    fresh.record_insert(0, 2, version=0, size=100, now=1.0)
    # the donor payload, restored again, must not carry fresh's insert
    second = BloomBrowserIndex(n_clients=2, expected_docs_per_client=8)
    second.restore_snapshot(payload)
    assert second.holders_of(1) == [0]
    assert second.holders_of(2) == []


# -- engine integration -------------------------------------------------------


def _config(trace, **kwargs) -> SimulationConfig:
    return SimulationConfig.relative(
        trace, proxy_frac=0.10, browser_sizing="average", **kwargs
    )


def _duration(trace) -> float:
    return float(trace.timestamps.max())


def test_crash_lowers_hit_ratio_and_counts(small_trace):
    dur = _duration(small_trace)
    plain = simulate(small_trace, BAPS, _config(small_trace))
    crashed = simulate(
        small_trace,
        BAPS,
        _config(
            small_trace,
            proxy_faults=ProxyFaultModel(crash_times=(0.35 * dur, 0.7 * dur)),
            reannounce_rate=0.02,
        ),
    )
    assert crashed.proxy_crashes == 2
    assert crashed.hit_ratio < plain.hit_ratio
    assert crashed.degraded_window_requests > 0
    assert crashed.hits_lost_to_recovery > 0
    assert crashed.recovery_time > 0
    assert crashed.checkpoint_bytes_written == 0  # no checkpointing armed
    assert plain.proxy_crashes == 0
    assert plain.recovery_time == 0.0


def test_checkpointing_recovers_hit_ratio(small_trace):
    dur = _duration(small_trace)
    faults = ProxyFaultModel(crash_times=(0.35 * dur, 0.7 * dur))
    base = _config(small_trace, proxy_faults=faults, reannounce_rate=0.02)
    plain = simulate(small_trace, BAPS, _config(small_trace))
    no_ck = simulate(small_trace, BAPS, base)
    with_ck = simulate(
        small_trace, BAPS, base.with_(checkpoint=CheckpointPolicy(interval=dur / 24))
    )
    assert with_ck.checkpoint_bytes_written > 0
    assert with_ck.overhead.checkpoint_time > 0
    assert no_ck.hit_ratio <= with_ck.hit_ratio <= plain.hit_ratio
    # a restored index loses fewer sharing opportunities in the window
    assert with_ck.hits_lost_to_recovery <= no_ck.hits_lost_to_recovery


def test_checkpoint_without_faults_charges_but_restores_nothing(small_trace):
    dur = _duration(small_trace)
    plain = simulate(small_trace, BAPS, _config(small_trace))
    insured = simulate(
        small_trace,
        BAPS,
        _config(small_trace, checkpoint=CheckpointPolicy(interval=dur / 10)),
    )
    assert insured.proxy_crashes == 0
    assert insured.checkpoint_bytes_written > 0
    assert insured.overhead.checkpoint_time > 0
    # snapshots never change what the engine serves
    assert insured.hit_ratio == plain.hit_ratio
    assert insured.hits == plain.hits


def test_rate_based_crashes_are_reproducible(small_trace):
    config = _config(
        small_trace,
        proxy_faults=ProxyFaultModel(crash_rate=1 / 400.0),
        reannounce_rate=0.05,
    )
    a = simulate(small_trace, BAPS, config)
    b = simulate(small_trace, BAPS, config)
    assert a.proxy_crashes > 0
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    # a different master seed moves the crash times
    c = simulate(small_trace, BAPS, config.with_(availability_seed=9))
    assert dataclasses.asdict(c) != dataclasses.asdict(a)


def test_recovery_counters_roundtrip_through_journal(small_trace):
    dur = _duration(small_trace)
    result = simulate(
        small_trace,
        BAPS,
        _config(
            small_trace,
            proxy_faults=ProxyFaultModel(crash_times=(0.5 * dur,)),
            checkpoint=CheckpointPolicy(interval=dur / 12),
            reannounce_rate=0.02,
        ),
    )
    assert result.proxy_crashes == 1
    # exhaustive dataclasses.fields()-driven round-trip (conftest)
    restored = assert_result_roundtrips(result)
    assert restored.proxy_crashes == 1


def test_old_journal_records_still_load(small_trace):
    record = result_to_jsonable(simulate(small_trace, BAPS, _config(small_trace)))
    for key in (
        "proxy_crashes",
        "recovery_time",
        "degraded_window_requests",
        "hits_lost_to_recovery",
        "checkpoint_bytes_written",
    ):
        record.pop(key, None)
    restored = result_from_jsonable(record)
    assert restored.proxy_crashes == 0
    assert restored.recovery_time == 0.0


def test_default_config_constructs_no_fault_rng(small_trace, monkeypatch):
    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("ProxyFaultSchedule constructed without faults")

    monkeypatch.setattr(ProxyFaultSchedule, "__init__", explode)
    result = simulate(small_trace, BAPS, _config(small_trace))
    assert result.proxy_crashes == 0


def test_recovery_identical_across_worker_counts(small_trace):
    dur = _duration(small_trace)
    grid = dict(
        organizations=(BAPS,),
        fractions=(0.05, 0.2),
        browser_sizing="minimum",
        proxy_faults=ProxyFaultModel(crash_times=(0.35 * dur, 0.7 * dur)),
        checkpoint=CheckpointPolicy(interval=dur / 24),
        reannounce_rate=0.02,
    )
    serial = run_policy_sweep(small_trace, workers=0, **grid)
    pooled = run_policy_sweep(small_trace, workers=2, **grid)
    assert not serial.failures and not pooled.failures
    for key, result in serial.results.items():
        assert dataclasses.asdict(result) == dataclasses.asdict(
            pooled.results[key]
        )
        assert result.proxy_crashes == 2


def test_bloom_index_survives_crash_recovery(small_trace):
    dur = _duration(small_trace)
    result = simulate(
        small_trace,
        BAPS,
        _config(
            small_trace,
            index_kind="bloom",
            proxy_faults=ProxyFaultModel(crash_times=(0.5 * dur,)),
            checkpoint=CheckpointPolicy(interval=dur / 12),
            reannounce_rate=0.02,
        ),
    )
    assert result.proxy_crashes == 1
    assert result.checkpoint_bytes_written > 0


# -- staleness introduced by recovery -----------------------------------------


def test_restored_entry_is_charged_as_false_hit():
    """A checkpoint predating an eviction makes the restored index lie.

    Layout: client 1 caches doc 0 at t=0; the t=15 checkpoint
    (processed at t=20) records that; at t=20 doc 1 evicts doc 0 from
    client 1's 150-byte browser; the proxy crashes at t=25 and restores
    the stale snapshot.  Client 0's t=40 request for doc 0 then gets
    pointed at client 1, pays the wasted probe, and the false hit is
    attributed to recovery.
    """
    trace = Trace(
        timestamps=np.array([0.0, 20.0, 40.0]),
        clients=np.array([1, 1, 0]),
        docs=np.array([0, 1, 0]),
        sizes=np.array([100, 100, 100]),
        versions=np.zeros(3, dtype=np.int64),
        name="restore-staleness",
    )
    config = SimulationConfig(
        proxy_capacity=10_000,
        browser_capacity=150,
        proxy_faults=ProxyFaultModel(crash_times=(25.0,)),
        checkpoint=CheckpointPolicy(interval=15.0),
        reannounce_rate=1e-4,  # nobody re-announces before t=40
    )
    result = simulate(trace, BAPS, config)
    assert result.proxy_crashes == 1
    assert result.index_false_hits == 1
    assert result.overhead.wasted_false_hit_time > 0
    assert result.index_stats.false_hits_after_restore == 1


def test_reannouncement_corrects_restored_staleness():
    """Same layout, but a fast re-announcement lands before t=40: the
    stale restored entry is replaced and the lookup finds the truth."""
    trace = Trace(
        timestamps=np.array([0.0, 20.0, 40.0]),
        clients=np.array([1, 1, 0]),
        docs=np.array([0, 1, 0]),
        sizes=np.array([100, 100, 100]),
        versions=np.zeros(3, dtype=np.int64),
        name="restore-healed",
    )
    config = SimulationConfig(
        proxy_capacity=10_000,
        browser_capacity=150,
        proxy_faults=ProxyFaultModel(crash_times=(25.0,)),
        checkpoint=CheckpointPolicy(interval=15.0),
        reannounce_rate=1.0,  # client 1 re-announces at t=26
    )
    result = simulate(trace, BAPS, config)
    assert result.proxy_crashes == 1
    assert result.index_stats.false_hits_after_restore == 0
    assert result.index_false_hits == 0
