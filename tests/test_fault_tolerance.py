"""The engine's fault-tolerance layer: retries, pool-crash recovery,
per-cell timeouts, the JSONL run journal, and resume.

The overarching contract: **no failure-handling feature may change any
simulated number**.  Every test that exercises a recovery path compares
the recovered results bit-for-bit (``dataclasses.asdict``) against a
fault-free serial reference run.
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    EngineOptions,
    FaultPlan,
    InjectedFault,
    Organization,
    SimulationConfig,
    build_cells,
    run_cells,
    simulate,
)
from repro.core.journal import (
    cell_key,
    load_completed_results,
    read_journal,
    result_to_jsonable,
)
from repro.core.metrics import SimulationResult

from tests.conftest import assert_result_roundtrips, example_budget

ORGS = (Organization.PROXY_AND_LOCAL_BROWSER, Organization.BROWSERS_AWARE_PROXY)
FRACTIONS = (0.05, 0.2)

#: no backoff sleeps in tests.
FAST = dict(backoff_base=0.0)


def fingerprint(result) -> dict:
    return dataclasses.asdict(result)


def make_grid(trace, fractions=FRACTIONS):
    config = SimulationConfig(proxy_capacity=20_000, browser_capacity=5_000)
    return build_cells(trace.name, ORGS, fractions, lambda f: config)


@pytest.fixture()
def reference(small_trace):
    """Fault-free serial run of the standard grid."""
    cells = make_grid(small_trace)
    run = run_cells(cells, {small_trace.name: small_trace}, workers=0)
    assert run.ok
    return run


# -- retry -------------------------------------------------------------------


@pytest.mark.parametrize("workers", [0, 2])
def test_transient_failure_is_retried(small_trace, reference, workers):
    cells = make_grid(small_trace)
    options = EngineOptions(
        retries=1,
        faults=FaultPlan((InjectedFault(cell_index=1, kind="raise", attempt=0),)),
        **FAST,
    )
    run = run_cells(
        cells, {small_trace.name: small_trace}, workers=workers, options=options
    )
    assert run.ok, run.failures
    assert run.attempts[1] == 2  # failed once, succeeded on retry
    assert all(run.attempts[c.index] >= 1 for c in cells)
    for index, result in reference.results.items():
        assert fingerprint(run.results[index]) == fingerprint(result), index


def test_exhausted_retries_quarantine_the_cell(small_trace, reference):
    cells = make_grid(small_trace)
    faults = FaultPlan(
        tuple(InjectedFault(cell_index=2, kind="raise", attempt=a) for a in range(3))
    )
    options = EngineOptions(retries=2, faults=faults, **FAST)
    run = run_cells(cells, {small_trace.name: small_trace}, workers=0, options=options)
    assert len(run.failures) == 1
    failure = run.failures[0]
    assert failure.cell.index == 2
    assert failure.attempts == 3
    assert "injected fault" in failure.error
    assert "after 3 attempts" in str(failure)
    for index in (0, 1, 3):
        assert fingerprint(run.results[index]) == fingerprint(
            reference.results[index]
        )


def test_backoff_delay_is_capped_exponential():
    options = EngineOptions(retries=5, backoff_base=0.5, backoff_cap=3.0)
    assert options.backoff_delay(0) == 0.0
    assert options.backoff_delay(1) == 0.5
    assert options.backoff_delay(2) == 1.0
    assert options.backoff_delay(3) == 2.0
    assert options.backoff_delay(4) == 3.0  # capped
    assert options.backoff_delay(10) == 3.0


# -- worker death / pool recovery --------------------------------------------


def test_worker_kill_recovers_and_matches_reference(small_trace, reference):
    """A hard worker death (os._exit, like OOM/SIGKILL) breaks the pool;
    the engine must rebuild it, requeue unfinished cells, and still
    produce bit-identical results."""
    cells = make_grid(small_trace)
    options = EngineOptions(
        retries=2,
        faults=FaultPlan((InjectedFault(cell_index=0, kind="kill", attempt=0),)),
        **FAST,
    )
    run = run_cells(cells, {small_trace.name: small_trace}, workers=2, options=options)
    assert run.ok, run.failures
    assert run.pool_crashes >= 1
    assert run.attempts[0] >= 2
    assert set(run.results) == set(reference.results)
    for index, result in reference.results.items():
        assert fingerprint(run.results[index]) == fingerprint(result), index


def test_repeat_killer_is_quarantined_others_survive(small_trace, reference):
    """A cell that kills its worker on every attempt must be isolated
    and quarantined without dragging bystander cells down."""
    cells = make_grid(small_trace)
    faults = FaultPlan(
        tuple(InjectedFault(cell_index=0, kind="kill", attempt=a) for a in range(6))
    )
    options = EngineOptions(retries=3, faults=faults, **FAST)
    run = run_cells(cells, {small_trace.name: small_trace}, workers=2, options=options)
    assert len(run.failures) == 1
    failure = run.failures[0]
    assert failure.cell.index == 0
    assert "BrokenProcessPool" in failure.error
    assert run.pool_crashes >= 2  # batch crashes, then isolation pinpoints it
    for index in (1, 2, 3):
        assert fingerprint(run.results[index]) == fingerprint(
            reference.results[index]
        ), index


def test_kill_fault_in_serial_mode_is_survivable(small_trace):
    """In-process execution cannot lose a worker; the kill fault maps to
    an ordinary failure so serial fault runs stay meaningful."""
    cells = make_grid(small_trace)
    options = EngineOptions(
        retries=1,
        faults=FaultPlan((InjectedFault(cell_index=0, kind="kill", attempt=0),)),
        **FAST,
    )
    run = run_cells(cells, {small_trace.name: small_trace}, workers=0, options=options)
    assert run.ok
    assert run.attempts[0] == 2


# -- per-cell timeout --------------------------------------------------------


def test_hanging_cell_times_out_and_retries(small_trace, reference, tmp_path):
    journal = tmp_path / "hang.jsonl"
    options = EngineOptions(
        retries=1,
        cell_timeout=0.3,
        journal=journal,
        faults=FaultPlan((InjectedFault(cell_index=1, kind="hang", attempt=0),)),
        **FAST,
    )
    cells = make_grid(small_trace)
    run = run_cells(cells, {small_trace.name: small_trace}, workers=0, options=options)
    assert run.ok, run.failures
    assert run.attempts[1] == 2
    outcomes = [
        r["outcome"]
        for r in read_journal(journal)
        if r.get("kind") == "attempt" and r["cell"] == 1
    ]
    assert outcomes == ["timeout", "ok"]
    for index, result in reference.results.items():
        assert fingerprint(run.results[index]) == fingerprint(result), index


# -- journal + resume --------------------------------------------------------


def test_journal_schema(small_trace, tmp_path):
    journal = tmp_path / "run.jsonl"
    cells = make_grid(small_trace)
    run_cells(
        cells,
        {small_trace.name: small_trace},
        workers=0,
        options=EngineOptions(journal=journal),
    )
    records = list(read_journal(journal))
    assert records[0]["kind"] == "run"
    assert records[0]["n_cells"] == len(cells)
    assert records[0]["retries"] == 0
    attempts = [r for r in records if r["kind"] == "attempt"]
    results = [r for r in records if r["kind"] == "result"]
    assert len(attempts) == len(cells) and len(results) == len(cells)
    for record in attempts:
        assert set(record) >= {
            "cell", "trace", "organization", "fraction", "seed",
            "config", "attempt", "outcome", "elapsed", "error",
        }
        assert record["outcome"] == "ok"
        assert record["trace"] == small_trace.name
    # the journal is valid JSONL end to end
    lines = journal.read_text().strip().splitlines()
    assert all(json.loads(line) for line in lines)


def test_result_json_roundtrip_is_lossless(small_trace):
    # the exhaustive field-by-field check lives in conftest so every
    # round-trip test shares it
    config = SimulationConfig(
        proxy_capacity=20_000, browser_capacity=5_000, holder_availability=0.5
    )
    result = simulate(small_trace, Organization.BROWSERS_AWARE_PROXY, config)
    assert_result_roundtrips(result)


def test_resume_executes_only_unfinished_cells(small_trace, reference, tmp_path):
    """First run: one cell fails for good.  Second run with --resume:
    only that cell executes, and the merged results are bit-identical
    to a clean run."""
    first_journal = tmp_path / "first.jsonl"
    cells = make_grid(small_trace)
    traces = {small_trace.name: small_trace}
    first = run_cells(
        cells,
        traces,
        workers=0,
        options=EngineOptions(
            journal=first_journal,
            faults=FaultPlan((InjectedFault(cell_index=2, kind="raise", attempt=0),)),
            **FAST,
        ),
    )
    assert len(first.failures) == 1 and first.failures[0].cell.index == 2

    second_journal = tmp_path / "second.jsonl"
    second = run_cells(
        cells,
        traces,
        workers=0,
        options=EngineOptions(journal=second_journal, resume=first_journal),
    )
    assert second.ok
    assert second.resumed == {0, 1, 3}
    assert second.attempts == {0: 0, 1: 0, 3: 0, 2: 1}  # only cell 2 executed
    assert set(second.results) == set(reference.results)
    for index, result in reference.results.items():
        assert fingerprint(second.results[index]) == fingerprint(result), index

    # the second journal is complete: resuming from it executes nothing
    third = run_cells(
        cells, traces, workers=0,
        options=EngineOptions(resume=second_journal),
    )
    assert third.resumed == {0, 1, 2, 3}
    assert all(n == 0 for n in third.attempts.values())
    for index, result in reference.results.items():
        assert fingerprint(third.results[index]) == fingerprint(result), index


def test_faulty_pooled_run_journal_replays_bit_identical(
    small_trace, reference, tmp_path
):
    """The acceptance scenario: a sweep with an injected worker kill AND
    an injected transient failure completes, and its journal replays via
    resume to results bit-identical to a fault-free serial run."""
    journal = tmp_path / "faulty.jsonl"
    cells = make_grid(small_trace)
    traces = {small_trace.name: small_trace}
    faulty = run_cells(
        cells,
        traces,
        workers=2,
        options=EngineOptions(
            retries=2,
            journal=journal,
            faults=FaultPlan(
                (
                    InjectedFault(cell_index=0, kind="kill", attempt=0),
                    InjectedFault(cell_index=3, kind="raise", attempt=0),
                )
            ),
            **FAST,
        ),
    )
    assert faulty.ok, faulty.failures
    assert faulty.pool_crashes >= 1

    replayed = run_cells(
        cells, traces, workers=0, options=EngineOptions(resume=journal)
    )
    assert replayed.resumed == {0, 1, 2, 3}
    for index, result in reference.results.items():
        assert fingerprint(faulty.results[index]) == fingerprint(result), index
        assert fingerprint(replayed.results[index]) == fingerprint(result), index


def test_resume_ignores_results_from_a_different_config(small_trace, tmp_path):
    """Cell identity includes the config fingerprint: a journal written
    with different cache sizes must not satisfy this run's lookups."""
    journal = tmp_path / "other-config.jsonl"
    traces = {small_trace.name: small_trace}
    other = build_cells(
        small_trace.name, ORGS, FRACTIONS,
        lambda f: SimulationConfig(proxy_capacity=99_000, browser_capacity=1_000),
    )
    run_cells(other, traces, workers=0, options=EngineOptions(journal=journal))
    assert len(load_completed_results(journal)) == len(other)

    cells = make_grid(small_trace)
    resumed = run_cells(
        cells, traces, workers=0, options=EngineOptions(resume=journal)
    )
    assert resumed.resumed == set()  # nothing matched; everything re-ran
    assert all(n == 1 for n in resumed.attempts.values())


def test_engine_options_with_no_faults_changes_nothing(small_trace, reference, tmp_path):
    """The whole fault-tolerance layer is a no-op on the numbers when
    nothing fails — the golden guarantee."""
    cells = make_grid(small_trace)
    run = run_cells(
        cells,
        {small_trace.name: small_trace},
        workers=0,
        options=EngineOptions(
            retries=3, cell_timeout=600.0, journal=tmp_path / "clean.jsonl"
        ),
    )
    assert run.ok and run.pool_crashes == 0
    assert all(n == 1 for n in run.attempts.values())
    for index, result in reference.results.items():
        assert fingerprint(run.results[index]) == fingerprint(result), index


# -- progress-callback isolation ---------------------------------------------


@pytest.mark.parametrize("workers", [0, 2])
def test_raising_progress_callback_cannot_kill_the_sweep(
    small_trace, reference, workers
):
    events = []

    def hostile(event):
        events.append(event)
        raise RuntimeError("observer bug")

    cells = make_grid(small_trace)
    run = run_cells(
        cells, {small_trace.name: small_trace}, workers=workers, progress=hostile
    )
    assert run.ok, run.failures
    assert len(events) == len(cells)
    assert sorted(e.completed for e in events) == [1, 2, 3, 4]
    for index, result in reference.results.items():
        assert fingerprint(run.results[index]) == fingerprint(result), index


# -- fault plan parsing ------------------------------------------------------


def test_fault_plan_parse():
    plan = FaultPlan.parse("kill:3, raise:1@0, raise:1@1, hang:2")
    assert plan.fault_for(3, 0).kind == "kill"
    assert plan.fault_for(1, 0).kind == "raise"
    assert plan.fault_for(1, 1).kind == "raise"
    assert plan.fault_for(1, 2) is None
    assert plan.fault_for(2, 0).kind == "hang"
    assert plan.fault_for(0, 0) is None
    assert bool(plan) and not bool(FaultPlan())


def test_fault_plan_rejects_bad_specs():
    with pytest.raises(ValueError):
        FaultPlan.parse("explode:1")
    with pytest.raises(ValueError):
        FaultPlan.parse("kill")
    with pytest.raises(ValueError):
        InjectedFault(cell_index=-1)


def test_engine_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(retries=-1)
    with pytest.raises(ValueError):
        EngineOptions(cell_timeout=0)
    with pytest.raises(ValueError):
        EngineOptions(isolate_after_crashes=0)


# -- requested vs effective workers ------------------------------------------


def test_serial_fallback_reports_requested_workers(small_trace):
    cells = make_grid(small_trace, fractions=(0.1,))[:1]
    run = run_cells(cells, {small_trace.name: small_trace}, workers=4)
    timing = run.timing
    assert timing.workers == 0  # effective: fell back to in-process
    assert timing.requested_workers == 4
    assert timing.fell_back_to_serial
    assert "4 requested" in timing.render()


def test_normal_runs_record_both_worker_counts(small_trace):
    cells = make_grid(small_trace)
    pooled = run_cells(cells, {small_trace.name: small_trace}, workers=2)
    assert pooled.timing.workers == 2
    assert pooled.timing.requested_workers == 2
    assert not pooled.timing.fell_back_to_serial
    serial = run_cells(cells, {small_trace.name: small_trace}, workers=0)
    assert serial.timing.workers == 0
    assert serial.timing.requested_workers == 0
    assert not serial.timing.fell_back_to_serial


# -- journal crash-safety ----------------------------------------------------


def test_truncated_trailing_record_at_every_byte(small_trace, tmp_path):
    """A crash mid-write tears the journal's last line.  Whatever byte
    the write died at, the intact prefix must still load — without
    raising — and only the torn record is lost."""
    journal = tmp_path / "run.jsonl"
    cells = make_grid(small_trace)
    run_cells(
        cells,
        {small_trace.name: small_trace},
        workers=0,
        options=EngineOptions(journal=journal),
    )
    full = journal.read_bytes()
    complete = load_completed_results(journal)
    assert len(complete) == len(cells)

    # the last line is the final cell's result record
    body = full.rstrip(b"\n")
    last_start = body.rfind(b"\n") + 1
    truncated_path = tmp_path / "torn.jsonl"
    for cut in range(last_start, len(body)):
        truncated_path.write_bytes(full[:cut])
        restored = load_completed_results(truncated_path)
        assert len(restored) == len(cells) - 1, f"cut at byte {cut}"
        for key, result in restored.items():
            assert fingerprint(result) == fingerprint(complete[key])


def test_corrupt_journal_line_warns(small_trace, tmp_path, caplog):
    journal = tmp_path / "run.jsonl"
    cells = make_grid(small_trace, fractions=(0.1,))
    run_cells(
        cells,
        {small_trace.name: small_trace},
        workers=0,
        options=EngineOptions(journal=journal),
    )
    text = journal.read_text()
    torn = text + '{"kind": "result", "trace": "small", "trunc'
    journal.write_text(torn)
    import logging

    with caplog.at_level(logging.WARNING, logger="repro.core.journal"):
        restored = load_completed_results(journal)
    assert len(restored) == len(cells)
    assert any("discarding corrupt record" in r.message for r in caplog.records)


def _result_record(cell: int) -> dict:
    result = SimulationResult(trace_name="t", organization="o", n_requests=cell)
    return {
        "kind": "result",
        "cell": cell,
        "trace": "t",
        "organization": "o",
        "fraction": 0.1 * cell,
        "seed": cell,
        "config": "",
        "result": result_to_jsonable(result),
    }


#: lines a torn or foreign journal may hold that are not result records
#: the reader can restore: not UTF-8, JSON but not an object, result
#: records without their identity, and results that do not rebuild.
_BAD_LINES = [
    b"\xff\xfe{",
    b"123",
    b'"text"',
    b"[1, 2]",
    b"null",
    b'{"kind": "result"}',
    json.dumps({**_result_record(7), "seed": "x"}).encode(),
    json.dumps({**_result_record(8), "result": 5}).encode(),
    json.dumps({**_result_record(9), "result": {"trace_name": "t"}}).encode(),
    json.dumps(
        {**_result_record(10), "result": {**_result_record(10)["result"], "by_location": []}}
    ).encode(),
]


@given(
    garbage=st.lists(st.one_of(st.binary(max_size=40), st.sampled_from(_BAD_LINES))),
    shuffle=st.randoms(use_true_random=False),
)
@settings(max_examples=example_budget(100), deadline=None)
def test_journal_reader_skips_arbitrary_bytes(garbage, shuffle):
    """Arbitrary bytes mixed with valid records: the reader yields only
    JSON objects, never raises, and every valid result still loads."""
    valid = [_result_record(cell) for cell in range(3)]
    lines = [json.dumps(record).encode() for record in valid] + garbage
    shuffle.shuffle(lines)
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "run.jsonl"
        journal.write_bytes(b"".join(line + b"\n" for line in lines))
        assert all(isinstance(r, dict) for r in read_journal(journal))
        restored = load_completed_results(journal)
    want = {
        cell_key("t", "o", r["fraction"], r["seed"], ""): r["result"]["n_requests"]
        for r in valid
    }
    assert {key: restored[key].n_requests for key in want} == want
    assert set(restored) == set(want)


# -- timeout portability -----------------------------------------------------


def test_timeout_enforceable_on_main_thread():
    from repro.core.parallel import timeout_enforceable

    # POSIX CI runs this on the main thread with SIGALRM available
    assert timeout_enforceable()


def test_deadline_degrades_off_main_thread(caplog):
    """A timeout that cannot arm must run the block unbounded, once-
    warned — never crash the sweep."""
    import threading
    import time

    from repro.core import parallel
    from repro.core.parallel import _deadline, timeout_enforceable

    outcome = {}

    def run_in_thread():
        outcome["enforceable"] = timeout_enforceable()
        with _deadline(0.001):
            time.sleep(0.05)  # far past the deadline
        outcome["survived"] = True

    parallel._TIMEOUT_DEGRADED_WARNED = False
    with caplog.at_level("WARNING", logger=parallel.log.name):
        worker = threading.Thread(target=run_in_thread)
        worker.start()
        worker.join()
    assert outcome == {"enforceable": False, "survived": True}
    degraded = [r for r in caplog.records if "cannot be enforced" in r.message]
    assert len(degraded) == 1
    # the warning fires once per process, not once per cell
    parallel._TIMEOUT_DEGRADED_WARNED = False


def test_unenforceable_timeout_reported_in_timing(small_trace):
    """Run a serial sweep with a cell timeout from a worker thread: the
    timing report must flag the timeout as unsupported rather than
    silently pretending cells were bounded."""
    import threading

    cells = make_grid(small_trace, fractions=(0.05,))
    holder = {}

    def run_sweep():
        holder["run"] = run_cells(
            cells,
            {small_trace.name: small_trace},
            workers=0,
            options=EngineOptions(cell_timeout=600.0, **FAST),
        )

    worker = threading.Thread(target=run_sweep)
    worker.start()
    worker.join()
    run = holder["run"]
    assert run.ok
    assert run.timing.timeout_supported is False
    assert "UNSUPPORTED" in run.timing.render()


def test_enforced_timeout_reported_as_supported(small_trace):
    cells = make_grid(small_trace, fractions=(0.05,))
    run = run_cells(
        cells,
        {small_trace.name: small_trace},
        workers=0,
        options=EngineOptions(cell_timeout=600.0, **FAST),
    )
    assert run.ok
    assert run.timing.timeout_supported is True
    assert "UNSUPPORTED" not in run.timing.render()
