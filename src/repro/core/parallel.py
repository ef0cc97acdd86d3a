"""Parallel sweep execution engine.

Every paper figure is a cross product of (organization, relative cache
size, trace); this module fans those *cells* out over a process pool
while keeping the results bit-identical to a one-process replay:

* each cell is fully self-contained — trace, organization, config, and
  a seed derived (via :func:`repro.util.rng.derive_seed`) from the
  cell's *identity*, never from worker assignment, completion order, or
  attempt number;
* results are collected keyed by cell index, so callers see submission
  order regardless of which worker finished first;
* ``workers=0`` executes cells in-process with no pickling at all —
  the deterministic fallback the golden-result harness pins;
* a crashing cell is captured as a :class:`CellFailure` carrying its
  config and traceback instead of killing the sweep.

The engine also survives *infrastructure* failure, mirroring how the
paper routes around unreliable peers (§5/§6):

* a dead worker process (OOM, SIGKILL) breaks the pool; the engine
  rebuilds it and requeues only the unfinished cells.  After
  ``EngineOptions.isolate_after_crashes`` rebuilds, remaining cells run
  one-per-pool so the culprit is pinpointed instead of taking
  bystanders down with it;
* each cell gets ``EngineOptions.retries`` extra attempts with capped
  exponential backoff and an optional per-cell wall-clock timeout;
  a cell that exhausts its attempts is quarantined as a
  :class:`CellFailure` and the sweep continues;
* every attempt is journalled to JSONL (see :mod:`repro.core.journal`)
  and a journal replays via ``EngineOptions.resume`` — completed cells
  are restored bit-identically instead of re-simulated;
* failures are injectable at exact (cell, attempt) coordinates
  (:mod:`repro.core.faults`), so every recovery path above is testable.

Traces are shipped to each worker process once (pool initializer), not
per cell, so fan-out cost is independent of the grid size.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.config import SimulationConfig
from repro.core.faults import FaultPlan, InjectedFailure, WorkerKilled
from repro.core.journal import (
    JournalWriter,
    cell_key,
    config_digest,
    load_completed_results,
)
from repro.core.metrics import SimulationResult, SweepTiming
from repro.core.policies import Organization
from repro.core.simulator import simulate
from repro.traces.record import Trace
from repro.util.memory import peak_rss_bytes, tracemalloc_peak_bytes
from repro.util.profiling import ReplayProfile
from repro.util.rng import derive_seed

__all__ = [
    "SweepCell",
    "CellFailure",
    "CellEvent",
    "CellTimeout",
    "EngineOptions",
    "SweepRun",
    "build_cells",
    "run_cells",
    "resolve_workers",
    "timeout_enforceable",
]

log = logging.getLogger(__name__)


class CellTimeout(Exception):
    """A cell exceeded its per-cell wall-clock budget."""


@dataclass(frozen=True)
class EngineOptions:
    """Fault-tolerance knobs for one engine invocation.

    The defaults reproduce the original fail-fast engine exactly: no
    retries, no timeout, no journal — and, critically, no change to any
    simulated number (seeds are identity-derived and attempt-
    independent, so a retried cell produces the same result bits as a
    first-try success).
    """

    #: extra attempts per cell after the first (0 = fail immediately).
    retries: int = 0
    #: per-cell wall-clock budget in seconds; ``None`` = unlimited.
    #: Enforced inside the executing process via ``SIGALRM`` (skipped
    #: off the main thread, where signals cannot be delivered).
    cell_timeout: float | None = None
    #: backoff before retry N is ``min(cap, base * 2**(N-1))`` seconds.
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    #: JSONL journal path; one record per attempt plus results.
    journal: str | Path | None = None
    #: path to a prior journal; cells it completed are restored, not run.
    resume: str | Path | None = None
    #: deterministic fault injection (tests / smoke runs only).
    faults: FaultPlan | None = None
    #: after this many pool crashes, remaining cells run one-per-pool.
    isolate_after_crashes: int = 2
    #: sample each cell's replay loop for per-phase time (see
    #: :mod:`repro.util.profiling`), aggregated across cells into
    #: ``SweepRun.timing.phase_seconds``.  Honoured on the serial path
    #: only — pool workers cannot ship their samples back, so pooled
    #: runs leave ``phase_seconds`` empty.  Results stay bit-identical
    #: either way (the sampler only observes the one replay loop).
    profile: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be > 0, got {self.cell_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.isolate_after_crashes < 1:
            raise ValueError(
                f"isolate_after_crashes must be >= 1, got {self.isolate_after_crashes}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before executing attempt ``attempt`` (>= 1)."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))


@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: a single (trace, organization, fraction)
    simulation with a fully resolved config and deterministic seed."""

    index: int
    trace_name: str
    organization: Organization
    fraction: float
    config: SimulationConfig
    seed: int

    def describe(self) -> str:
        return (
            f"cell {self.index}: {self.organization.value} @ "
            f"{self.fraction * 100:g}% on {self.trace_name!r}"
        )

    @property
    def key(self):
        """Journal identity: what resume matches on."""
        return cell_key(
            self.trace_name,
            self.organization.value,
            self.fraction,
            self.seed,
            config_digest(self.config),
        )


@dataclass(frozen=True)
class CellFailure:
    """A cell that failed for good: its identity, the last error, the
    traceback, and how many attempts it consumed."""

    cell: SweepCell
    error: str
    traceback: str
    attempts: int = 1

    def __str__(self) -> str:
        note = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{self.cell.describe()} failed{note}: {self.error}"


@dataclass(frozen=True)
class CellEvent:
    """Progress callback payload, emitted once per *resolved* cell
    (success, quarantine, or restore-from-journal)."""

    cell: SweepCell
    ok: bool
    elapsed: float
    completed: int
    total: int
    #: number of execution attempts consumed (0 for a resumed cell).
    attempts: int = 1
    #: True when the result was restored from a resume journal.
    resumed: bool = False


@dataclass
class SweepRun:
    """Everything one engine invocation produced.

    ``results`` and ``failures`` are keyed/ordered by cell index, so a
    run's output is a pure function of its cells — never of scheduling,
    retries, or pool crashes.
    """

    cells: tuple[SweepCell, ...]
    results: dict[int, SimulationResult] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)
    timing: SweepTiming | None = None
    #: execution attempts per cell index (0 for resumed cells).
    attempts: dict[int, int] = field(default_factory=dict)
    #: cell indices restored from a resume journal instead of executed.
    resumed: set[int] = field(default_factory=set)
    #: process-pool crashes survived during the run.
    pool_crashes: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def result_for(self, cell: SweepCell) -> SimulationResult:
        try:
            return self.results[cell.index]
        except KeyError:
            for failure in self.failures:
                if failure.cell.index == cell.index:
                    raise KeyError(str(failure)) from None
            raise KeyError(f"no result for {cell.describe()}") from None


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``--workers`` value: ``None`` means all CPUs."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def build_cells(
    trace_name: str,
    organizations: Iterable[Organization],
    fractions: Sequence[float],
    config_for: Callable[[float], SimulationConfig],
    base_seed: int = 0,
) -> list[SweepCell]:
    """Expand an (organizations x fractions) grid into sweep cells.

    ``config_for(fraction)`` resolves the simulation config for one
    relative cache size (cache capacities depend on the fraction, not
    the organization).  Cells with stochastic behaviour (Bernoulli
    availability, session churn, or corruption draws) get an
    ``availability_seed`` derived from the cell identity, so every cell
    draws an independent, reproducible stream no matter how the grid is
    scheduled.
    """
    organizations = tuple(organizations)
    cells: list[SweepCell] = []
    for frac in fractions:
        config = config_for(frac)
        for org in organizations:
            seed = derive_seed(base_seed, trace_name, org.value, repr(frac))
            cell_config = config
            if (
                config.holder_availability < 1.0
                or config.churn is not None
                or config.corruption_rate > 0.0
                or config.proxy_faults is not None
                or config.adversarial is not None
                or config.chaos is not None
                or (
                    config.federation is not None
                    and config.federation.link_faults is not None
                )
            ):
                cell_config = config.with_(availability_seed=seed)
            cells.append(
                SweepCell(
                    index=len(cells),
                    trace_name=trace_name,
                    organization=org,
                    fraction=frac,
                    config=cell_config,
                    seed=seed,
                )
            )
    return cells


# -- worker-side execution ---------------------------------------------------

#: per-process state, populated once by the pool initializer.
_WORKER_TRACES: dict[str, Trace] = {}
_WORKER_FAULTS: FaultPlan | None = None
_WORKER_TIMEOUT: float | None = None


def _init_worker(
    traces: dict[str, Trace],
    faults: FaultPlan | None = None,
    cell_timeout: float | None = None,
) -> None:
    global _WORKER_FAULTS, _WORKER_TIMEOUT
    _WORKER_TRACES.clear()
    _WORKER_TRACES.update(traces)
    _WORKER_FAULTS = faults
    _WORKER_TIMEOUT = cell_timeout


#: one warning per process when a requested timeout cannot be armed.
_TIMEOUT_DEGRADED_WARNED = False


def timeout_enforceable() -> bool:
    """Can a per-cell timeout be armed *here*?  Requires ``SIGALRM``
    (absent on Windows) and the main thread (signal handlers cannot be
    installed elsewhere)."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _deadline(timeout: float | None):
    """Raise :class:`CellTimeout` if the block runs past ``timeout``.

    Uses ``SIGALRM``, so it only arms on the main thread of the
    executing process (always true for pool workers; true for the
    serial path unless the caller runs the engine off-thread).  Where
    it cannot arm — Windows has no ``SIGALRM``, worker threads cannot
    install handlers — the timeout degrades to a logged no-op instead
    of crashing the sweep.
    """
    if timeout is None:
        yield
        return
    if not timeout_enforceable():
        global _TIMEOUT_DEGRADED_WARNED
        if not _TIMEOUT_DEGRADED_WARNED:
            _TIMEOUT_DEGRADED_WARNED = True
            log.warning(
                "per-cell timeout (%gs) cannot be enforced here (no SIGALRM "
                "or not on the main thread); cells run unbounded",
                timeout,
            )
        yield
        return

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded its {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _maybe_inject(
    faults: FaultPlan | None, cell: SweepCell, attempt: int, in_worker: bool
) -> None:
    if faults is None:
        return
    fault = faults.fault_for(cell.index, attempt)
    if fault is None:
        return
    if fault.kind == "kill":
        if in_worker:
            os._exit(86)  # hard worker death: breaks the pool, like OOM/SIGKILL
        raise WorkerKilled(f"injected worker kill: {fault.describe()}")
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return
    raise InjectedFailure(f"injected fault: {fault.describe()}")


def _execute_cell(
    cell: SweepCell,
    trace: Trace,
    attempt: int = 0,
    timeout: float | None = None,
    faults: FaultPlan | None = None,
    in_worker: bool = False,
    profile: ReplayProfile | None = None,
):
    """Run one attempt of one cell; never raises.  Returns
    ``(index, ok, payload, elapsed, outcome, peak_rss)`` where payload
    is a result or an ``(error, traceback)`` pair, outcome is
    ``"ok"`` / ``"error"`` / ``"timeout"``, and peak_rss is the
    executing process's lifetime RSS high-water mark in bytes (so the
    sweep can report its memory footprint across workers).  When
    *profile* is given the replay accumulates its per-phase timers
    into it."""
    t0 = time.perf_counter()
    try:
        with _deadline(timeout):
            _maybe_inject(faults, cell, attempt, in_worker)
            result = simulate(trace, cell.organization, cell.config, profile=profile)
    except Exception as exc:  # a crashing cell must not kill the sweep
        elapsed = time.perf_counter() - t0
        error = f"{type(exc).__name__}: {exc}"
        outcome = "timeout" if isinstance(exc, CellTimeout) else "error"
        return (
            cell.index,
            False,
            (error, traceback.format_exc()),
            elapsed,
            outcome,
            peak_rss_bytes(),
        )
    return cell.index, True, result, time.perf_counter() - t0, "ok", peak_rss_bytes()


def _run_cell_in_worker(cell: SweepCell, attempt: int = 0):
    return _execute_cell(
        cell,
        _WORKER_TRACES[cell.trace_name],
        attempt=attempt,
        timeout=_WORKER_TIMEOUT,
        faults=_WORKER_FAULTS,
        in_worker=True,
    )


# -- the engine --------------------------------------------------------------


class _Engine:
    """State for one :func:`run_cells` invocation."""

    def __init__(
        self,
        cells: tuple[SweepCell, ...],
        traces: Mapping[str, Trace],
        progress: Callable[[CellEvent], None] | None,
        options: EngineOptions,
    ) -> None:
        self.cells = cells
        self.traces = traces
        self.progress = progress
        self.options = options
        self.run = SweepRun(cells=cells)
        self.cell_seconds = {cell.index: 0.0 for cell in cells}
        self.attempt_of = {cell.index: 0 for cell in cells}
        #: max per-process RSS high-water mark observed across attempts
        #: (engine process and workers alike).
        self.peak_rss = 0
        self.unresolved: set[int] = set()
        self.completed = 0
        #: shared per-phase timers (serial path only; see EngineOptions).
        self.profile: ReplayProfile | None = (
            ReplayProfile() if options.profile else None
        )
        self.journal: JournalWriter | None = (
            JournalWriter(options.journal) if options.journal is not None else None
        )

    # -- observation ------------------------------------------------------

    def emit(self, cell: SweepCell, ok: bool, elapsed: float, resumed: bool = False) -> None:
        """Fire the progress callback; a raising observer must not kill
        the sweep (it used to abort mid-``as_completed`` and leak the
        executor's pending futures)."""
        if self.progress is None:
            return
        event = CellEvent(
            cell=cell,
            ok=ok,
            elapsed=elapsed,
            completed=self.completed,
            total=len(self.cells),
            attempts=self.run.attempts.get(cell.index, 0),
            resumed=resumed,
        )
        try:
            self.progress(event)
        except Exception:
            log.warning(
                "progress callback raised for %s; continuing", cell.describe(),
                exc_info=True,
            )

    def journal_attempt(
        self, cell: SweepCell, attempt: int, outcome: str, elapsed: float,
        error: str | None = None,
    ) -> None:
        if self.journal is not None:
            self.journal.write_attempt(cell, attempt, outcome, elapsed, error)

    # -- resolution -------------------------------------------------------

    def resolve_success(self, index: int, result: SimulationResult) -> None:
        cell = self.cells[index]
        self.run.results[index] = result
        self.unresolved.discard(index)
        self.completed += 1
        if self.journal is not None:
            self.journal.write_result(cell, result)
        self.emit(cell, True, self.cell_seconds[index])

    def resolve_failure(self, index: int, error: str, tb: str) -> None:
        cell = self.cells[index]
        self.run.failures.append(
            CellFailure(
                cell=cell, error=error, traceback=tb,
                attempts=self.run.attempts[index],
            )
        )
        self.unresolved.discard(index)
        self.completed += 1
        self.emit(cell, False, self.cell_seconds[index])

    def resolve_resumed(self, index: int, result: SimulationResult) -> None:
        cell = self.cells[index]
        self.run.results[index] = result
        self.run.resumed.add(index)
        self.run.attempts[index] = 0
        self.completed += 1
        self.journal_attempt(cell, 0, "resumed", 0.0)
        if self.journal is not None:
            self.journal.write_result(cell, result)
        self.emit(cell, True, 0.0, resumed=True)

    def absorb_attempt(
        self,
        index: int,
        ok: bool,
        payload,
        elapsed: float,
        outcome: str,
        peak_rss: int = 0,
    ) -> bool:
        """Bookkeep one finished attempt.  Returns True if the cell is
        now resolved, False if it goes back in the retry queue."""
        if peak_rss > self.peak_rss:
            self.peak_rss = peak_rss
        cell = self.cells[index]
        attempt = self.attempt_of[index]
        self.run.attempts[index] = attempt + 1
        self.cell_seconds[index] += elapsed
        if ok:
            self.journal_attempt(cell, attempt, "ok", elapsed)
            self.resolve_success(index, payload)
            return True
        error, tb = payload
        self.journal_attempt(cell, attempt, outcome, elapsed, error)
        if attempt < self.options.retries:
            self.attempt_of[index] = attempt + 1
            log.warning("%s attempt %d failed (%s); retrying", cell.describe(), attempt, error)
            return False
        self.resolve_failure(index, error, tb)
        return True

    def absorb_pool_crash(self, index: int) -> None:
        """One cell was in flight (or queued) when the pool died."""
        cell = self.cells[index]
        attempt = self.attempt_of[index]
        self.run.attempts[index] = attempt + 1
        self.journal_attempt(cell, attempt, "pool-crash", 0.0,
                             "worker process died; process pool crashed")
        if attempt < self.options.retries:
            self.attempt_of[index] = attempt + 1
        else:
            self.resolve_failure(
                index,
                "BrokenProcessPool: worker process died while the cell was "
                "in flight (quarantined after repeated pool crashes)",
                "(no traceback: the worker process terminated abruptly)",
            )

    # -- execution paths --------------------------------------------------

    def run_serial(self, pending: Sequence[int]) -> None:
        options = self.options
        for index in pending:
            cell = self.cells[index]
            while index in self.unresolved:
                attempt = self.attempt_of[index]
                delay = options.backoff_delay(attempt)
                if delay:
                    time.sleep(delay)
                self.absorb_attempt(
                    *_execute_cell(
                        cell,
                        self.traces[cell.trace_name],
                        attempt=attempt,
                        timeout=options.cell_timeout,
                        faults=options.faults,
                        in_worker=False,
                        profile=self.profile,
                    )
                )

    def _make_pool(self, max_workers: int) -> ProcessPoolExecutor:
        needed = {name: self.traces[name] for name in {c.trace_name for c in self.cells}}
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_init_worker,
            initargs=(needed, self.options.faults, self.options.cell_timeout),
        )

    def run_pooled(self, workers: int) -> None:
        options = self.options
        pool: ProcessPoolExecutor | None = None
        try:
            while self.unresolved:
                if self.run.pool_crashes >= options.isolate_after_crashes:
                    if pool is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = None
                    self._run_isolated()
                    return
                if pool is None:
                    pool = self._make_pool(workers)
                batch = sorted(self.unresolved)
                delay = max((options.backoff_delay(self.attempt_of[i]) for i in batch), default=0.0)
                if delay:
                    time.sleep(delay)
                seen: set[int] = set()
                futures: dict = {}
                try:
                    for i in batch:
                        futures[pool.submit(_run_cell_in_worker, self.cells[i], self.attempt_of[i])] = i
                    for future in as_completed(futures):
                        index = futures[future]
                        # mark seen only after a good result: if result()
                        # raises BrokenProcessPool this cell was in flight
                        # when the pool died and must be implicated below.
                        self.absorb_attempt(*future.result())
                        seen.add(index)
                except BrokenProcessPool:
                    self.run.pool_crashes += 1
                    log.warning(
                        "process pool crashed (#%d); rebuilding and requeueing "
                        "%d unfinished cells",
                        self.run.pool_crashes, len(self.unresolved),
                    )
                    # Completed-but-unseen futures still carry good results;
                    # only truly unfinished cells are implicated in the crash.
                    for future, index in futures.items():
                        if index in seen or index not in self.unresolved:
                            continue
                        if future.done() and not future.cancelled():
                            try:
                                outcome = future.result()
                            except Exception:
                                continue
                            seen.add(index)
                            self.absorb_attempt(*outcome)
                    for index in sorted(self.unresolved - seen):
                        self.absorb_pool_crash(index)
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown()

    def _run_isolated(self) -> None:
        """Post-crash endgame: one fresh single-worker pool per cell, so
        a cell that keeps killing workers implicates only itself."""
        log.warning(
            "switching to isolation mode: %d cells run one-per-pool",
            len(self.unresolved),
        )
        options = self.options
        for index in sorted(self.unresolved):
            cell = self.cells[index]
            while index in self.unresolved:
                attempt = self.attempt_of[index]
                delay = options.backoff_delay(attempt)
                if delay:
                    time.sleep(delay)
                solo = self._make_pool(1)
                try:
                    future = solo.submit(_run_cell_in_worker, cell, attempt)
                    self.absorb_attempt(*future.result())
                except BrokenProcessPool:
                    self.run.pool_crashes += 1
                    self.absorb_pool_crash(index)
                    solo.shutdown(wait=False, cancel_futures=True)
                else:
                    solo.shutdown()


def run_cells(
    cells: Iterable[SweepCell],
    traces: Mapping[str, Trace],
    workers: int | None = 0,
    progress: Callable[[CellEvent], None] | None = None,
    options: EngineOptions | None = None,
) -> SweepRun:
    """Execute sweep cells, serially or over a process pool.

    ``workers=0`` replays every cell in this process, in cell order —
    the deterministic reference path.  ``workers>=1`` fans cells out
    over a :class:`~concurrent.futures.ProcessPoolExecutor`
    (``workers=None`` uses every CPU).  Either way the returned
    :class:`SweepRun` holds bit-identical results keyed by cell index;
    only the order in which ``progress`` events fire may differ.

    ``options`` (an :class:`EngineOptions`) adds the fault-tolerance
    layer: per-cell retries with capped exponential backoff, a per-cell
    timeout, pool-crash recovery with quarantine, a JSONL attempt
    journal, resume-from-journal, and deterministic fault injection.
    The defaults keep the engine fail-fast and journal-free, and no
    option changes any simulated number.
    """
    cells = tuple(cells)
    options = options or EngineOptions()
    requested = resolve_workers(workers)
    missing = sorted({c.trace_name for c in cells} - set(traces))
    if missing:
        raise KeyError(f"cells reference traces not provided: {', '.join(missing)}")

    engine = _Engine(cells, traces, progress, options)
    run = engine.run
    t0 = time.perf_counter()
    try:
        if engine.journal is not None:
            engine.journal.write_header(
                n_cells=len(cells),
                workers=requested,
                retries=options.retries,
                cell_timeout=options.cell_timeout,
            )

        prior = (
            load_completed_results(options.resume)
            if options.resume is not None
            else {}
        )
        pending: list[int] = []
        for cell in cells:
            restored = prior.get(cell.key)
            if restored is not None:
                engine.resolve_resumed(cell.index, restored)
            else:
                pending.append(cell.index)
        engine.unresolved = set(pending)

        effective_workers = 0 if requested == 0 or len(pending) <= 1 else min(
            requested, len(pending)
        )
        if effective_workers == 0:
            engine.run_serial(pending)
        else:
            engine.run_pooled(effective_workers)
    finally:
        if engine.journal is not None:
            engine.journal.close()

    run.failures.sort(key=lambda f: f.cell.index)
    if options.cell_timeout is None:
        timeout_supported = True
    elif effective_workers > 0:
        # pool workers enforce the deadline on their own main threads,
        # but only on platforms that have SIGALRM at all.
        timeout_supported = hasattr(signal, "SIGALRM")
    else:
        timeout_supported = timeout_enforceable()
    run.timing = SweepTiming(
        workers=effective_workers,
        n_cells=len(cells),
        wall_seconds=time.perf_counter() - t0,
        cell_seconds=tuple(engine.cell_seconds[i] for i in range(len(cells))),
        requested_workers=requested,
        timeout_supported=timeout_supported,
        phase_seconds=(
            engine.profile.as_pairs() if engine.profile is not None else ()
        ),
        peak_rss_bytes=max(engine.peak_rss, peak_rss_bytes()),
        peak_traced_bytes=tracemalloc_peak_bytes(),
    )
    return run
