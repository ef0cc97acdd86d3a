"""Opt-in per-phase observation of the production replay loop.

A :class:`ReplayProfile` handed to :class:`repro.core.simulator.
Simulator` (or :func:`~repro.core.simulator.simulate`) runs the one
replay loop that every run uses, unchanged, and reports where its time
went:

====================  ====================================================
phase                 what it covers
====================  ====================================================
``recovery``          routing to the home proxy (federation) and
                      checkpoint/crash event processing before a request
``browser_probe``     local browser-cache lookup (and hit accounting)
``proxy_probe``       proxy-cache lookup (and hit accounting)
``index_lookup``      the browser-index query of the remote step
``remote_delivery``   the whole remote-hit path: lookup, holder probes,
                      failover, transfer pricing (includes
                      ``index_lookup`` — it is a sub-phase, not disjoint)
``peer_fetch``        the federation's peer-proxy step: digest claims,
                      peer probes, inter-proxy pricing and re-population
``origin_fetch``      the origin miss path: WAN pricing and re-population
====================  ====================================================

**Event counts are exact** and deterministic.  They are read off the
finalised result, not counted per request: requests reaching each step
(``proxy_probe`` counts the requests the local browser did not serve,
``peer_fetch`` those the home proxy's three steps did not serve),
index lookups for ``index_lookup`` and ``remote_delivery``, origin
misses for ``origin_fetch``.

**Seconds are sampled.**  While a profiled replay runs,
``signal.setitimer(ITIMER_PROF)`` raises ``SIGPROF`` every
:data:`SAMPLE_INTERVAL` seconds of process CPU time.  The handler walks
the interrupted stack up to the loop's frame and charges the sample to
the phase of the line executing there (:class:`PhaseMap`); a sample in
the loop's shared fill tail is charged to the step that served the
request.  Each phase receives the share of the replay's wall clock that
its samples are of all samples.  Samples elsewhere — row iteration, the
invariant monitor, setup and finalise — charge no phase, so the phases
plus that unattributed remainder sum to :attr:`ReplayProfile.
wall_seconds`.  ``SIGALRM`` (the sweep's per-cell timeout) is left
alone, and the previous ``SIGPROF`` handler and timer are restored
afterwards.  Off the main thread, or where ``setitimer`` does not
exist, no samples are taken and all time stays unattributed.

Profiling is deliberately **not** a :class:`~repro.core.config.
SimulationConfig` field: the journal keys cells by a digest of the
config's ``repr``, so a config knob would silently invalidate every
saved journal.  A profiled run returns a bit-identical
:class:`~repro.core.metrics.SimulationResult` (covered by the
differential suite in ``tests/test_differential.py``).
"""

from __future__ import annotations

import inspect
import signal
import threading
from dataclasses import dataclass, field
from time import perf_counter

__all__ = ["ReplayProfile", "PhaseMap", "PHASES", "SAMPLE_INTERVAL", "TAIL"]

#: canonical phase order for reports and ``SweepTiming.phase_seconds``.
PHASES = (
    "recovery",
    "browser_probe",
    "proxy_probe",
    "index_lookup",
    "remote_delivery",
    "peer_fetch",
    "origin_fetch",
)

#: seconds of process CPU time between two samples.  The kernel may
#: round it up to its scheduler tick (4 ms at ``HZ=250``).
SAMPLE_INTERVAL = 0.001

#: a sub-phase's samples also count for the phase that contains it.
_PARENT = {"index_lookup": "remote_delivery"}

#: :class:`PhaseMap` region phase meaning "the phase named by the
#: loop's tail local when the sample lands".
TAIL = "<tail>"


class PhaseMap:
    """Which phase each source line of one loop function belongs to.

    *regions* are ``(marker, phase)`` pairs: every line from the one
    that starts with *marker* down to the next marker is charged to
    *phase* — ``None`` charges no phase, :data:`TAIL` the phase held by
    the function's *tail_local* variable.  Each marker must start
    exactly one line of the function, so a reworded step comment fails
    loudly instead of misattributing.
    """

    def __init__(self, fn, regions, tail_local: str | None = None):
        self.code = fn.__code__
        self.tail_local = tail_local
        source, first = inspect.getsourcelines(fn)
        stripped = [text.strip() for text in source]

        def line_of(marker: str) -> int:
            found = [i for i, text in enumerate(stripped) if text.startswith(marker)]
            if len(found) != 1:
                raise ValueError(
                    f"{fn.__qualname__}: phase marker {marker!r} starts "
                    f"{len(found)} lines, expected 1"
                )
            return first + found[0]

        starts = sorted((line_of(marker), phase) for marker, phase in regions)
        ends = [start for start, _ in starts[1:]] + [first + len(source)]
        #: line number -> phase (or :data:`TAIL`).
        self.phases: dict[int, str] = {}
        for (start, phase), end in zip(starts, ends):
            if phase is not None:
                self.phases.update(dict.fromkeys(range(start, end), phase))

    def phase_at(self, frame) -> str | None:
        """The phase of the line *frame* (a frame of the loop) is on."""
        phase = self.phases.get(frame.f_lineno)
        if phase == TAIL:
            phase = frame.f_locals.get(self.tail_local)
        return phase


class _Sampler:
    """``SIGPROF`` sampler charging samples to a :class:`PhaseMap`
    (``None``: a sampler that never arms)."""

    def __init__(self, phase_map: PhaseMap | None) -> None:
        self.phase_map = phase_map
        self.samples: dict[str, int] = {}
        self.total = 0
        self._armed = False

    def _on_sample(self, signum, frame) -> None:
        self.total += 1
        code = self.phase_map.code
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if frame is None:
            return
        phase = self.phase_map.phase_at(frame)
        while phase is not None:
            self.samples[phase] = self.samples.get(phase, 0) + 1
            phase = _PARENT.get(phase)

    def __enter__(self) -> "_Sampler":
        self._armed = (
            self.phase_map is not None
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if self._armed:
            self._old_handler = signal.signal(signal.SIGPROF, self._on_sample)
            self._old_timer = signal.setitimer(
                signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL
            )
        return self

    def __exit__(self, *exc) -> None:
        if self._armed:
            # Disarm first: signal.signal() runs a sample still pending
            # under this handler before it swaps the old one back in.
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            old = self._old_handler
            signal.signal(signal.SIGPROF, signal.SIG_DFL if old is None else old)
            signal.setitimer(signal.ITIMER_PROF, *self._old_timer)


@dataclass
class ReplayProfile:
    """Accumulated per-phase time and event counts for one or more
    replays."""

    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_counts: dict[str, int] = field(default_factory=dict)
    #: total requests replayed under this profile.
    n_requests: int = 0
    #: total wall-clock seconds of the profiled replays.
    wall_seconds: float = 0.0

    def time_replay(self, replay, phase_map: PhaseMap | None = None, phase_counts=None):
        """Run ``replay()`` and charge it to this profile.

        Its wall clock and ``n_requests`` always; with *phase_map* the
        run is sampled, and every phase with events in
        ``phase_counts(result)`` gets those events and its share of the
        wall clock.  Returns ``replay()``'s result.
        """
        sampler = _Sampler(phase_map)
        t0 = perf_counter()
        with sampler:
            result = replay()
        wall = perf_counter() - t0
        self.wall_seconds += wall
        self.n_requests += result.n_requests
        if phase_counts is not None:
            for phase, count in phase_counts(result).items():
                if count:
                    self.phase_counts[phase] = self.phase_counts.get(phase, 0) + count
                    share = sampler.samples.get(phase, 0) / max(1, sampler.total)
                    self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + wall * share
        return result

    @property
    def total_phase_seconds(self) -> float:
        """Sum of all *disjoint* phases (``index_lookup`` is nested
        inside ``remote_delivery`` and therefore excluded)."""
        return sum(
            seconds
            for phase, seconds in self.phase_seconds.items()
            if phase not in _PARENT
        )

    @property
    def requests_per_second(self) -> float:
        return self.n_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def as_pairs(self) -> tuple[tuple[str, float], ...]:
        """(phase, seconds) pairs in canonical :data:`PHASES` order — a
        stable, immutable view for ``SweepTiming``."""
        return tuple(
            (phase, self.phase_seconds[phase])
            for phase in PHASES
            if phase in self.phase_seconds
        )

    def as_dict(self) -> dict:
        """JSON-friendly summary (used by ``baps profile`` and tests)."""
        return {
            "n_requests": self.n_requests,
            "wall_seconds": self.wall_seconds,
            "requests_per_second": self.requests_per_second,
            "phase_seconds": dict(self.as_pairs()),
            "phase_counts": {
                phase: self.phase_counts[phase]
                for phase, _ in self.as_pairs()
            },
        }

    def render(self) -> str:
        """ASCII table of per-phase timings, heaviest first."""
        from repro.util.fmt import ascii_table

        wall = self.wall_seconds
        total = self.total_phase_seconds
        rows = []
        for phase, seconds in sorted(
            self.as_pairs(), key=lambda kv: kv[1], reverse=True
        ):
            share = seconds / wall if wall > 0 else 0.0
            note = " (within remote_delivery)" if phase in _PARENT else ""
            rows.append(
                [
                    phase + note,
                    f"{seconds:.4f}s",
                    f"{share:.1%}",
                    f"{self.phase_counts.get(phase, 0):,}",
                ]
            )
        if wall > 0:
            rest = max(0.0, wall - total)
            rows.append(["unattributed", f"{rest:.4f}s", f"{rest / wall:.1%}", ""])
            rows.append(
                [
                    "replay wall clock",
                    f"{wall:.4f}s",
                    "100.0%",
                    f"{self.requests_per_second:,.0f} req/s",
                ]
            )
        return ascii_table(
            ["phase", "seconds", "share", "events"],
            rows,
            title="replay profile (sampled seconds, exact events)",
        )
