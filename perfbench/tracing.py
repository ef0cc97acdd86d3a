"""Span tracing for the benchmark's traced run.

The harness wraps each layer's public functions at class (or module)
level, from the outside, before any engine is constructed: the replay
loops bind methods such as ``index.lookup`` once at run start, so a
wrapper installed later would never be called.  Every wrapped call
records one span.  Spans are not kept individually; they are
aggregated in memory by ``(layer, function, parent)``, where *parent*
is the ``(layer, function)`` of the enclosing span.

A span's *self* time is its duration minus the durations of its direct
child spans, so the self times of all spans under one root add up to
the root's duration.  Generators are traced per ``next()``: the time a
consumer spends between two items is the consumer's, not the
generator's.

Nothing here is imported by the package under ``src/``; installing a
:class:`Tracer` patches attributes and :meth:`Tracer.installed` puts
every original back on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["SpanStats", "Tracer", "WRAPS", "ROOT"]

#: the (layer, function) of the span around a whole traced run.
ROOT = ("bench", "traced_run")

_MISSING = object()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans and aggregates them by (layer, fn, parent)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: open spans: [key, start, child seconds, parent key]
        self._stack: list[list] = []
        self.spans: dict[tuple, SpanStats] = defaultdict(SpanStats)
        #: named event counts recorded at the wrapped boundaries.
        self.counts: dict[str, int] = defaultdict(int)

    # -- span recording --------------------------------------------------

    def enter(self, key: tuple[str, str]) -> None:
        stack = self._stack
        parent = stack[-1][0] if stack else None
        stack.append([key, self.clock(), 0.0, parent])

    def exit(self) -> None:
        key, start, child, parent = self._stack.pop()
        duration = self.clock() - start
        stats = self.spans[(key, parent)]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, key: tuple[str, str]) -> Iterator[None]:
        self.enter(key)
        try:
            yield
        finally:
            self.exit()

    # -- aggregate views ---------------------------------------------------

    def calls(self, layer: str, fn: str | None = None) -> int:
        return sum(
            s.calls
            for (key, _), s in self.spans.items()
            if key[0] == layer and (fn is None or key[1] == fn)
        )

    def self_s(self, layer: str, fn: str | None = None) -> float:
        return sum(
            s.self_s
            for (key, _), s in self.spans.items()
            if key[0] == layer and (fn is None or key[1] == fn)
        )

    def wall_s(self, key: tuple[str, str] = ROOT) -> float:
        """Total duration of the top-level spans named *key*."""
        return sum(
            s.total_s
            for (k, parent), s in self.spans.items()
            if k == key and parent is None
        )

    # -- wrappers ------------------------------------------------------------

    def wrap(self, key: tuple[str, str], fn: Callable, count=None) -> Callable:
        """*fn* recording one span per call; ``count(counts, args,
        result)`` may add event counts from the call's outcome."""
        enter = self.enter
        exit_ = self.exit
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def wrap_generator(
        self, key: tuple[str, str], fn: Callable, count=None
    ) -> Callable:
        """A generator function whose every ``next()`` is one span."""
        enter = self.enter
        exit_ = self.exit
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                enter(key)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    exit_()
                if count is not None:
                    count(counts, args, item)
                yield item

        return traced

    @contextmanager
    def installed(self, wraps=None) -> Iterator["Tracer"]:
        """Patch every target in *wraps* (default :data:`WRAPS`) for
        the duration of the block; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            for spec in WRAPS if wraps is None else wraps:
                owner = _resolve(spec.owner)
                original = getattr(owner, spec.attr)
                wrap = self.wrap_generator if spec.generator else self.wrap
                saved.append((owner, spec.attr, vars(owner).get(spec.attr, _MISSING)))
                setattr(
                    owner,
                    spec.attr,
                    wrap((spec.layer, spec.fn or spec.attr), original, spec.count),
                )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _resolve(path: str):
    """``"pkg.module"`` or ``"pkg.module:Class"``."""
    module_name, _, cls = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


@dataclass(frozen=True)
class Wrap:
    """One traced boundary: *attr* on *owner*, reported as (layer, fn)."""

    layer: str
    owner: str
    attr: str
    fn: str | None = None
    generator: bool = False
    count: Callable | None = None


def _count_rows_returned(counts, args, result) -> None:
    counts["traces.rows"] += len(result)


def _count_stream_calibration(counts, args, result) -> None:
    counts["traces.rows"] += len(args[0])


def _count_chunk_rows(counts, args, chunk) -> None:
    counts["traces.rows"] += len(chunk[0])


def _lookup_hits(layer: str):
    name = f"{layer}.lookup_hits"

    def count(counts, args, result) -> None:
        if result is not None:
            counts[name] += 1

    return count


def _count_claims(counts, args, result) -> None:
    if result:
        counts["federation.claims_true"] += 1


def _count_sweep_cells(counts, args, result) -> None:
    counts["sweep.cells"] += len(result.results)


_EXACT = "repro.index.browser_index:BrowserIndex"
_BLOOM = "repro.index.engine_bloom:BloomBrowserIndex"

#: Every boundary the traced run records.  Module-level functions are
#: patched in the module whose globals their callers read.  LRU
#: get/put are partly inlined in ``Simulator._run_fast`` and the stream
#: engine's per-client slot pools (``_FlatBrowsers``) are private: those
#: costs show up inside ``replay.self_s``, not as cache spans.
WRAPS: tuple[Wrap, ...] = (
    # repro.traces
    Wrap("traces", "repro.traces.synthetic", "generate_trace", count=_count_rows_returned),
    Wrap("traces", "repro.traces.streaming:TraceStream", "__init__",
         fn="TraceStream.calibrate", count=_count_stream_calibration),
    Wrap("traces", "repro.traces.streaming:TraceStream", "chunks",
         fn="TraceStream.chunks", generator=True, count=_count_chunk_rows),
    # repro.cache
    Wrap("cache", "repro.cache.lru:LRUCache", "get"),
    Wrap("cache", "repro.cache.lru:LRUCache", "put"),
    Wrap("cache", "repro.cache.lru:LRUCache", "peek"),
    # repro.index, exact
    Wrap("index", _EXACT, "lookup", count=_lookup_hits("index")),
    Wrap("index", _EXACT, "candidate_holders", fn="candidates"),
    Wrap("index", _EXACT, "record_insert", fn="update"),
    Wrap("index", _EXACT, "record_evict", fn="update"),
    # repro.index, bloom
    Wrap("bloom", _BLOOM, "lookup", count=_lookup_hits("bloom")),
    Wrap("bloom", _BLOOM, "candidate_holders", fn="candidates"),
    Wrap("bloom", _BLOOM, "record_insert", fn="update"),
    Wrap("bloom", _BLOOM, "record_evict", fn="update"),
    Wrap("bloom", _BLOOM, "rebuild"),
    # repro.federation
    Wrap("federation", "repro.federation.digest", "build_proxy_digest", fn="digest_build"),
    Wrap("federation", "repro.federation.digest:DigestDirectory", "claims",
         count=_count_claims),
    Wrap("federation", "repro.federation.digest:DigestDirectory", "maybe_exchange",
         fn="exchange"),
    Wrap("federation", "repro.federation.digest:DigestDirectory", "antientropy",
         fn="exchange"),
    # engines
    Wrap("engine", "repro.core.simulator:Simulator", "__init__", fn="construct"),
    Wrap("engine", "repro.core.simulator:Simulator", "run"),
    Wrap("engine", "repro.core.stream_engine:StreamSimulator", "__init__", fn="construct"),
    Wrap("engine", "repro.core.stream_engine:StreamSimulator", "run"),
    Wrap("engine", "repro.federation.engine:FederatedSimulator", "__init__", fn="construct"),
    Wrap("engine", "repro.federation.engine:FederatedSimulator", "run"),
    # core.sweep / core.parallel
    Wrap("sweep", "repro.core.sweep", "run_policy_sweep", count=_count_sweep_cells),
    Wrap("sweep", "repro.core.sweep", "build_cells"),
    Wrap("sweep", "repro.core.sweep", "run_cells"),
    # repro.analysis.mrc
    Wrap("mrc", "repro.analysis.mrc", "compute_mrc", fn="pass"),
    Wrap("mrc", "repro.analysis.mrc", "capacity_grid", fn="pass"),
    Wrap("mrc", "repro.analysis.mrc:TraceMRC", "predict"),
    Wrap("mrc", "repro.analysis.mrc:TraceMRC", "to_simulation_result", fn="predict"),
)
