"""Simulation results: the two paper metrics plus breakdowns.

"Hit ratio is the ratio between the number of requests that hit in
browser caches or in the proxy cache and the total number of requests.
Byte hit ratio is the ratio between the number of bytes that hit in
browser caches or in the proxy cache and the total number of bytes
requested."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.stats import CacheStats
from repro.consistency.policies import ConsistencyStats
from repro.core.events import HitLocation
from repro.core.overhead import OverheadReport
from repro.index.staleness import StalenessStats

__all__ = ["SimulationResult", "HitBreakdown", "SweepTiming"]


@dataclass(frozen=True)
class SweepTiming:
    """Structured timing report for one sweep execution.

    ``cell_seconds`` is ordered by *cell index* (submission order), not
    completion order, so reports are deterministic under parallelism.
    ``speedup_vs_serial`` compares wall-clock time against the sum of
    per-cell latencies — the time a one-process replay of the same
    cells would have taken.

    ``workers`` is the *effective* pool width the engine actually used;
    ``requested_workers`` preserves what the caller asked for, so a
    multi-worker request that fell back to serial (e.g. a 1-cell grid)
    reports the fallback instead of silently claiming ``workers=0`` was
    requested.
    """

    workers: int
    n_cells: int
    wall_seconds: float
    cell_seconds: tuple[float, ...] = ()
    #: pool width the caller requested; ``None`` means "same as used".
    requested_workers: int | None = None
    #: per-phase replay wall clock aggregated across all cells, as
    #: ``(phase, seconds)`` pairs in canonical order — populated only
    #: when the engine ran serially with
    #: :attr:`~repro.core.parallel.EngineOptions.profile` enabled
    #: (worker processes cannot ship their timers back).
    phase_seconds: tuple[tuple[str, float], ...] = ()
    #: whether the per-cell timeout could actually be enforced: False
    #: when a timeout was requested but the platform lacks SIGALRM (or
    #: the engine ran off the main thread), so cells ran unbounded.
    timeout_supported: bool = True
    #: lifetime peak resident set size (bytes), maxed across the engine
    #: process and every worker that ran a cell; 0 when the platform
    #: exposes no RSS counter.  This is the capacity-planning figure:
    #: the smallest machine that could have replayed this sweep.
    peak_rss_bytes: int = 0
    #: peak tracemalloc-traced allocation (bytes) in the engine
    #: process, populated only when the caller was already tracing —
    #: attributes growth to Python objects, excludes numpy buffers
    #: allocated outside the traced allocator and the interpreter
    #: baseline, so it is a floor rather than a total.
    peak_traced_bytes: int | None = None
    #: sweep cells whose numbers came from the one-pass MRC analysis
    #: (:mod:`repro.analysis.mrc`) instead of a full replay; the MRC
    #: path derives all of them from a single trace traversal.
    mrc_points: int = 0

    @property
    def full_replays(self) -> int:
        """Cells that actually re-replayed the trace."""
        return max(0, self.n_cells - self.mrc_points)

    @property
    def replays_avoided(self) -> int:
        """Replays the one-pass MRC analysis saved: N predicted cells
        cost one traversal, so N-1 replays never happened."""
        return max(0, self.mrc_points - 1)

    @property
    def fell_back_to_serial(self) -> bool:
        """True when a multi-worker request executed in-process."""
        return (
            self.requested_workers is not None
            and self.requested_workers > 0
            and self.workers == 0
        )

    @property
    def total_cell_seconds(self) -> float:
        """Serial-equivalent time: the sum of per-cell latencies."""
        return sum(self.cell_seconds)

    @property
    def cells_per_second(self) -> float:
        return self.n_cells / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def mean_cell_seconds(self) -> float:
        return self.total_cell_seconds / self.n_cells if self.n_cells else 0.0

    @property
    def max_cell_seconds(self) -> float:
        return max(self.cell_seconds) if self.cell_seconds else 0.0

    @property
    def speedup_vs_serial(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_cell_seconds / self.wall_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Speedup per worker (1.0 = perfect scaling)."""
        return self.speedup_vs_serial / max(1, self.workers)

    def render(self) -> str:
        from repro.util.fmt import ascii_table

        used = self.workers or "in-process"
        if self.fell_back_to_serial:
            used = f"in-process ({self.requested_workers} requested)"
        rows = [
            ["workers", used],
            ["cells", self.n_cells],
            ["wall time", f"{self.wall_seconds:.3f}s"],
            ["serial-equivalent time", f"{self.total_cell_seconds:.3f}s"],
            ["cells/sec", f"{self.cells_per_second:.2f}"],
            ["mean cell latency", f"{self.mean_cell_seconds:.3f}s"],
            ["max cell latency", f"{self.max_cell_seconds:.3f}s"],
            ["speedup vs serial", f"{self.speedup_vs_serial:.2f}x"],
            ["parallel efficiency", f"{self.parallel_efficiency:.2f}"],
        ]
        from repro.util.units import format_bytes

        if self.mrc_points:
            rows.append(["mrc-derived points", self.mrc_points])
            rows.append(["full replays", self.full_replays])
            rows.append(["replays avoided", self.replays_avoided])
        if self.peak_rss_bytes > 0:
            rows.append(["peak RSS", format_bytes(self.peak_rss_bytes)])
        if self.peak_traced_bytes is not None:
            rows.append(["peak traced alloc", format_bytes(self.peak_traced_bytes)])
        if not self.timeout_supported:
            rows.append(["cell timeout", "UNSUPPORTED on this platform"])
        for phase, seconds in self.phase_seconds:
            rows.append([f"phase: {phase}", f"{seconds:.3f}s"])
        return ascii_table(["quantity", "value"], rows, title="sweep timing")


@dataclass(frozen=True)
class HitBreakdown:
    """Figure 3's stacked bars: hit share by location, as fractions of
    all requests (or all bytes)."""

    local_browser: float
    proxy: float
    remote_browser: float

    @property
    def total(self) -> float:
        return self.local_browser + self.proxy + self.remote_browser

    def as_percentages(self) -> dict[str, float]:
        return {
            "local-browser": self.local_browser * 100,
            "proxy": self.proxy * 100,
            "remote-browsers": self.remote_browser * 100,
        }


@dataclass
class SimulationResult:
    """Everything measured in one simulation run."""

    trace_name: str
    organization: str
    n_requests: int = 0
    total_bytes: int = 0
    #: per-location counters; ORIGIN records misses.
    by_location: dict[HitLocation, CacheStats] = field(
        default_factory=lambda: {loc: CacheStats() for loc in HitLocation}
    )
    overhead: OverheadReport = field(default_factory=OverheadReport)
    index_stats: StalenessStats = field(default_factory=StalenessStats)
    consistency_stats: ConsistencyStats = field(default_factory=ConsistencyStats)
    index_lookups: int = 0
    index_false_hits: int = 0
    #: probes that found the holder offline (client churn); with
    #: failover enabled a request can contribute several.
    holder_unavailable: int = 0
    #: extra holder candidates probed after the primary holder failed
    #: (offline, stale, or integrity-failing).
    failover_attempts: int = 0
    #: remote hits served by a backup holder after the primary failed —
    #: requests the single-holder engine would have sent to origin.
    failover_rescued_hits: int = 0
    #: remote transfers rejected by the §6 integrity check and
    #: retransmitted (from the next holder or the origin).
    integrity_failures: int = 0
    #: corrupted transfers served by configured *polluter* peers — the
    #: adversarial subset of ``integrity_failures`` (0 without an
    #: :class:`~repro.adversarial.AdversarialConfig`).
    corrupt_deliveries: int = 0
    #: requests whose delivery path hit at least one corrupted transfer
    #: (adversarial mode only; a request probing several polluters
    #: counts once).
    poisoned_requests: int = 0
    #: quarantine events: a holder crossing ``quarantine_threshold``
    #: integrity failures and being blacklisted.
    quarantined_peers: int = 0
    #: remote hits served after the blacklist filtered at least one
    #: quarantined candidate out of the index lookup — requests the
    #: undefended engine would have steered into a bad holder.
    quarantine_rescued_hits: int = 0
    #: proxy cold restarts injected by the crash model.
    proxy_crashes: int = 0
    #: virtual seconds spent in degraded mode (crash until the last
    #: scheduled re-announcement lands), summed over all crashes.
    recovery_time: float = 0.0
    #: requests served while the index was still rebuilding.
    degraded_window_requests: int = 0
    #: requests during recovery that a browser could have served but
    #: the partial index did not know about — the recovery analogue of
    #: a false miss.
    hits_lost_to_recovery: int = 0
    #: bytes serialised by the index checkpointer (full + incremental).
    checkpoint_bytes_written: int = 0
    #: requests served from a *sibling proxy's* population after a full
    #: local miss (federation mode; recorded at SIBLING_PROXY).
    interproxy_hits: int = 0
    #: inter-proxy probes sent because a stale digest still claimed a
    #: document the peer could no longer serve (each costs a wasted
    #: inter-proxy round trip charged to ``wasted_false_hit_time``).
    digest_false_hits: int = 0
    #: requests a peer could have served but whose digest predated the
    #: document — the cost of digest staleness in the other direction.
    digest_missed_hits: int = 0
    #: digest summary bytes shipped between proxies at exchanges.
    #: Copies a partition dropped are *not* charged here (see
    #: ``digest_exchanges_lost``).
    digest_bytes_exchanged: int = 0
    #: digest copies a partition prevented from being delivered — the
    #: receiving proxy keeps serving from its stale view (link-fault
    #: mode; each undelivered per-peer copy counts one).
    digest_exchanges_lost: int = 0
    #: inter-proxy partition windows entered during the replay
    #: (link-fault mode).
    partition_windows: int = 0
    #: connection-setup time burnt probing digest-claimed peers that a
    #: partition made unreachable (also charged to
    #: ``wasted_round_trip_time``; this counter attributes it).
    wasted_partition_time: float = 0.0
    #: digest bytes shipped by post-heal anti-entropy refreshes, kept
    #: separate from the periodic ``digest_bytes_exchanged``.
    antientropy_bytes: int = 0
    #: inter-proxy link occupancy (document transfers, failed probes,
    #: digest exchanges).  Informational — the link runs in parallel
    #: with the LAN legs, so it is not part of ``total_service_time``.
    interproxy_bandwidth_time: float = 0.0
    index_peak_entries: int = 0
    index_peak_footprint_bytes: int = 0
    uses_memory_tier: bool = False

    # -- recording (engine-facing) ---------------------------------------

    def record(self, location: HitLocation, size: int, memory: bool | None = None) -> None:
        self.n_requests += 1
        self.total_bytes += size
        stats = self.by_location[location]
        if location is HitLocation.ORIGIN:
            stats.record_miss(size)
        elif memory is None:
            stats.record_hit(size)
        else:
            stats.record_tier_hit(size, memory)

    # -- paper metrics ------------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(
            s.hits for loc, s in self.by_location.items() if loc is not HitLocation.ORIGIN
        )

    @property
    def hit_bytes(self) -> int:
        return sum(
            s.hit_bytes
            for loc, s in self.by_location.items()
            if loc is not HitLocation.ORIGIN
        )

    def by_location_remote_hits(self) -> int:
        """Requests served from remote browser caches."""
        return self.by_location[HitLocation.REMOTE_BROWSER].hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.n_requests if self.n_requests else 0.0

    @property
    def byte_hit_ratio(self) -> float:
        return self.hit_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def memory_byte_hit_ratio(self) -> float:
        """Bytes served from *memory* tiers over all bytes requested
        (§4.2).  Zero unless the run used the tiered cache model."""
        if not self.total_bytes:
            return 0.0
        mem = sum(
            s.memory_hit_bytes
            for loc, s in self.by_location.items()
            if loc is not HitLocation.ORIGIN
        )
        return mem / self.total_bytes

    @property
    def disk_byte_hit_ratio(self) -> float:
        if not self.total_bytes:
            return 0.0
        disk = sum(
            s.disk_hit_bytes
            for loc, s in self.by_location.items()
            if loc is not HitLocation.ORIGIN
        )
        return disk / self.total_bytes

    def breakdown(self) -> HitBreakdown:
        """Hit-ratio breakdown by location (fractions of all requests)."""
        n = self.n_requests or 1
        return HitBreakdown(
            local_browser=self.by_location[HitLocation.LOCAL_BROWSER].hits / n,
            proxy=self.by_location[HitLocation.PROXY].hits / n,
            remote_browser=self.by_location[HitLocation.REMOTE_BROWSER].hits / n,
        )

    def byte_breakdown(self) -> HitBreakdown:
        """Byte-hit-ratio breakdown by location (fractions of all bytes)."""
        b = self.total_bytes or 1
        return HitBreakdown(
            local_browser=self.by_location[HitLocation.LOCAL_BROWSER].hit_bytes / b,
            proxy=self.by_location[HitLocation.PROXY].hit_bytes / b,
            remote_browser=self.by_location[HitLocation.REMOTE_BROWSER].hit_bytes / b,
        )

    @property
    def mean_response_time(self) -> float:
        """Estimated mean per-request service time in seconds — the
        user-facing summary of the whole latency model."""
        if not self.n_requests:
            return 0.0
        return self.overhead.total_service_time / self.n_requests

    def total_hit_latency(self) -> float:
        """Estimated time spent serving hits (the §4.2 latency basis)."""
        return (
            self.overhead.local_hit_time
            + self.overhead.proxy_hit_time
            + self.overhead.remote_storage_time
            + self.overhead.remote_communication_time
        )

    def summary(self) -> dict[str, float]:
        """Compact dictionary of headline numbers (for printing)."""
        bd = self.breakdown()
        return {
            "hit_ratio": self.hit_ratio,
            "byte_hit_ratio": self.byte_hit_ratio,
            "local_share": bd.local_browser,
            "proxy_share": bd.proxy,
            "remote_share": bd.remote_browser,
            "communication_fraction": self.overhead.communication_fraction,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult({self.trace_name!r}, {self.organization!r}, "
            f"HR={self.hit_ratio:.4f}, BHR={self.byte_hit_ratio:.4f})"
        )
