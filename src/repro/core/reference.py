"""The frozen reference replay loop — differential-testing oracle.

This module is a verbatim copy of the trace-driven engine as it stood
*before* the hot-path optimization pass (straight-line per-request
logic, no batched counters, no precomputed handles), plus a frozen copy
of the pre-optimization LRU cache.  It exists so the optimized
:class:`repro.core.simulator.Simulator` can be checked for **bit
identity** against a known-good implementation:

* ``tests/test_differential.py`` replays randomized configurations
  (every failure/feature knob drawn by hypothesis) through both engines
  and asserts the two :class:`~repro.core.metrics.SimulationResult`\\ s
  are exactly equal, field for field;
* ``benchmarks/bench_hotpath.py`` measures the optimized engine's
  throughput against this loop and fails CI on regression.

DO NOT optimize, refactor, or "clean up" this module.  Its only value
is that it does not change when the hot path does.  Behavioural changes
to the engine (new features, new counters) must be mirrored here in the
same PR — the differential tests will fail loudly until they are.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass

from repro.cache import TieredLRUCache, make_cache
from repro.cache.base import Cache
from repro.core.churn import ChurnProcess
from repro.core.config import SimulationConfig
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.proxy_faults import ProxyFaultSchedule
from repro.index.browser_index import UpdateMode
from repro.index.checkpoint import IndexCheckpointer
from repro.index.engine_bloom import BloomBrowserIndex
from repro.index.staleness import ClientUpdateState, PeriodicUpdatePolicy, StalenessStats
from repro.network.ethernet import SharedBus
from repro.security.protocols import SecurityOverheadModel
from repro.traces.record import Trace
from repro.util.rng import derive_seed

__all__ = [
    "ReferenceSimulator",
    "reference_simulate",
    "ReferenceLRUCache",
    "ReferenceBrowserIndex",
]


class ReferenceLRUCache(Cache):
    """The pre-optimization LRU implementation, frozen.

    Keeps the recency order in a side ``OrderedDict`` next to the base
    class's entry table — exactly the layout the optimized
    :class:`repro.cache.lru.LRUCache` replaced with a single merged
    ``OrderedDict``.  Running both under the differential harness pins
    the merged layout to the original eviction order.
    """

    policy = "lru"

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._order: OrderedDict[int, None] = OrderedDict()

    def _touch(self, key: int) -> None:
        self._order.move_to_end(key)

    def _on_insert(self, key: int) -> None:
        self._order[key] = None

    def _on_remove(self, key: int) -> None:
        del self._order[key]

    def _pick_victim(self, exclude: int | None = None) -> int | None:
        for key in self._order:
            if key != exclude:
                return key
        return None

    def _on_clear(self) -> None:
        self._order.clear()

    def keys_by_recency(self) -> list[int]:
        return list(self._order)


@dataclass(frozen=True, slots=True)
class ReferenceIndexEntry:
    """The pre-optimization (frozen-dataclass) index entry, frozen."""

    client: int
    doc: int
    version: int
    size: int
    timestamp: float

    WIRE_BYTES = 28


@dataclass(frozen=True)
class ReferenceIndexLookup:
    """The pre-optimization lookup result, frozen."""

    client: int
    entry: ReferenceIndexEntry


class ReferenceBrowserIndex:
    """The pre-optimization exact browser index, frozen.

    Verbatim copy of :class:`repro.index.browser_index.BrowserIndex`
    as it stood before the hot-path pass (no invalidation fast paths,
    frozen entry dataclasses).
    Running it under the differential harness pins the optimized
    index's semantics — holder choice, staleness accounting, message
    counts — to the original, and keeps the benchmark baseline honest:
    the reference engine's throughput is the *pre-PR* stack's, index
    included.
    """

    @property
    def is_stale(self) -> bool:
        return self.mode is UpdateMode.PERIODIC

    @property
    def update_messages(self) -> int:
        if self.mode is UpdateMode.INVALIDATION:
            return self.n_insert_events + self.n_evict_events + self.reannouncements
        return self.stats.flushes + self.reannouncements

    def __init__(
        self,
        n_clients: int,
        mode: UpdateMode = UpdateMode.INVALIDATION,
        policy: PeriodicUpdatePolicy | None = None,
    ) -> None:
        if n_clients <= 0:
            raise ValueError(f"n_clients must be > 0, got {n_clients}")
        if mode is UpdateMode.PERIODIC and policy is None:
            policy = PeriodicUpdatePolicy()
        if mode is UpdateMode.INVALIDATION and policy is not None:
            raise ValueError("invalidation mode takes no periodic policy")
        self.n_clients = n_clients
        self.mode = mode
        self.policy = policy
        self._visible: dict[int, dict[int, ReferenceIndexEntry]] = {}
        self._pending: list[dict[int, ReferenceIndexEntry | None]] = [
            {} for _ in range(n_clients)
        ]
        self._client_state = [ClientUpdateState() for _ in range(n_clients)]
        self._rr = 0
        self._n_entries = 0
        self._restored: set[tuple[int, int]] = set()
        self.stats = StalenessStats()
        self.n_lookups = 0
        self.n_index_hits = 0
        self.n_insert_events = 0
        self.n_evict_events = 0
        self.reannouncements = 0

    def record_insert(
        self,
        client: int,
        doc: int,
        version: int,
        size: int,
        now: float,
        replace: bool = False,
    ) -> None:
        entry = ReferenceIndexEntry(
            client=client, doc=doc, version=version, size=size, timestamp=now
        )
        self.n_insert_events += 1
        state = self._client_state[client]
        if not replace:
            state.cached_docs += 1
        if self.mode is UpdateMode.INVALIDATION:
            holders = self._visible.setdefault(doc, {})
            if client not in holders:
                self._n_entries += 1
            holders[client] = entry
            self._restored.discard((doc, client))
        else:
            self._pending[client][doc] = entry
            state.pending_changes += 1
            self._maybe_flush(client, now)

    def record_evict(self, client: int, doc: int, now: float) -> None:
        self.n_evict_events += 1
        state = self._client_state[client]
        state.cached_docs = max(0, state.cached_docs - 1)
        if self.mode is UpdateMode.INVALIDATION:
            holders = self._visible.get(doc)
            if holders and client in holders:
                del holders[client]
                self._n_entries -= 1
                self._restored.discard((doc, client))
                if not holders:
                    del self._visible[doc]
        else:
            self._pending[client][doc] = None
            state.pending_changes += 1
            self._maybe_flush(client, now)

    def _maybe_flush(self, client: int, now: float) -> None:
        assert self.policy is not None
        if self.policy.should_flush(self._client_state[client], now):
            self.flush(client, now)

    def flush(self, client: int, now: float) -> int:
        pending = self._pending[client]
        n_items = len(pending)
        if n_items == 0:
            return 0
        for doc, entry in pending.items():
            self._restored.discard((doc, client))
            if entry is None:
                holders = self._visible.get(doc)
                if holders and client in holders:
                    del holders[client]
                    self._n_entries -= 1
                    if not holders:
                        del self._visible[doc]
            else:
                holders = self._visible.setdefault(doc, {})
                if client not in holders:
                    self._n_entries += 1
                holders[client] = entry
        pending.clear()
        state = self._client_state[client]
        state.pending_changes = 0
        state.last_flush = now
        self.stats.flushes += 1
        self.stats.flushed_items += n_items
        return n_items

    def flush_all(self, now: float) -> None:
        for client in range(self.n_clients):
            self.flush(client, now)

    def lookup(
        self,
        doc: int,
        exclude_client: int,
        now: float,
        version: int | None = None,
    ) -> ReferenceIndexLookup | None:
        self.n_lookups += 1
        holders = self._visible.get(doc)
        if not holders:
            return None
        candidates = [
            (c, e)
            for c, e in holders.items()
            if c != exclude_client
            and (version is None or e.version == version)
        ]
        if not candidates:
            return None
        candidates.sort()
        self._rr += 1
        client, entry = candidates[self._rr % len(candidates)]
        self.n_index_hits += 1
        return ReferenceIndexLookup(client=client, entry=entry)

    def holders_of(self, doc: int) -> list[int]:
        return sorted(self._visible.get(doc, ()))

    def candidate_holders(
        self,
        doc: int,
        exclude_client: int,
        now: float,
        version: int | None = None,
    ) -> list[int]:
        holders = self._visible.get(doc)
        if not holders:
            return []
        return sorted(
            c
            for c, e in holders.items()
            if c != exclude_client
            and (version is None or e.version == version)
        )

    def export_snapshot(self) -> dict[int, dict[int, ReferenceIndexEntry]]:
        return {doc: dict(holders) for doc, holders in self._visible.items()}

    def restore_snapshot(self, payload: dict[int, dict[int, ReferenceIndexEntry]]) -> None:
        self._visible = {doc: dict(holders) for doc, holders in payload.items()}
        self._n_entries = sum(len(h) for h in self._visible.values())
        self._restored = {
            (doc, client)
            for doc, holders in self._visible.items()
            for client in holders
        }

    def reannounce(
        self,
        client: int,
        items,
        now: float,
    ) -> int:
        for doc in list(self._visible):
            holders = self._visible[doc]
            if client in holders:
                del holders[client]
                self._n_entries -= 1
                self._restored.discard((doc, client))
                if not holders:
                    del self._visible[doc]
        self._pending[client].clear()
        n_items = 0
        for doc, version, size in items:
            holders = self._visible.setdefault(doc, {})
            if client not in holders:
                self._n_entries += 1
            holders[client] = ReferenceIndexEntry(
                client=client,
                doc=doc,
                version=version,
                size=size,
                timestamp=now,
            )
            n_items += 1
        state = self._client_state[client]
        state.cached_docs = n_items
        state.pending_changes = 0
        state.last_flush = now
        self.reannouncements += 1
        return n_items

    @property
    def n_entries(self) -> int:
        return self._n_entries

    def footprint_bytes(self) -> int:
        return self.n_entries * ReferenceIndexEntry.WIRE_BYTES

    def record_false_hit(self, client: int | None = None, doc: int | None = None) -> None:
        self.stats.false_hits += 1
        if (
            client is not None
            and doc is not None
            and (doc, client) in self._restored
        ):
            self.stats.false_hits_after_restore += 1

    def record_false_miss(self) -> None:
        self.stats.false_misses += 1


class ReferenceSimulator:
    """One organization, one configuration, one trace replay —
    pre-optimization engine, frozen for differential testing."""

    def __init__(
        self,
        trace: Trace,
        organization: Organization,
        config: SimulationConfig,
    ) -> None:
        self.trace = trace
        self.organization = organization
        self.config = config
        self.features = organization.features
        if config.memory_fraction is not None and (
            config.browser_policy != "lru" or config.proxy_policy != "lru"
        ):
            raise ValueError("the tiered memory model supports only LRU caches")

        n_clients = int(trace.clients.max()) + 1 if len(trace) else 1
        self._tiered = config.memory_fraction is not None

        browser_mem = (
            config.browser_memory_fraction
            if config.browser_memory_fraction is not None
            else config.memory_fraction
        )
        if self.features.has_browsers:
            self.browsers = [
                self._new_cache(config.browser_policy, config.browser_capacity, browser_mem)
                for _ in range(n_clients)
            ]
        else:
            self.browsers = []

        self.proxy = (
            self._new_cache(config.proxy_policy, config.proxy_capacity, config.memory_fraction)
            if self.features.has_proxy
            else None
        )

        if self.features.has_index:
            self.index = self._new_index(n_clients)
            self._now = 0.0
            for cid, cache in enumerate(self.browsers):
                cache.on_evict = self._make_evict_hook(cid)
        else:
            self.index = None

        self._churn = (
            ChurnProcess(config.churn, seed=config.availability_seed)
            if config.churn is not None
            else None
        )
        if self._churn is None and config.holder_availability < 1.0:
            self._avail_rng = random.Random(config.availability_seed)
        else:
            self._avail_rng = None
        self._corrupt_rng = (
            random.Random(derive_seed(config.availability_seed, "integrity"))
            if config.corruption_rate > 0.0
            else None
        )
        self._security = config.security
        if self._security is None and config.corruption_rate > 0.0:
            self._security = SecurityOverheadModel()

        self._fault_schedule = (
            ProxyFaultSchedule(config.proxy_faults, seed=config.availability_seed)
            if config.proxy_faults is not None
            and (self.features.has_proxy or self.features.has_index)
            else None
        )
        self._checkpointer = (
            IndexCheckpointer(config.checkpoint)
            if config.checkpoint is not None and self.features.has_index
            else None
        )
        self._recovering = False
        self._window_start = 0.0
        self._window_end = 0.0
        self._pending_reannounce: list[tuple[float, int]] = []
        self._reannounce_pos = 0
        self._last_t = 0.0
        self._prior_stats = StalenessStats()
        self._prior_lookups = 0
        self._prior_update_messages = 0

        self.bus = SharedBus(config.lan)
        self.result = SimulationResult(
            trace_name=trace.name,
            organization=organization.value,
            uses_memory_tier=self._tiered,
        )

    # -- construction helpers ------------------------------------------------

    def _new_cache(self, policy: str, capacity: int, memory_fraction: float | None):
        if self._tiered:
            return TieredLRUCache(capacity, memory_fraction)
        if policy == "lru":
            # the frozen LRU, not the optimized one the live engine uses
            return ReferenceLRUCache(capacity)
        return make_cache(policy, capacity)

    def _new_index(self, n_clients: int):
        config = self.config
        if config.index_kind == "bloom":
            avg_doc = max(1, int(self.trace.sizes.mean())) if len(self.trace) else 1
            expected = max(8, config.browser_capacity // avg_doc)
            return BloomBrowserIndex(n_clients, expected_docs_per_client=expected)
        if config.index_update_policy is None:
            return ReferenceBrowserIndex(n_clients, UpdateMode.INVALIDATION)
        return ReferenceBrowserIndex(
            n_clients, UpdateMode.PERIODIC, policy=config.index_update_policy
        )

    def _make_evict_hook(self, client: int):
        def hook(doc: int) -> None:
            self.index.record_evict(client, doc, self._now)

        return hook

    # -- cache access helpers (uniform over plain / tiered caches) ----------

    def _get(self, cache, key: int):
        """Returns ``(entry, served_from_memory: bool | None)``."""
        if self._tiered:
            entry, tier = cache.get(key)
            if entry is None:
                return None, None
            return entry, tier.value == "memory"
        return cache.get(key), None

    def _holder_online(self, holder: int, now: float) -> bool:
        if self._churn is not None:
            return self._churn.online(holder, now)
        if self._avail_rng is None:
            return True
        return self._avail_rng.random() < self.config.holder_availability

    def _transfer_corrupted(self) -> bool:
        return (
            self._corrupt_rng is not None
            and self._corrupt_rng.random() < self.config.corruption_rate
        )

    # -- resilient remote-hit delivery --------------------------------------

    def _probe_holder(
        self, holder: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        config = self.config
        result = self.result
        overhead = result.overhead
        lan = config.lan
        if not self._holder_online(holder, t):
            result.holder_unavailable += 1
            overhead.wasted_round_trip_time += lan.connection_setup
            overhead.wasted_offline_time += lan.connection_setup
            return False, None
        held, memory = self._get(self.browsers[holder], d)
        if held is None or held.version != v:
            self.index.record_false_hit(holder, d)
            result.index_false_hits += 1
            overhead.wasted_round_trip_time += lan.connection_setup
            overhead.wasted_false_hit_time += lan.connection_setup
            return False, None
        if self._transfer_corrupted():
            result.integrity_failures += 1
            cost = lan.transfer_time(s)
            if self._security is not None:
                cost += self._security.verify_cost(s)
            overhead.integrity_retransmission_time += cost
            return False, None
        self.bus.submit(t, s)
        result.record(HitLocation.REMOTE_BROWSER, s, memory)
        overhead.remote_storage_time += self._storage_time(s, memory)
        if self._security is not None:
            overhead.security_time += self._security.transfer_cost(s)
        return True, memory

    def _remote_delivery(
        self, c: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        index = self.index
        result = self.result
        hit = index.lookup(d, exclude_client=c, now=t, version=v)
        if hit is None:
            if self._recovering:
                if self._truth_holds(d, v, exclude=c):
                    result.hits_lost_to_recovery += 1
            elif index.is_stale and self._truth_holds(d, v, exclude=c):
                index.record_false_miss()
            return False, None
        tried = {hit.client}
        holder = hit.client
        retries_left = self.config.max_holder_retries
        candidates: list[int] | None = None
        while True:
            served, memory = self._probe_holder(holder, d, s, v, t)
            if served:
                if len(tried) > 1:
                    result.failover_rescued_hits += 1
                return True, memory
            if retries_left <= 0:
                return False, None
            if candidates is None:
                candidates = index.candidate_holders(
                    d, exclude_client=c, now=t, version=v
                )
            backup = next((x for x in candidates if x not in tried), None)
            if backup is None:
                return False, None
            tried.add(backup)
            holder = backup
            retries_left -= 1
            result.failover_attempts += 1

    def _storage_time(self, n_bytes: int, memory: bool | None) -> float:
        storage = self.config.storage
        if memory:
            return storage.memory_time(n_bytes)
        return storage.disk_time(n_bytes)

    def _browser_put(self, client: int, doc: int, size: int, version: int, now: float) -> None:
        cache = self.browsers[client]
        if self.index is not None:
            already = doc in cache
            self._now = now
            cache.put(doc, size, version)
            if doc in cache:
                self.index.record_insert(
                    client, doc, version, size, now, replace=already
                )
            elif already:
                self.index.record_evict(client, doc, now)
        else:
            cache.put(doc, size, version)

    # -- proxy crash recovery ------------------------------------------------

    def _advance_recovery(self, t: float) -> bool:
        self._last_t = t
        checkpointer = self._checkpointer
        faults = self._fault_schedule
        result = self.result
        crashed = False
        while True:
            ck_at = checkpointer.next_due(t) if checkpointer is not None else None
            crash_at = faults.peek(t) if faults is not None else None
            if ck_at is None and crash_at is None:
                break
            if crash_at is None or (ck_at is not None and ck_at <= crash_at):
                if self._recovering:
                    self._apply_reannouncements(ck_at)
                    if ck_at >= self._window_end:
                        self._close_window(self._window_end)
                result.overhead.checkpoint_time += checkpointer.take(
                    self.index, ck_at
                )
                result.checkpoint_bytes_written = checkpointer.bytes_written
            else:
                faults.pop()
                self._handle_crash(crash_at)
                crashed = True
        if self._recovering:
            self._apply_reannouncements(t)
            if t >= self._window_end:
                self._close_window(self._window_end)
            else:
                result.degraded_window_requests += 1
        return crashed

    def _handle_crash(self, tc: float) -> None:
        result = self.result
        result.proxy_crashes += 1
        if self._recovering:
            self._apply_reannouncements(tc)
            self._close_window(tc)
        if self.proxy is not None:
            self.proxy.clear()
        if self.index is None:
            return
        old = self.index
        self._prior_stats = self._prior_stats.merged(old.stats)
        self._prior_lookups += old.n_lookups
        self._prior_update_messages += old.update_messages
        self.index = self._new_index(old.n_clients)
        if self._checkpointer is not None:
            snapshot = self._checkpointer.latest()
            if snapshot is not None:
                self.index.restore_snapshot(snapshot.payload)
                result.overhead.checkpoint_time += self._checkpointer.restore_time()
            self._checkpointer.reset_after_crash(tc)
        rate = self.config.reannounce_rate
        announcers = [
            cid for cid, cache in enumerate(self.browsers) if len(cache) > 0
        ]
        self._pending_reannounce = [
            (tc + (i + 1) / rate, cid) for i, cid in enumerate(announcers)
        ]
        self._reannounce_pos = 0
        self._recovering = True
        self._window_start = tc
        if self._pending_reannounce:
            self._window_end = self._pending_reannounce[-1][0]
        else:
            self._window_end = tc
            self._close_window(tc)

    def _apply_reannouncements(self, t: float) -> None:
        pending = self._pending_reannounce
        pos = self._reannounce_pos
        while pos < len(pending) and pending[pos][0] <= t:
            due, cid = pending[pos]
            cache = self.browsers[cid]
            items = []
            for doc in cache:
                entry = cache.peek(doc)
                items.append((doc, entry.version, entry.size))
            self.index.reannounce(cid, items, due)
            pos += 1
        self._reannounce_pos = pos

    def _close_window(self, end: float) -> None:
        self.result.recovery_time += end - self._window_start
        self._recovering = False

    # -- the replay loop ----------------------------------------------------

    def run(self) -> SimulationResult:
        if self.config.consistency is not None:
            return self._run_coherent()
        return self._run_fast()

    def _run_fast(self) -> SimulationResult:
        features = self.features
        config = self.config
        result = self.result
        overhead = result.overhead
        browsers = self.browsers
        proxy = self.proxy
        index = self.index
        lan = config.lan
        wan = config.wan
        recovery = (
            self._advance_recovery
            if self._fault_schedule is not None or self._checkpointer is not None
            else None
        )

        for t, c, d, s, v in self.trace.iter_rows():
            if recovery is not None and recovery(t):
                proxy = self.proxy
                index = self.index

            # 1. local browser cache
            if features.has_browsers:
                entry, memory = self._get(browsers[c], d)
                if entry is not None and entry.version == v:
                    result.record(HitLocation.LOCAL_BROWSER, s, memory)
                    overhead.local_hit_time += self._storage_time(s, memory)
                    continue

            # 2. proxy cache
            if proxy is not None:
                entry, memory = self._get(proxy, d)
                if entry is not None and entry.version == v:
                    result.record(HitLocation.PROXY, s, memory)
                    overhead.proxy_hit_time += self._storage_time(
                        s, memory
                    ) + lan.transfer_time(s)
                    if features.has_browsers:
                        self._browser_put(c, d, s, v, t)
                    continue

            # 3. browser index -> remote browser cache (with failover)
            if index is not None:
                remote_served, _memory = self._remote_delivery(c, d, s, v, t)
                if remote_served:
                    if features.caches_remote_fetches:
                        self._browser_put(c, d, s, v, t)
                    self._track_index_peak()
                    continue

            # 4. origin server
            result.record(HitLocation.ORIGIN, s)
            overhead.origin_miss_time += wan.fetch_time(s) + lan.transfer_time(s)
            if proxy is not None:
                proxy.put(d, s, v)
            if features.has_browsers:
                self._browser_put(c, d, s, v, t)
            if index is not None:
                self._track_index_peak()

        return self._finalise()

    # -- coherent replay (expiration-based consistency) ----------------------

    def _run_coherent(self) -> SimulationResult:
        features = self.features
        config = self.config
        result = self.result
        overhead = result.overhead
        cstats = result.consistency_stats
        browsers = self.browsers
        proxy = self.proxy
        index = self.index
        lan = config.lan
        wan = config.wan
        policy = config.consistency
        recovery = (
            self._advance_recovery
            if self._fault_schedule is not None or self._checkpointer is not None
            else None
        )

        last_modified: dict[int, float] = {}
        seen_version: dict[int, int] = {}

        def coherence_action(entry, v: int, t: float, last_mod: float) -> str:
            if t <= entry.expires_at:
                return "serve"
            cstats.validations += 1
            overhead.validation_time += wan.connection_setup
            if entry.version == v:
                cstats.validated_hits += 1
                entry.expires_at = policy.expires_at(t, last_mod)
                return "validated"
            cstats.validation_misses += 1
            return "changed"

        def stamp(cache, d: int, t: float, last_mod: float) -> None:
            entry = cache.peek(d)
            if entry is not None:
                entry.expires_at = policy.expires_at(t, last_mod)

        for t, c, d, s, v in self.trace.iter_rows():
            if recovery is not None and recovery(t):
                proxy = self.proxy
                index = self.index

            sv = seen_version.get(d)
            if sv is None or v > sv:
                seen_version[d] = v
                last_modified[d] = t
            last_mod = last_modified[d]
            served = False
            go_origin = False

            # 1. local browser cache
            if features.has_browsers:
                entry, memory = self._get(browsers[c], d)
                if entry is not None:
                    action = coherence_action(entry, v, t, last_mod)
                    if action in ("serve", "validated"):
                        if action == "serve" and entry.version != v:
                            cstats.stale_deliveries += 1
                            cstats.stale_bytes += s
                        result.record(HitLocation.LOCAL_BROWSER, s, memory)
                        overhead.local_hit_time += self._storage_time(s, memory)
                        served = True
                    elif action == "changed":
                        go_origin = True

            # 2. proxy cache
            if not served and not go_origin and proxy is not None:
                entry, memory = self._get(proxy, d)
                if entry is not None:
                    action = coherence_action(entry, v, t, last_mod)
                    if action in ("serve", "validated"):
                        if action == "serve" and entry.version != v:
                            cstats.stale_deliveries += 1
                            cstats.stale_bytes += s
                        result.record(HitLocation.PROXY, s, memory)
                        overhead.proxy_hit_time += self._storage_time(
                            s, memory
                        ) + lan.transfer_time(s)
                        if features.has_browsers:
                            self._browser_put(c, d, s, entry.version, t)
                            stamp(browsers[c], d, t, last_mod)
                        served = True
                    elif action == "changed":
                        go_origin = True

            # 3. browser index -> remote browser cache (exact match only,
            #    with failover)
            if not served and not go_origin and index is not None:
                remote_served, _memory = self._remote_delivery(c, d, s, v, t)
                if remote_served:
                    if features.caches_remote_fetches:
                        self._browser_put(c, d, s, v, t)
                        stamp(browsers[c], d, t, last_mod)
                    served = True
                    self._track_index_peak()

            # 4. origin server
            if not served:
                result.record(HitLocation.ORIGIN, s)
                overhead.origin_miss_time += wan.fetch_time(s) + lan.transfer_time(s)
                if proxy is not None:
                    proxy.put(d, s, v)
                    stamp(proxy, d, t, last_mod)
                if features.has_browsers:
                    self._browser_put(c, d, s, v, t)
                    stamp(browsers[c], d, t, last_mod)
                if index is not None:
                    self._track_index_peak()

        return self._finalise()

    def _truth_holds(self, doc: int, version: int, exclude: int) -> bool:
        for cid, cache in enumerate(self.browsers):
            if cid == exclude:
                continue
            held = cache.peek(doc)
            if held is not None and held.version == version:
                return True
        return False

    def _track_index_peak(self) -> None:
        n = self.index.n_entries
        if n > self.result.index_peak_entries:
            self.result.index_peak_entries = n
            self.result.index_peak_footprint_bytes = self.index.footprint_bytes()

    def _finalise(self) -> SimulationResult:
        result = self.result
        result.overhead.absorb_bus(self.bus.stats)
        if self._recovering:
            self._close_window(self._last_t)
        if self.index is not None:
            stats = self.index.stats
            lookups = self.index.n_lookups
            messages = self.index.update_messages
            if self._fault_schedule is not None:
                stats = self._prior_stats.merged(stats)
                lookups += self._prior_lookups
                messages += self._prior_update_messages
            result.index_stats = stats
            result.index_lookups = lookups
            result.overhead.index_update_messages = messages
        if self._checkpointer is not None:
            result.checkpoint_bytes_written = self._checkpointer.bytes_written
        return result


def reference_simulate(
    trace: Trace,
    organization: Organization,
    config: SimulationConfig,
) -> SimulationResult:
    """One-shot reference replay (the differential oracle)."""
    return ReferenceSimulator(trace, organization, config).run()
