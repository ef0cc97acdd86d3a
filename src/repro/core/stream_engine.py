"""Streaming replay engine: flat per-client state, any row source.

:class:`~repro.core.simulator.Simulator` allocates one cache *object*
per client — an ``LRUCache`` instance wrapping an ``OrderedDict``, plus
per-client bound-method handle lists built by the fast loops.  At the
paper's scales (tens to hundreds of clients) that is free; at a million
clients the per-object overhead alone costs hundreds of megabytes
before a single document is cached.

:func:`simulate_stream` replays the same request path with the
per-client hot state held in **flat preallocated arrays keyed by dense
client id**: one slot pool of parallel Python lists (doc, size,
version, prev/next links) shared by every browser cache, one packed
``(client, doc) -> slot`` dict, and per-client capacity/usage/head/tail
arrays.  Per-client memory is a few machine words, and the input can be
any **row source** — a materialised :class:`~repro.traces.record.Trace`
or a :class:`~repro.traces.streaming.TraceStream` — so a
million-client, ten-million-request cell replays out-of-core.

The replay semantics mirror the optimized engine operation for
operation (same LRU order, same eviction/index event sequence, same
inlined timing arithmetic), so for every supported configuration the
returned :class:`~repro.core.metrics.SimulationResult` is **bit
identical** to ``simulate(trace, organization, config)`` on the
materialised trace; property tests pin this.

Supported configuration subset
------------------------------
The streaming path covers the paper's core §3–§5 machinery: all five
organizations, LRU browser caches (heterogeneous capacities included),
LRU/FIFO proxy caches, the exact invalidation-mode browser index with
optional entry TTLs, holder failover, and the security transfer-cost
model.  Knobs that require per-client *stochastic* state or whole-trace
coordination — tiered caches, consistency policies, churn/Bernoulli
availability, corruption, proxy crash faults, checkpointing, periodic
index updates, bloom indexes (whose lookups scan every client), and
federation — raise :class:`ValueError` naming the knob; use the
materialised engine for those.
"""

from __future__ import annotations

from array import array

from repro.cache import make_cache
from repro.core.chaos import InvariantMonitor
from repro.core.config import SimulationConfig
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.index.browser_index import BrowserIndex, UpdateMode
from repro.network.ethernet import SharedBus
from repro.util.units import BITS_PER_BYTE

__all__ = ["StreamSimulator", "simulate_stream"]

#: bits reserved for the document id in the packed (client, doc) key.
_DOC_BITS = 40
_DOC_LIMIT = 1 << _DOC_BITS


class _FlatBrowsers:
    """Every browser cache in one flat slot pool.

    Replicates :class:`repro.cache.lru.LRUCache` semantics exactly —
    insertion at the MRU end, touch via move-to-end, eviction from the
    LRU end excluding the just-put key, refresh-in-place with size
    delta, oversized inserts refused, the oversized-refresh corner
    evicting the key itself — over parallel ``array('q')`` columns
    linked into one doubly-linked LRU list per client.  The
    ``OrderedDict`` each ``LRUCache`` wraps iterates LRU to MRU; so
    does each linked list, so eviction *order* (and therefore every
    index event) matches.

    ``array('q')`` stores raw 8-byte machine ints: per-client cost is
    five words and per-cached-entry cost five words plus one
    ``slot_of`` dict entry — no boxed-int or pointer-per-element
    overhead, which at a million clients is the difference between
    megabytes and gigabytes.
    """

    __slots__ = (
        "caps",
        "used",
        "head",
        "tail",
        "count",
        "slot_of",
        "e_doc",
        "e_size",
        "e_ver",
        "e_prev",
        "e_next",
        "free",
    )

    def __init__(self, capacities: list[int]) -> None:
        n = len(capacities)
        self.caps = array("q", capacities)
        self.used = array("q", bytes(8 * n))  # zeros
        self.head = array("q", [-1]) * n  # LRU end
        self.tail = array("q", [-1]) * n  # MRU end
        self.count = array("q", bytes(8 * n))
        self.slot_of: dict[int, int] = {}
        self.e_doc = array("q")
        self.e_size = array("q")
        self.e_ver = array("q")
        self.e_prev = array("q")
        self.e_next = array("q")
        self.free: list[int] = []

    # -- linked-list plumbing -----------------------------------------

    def _unlink(self, slot: int, c: int) -> None:
        prev_ = self.e_prev[slot]
        next_ = self.e_next[slot]
        if prev_ >= 0:
            self.e_next[prev_] = next_
        else:
            self.head[c] = next_
        if next_ >= 0:
            self.e_prev[next_] = prev_
        else:
            self.tail[c] = prev_

    def _append(self, slot: int, c: int) -> None:
        tl = self.tail[c]
        self.e_prev[slot] = tl
        self.e_next[slot] = -1
        if tl >= 0:
            self.e_next[tl] = slot
        else:
            self.head[c] = slot
        self.tail[c] = slot

    def _drop(self, slot: int, c: int, key: int) -> int:
        """Remove *slot* from client *c*; returns the freed size."""
        self._unlink(slot, c)
        del self.slot_of[key]
        self.free.append(slot)
        self.count[c] -= 1
        return self.e_size[slot]

    # -- cache operations ---------------------------------------------

    def probe(self, c: int, d: int) -> int:
        """LRU get: returns the slot (touched to MRU) or -1."""
        key = (c << _DOC_BITS) | d
        slot = self.slot_of.get(key)
        if slot is None:
            return -1
        if self.tail[c] != slot:
            self._unlink(slot, c)
            self._append(slot, c)
        return slot

    def peek(self, c: int, d: int) -> int:
        """Membership probe without touching recency; slot or -1."""
        slot = self.slot_of.get((c << _DOC_BITS) | d)
        return -1 if slot is None else slot

    def put(self, c: int, d: int, s: int, v: int) -> list[int]:
        """Insert/refresh (doc, size, version); returns evicted docs in
        eviction order — exactly ``LRUCache.put``."""
        key = (c << _DOC_BITS) | d
        slot = self.slot_of.get(key)
        used = self.used[c]
        cap = self.caps[c]
        if slot is not None:
            used += s - self.e_size[slot]
            self.e_size[slot] = s
            self.e_ver[slot] = v
            if self.tail[c] != slot:
                self._unlink(slot, c)
                self._append(slot, c)
        elif s > cap:
            return []
        else:
            free = self.free
            if free:
                slot = free.pop()
                self.e_doc[slot] = d
                self.e_size[slot] = s
                self.e_ver[slot] = v
            else:
                slot = len(self.e_doc)
                self.e_doc.append(d)
                self.e_size.append(s)
                self.e_ver.append(v)
                self.e_prev.append(-1)
                self.e_next.append(-1)
            self.slot_of[key] = slot
            self._append(slot, c)
            self.count[c] += 1
            used += s
        if used <= cap:
            self.used[c] = used
            return []
        evicted: list[int] = []
        while used > cap:
            victim = self.head[c]
            if victim == slot:
                # Only the just-refreshed oversized entry remains.
                used -= self._drop(slot, c, key)
                evicted.append(d)
                break
            vdoc = self.e_doc[victim]
            used -= self._drop(victim, c, (c << _DOC_BITS) | vdoc)
            evicted.append(vdoc)
        self.used[c] = used
        return evicted


def _reject(knob: str, why: str) -> ValueError:
    return ValueError(
        f"simulate_stream does not support {knob} ({why}); "
        "replay a materialised Trace through repro.core.simulate instead"
    )


def check_stream_config(config: SimulationConfig) -> None:
    """Raise :class:`ValueError` for knobs outside the streaming subset."""
    if config.memory_fraction is not None or config.browser_memory_fraction is not None:
        raise _reject("the tiered memory model", "per-entry tier state")
    if config.browser_policy != "lru":
        raise _reject(
            f"browser_policy={config.browser_policy!r}",
            "the flat slot pool implements LRU order",
        )
    if config.consistency is not None:
        raise _reject("consistency policies", "per-entry expiry state")
    if config.churn is not None or config.holder_availability < 1.0:
        raise _reject("holder availability models", "per-client stochastic state")
    if config.corruption_rate > 0.0:
        raise _reject("transfer corruption", "per-transfer stochastic draws")
    if config.adversarial is not None:
        raise _reject(
            "adversarial peer profiles", "per-holder stochastic draws"
        )
    if config.quarantine_threshold > 0 or config.static_blacklist:
        raise _reject(
            "holder quarantine", "per-holder reputation state"
        )
    if config.proxy_faults is not None or config.checkpoint is not None:
        raise _reject("proxy crash/checkpoint models", "whole-index snapshots")
    if config.chaos is not None:
        raise _reject(
            "chaos plans", "composed fault models and mid-replay invariants"
        )
    if config.federation is not None:
        if config.federation.link_faults is not None:
            raise _reject(
                "link_faults", "time-varying inter-proxy connectivity"
            )
        raise _reject("federation", "multi-proxy replay")
    if config.index_kind != "exact":
        raise _reject("bloom indexes", "lookups scan every client filter")
    if config.index_update_policy is not None:
        raise _reject(
            "periodic index updates", "false-miss checks scan every browser"
        )


class StreamSimulator:
    """One organization, one configuration, one request *source*.

    *source* is anything with ``name``, ``n_clients``,
    ``has_dense_clients``, ``__len__`` and ``iter_rows()`` — a
    :class:`~repro.traces.record.Trace` or a
    :class:`~repro.traces.streaming.TraceStream`.
    """

    def __init__(
        self,
        source,
        organization: Organization,
        config: SimulationConfig,
    ) -> None:
        check_stream_config(config)
        self.source = source
        self.organization = organization
        self.config = config
        self.features = organization.features

        if len(source) == 0:
            n_clients = 1
        elif not source.has_dense_clients:
            raise ValueError(
                f"source {source.name!r} has sparse client ids: the "
                "streaming engine requires dense ids 0..n_clients-1"
            )
        else:
            n_clients = source.n_clients
        self.n_clients = n_clients

        if self.features.has_browsers:
            caps = config.browser_capacities
            if caps is None:
                capacities = [config.browser_capacity] * n_clients
            elif len(caps) < n_clients:
                raise ValueError(
                    f"browser_capacities covers {len(caps)} clients but the "
                    f"trace has {n_clients}"
                )
            else:
                capacities = list(caps[:n_clients])
            self.flat = _FlatBrowsers(capacities)
        else:
            self.flat = None

        self.proxy = (
            make_cache(config.proxy_policy, config.proxy_capacity)
            if self.features.has_proxy
            else None
        )
        self.index = (
            BrowserIndex(n_clients, UpdateMode.INVALIDATION)
            if self.features.has_index
            else None
        )
        self.bus = SharedBus(config.lan)
        self.result = SimulationResult(
            trace_name=source.name,
            organization=organization.value,
        )

    # -- browser put with index bookkeeping ---------------------------

    def _bput(self, c: int, d: int, s: int, v: int, t: float) -> None:
        """Insert into a browser cache, keeping the index in sync —
        the flat-state equivalent of ``Simulator._browser_put`` (same
        event order: evict hooks during the put, then insert/evict)."""
        flat = self.flat
        index = self.index
        if index is None:
            flat.put(c, d, s, v)
            return
        already = flat.peek(c, d) >= 0
        evicted = flat.put(c, d, s, v)
        for doc in evicted:
            index.record_evict(c, doc, t)
        if flat.peek(c, d) >= 0:
            index.record_insert(
                c, d, v, s, t, ttl=self.config.index_entry_ttl, replace=already
            )
        elif already:
            index.record_evict(c, d, t)

    # -- resilient remote delivery ------------------------------------

    def _probe_holder(self, holder: int, d: int, s: int, v: int, t: float) -> bool:
        """One fetch attempt from *holder* — the streaming subset has no
        churn or corruption, so the only failure mode is a stale index
        entry (possible through TTL'd entries racing evictions)."""
        flat = self.flat
        if self.config.remote_hit_refreshes_holder:
            slot = flat.probe(holder, d)
        else:
            slot = flat.peek(holder, d)
        if slot < 0 or flat.e_ver[slot] != v:
            self.index.record_false_hit(holder, d)
            self.result.index_false_hits += 1
            setup = self.config.lan.connection_setup
            overhead = self.result.overhead
            overhead.wasted_round_trip_time += setup
            overhead.wasted_false_hit_time += setup
            return False
        self.bus.submit(t, s)
        return True

    def _failover_deliver(self, hit, c: int, d: int, s: int, v: int, t: float) -> bool:
        index = self.index
        result = self.result
        tried = {hit.client}
        holder = hit.client
        retries_left = self.config.max_holder_retries
        candidates: list[int] | None = None
        while True:
            if self._probe_holder(holder, d, s, v, t):
                if len(tried) > 1:
                    result.failover_rescued_hits += 1
                return True
            if retries_left <= 0:
                return False
            if candidates is None:
                candidates = index.candidate_holders(
                    d, exclude_client=c, now=t, version=v
                )
            backup = next((x for x in candidates if x not in tried), None)
            if backup is None:
                return False
            tried.add(backup)
            holder = backup
            retries_left -= 1
            result.failover_attempts += 1

    # -- the replay loop ----------------------------------------------

    def run(self) -> SimulationResult:
        features = self.features
        config = self.config
        result = self.result
        flat = self.flat
        proxy = self.proxy
        index = self.index

        has_browsers = features.has_browsers
        caches_remote = features.caches_remote_fetches
        cache_remote_at_proxy = config.cache_remote_hits_at_proxy

        # Inlined timing models — identical arithmetic to
        # Simulator._replay, so the accumulated floats match the
        # materialised engine exactly.
        lan = config.lan
        wan = config.wan
        storage = config.storage
        lan_setup = lan.connection_setup
        lan_bw = lan.bandwidth_bps
        wan_setup = wan.connection_setup
        wan_bw = wan.bandwidth_bps
        disk_page = storage.disk_page_bytes
        disk_pt = storage.disk_page_time
        BITS = BITS_PER_BYTE

        # Flat-state handles.
        probe = flat.probe if flat is not None else None
        e_ver = flat.e_ver if flat is not None else None
        bput = self._bput
        lru_p = proxy is not None and config.proxy_policy == "lru"
        proxy_entries = proxy._entries if lru_p else None
        proxy_get = proxy.get if proxy is not None else None
        proxy_put = proxy.put if proxy is not None else None
        index_lookup = index.lookup if index is not None else None
        failover = self._failover_deliver
        security = config.security
        sec_transfer = security.transfer_cost if security is not None else None

        # Batched counters, flushed once (as in Simulator._replay).
        n_requests = 0
        total_bytes = 0
        lb_hits = lb_bytes = 0
        px_hits = px_bytes = 0
        rb_hits = rb_bytes = 0
        og_misses = og_bytes = 0
        local_hit_time = 0.0
        proxy_hit_time = 0.0
        origin_miss_time = 0.0
        remote_storage_time = 0.0
        security_time = 0.0
        peak_entries = 0
        peak_footprint = 0

        for t, c, d, s, v in self.source.iter_rows():
            if d >= _DOC_LIMIT:
                raise ValueError(
                    f"document id {d} exceeds the packed-key limit "
                    f"({_DOC_LIMIT})"
                )

            # 1. local browser cache
            if has_browsers:
                slot = probe(c, d)
                if slot >= 0 and e_ver[slot] == v:
                    n_requests += 1
                    total_bytes += s
                    lb_hits += 1
                    lb_bytes += s
                    local_hit_time += -(-s // disk_page) * disk_pt
                    continue

            # 2. proxy cache
            if proxy is not None:
                if lru_p:
                    entry = proxy_entries.get(d)
                    if entry is not None:
                        proxy_entries.move_to_end(d)
                else:
                    entry = proxy_get(d)
                if entry is not None and entry.version == v:
                    n_requests += 1
                    total_bytes += s
                    px_hits += 1
                    px_bytes += s
                    proxy_hit_time += -(-s // disk_page) * disk_pt + (
                        lan_setup + s * BITS / lan_bw
                    )
                    if has_browsers:
                        bput(c, d, s, v, t)
                    continue

            # 3. browser index -> remote browser cache (with failover)
            if index is not None:
                hit = index_lookup(d, c, t, v)
                if hit is not None and failover(hit, c, d, s, v, t):
                    n_requests += 1
                    total_bytes += s
                    rb_hits += 1
                    rb_bytes += s
                    remote_storage_time += -(-s // disk_page) * disk_pt
                    if sec_transfer is not None:
                        security_time += sec_transfer(s)
                    if caches_remote:
                        bput(c, d, s, v, t)
                        if cache_remote_at_proxy and proxy_put is not None:
                            proxy_put(d, s, v)
                    n = index.n_entries
                    if n > peak_entries:
                        peak_entries = n
                        peak_footprint = index.footprint_bytes()
                    continue

            # 4. origin server
            n_requests += 1
            total_bytes += s
            og_misses += 1
            og_bytes += s
            origin_miss_time += (wan_setup + s * BITS / wan_bw) + (
                lan_setup + s * BITS / lan_bw
            )
            if proxy_put is not None:
                proxy_put(d, s, v)
            if has_browsers:
                bput(c, d, s, v, t)
            if index is not None:
                n = index.n_entries
                if n > peak_entries:
                    peak_entries = n
                    peak_footprint = index.footprint_bytes()

        # -- flush the batched counters --------------------------------
        overhead = result.overhead
        result.n_requests += n_requests
        result.total_bytes += total_bytes
        by_location = result.by_location
        stats = by_location[HitLocation.LOCAL_BROWSER]
        stats.hits += lb_hits
        stats.hit_bytes += lb_bytes
        stats = by_location[HitLocation.PROXY]
        stats.hits += px_hits
        stats.hit_bytes += px_bytes
        stats = by_location[HitLocation.REMOTE_BROWSER]
        stats.hits += rb_hits
        stats.hit_bytes += rb_bytes
        stats = by_location[HitLocation.ORIGIN]
        stats.misses += og_misses
        stats.miss_bytes += og_bytes
        overhead.local_hit_time += local_hit_time
        overhead.proxy_hit_time += proxy_hit_time
        overhead.origin_miss_time += origin_miss_time
        overhead.remote_storage_time += remote_storage_time
        overhead.security_time += security_time
        result.index_peak_entries = peak_entries
        result.index_peak_footprint_bytes = peak_footprint

        overhead.absorb_bus(self.bus.stats)
        if index is not None:
            result.index_stats = index.stats
            result.index_lookups = index.n_lookups
            overhead.index_update_messages = index.update_messages
        InvariantMonitor(config, 1).check_final(result)
        return result


def simulate_stream(
    source,
    organization: Organization,
    config: SimulationConfig,
) -> SimulationResult:
    """Replay any row source through the flat-state streaming engine.

    Bit-identical to ``simulate(trace, organization, config)`` on the
    materialised trace for every supported configuration; raises
    :class:`ValueError` for knobs outside the streaming subset (see
    module docstring).
    """
    return StreamSimulator(source, organization, config).run()
