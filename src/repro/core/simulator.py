"""The trace-driven simulation engine.

Replays a :class:`~repro.traces.record.Trace` through one of the five
caching organizations and produces a
:class:`~repro.core.metrics.SimulationResult`.

Request path (matching paper §2/§3.2):

1. the requesting client's **browser cache** (if the organization has
   browser caches) — a resident copy with a stale version counts as a
   miss, per the paper's size-change rule;
2. the **proxy cache** (if present); a proxy hit also populates the
   requesting browser;
3. the **browser index** (if present) — on an index hit the document is
   validated against the *true* holder cache (a stale index yields a
   false hit, which costs a wasted round trip), then transferred over
   the shared LAN bus; BAPS caches the document at the requesting
   browser, global-browsers-cache-only does not.  Delivery is
   *resilient*: when the chosen holder is offline (Bernoulli or
   session-based churn), stale, or serves a transfer that fails the §6
   integrity check, up to ``config.max_holder_retries`` further
   replicas from the index's candidate list are probed — each failed
   probe charging a wasted LAN round trip — before the request
   escalates;
4. otherwise the **origin server** over the WAN; the response populates
   the proxy and/or the browser per organization.

Every leg is priced by the §4.2/§5 timing models into the result's
:class:`~repro.core.overhead.OverheadReport`.

Every configuration replays through **one loop**
(:meth:`Simulator._replay`).  Optional behaviour — expiration-based
coherence, proxy crash recovery, the quarantine guard, the invariant
monitor — is bound into hooks once per run, before the loop starts,
and steps 2–4 fall through to one shared *fill tail* that populates
the caches the serving step names.  The loop is the throughput
bottleneck of every sweep, so it is written as an *optimized fast
path*: per-request counters accumulate in local variables and flush
into the result once at finalise, the timing arithmetic of the
§4.2/§5 models is inlined (same operations in the same order, so the
floats are bit-identical), per-client cache handles are precomputed,
and config/feature reads are hoisted out of the loop.
:mod:`repro.core.reference` keeps a frozen copy of the straight-line
engine; the differential suite (``tests/test_differential.py``)
replays randomized configurations through both and asserts the
results are exactly equal, field for field.  Passing a
:class:`~repro.util.profiling.ReplayProfile` runs the same loop under
a statistical sampler that charges wall time to the loop's numbered
steps (results stay bit-identical; only observation is added).  The
conservation and ledger laws of
:class:`~repro.core.chaos.InvariantMonitor` are checked once at
finalise on every run.
"""

from __future__ import annotations

import functools
import random

from repro.adversarial import PeerPopulation
from repro.cache import TieredLRUCache, make_cache
from repro.cache.base import CacheEntry
from repro.core.chaos import InvariantMonitor
from repro.core.churn import ChurnProcess
from repro.core.config import SimulationConfig
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.proxy_faults import ProxyFaultSchedule
from repro.index.browser_index import BrowserIndex, UpdateMode
from repro.index.checkpoint import IndexCheckpointer
from repro.index.engine_bloom import BloomBrowserIndex
from repro.index.staleness import StalenessStats
from repro.network.ethernet import SharedBus
from repro.security.protocols import SecurityOverheadModel
from repro.traces.record import Trace
from repro.util.profiling import TAIL, PhaseMap, ReplayProfile
from repro.util.rng import derive_seed
from repro.util.units import BITS_PER_BYTE

__all__ = ["Simulator", "simulate", "bloom_expected_docs", "dense_client_count"]


def _dense_client_count(trace: Trace) -> int:
    """Validate the dense-client-id contract and return the count.

    Per-client state is indexed by client id, so ids must be exactly
    ``0..n_clients-1`` (the :class:`~repro.traces.record.Trace`
    contract).  Sparse ids are rejected instead of silently allocating
    ``max_id + 1`` slots, which is both a memory bug (state for ids
    that never occur) and an aliasing hazard.  Empty traces replay
    against a single idle client, as before.
    """
    if len(trace) == 0:
        return 1
    if not trace.has_dense_clients:
        n_distinct, max_id = trace._client_id_info()
        raise ValueError(
            f"trace {trace.name!r} has sparse client ids ({n_distinct} "
            f"distinct ids, max id {max_id}): the simulator requires dense "
            "ids 0..n_clients-1; renumber with Trace.renumbered() or "
            "repro.traces.filters.select_clients() first"
        )
    return trace.n_clients


#: public alias (kept out of the hot path's way).
dense_client_count = _dense_client_count


def bloom_expected_docs(
    trace: Trace, capacities, fallback_capacity: int
) -> int:
    """Expected documents per client for bloom-filter sizing.

    The single sizing rule shared by the per-client summary filters of
    :class:`~repro.index.engine_bloom.BloomBrowserIndex` and the
    federation's inter-proxy digests
    (:mod:`repro.federation.digest`).  Both layers validating the same
    claim must budget false positives from the same arithmetic — a
    digest sized differently from the index it summarises would hide
    (or invent) cross-proxy false hits the per-proxy accounting never
    sees.
    """
    avg_doc = max(1, int(trace.mean_request_size)) if len(trace) else 1
    capacities = list(capacities)
    mean_capacity = (
        int(sum(capacities) / len(capacities)) if capacities else fallback_capacity
    )
    return max(8, mean_capacity // avg_doc)


class Simulator:
    """One organization, one configuration, one trace replay.

    ``profile`` opts into observation: :meth:`run` samples the replay
    loop and accumulates per-phase wall time and exact event counts
    into the given :class:`~repro.util.profiling.ReplayProfile`.  It is
    a constructor argument rather than a config knob so journal
    identity digests (``config_digest``) are unaffected.
    """

    def __init__(
        self,
        trace: Trace,
        organization: Organization,
        config: SimulationConfig,
        profile: ReplayProfile | None = None,
    ) -> None:
        if config.chaos is not None:
            # Resolve a composed chaos plan once, up front, so every
            # knob below sees the installed fault models; compose() is
            # idempotent, leaving only the monitor cadence behind.
            config = config.chaos.compose(config)
        self.trace = trace
        self.organization = organization
        self.config = config
        self.profile = profile
        self.features = organization.features
        if config.memory_fraction is not None and (
            config.browser_policy != "lru" or config.proxy_policy != "lru"
        ):
            raise ValueError("the tiered memory model supports only LRU caches")

        # Client ids index per-client state (browser caches, index
        # filters, churn sessions) directly, so the trace must honour
        # its documented contract: dense ids 0..n_clients-1.  Sizing by
        # the raw maximum id instead used to allocate per-client state
        # for every id *below* the maximum — a 2-request trace with
        # client id 2,999,999 cost ~2.7 GB of peak RSS.
        n_clients = _dense_client_count(trace)
        self._tiered = config.memory_fraction is not None

        browser_mem = (
            config.browser_memory_fraction
            if config.browser_memory_fraction is not None
            else config.memory_fraction
        )
        if self.features.has_browsers:
            capacities = self._browser_capacities(n_clients)
            self.browsers = [
                self._new_cache(config.browser_policy, capacities[c], browser_mem)
                for c in range(n_clients)
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
        # Adversarial peer profiles (repro.adversarial).  None — the
        # default — constructs nothing and keeps the single global
        # corruption draw above, so every golden stays bit-identical.
        adversarial = config.adversarial
        if adversarial is not None:
            self._population = PeerPopulation.for_simulation(
                adversarial, n_clients, config.availability_seed
            )
            self._flap_schedule = adversarial.flap_schedule
        else:
            self._population = None
            self._flap_schedule = None
        #: lazy per-holder integrity RNG streams (adversarial mode only).
        self._holder_corrupt_rngs: dict[int, random.Random] = {}
        # A nonzero corruption rate implies the §6 integrity machinery
        # is active: price it even when no explicit model was given.
        # Polluters likewise: their corrupted transfers are only
        # detectable — and chargeable, on every failed probe — with the
        # integrity layer on.
        self._security = config.security
        if self._security is None and (
            config.corruption_rate > 0.0
            or (
                adversarial is not None
                and adversarial.polluter_fraction > 0.0
                and adversarial.polluter_corruption_rate > 0.0
            )
        ):
            self._security = SecurityOverheadModel()

        # Reputation/quarantine defense.  The blacklist starts from the
        # oracle static_blacklist (if any); learned quarantines join it
        # when a holder crosses quarantine_threshold integrity failures.
        self._quarantine_active = (
            config.quarantine_threshold > 0 or bool(config.static_blacklist)
        )
        self._banned_set: set[int] = set(config.static_blacklist or ())
        self._quarantined_at: dict[int, float] = {}
        self._integrity_strikes: dict[int, int] = {}
        self._lookup_skipped_banned = False
        self._request_poisoned = False

        # Proxy crash recovery.  Nothing below constructs an RNG unless
        # a rate-based fault model is actually configured; the default
        # (always-up proxy) leaves the replay loop untouched.
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
        #: (due time, client) re-announcements of the open window, ascending.
        self._pending_reannounce: list[tuple[float, int]] = []
        self._reannounce_pos = 0
        self._last_t = 0.0
        # Index counters accumulated from generations destroyed by
        # crashes; _finalise folds them into the final result.
        self._prior_stats = StalenessStats()
        self._prior_lookups = 0
        self._prior_update_messages = 0

        # Opt-in mid-replay invariant monitor (repro.core.chaos).  The
        # default (chaos=None) adds one never-taken branch per request
        # to each replay loop and constructs nothing.
        chaos = config.chaos
        self._monitor = (
            InvariantMonitor(config, chaos.check_invariants_every)
            if chaos is not None and chaos.monitored
            else None
        )

        self.bus = SharedBus(config.lan)
        self.result = SimulationResult(
            trace_name=trace.name,
            organization=organization.value,
            uses_memory_tier=self._tiered,
        )

    # -- construction helpers ------------------------------------------------

    def _browser_capacities(self, n_clients: int) -> list[int]:
        caps = self.config.browser_capacities
        if caps is None:
            return [self.config.browser_capacity] * n_clients
        if len(caps) < n_clients:
            raise ValueError(
                f"browser_capacities covers {len(caps)} clients but the trace "
                f"has {n_clients}"
            )
        return list(caps[:n_clients])

    def _new_cache(self, policy: str, capacity: int, memory_fraction: float | None):
        if self._tiered:
            return TieredLRUCache(capacity, memory_fraction)
        return make_cache(policy, capacity)

    def _new_index(self, n_clients: int):
        config = self.config
        if config.index_kind == "bloom":
            # Size filters from the capacities actually deployed: with
            # heterogeneous ``browser_capacities`` the uniform
            # ``browser_capacity`` may be wildly off, skewing the bloom
            # false-positive rate for fig-8-style runs.
            expected = bloom_expected_docs(
                self.trace, self._browser_capacities(n_clients), config.browser_capacity
            )
            return BloomBrowserIndex(
                n_clients,
                expected_docs_per_client=expected,
                bits_per_doc=config.bloom_bits_per_doc,
                rebuild_threshold=config.bloom_rebuild_threshold,
            )
        if config.index_update_policy is None:
            return BrowserIndex(n_clients, UpdateMode.INVALIDATION)
        return BrowserIndex(
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

    def _peek_tier(self, cache, key: int):
        if self._tiered:
            tier = cache.tier_of(key)
            return None if tier is None else tier.value == "memory"
        return None

    def _holder_online(self, holder: int, now: float) -> bool:
        """Client churn: is *holder* reachable at virtual time *now*?"""
        population = self._population
        if (
            population is not None
            and self._flap_schedule is not None
            and population.is_flapper(holder)
            and self._flap_schedule.offline_at(now)
        ):
            # Correlated mass churn: the flapper cohort is down together
            # during a wave window, regardless of its session state.
            return False
        if self._churn is not None:
            return self._churn.online(holder, now)
        if self._avail_rng is None:
            return True
        return self._avail_rng.random() < self.config.holder_availability

    def _transfer_corrupted(self, holder: int) -> bool:
        """Integrity draw: does *holder*'s transfer arrive corrupted?

        Without an adversarial population every transfer shares one
        global stream — the original engine's draw, kept verbatim for
        bit-identical goldens.  With profiles configured the draw is
        per-holder: polluters corrupt at ``polluter_corruption_rate``,
        honest peers at the background ``corruption_rate``, each from
        its own lazily-seeded stream (so a population reshuffle never
        perturbs another holder's draws).
        """
        population = self._population
        if population is None:
            return (
                self._corrupt_rng is not None
                and self._corrupt_rng.random() < self.config.corruption_rate
            )
        if population.is_polluter(holder):
            rate = self.config.adversarial.polluter_corruption_rate
        else:
            rate = self.config.corruption_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        rng = self._holder_corrupt_rngs.get(holder)
        if rng is None:
            rng = self._holder_corrupt_rngs[holder] = random.Random(
                derive_seed(self.config.availability_seed, "integrity", holder)
            )
        return rng.random() < rate

    # -- reputation / quarantine defense -------------------------------------

    def _record_integrity_failure(self, holder: int, t: float) -> None:
        """One more strike against *holder*; quarantine at the threshold."""
        strikes = self._integrity_strikes.get(holder, 0) + 1
        if strikes >= self.config.quarantine_threshold:
            if holder not in self._banned_set:
                self._banned_set.add(holder)
                self._quarantined_at[holder] = t
                self.result.quarantined_peers += 1
            # Re-admission after decay starts from a clean slate.
            self._integrity_strikes[holder] = 0
        else:
            self._integrity_strikes[holder] = strikes

    def _active_banned(self, t: float):
        """The blacklist at time *t*, purging decayed quarantines."""
        decay = self.config.quarantine_decay
        if decay is not None and self._quarantined_at:
            expired = [
                h for h, at in self._quarantined_at.items() if t >= at + decay
            ]
            for h in expired:
                del self._quarantined_at[h]
                self._banned_set.discard(h)
        return self._banned_set

    def _guarded_lookup_fn(self, index):
        """The ``index.lookup`` binding for the replay loop.

        Quarantine off — the raw bound method, so the hot path is
        untouched.  Quarantine armed — a wrapper filtering blacklisted
        holders out of candidacy and flagging *rescues* (lookups where
        the filter actually removed a qualifying candidate), which
        :meth:`_failover_deliver` converts into
        ``quarantine_rescued_hits`` on successful delivery.  Must be
        re-invoked whenever ``self.index`` is replaced (proxy crash).
        """
        if not self._quarantine_active:
            return index.lookup
        lookup = index.lookup

        def guarded(d, c, t, v):
            self._lookup_skipped_banned = False
            banned = self._active_banned(t)
            if not banned:
                return lookup(d, c, t, v)
            before = index.banned_candidates_skipped
            hit = lookup(d, c, t, v, banned)
            if index.banned_candidates_skipped != before:
                self._lookup_skipped_banned = True
            return hit

        return guarded

    # -- resilient remote-hit delivery --------------------------------------

    def _probe_holder(
        self, holder: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        """One attempt to fetch (doc, version) from *holder*.

        Returns ``(served, memory_tier)``.  A failed probe charges its
        own waste — a LAN round trip for an offline or stale holder, a
        discarded transfer plus verification for an integrity failure —
        and leaves escalation to the caller.  A successful probe only
        submits the bus transfer; the *caller* accounts the remote hit
        (so the replay loop can batch those counters).
        """
        config = self.config
        result = self.result
        overhead = result.overhead
        lan = config.lan
        if not self._holder_online(holder, t):
            result.holder_unavailable += 1
            setup = lan.connection_setup
            overhead.wasted_round_trip_time += setup
            overhead.wasted_offline_time += setup
            return False, None
        holder_cache = self.browsers[holder]
        if config.remote_hit_refreshes_holder:
            held, memory = self._get(holder_cache, d)
        else:
            held = holder_cache.peek(d)
            memory = self._peek_tier(holder_cache, d)
        if held is None or held.version != v:
            # Stale index: the holder no longer has this document.
            self.index.record_false_hit(holder, d)
            result.index_false_hits += 1
            setup = lan.connection_setup
            overhead.wasted_round_trip_time += setup
            overhead.wasted_false_hit_time += setup
            return False, None
        if self._transfer_corrupted(holder):
            # The transfer completes but fails the §6 watermark/MD5
            # check: pay for the discarded transfer and the verify CPU,
            # then let the caller retransmit from the next candidate
            # (or the origin).
            result.integrity_failures += 1
            population = self._population
            if population is not None:
                self._request_poisoned = True
                if population.is_polluter(holder):
                    result.corrupt_deliveries += 1
            if config.quarantine_threshold > 0:
                self._record_integrity_failure(holder, t)
            cost = lan.transfer_time(s)
            if self._security is not None:
                cost += self._security.verify_cost(s)
            overhead.integrity_retransmission_time += cost
            return False, None
        self.bus.submit(t, s)
        return True, memory

    def _remote_delivery(
        self, c: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        """The resilient remote-hit path (the federated engine's; the
        replay loop inlines it).

        Looks up a holder, then fails over across the index's replica
        list — bounded by ``config.max_holder_retries`` — until one
        probe serves the document or the candidates are exhausted.
        Returns ``(served, memory_tier)``; on ``True`` the caller
        accounts the remote hit, on ``False`` the request escalates to
        the origin.
        """
        index = self.index
        result = self.result
        hit = self._guarded_lookup_fn(index)(d, c, t, v)
        if hit is None:
            # Was this a lost opportunity?  Check the truth.
            if self._recovering:
                # During rebuild a miss on the partial index is not an
                # error — but a browser the index has not re-learned yet
                # could have served it: a hit lost to recovery.
                if self._truth_holds(d, v, exclude=c):
                    result.hits_lost_to_recovery += 1
            elif index.is_stale and self._truth_holds(d, v, exclude=c):
                index.record_false_miss()
            return False, None
        return self._failover_deliver(hit, c, d, s, v, t)

    def _failover_deliver(
        self, hit, c: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        """Probe the looked-up holder, failing over across the index's
        replica list until one probe serves or candidates run out.

        Split from :meth:`_remote_delivery` so the replay loop can
        inline the (far more common) lookup-miss path and only pay this
        call on an index hit.
        """
        index = self.index
        result = self.result
        self._request_poisoned = False
        quarantine = self._quarantine_active
        tried = {hit.client}
        holder = hit.client
        retries_left = self.config.max_holder_retries
        candidates: list[int] | None = None
        served = False
        memory: bool | None = None
        while True:
            served, memory = self._probe_holder(holder, d, s, v, t)
            if served:
                if len(tried) > 1:
                    result.failover_rescued_hits += 1
                break
            if retries_left <= 0:
                break
            if candidates is None:
                if quarantine:
                    candidates = index.candidate_holders(
                        d, exclude_client=c, now=t, version=v,
                        banned=self._banned_set or None,
                    )
                else:
                    candidates = index.candidate_holders(
                        d, exclude_client=c, now=t, version=v
                    )
            if quarantine:
                # A strike during *this* request may have quarantined a
                # candidate after the list was built — skip it too.
                banned_set = self._banned_set
                backup = next(
                    (
                        x
                        for x in candidates
                        if x not in tried and x not in banned_set
                    ),
                    None,
                )
            else:
                backup = next((x for x in candidates if x not in tried), None)
            if backup is None:
                break
            tried.add(backup)
            holder = backup
            retries_left -= 1
            result.failover_attempts += 1
        if self._request_poisoned:
            result.poisoned_requests += 1
            self._request_poisoned = False
        if served and quarantine and self._lookup_skipped_banned:
            result.quarantine_rescued_hits += 1
            self._lookup_skipped_banned = False
        return (True, memory) if served else (False, None)

    def _storage_time(self, n_bytes: int, memory: bool | None) -> float:
        storage = self.config.storage
        if memory:
            return storage.memory_time(n_bytes)
        return storage.disk_time(n_bytes)

    def _browser_put(self, client: int, doc: int, size: int, version: int, now: float) -> None:
        """Insert into a browser cache, keeping the index in sync."""
        cache = self.browsers[client]
        index = self.index
        if index is not None:
            already = doc in cache
            self._now = now
            cache.put(doc, size, version)
            # An oversized object is refused; only index what is cached.
            if doc in cache:
                index.record_insert(
                    client,
                    doc,
                    version,
                    size,
                    now,
                    ttl=self.config.index_entry_ttl,
                    replace=already,
                )
            elif already:
                index.record_evict(client, doc, now)
        else:
            cache.put(doc, size, version)

    # -- proxy crash recovery ------------------------------------------------

    def _advance_recovery(self, t: float) -> bool:
        """Process checkpoint deadlines and crashes due by virtual time
        *t*, in time order, and advance any open rebuild window.

        Returns True when a crash replaced the index object — the
        replay loop must refresh its local bindings.  Called
        before each request is served, so index state seen by a
        checkpoint or crash is exactly the state at its virtual time
        (index state only changes at requests).
        """
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
                # Re-announcements due before this snapshot are part of
                # the state it captures.
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
        """Cold-restart the proxy at virtual time *tc*.

        The proxy cache empties; the in-memory index is destroyed, the
        last checkpoint (if any) restored, and every client with a
        non-empty browser cache is scheduled to re-announce its
        contents at ``config.reannounce_rate`` announcements/second.
        Until the last announcement lands the run is *degraded*.
        """
        result = self.result
        result.proxy_crashes += 1
        if self._recovering:
            # A crash preempted the previous rebuild: land what was
            # announced before the lights went out, then close early.
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
            # Nothing to rebuild from: recovery completes instantly.
            self._window_end = tc
            self._close_window(tc)

    def _apply_reannouncements(self, t: float) -> None:
        """Land every scheduled re-announcement due by time *t*.

        Contents are read at processing time; browser caches only
        change at requests, so this equals the contents at the due
        instant as long as events are processed before the request is
        served (which :meth:`_advance_recovery` guarantees).
        """
        pending = self._pending_reannounce
        pos = self._reannounce_pos
        ttl = self.config.index_entry_ttl
        while pos < len(pending) and pending[pos][0] <= t:
            due, cid = pending[pos]
            cache = self.browsers[cid]
            items = []
            for doc in cache:
                entry = cache.peek(doc)
                items.append((doc, entry.version, entry.size))
            self.index.reannounce(cid, items, due, ttl=ttl)
            pos += 1
        self._reannounce_pos = pos

    def _close_window(self, end: float) -> None:
        self.result.recovery_time += end - self._window_start
        self._recovering = False

    # -- the replay loop ----------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay the whole trace; returns the accumulated result.

        Every configuration runs the one loop in :meth:`_replay`.  With
        a profile attached that same loop runs under the phase sampler
        of :mod:`repro.util.profiling`, which observes without touching
        the result.
        """
        if self.profile is None:
            return self._replay()
        return self.profile.time_replay(
            self._replay, _loop_phase_map(), self._phase_counts
        )

    def _coherence_hooks(self):
        """``(modified, fresh, stamp)`` for ``config.consistency``.

        Browser and proxy copies are served without question while
        fresh-by-policy (even if actually outdated: a *stale
        delivery*); once expired they are revalidated against the
        origin (an If-Modified-Since round trip).  ``fresh`` returns
        False when a validation finds the document changed: the
        request then takes the new body from the origin directly,
        without trying lower cache levels.  Remote-browser hits still
        require an exact version match: the §6 watermark verification
        would reject a stale peer copy.
        """
        expires_at = self.config.consistency.expires_at
        validation_rtt = self.config.wan.connection_setup
        overhead = self.result.overhead
        cstats = self.result.consistency_stats
        #: doc -> (newest version seen, when it was first seen).
        seen: dict[int, tuple[int, float]] = {}

        def modified(d: int, v: int, t: float) -> float:
            """Last-modified time of *d*: when its newest version was
            first requested."""
            rec = seen.get(d)
            if rec is None or v > rec[0]:
                rec = seen[d] = (v, t)
            return rec[1]

        def fresh(entry, v: int, s: int, t: float, last_mod: float) -> bool:
            if t <= entry.expires_at:
                if entry.version != v:
                    cstats.stale_deliveries += 1
                    cstats.stale_bytes += s
                return True
            cstats.validations += 1
            overhead.validation_time += validation_rtt
            if entry.version == v:
                cstats.validated_hits += 1
                entry.expires_at = expires_at(t, last_mod)
                return True
            cstats.validation_misses += 1
            return False

        def stamp(cache, d: int, t: float, last_mod: float) -> None:
            entry = cache.peek(d)
            if entry is not None:
                entry.expires_at = expires_at(t, last_mod)

        return modified, fresh, stamp

    def _replay(self) -> SimulationResult:
        """The one request-path loop (see the module docstring)."""
        features = self.features
        config = self.config
        result = self.result
        browsers = self.browsers
        proxy = self.proxy
        index = self.index

        # Hoisted feature/config reads — loop-invariant.
        tiered = self._tiered
        has_browsers = features.has_browsers
        has_proxy = proxy is not None
        caches_remote = features.caches_remote_fetches
        remote_to_proxy = (
            caches_remote and config.cache_remote_hits_at_proxy and has_proxy
        )

        # Inlined timing models.  The arithmetic below replicates
        # EthernetModel.transfer_time, WANModel.fetch_time, and
        # MemoryDiskModel.{memory,disk}_time operation-for-operation so
        # the accumulated floats are bit-identical to the method calls.
        lan = config.lan
        wan = config.wan
        storage = config.storage
        lan_setup = lan.connection_setup
        lan_bw = lan.bandwidth_bps
        wan_setup = wan.connection_setup
        wan_bw = wan.bandwidth_bps
        mem_block = storage.memory_block_bytes
        mem_bt = storage.memory_block_time
        disk_page = storage.disk_page_bytes
        disk_pt = storage.disk_page_time
        BITS = BITS_PER_BYTE

        # Precomputed per-client handles (plain caches only; the tiered
        # model keeps the uniform _get/_browser_put wrappers): bound
        # `get`s and `put`s and direct entry-table views for the
        # membership probes, plus the index event methods bound once
        # (rebound after a crash).
        self_get = self._get
        plain_browsers = has_browsers and not tiered
        browser_gets = [b.get for b in browsers] if plain_browsers else None
        browser_puts = [b.put for b in browsers] if plain_browsers else None
        browser_entries = [b._entries for b in browsers] if plain_browsers else None
        # LRU probes bypass the Python-level Cache.get frame entirely:
        # the merged-OrderedDict layout makes a probe one C-level
        # dict.get plus (on residency) one C-level move_to_end — the
        # exact semantics of LRUCache.get.
        lru_b = plain_browsers and config.browser_policy == "lru"
        lru_p = has_proxy and not tiered and config.proxy_policy == "lru"
        proxy_entries = proxy._entries if lru_p else None
        # Where no eviction hook can fire, LRUCache.put itself is
        # inlined in the fill tail: browser caches only get an
        # ``on_evict`` when an index exists (evictions must then be
        # reported), and the proxy cache never gets one.
        inline_bput = lru_b and index is None
        index_ttl = config.index_entry_ttl
        record_insert = index.record_insert if index is not None else None
        record_evict = index.record_evict if index is not None else None
        # Inlined _remote_delivery: the lookup (and its far more common
        # miss outcome) runs in the loop; only an index hit pays the
        # _failover_deliver call.
        index_lookup = self._guarded_lookup_fn(index) if index is not None else None
        index_stale = index.is_stale if index is not None else False
        failover = self._failover_deliver
        truth_holds = self._truth_holds
        proxy_get = proxy.get if has_proxy and not tiered else None
        proxy_put = proxy.put if has_proxy else None
        browser_put = self._browser_put
        security = self._security
        sec_transfer = security.transfer_cost if security is not None else None
        recovery = (
            self._advance_recovery
            if self._fault_schedule is not None or self._checkpointer is not None
            else None
        )
        monitor = self._monitor
        # Expiration-based coherence, bound once: without a policy a
        # resident copy is served iff its version is current.
        if config.consistency is not None:
            modified, fresh, stamp = self._coherence_hooks()
        else:
            modified = fresh = stamp = None
        coherent = fresh is not None
        last_mod = 0.0
        #: a failed revalidation sends the request straight to the origin.
        go_origin = False
        #: the serving copy's storage tier: stays None unless tiered.
        memory = None

        # Batched counters: accumulated locally, flushed into the result
        # once after the loop.  Each target field is written *only* by
        # this loop and starts at zero, so a single flush of locals
        # accumulated in request order is bit-identical to per-request
        # `+=` on the field itself.
        n_requests = 0
        total_bytes = 0
        lb_hits = lb_bytes = lb_mem_hits = lb_mem_bytes = lb_disk_hits = lb_disk_bytes = 0
        px_hits = px_bytes = px_mem_hits = px_mem_bytes = px_disk_hits = px_disk_bytes = 0
        rb_hits = rb_bytes = rb_mem_hits = rb_mem_bytes = rb_disk_hits = rb_disk_bytes = 0
        og_misses = og_bytes = 0
        local_hit_time = 0.0
        proxy_hit_time = 0.0
        origin_miss_time = 0.0
        remote_storage_time = 0.0
        security_time = 0.0
        peak_entries = result.index_peak_entries
        peak_footprint = result.index_peak_footprint_bytes

        # The step comments below are the profiler's phase markers
        # (_PHASE_MARKERS): keep their wording in sync.
        for t, c, d, s, v in self.trace.iter_rows():
            # 0. proxy crash recovery
            if recovery is not None and recovery(t):
                # a crash replaced the index (the proxy empties in place)
                index = self.index
                record_insert = index.record_insert if index is not None else None
                record_evict = index.record_evict if index is not None else None
                index_lookup = self._guarded_lookup_fn(index) if index is not None else None
                index_stale = index.is_stale if index is not None else False
            # -- per-request hooks: invariant monitor, coherence clock
            if monitor is not None:
                # Conservation is checked from the loop's batched local
                # tallies (the result's per-location counters flush
                # only at the end); ledger/gate laws read live state.
                monitor.tick_fast(
                    result, n_requests, lb_hits + px_hits + rb_hits, og_misses
                )
            if coherent:
                last_mod = modified(d, v, t)
                go_origin = False

            # 1. local browser cache
            if has_browsers:
                if lru_b:
                    bce = browser_entries[c]
                    entry = bce.get(d)
                    if entry is not None:
                        bce.move_to_end(d)
                elif tiered:
                    entry, memory = self_get(browsers[c], d)
                else:
                    entry = browser_gets[c](d)
                if entry is not None:
                    if (
                        entry.version == v
                        if fresh is None
                        else fresh(entry, v, s, t, last_mod)
                    ):
                        n_requests += 1
                        total_bytes += s
                        lb_hits += 1
                        lb_bytes += s
                        if memory is None:
                            local_hit_time += -(-s // disk_page) * disk_pt
                        elif memory:
                            lb_mem_hits += 1
                            lb_mem_bytes += s
                            local_hit_time += -(-s // mem_block) * mem_bt
                        else:
                            lb_disk_hits += 1
                            lb_disk_bytes += s
                            local_hit_time += -(-s // disk_page) * disk_pt
                        continue
                    go_origin = coherent

            # 2. proxy cache
            via = None
            if has_proxy and not go_origin:
                if lru_p:
                    entry = proxy_entries.get(d)
                    if entry is not None:
                        proxy_entries.move_to_end(d)
                elif tiered:
                    entry, memory = self_get(proxy, d)
                else:
                    entry = proxy_get(d)
                if entry is not None:
                    if (
                        entry.version == v
                        if fresh is None
                        else fresh(entry, v, s, t, last_mod)
                    ):
                        n_requests += 1
                        total_bytes += s
                        px_hits += 1
                        px_bytes += s
                        if memory is None:
                            stime = -(-s // disk_page) * disk_pt
                        elif memory:
                            px_mem_hits += 1
                            px_mem_bytes += s
                            stime = -(-s // mem_block) * mem_bt
                        else:
                            px_disk_hits += 1
                            px_disk_bytes += s
                            stime = -(-s // disk_page) * disk_pt
                        proxy_hit_time += stime + (lan_setup + s * BITS / lan_bw)
                        if not has_browsers:
                            continue
                        # a stale delivery populates the browser with
                        # the version it was served
                        via = "proxy_probe"
                        ver = entry.version
                        to_proxy = False
                        to_browser = True
                    else:
                        go_origin = coherent

            # 3. browser index -> remote browser cache (exact version
            # match only, with failover); inlined _remote_delivery
            if index is not None and via is None and not go_origin:
                hit = index_lookup(d, c, t, v)
                if hit is None:
                    if recovery is not None and self._recovering:
                        # a miss on the partial index a browser could
                        # have served: a hit lost to recovery
                        if truth_holds(d, v, c):
                            result.hits_lost_to_recovery += 1
                    elif index_stale and truth_holds(d, v, c):
                        index.record_false_miss()
                    remote_served = False
                else:
                    remote_served, memory = failover(hit, c, d, s, v, t)
                if remote_served:
                    n_requests += 1
                    total_bytes += s
                    rb_hits += 1
                    rb_bytes += s
                    if memory is None:
                        remote_storage_time += -(-s // disk_page) * disk_pt
                    elif memory:
                        rb_mem_hits += 1
                        rb_mem_bytes += s
                        remote_storage_time += -(-s // mem_block) * mem_bt
                    else:
                        rb_disk_hits += 1
                        rb_disk_bytes += s
                        remote_storage_time += -(-s // disk_page) * disk_pt
                    if sec_transfer is not None:
                        security_time += sec_transfer(s)
                    via = "remote_delivery"
                    ver = v
                    to_proxy = remote_to_proxy
                    to_browser = caches_remote

            # 4. origin server
            if via is None:
                n_requests += 1
                total_bytes += s
                og_misses += 1
                og_bytes += s
                origin_miss_time += (wan_setup + s * BITS / wan_bw) + (
                    lan_setup + s * BITS / lan_bw
                )
                via = "origin_fetch"
                ver = v
                to_proxy = has_proxy
                to_browser = has_browsers

            # -- fill tail: populate the caches the serving step names
            if to_proxy:
                if lru_p:
                    # inlined LRUCache.put (proxy caches have no evict hook)
                    old = proxy_entries.get(d)
                    if old is not None:
                        pused = proxy.used + s - old.size
                        old.size = s
                        old.version = ver
                        proxy_entries.move_to_end(d)
                    elif s <= proxy.capacity:
                        proxy_entries[d] = CacheEntry(d, s, ver)
                        pused = proxy.used + s
                    else:
                        pused = -1  # refused: no change
                    if pused >= 0:
                        cap = proxy.capacity
                        if pused <= cap:
                            proxy.used = pused
                        else:
                            while pused > cap:
                                victim = None
                                for k in proxy_entries:
                                    if k != d:
                                        victim = k
                                        break
                                if victim is None:
                                    pused -= proxy_entries.pop(d).size
                                    break
                                pused -= proxy_entries.pop(victim).size
                            proxy.used = pused
                else:
                    proxy_put(d, s, ver)
                if stamp is not None:
                    stamp(proxy, d, t, last_mod)
            if to_browser:
                if inline_bput:
                    # inlined LRUCache.put (no evict hook)
                    bcache = browsers[c]
                    bce = browser_entries[c]
                    old = bce.get(d)
                    if old is not None:
                        bused = bcache.used + s - old.size
                        old.size = s
                        old.version = ver
                        bce.move_to_end(d)
                    elif s <= bcache.capacity:
                        bce[d] = CacheEntry(d, s, ver)
                        bused = bcache.used + s
                    else:
                        bused = -1  # refused: no change
                    if bused >= 0:
                        cap = bcache.capacity
                        if bused <= cap:
                            bcache.used = bused
                        else:
                            while bused > cap:
                                victim = None
                                for k in bce:
                                    if k != d:
                                        victim = k
                                        break
                                if victim is None:
                                    bused -= bce.pop(d).size
                                    break
                                bused -= bce.pop(victim).size
                            bcache.used = bused
                elif browser_puts is None:
                    browser_put(c, d, s, ver, t)
                elif record_insert is None:
                    browser_puts[c](d, s, ver)
                else:
                    # inlined _browser_put
                    bce = browser_entries[c]
                    already = d in bce
                    self._now = t
                    browser_puts[c](d, s, ver)
                    if d in bce:
                        record_insert(c, d, ver, s, t, index_ttl, already)
                    elif already:
                        record_evict(c, d, t)
                if stamp is not None:
                    stamp(browsers[c], d, t, last_mod)
            if index is not None and via != "proxy_probe":
                n = index.n_entries
                if n > peak_entries:
                    peak_entries = n
                    peak_footprint = index.footprint_bytes()

        # -- flush the batched counters --------------------------------
        overhead = result.overhead
        result.n_requests += n_requests
        result.total_bytes += total_bytes
        by_location = result.by_location
        for location, hits, hit_bytes, mem_hits, mem_bytes, disk_hits, disk_bytes in (
            (HitLocation.LOCAL_BROWSER, lb_hits, lb_bytes, lb_mem_hits, lb_mem_bytes,
             lb_disk_hits, lb_disk_bytes),
            (HitLocation.PROXY, px_hits, px_bytes, px_mem_hits, px_mem_bytes,
             px_disk_hits, px_disk_bytes),
            (HitLocation.REMOTE_BROWSER, rb_hits, rb_bytes, rb_mem_hits, rb_mem_bytes,
             rb_disk_hits, rb_disk_bytes),
        ):
            stats = by_location[location]
            stats.hits += hits
            stats.hit_bytes += hit_bytes
            stats.memory_hits += mem_hits
            stats.memory_hit_bytes += mem_bytes
            stats.disk_hits += disk_hits
            stats.disk_hit_bytes += disk_bytes
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

        return self._finalise()

    def _phase_counts(self, result: SimulationResult) -> dict[str, int]:
        """Requests reaching each step of the loop, read off the
        finalised result (see :data:`repro.util.profiling.PHASES`)."""
        n = result.n_requests
        recovers = self._fault_schedule is not None or self._checkpointer is not None
        return {
            "recovery": n if recovers else 0,
            "browser_probe": n if self.features.has_browsers else 0,
            "proxy_probe": (
                n - result.by_location[HitLocation.LOCAL_BROWSER].hits
                if self.features.has_proxy
                else 0
            ),
            "index_lookup": result.index_lookups,
            "remote_delivery": result.index_lookups,
            "origin_fetch": result.by_location[HitLocation.ORIGIN].misses,
        }

    def _truth_holds(self, doc: int, version: int, exclude: int) -> bool:
        """Does any other browser actually hold (doc, version)?"""
        for cid, cache in enumerate(self.browsers):
            if cid == exclude:
                continue
            held = cache.peek(doc)
            if held is not None and held.version == version:
                return True
        return False

    def _finalise(self) -> SimulationResult:
        result = self.result
        result.overhead.absorb_bus(self.bus.stats)
        if self._recovering:
            # The trace ended mid-rebuild: the degraded window ran to
            # the last request, not to the never-reached window end.
            self._close_window(self._last_t)
        if self.index is not None:
            stats = self.index.stats
            lookups = self.index.n_lookups
            messages = self.index.update_messages
            if self._fault_schedule is not None:
                # Fold in the generations destroyed by crashes.
                stats = self._prior_stats.merged(stats)
                lookups += self._prior_lookups
                messages += self._prior_update_messages
            result.index_stats = stats
            result.index_lookups = lookups
            result.overhead.index_update_messages = messages
        if self._checkpointer is not None:
            result.checkpoint_bytes_written = self._checkpointer.bytes_written
        # The conservation and ledger laws hold on every run; only the
        # per-request ticks are opt-in.
        (self._monitor or InvariantMonitor(self.config, 1)).check_final(result)
        return result


#: The replay loop's phase markers for the profiler, in source order:
#: each line of :meth:`Simulator._replay` from a marker down to the
#: next is charged to the marker's phase (``None``: to no phase).  The
#: index lookup is its own one-line phase inside step 3; the fill tail
#: is charged to the step that served the request, named by the loop's
#: ``via`` local.
_PHASE_MARKERS = (
    ("# 0. proxy crash recovery", "recovery"),
    ("# -- per-request hooks", None),
    ("# 1. local browser cache", "browser_probe"),
    ("# 2. proxy cache", "proxy_probe"),
    ("# 3. browser index", "remote_delivery"),
    ("hit = index_lookup(", "index_lookup"),
    ("if hit is None:", "remote_delivery"),
    ("# 4. origin server", "origin_fetch"),
    ("# -- fill tail", TAIL),
    ("# -- flush the batched counters", None),
)


@functools.cache
def _loop_phase_map() -> PhaseMap:
    return PhaseMap(Simulator._replay, _PHASE_MARKERS, tail_local="via")


def simulate(
    trace: Trace,
    organization: Organization,
    config: SimulationConfig,
    profile: ReplayProfile | None = None,
) -> SimulationResult:
    """Convenience one-shot: build a :class:`Simulator` and run it.

    ``profile`` (a :class:`~repro.util.profiling.ReplayProfile`) runs
    the same loop under the phase sampler; results are bit-identical
    either way.

    With ``config.federation`` set the replay dispatches to the
    cooperative multi-proxy engine (:mod:`repro.federation.engine`)
    instead — same entry point, so sweeps, the journal, and the
    process-pool workers need no federation-specific wiring.  The
    federated loop is not sampled: ``profile`` accumulates only its
    wall clock and request count.
    """
    if config.federation is not None:
        # Imported lazily: repro.federation imports this module.
        from repro.federation.engine import FederatedSimulator

        engine = FederatedSimulator(trace, organization, config)
        return engine.run() if profile is None else profile.time_replay(engine.run)
    return Simulator(trace, organization, config, profile=profile).run()
