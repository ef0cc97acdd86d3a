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
4. with federation, the **peer proxies** whose digest claims the
   document (:mod:`repro.federation.engine`);
5. otherwise the **origin server** over the WAN; the response populates
   the proxy and/or the browser per organization.

Every leg is priced by the §4.2/§5 timing models into the result's
:class:`~repro.core.overhead.OverheadReport`.

Every configuration of all three engines replays through **one loop**
(:meth:`Simulator._replay`).  Optional behaviour — expiration-based
coherence, proxy crash recovery, the quarantine guard, the invariant
monitor — is bound into hooks once per run, before the loop starts,
and steps 2–5 fall through to one shared *fill tail* that populates
the caches the serving step names.  Every cache is a *store* with a
bound ``probe`` and ``fill`` (:mod:`repro.cache.stores`; the proxy is
a store of one client), so the fill tail is one ``proxy_fill`` and one
``browser_fill`` call.  Each fill takes the handle its store's probe
returned; the browser fill reports each victim, then the insert, to
the index handles.  Only the plain LRU probe stays inline (two C
calls on the entry table).  Per-engine handles (stores, index,
delivery methods) come from :meth:`Simulator._bind`.  Client state
has two backends behind the same loop: one cache object per client
(the default), or every LRU browser cache in one flat
:class:`~repro.cache.FlatBrowsers` slot pool
(:class:`~repro.core.stream_engine.StreamSimulator`, for
million-client cells and streamed sources).  The flat pool is a store
too, whose probe hands the fill a slot; it takes its own arm in the
browser probe's version check, the holder lookup and the
whole-population walks.  It has no tiered or per-entry-expiry state,
so ``StreamSimulator`` rejects those knobs (and federation) by name.
The third engine, :class:`~repro.federation.engine.FederatedSimulator`,
has no loop of its own: it is a router in front of this one, holding
one bound handle tuple per proxy.  Step 0 routes each request to its home proxy
(advancing the fabric, that proxy's crash clock and the digest
exchange), and step 4 asks the peer proxies, whose probes reuse
:meth:`_remote_delivery`.  *Truth queries* — could a browser the
index missed have served the request (false misses, hits lost to
recovery, a federation's missed hits)? — read a holder map of the
true browser contents (:meth:`_truth_holds`), never the caches.  The
engine keeps the map current through the handles that already carry
every browser insert and evict to the index, so the loop has no
branch for it, and only where a truth query can be asked: a stale
index, crash recovery, or a federation of several proxies (the flat
backend walks its pool's per-document holder chains instead).  The loop
is the throughput bottleneck of every sweep, so it is written as an
*optimized fast path*: per-request counters accumulate in local
variables and flush into the result once at finalise, the timing
arithmetic of the §4.2/§5 models is inlined (same operations in the
same order, so the floats are bit-identical), per-client cache handles
are precomputed, and config/feature reads are hoisted out of the loop.
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

The loop runs with the cyclic garbage collector paused
(:func:`_gc_paused`, which restores the caller's collector state
afterwards).  It allocates long-lived, acyclic state — cache and
index entries, per-document dicts — so the collections those
allocations would trigger re-walk ever more objects and free none:
several percent of a streamed BAPS replay at 10k clients, about a
quarter at 100k.  Reference counting still frees whatever the loop
drops; the pause is safe only while a replay creates no reference
cycles, which ``tests/test_gc_pause.py`` checks on the stream,
object, federated and crash-recovery paths.
"""

from __future__ import annotations

import functools
import gc
import random

from repro.adversarial import PeerPopulation
from repro.cache import FlatBrowsers, TieredLRUCache, make_cache
from repro.cache.flat import DOC_MASK
from repro.cache.stores import NO_STORE, bind_store
from repro.core.chaos import InvariantMonitor
from repro.core.churn import ChurnProcess
from repro.core.config import SimulationConfig
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.proxy_faults import ProxyFaultSchedule
from repro.index.browser_index import BrowserIndex, UpdateMode
from repro.index.chain import ChainIndex
from repro.index.checkpoint import IndexCheckpointer
from repro.index.engine_bloom import BloomBrowserIndex
from repro.index.entry import IndexEntry
from repro.index.staleness import StalenessStats
from repro.network.ethernet import SharedBus
from repro.security.protocols import SecurityOverheadModel
from repro.traces.record import Trace
from repro.util.profiling import TAIL, PhaseMap, ReplayProfile
from repro.util.rng import derive_seed
from repro.util.units import BITS_PER_BYTE

__all__ = ["Simulator", "simulate", "bloom_expected_docs", "dense_client_count"]


def _gc_paused(fn, *args):
    """``fn(*args)`` with the cyclic garbage collector paused, then
    the caller's collector state (enabled or not) restored, also when
    *fn* raises.  Wraps the replay loop (see the module docstring)."""
    if not gc.isenabled():
        return fn(*args)
    gc.disable()
    try:
        return fn(*args)
    finally:
        gc.enable()


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


def bloom_expected_docs(trace: Trace, browser_capacity: int) -> int:
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
    return max(8, browser_capacity // avg_doc)


class Simulator:
    """One organization, one configuration, one trace replay.

    ``profile`` opts into observation: :meth:`run` samples the replay
    loop and accumulates per-phase wall time and exact event counts
    into the given :class:`~repro.util.profiling.ReplayProfile`.  It is
    a constructor argument rather than a config knob so journal
    identity digests (``config_digest``) are unaffected.
    """

    #: Client-state backend: one cache object per client (False), or
    #: every LRU browser cache in one :class:`~repro.cache.FlatBrowsers`
    #: slot pool (True; see :class:`~repro.core.stream_engine.StreamSimulator`).
    flat_clients = False

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
        self.browsers = []
        self.flat = None
        if self.features.has_browsers:
            if self.flat_clients:
                self.flat = FlatBrowsers(n_clients, config.browser_capacity)
            else:
                self.browsers = [
                    self._new_cache(config.browser_policy, config.browser_capacity, browser_mem)
                    for _ in range(n_clients)
                ]

        self.proxy = (
            self._new_cache(config.proxy_policy, config.proxy_capacity, config.memory_fraction)
            if self.features.has_proxy
            else None
        )
        # The object caches' bound probe/fill pairs (repro.cache.stores);
        # the flat pool's are its own.
        self._browser_store = bind_store(self.browsers) if self.browsers else NO_STORE
        self._proxy_store = bind_store([self.proxy]) if self.proxy is not None else NO_STORE

        # Proxy crash recovery (before the index, which it shapes).
        # Nothing below constructs an RNG unless a rate-based fault model
        # is configured; the default (always-up proxy) leaves the loop untouched.
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

        self.index = self._new_index(n_clients) if self.features.has_index else None

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
        self._integrity_strikes: dict[int, int] = {}
        self._lookup_skipped_banned = False
        self._request_poisoned = False

        #: doc -> {client: version}: the true browser contents, kept
        #: only where a truth query can be asked (:meth:`_truth_holds`).
        self._holders: dict[int, dict[int, int]] | None = None
        if self.index is not None:
            self._bind_index_events()
            if self.index.is_stale or self._fault_schedule is not None:
                self._track_holders()
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

    def _new_cache(self, policy: str, capacity: int, memory_fraction: float | None):
        if self._tiered:
            return TieredLRUCache(capacity, memory_fraction)
        return make_cache(policy, capacity)

    def _new_index(self, n_clients: int):
        config = self.config
        if config.index_kind == "bloom":
            return BloomBrowserIndex(
                n_clients,
                expected_docs_per_client=bloom_expected_docs(
                    self.trace, config.browser_capacity
                ),
            )
        if config.index_update_policy is None:
            if self.flat is not None and (
                self._fault_schedule is None and self._checkpointer is None
            ):
                # a pool view: crash snapshots need per-entry state
                return ChainIndex(self.flat)
            return BrowserIndex(n_clients, UpdateMode.INVALIDATION)
        return BrowserIndex(
            n_clients, UpdateMode.PERIODIC, policy=config.index_update_policy
        )

    # -- browser events: the index, and the holder map when kept -----------

    def _bind_index_events(self) -> None:
        """Point ``_record_insert``/``_record_evict`` — the handles every
        browser insert and evict goes through (:meth:`_bind` hands them
        to the loop's one browser ``fill`` call, which reports each
        victim, then the insert) — at the index, or through the holder
        map when one is kept (``None`` for a
        :class:`~repro.index.chain.ChainIndex`)."""
        if self._holders is None:
            self._record_insert = self.index.record_insert
            self._record_evict = self.index.record_evict
        else:
            self._record_insert = self._holder_insert
            self._record_evict = self._holder_evict

    def _track_holders(self) -> None:
        """Keep the holder map (the flat pool's chains) from here on: by
        the constructor (stale index or crash recovery) and a federation
        of several proxies (peer missed-hit checks).  Without an index
        no truth query is ever asked."""
        if self.index is not None and self.flat is not None:
            self.flat.keep_chains()
        elif self.index is not None and self._holders is None:
            self._holders = {}
            self._bind_index_events()

    def _holder_insert(
        self,
        client: int,
        doc: int,
        version: int,
        size: int,
        now: float,
        replace: bool = False,
    ) -> None:
        """``index.record_insert``, recording the copy in the holder map."""
        held = self._holders.get(doc)
        if held is None:
            self._holders[doc] = {client: version}
        else:
            held[client] = version
        self.index.record_insert(client, doc, version, size, now, replace)

    def _holder_evict(self, client: int, doc: int, now: float) -> None:
        """``index.record_evict``, dropping the copy from the holder map
        (a no-op when already dropped: a refreshed document too large
        for its cache is reported evicted twice)."""
        held = self._holders.get(doc)
        if held is not None and held.pop(client, None) is not None and not held:
            del self._holders[doc]
        self.index.record_evict(client, doc, now)

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

    def _record_integrity_failure(self, holder: int) -> None:
        """One more strike against *holder*; quarantine at the threshold."""
        strikes = self._integrity_strikes.get(holder, 0) + 1
        if strikes >= self.config.quarantine_threshold:
            if holder not in self._banned_set:
                self._banned_set.add(holder)
                self.result.quarantined_peers += 1
            self._integrity_strikes[holder] = 0
        else:
            self._integrity_strikes[holder] = strikes

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
        banned = self._banned_set

        def guarded(d, c, t, v):
            self._lookup_skipped_banned = False
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
        flat = self.flat
        if flat is not None:
            slot = flat.probe(holder, d)
            held = flat.e_ver[slot] if slot >= 0 else None
            memory = None
        else:
            entry, memory = self._browser_store.probe(holder, d)
            held = entry.version if entry is not None else None
        if held != v:
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
                self._record_integrity_failure(holder)
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
        """The resilient remote-hit path, as a peer proxy serves it to
        a federation's probe (the replay loop inlines it for the home
        proxy).

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
        self._bind_index_events()
        if self._checkpointer is not None:
            snapshot = self._checkpointer.latest()
            if snapshot is not None:
                self.index.restore_snapshot(snapshot.payload)
                result.overhead.checkpoint_time += self._checkpointer.restore_time()
            self._checkpointer.reset_after_crash(tc)
        rate = self.config.reannounce_rate
        if self.flat is not None:
            announcers = [cid for cid, h in enumerate(self.flat.head) if h >= 0]
        else:
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
        flat = self.flat
        while pos < len(pending) and pending[pos][0] <= t:
            due, cid = pending[pos]
            # (doc, version, size) from LRU to MRU on both backends
            items = []
            if flat is not None:
                slot = flat.head[cid]
                while slot >= 0:
                    items.append((flat.e_key[slot] & DOC_MASK, flat.e_ver[slot], flat.e_size[slot]))
                    slot = flat.e_next[slot]
            else:
                cache = self.browsers[cid]
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
        """Replay the whole trace; returns the accumulated result.

        Every configuration runs the one loop in :meth:`_replay`.  With
        a profile attached that same loop runs under the phase sampler
        of :mod:`repro.util.profiling`, which observes without touching
        the result.
        """
        if self.profile is None:
            return _gc_paused(self._replay)
        return _gc_paused(
            self.profile.time_replay,
            self._replay,
            _loop_phase_map(),
            self._phase_counts,
        )

    def _bind(self) -> tuple:
        """The per-engine handles :meth:`_replay` holds in locals.

        Each store — the browsers (the flat pool's own closures, or the
        object caches' from :func:`~repro.cache.stores.bind_store`) and
        the proxy, a store of one client — comes as its bound ``probe``
        and ``fill`` and the entry tables a plain LRU store is probed
        through inline (the proxy's one table); the index gets its event
        methods and guarded lookup bound once.  Rebound after a crash
        replaces the index, and bound once per proxy of a federation,
        whose loop unpacks the routed proxy's tuple.
        """
        flat = self.flat
        index = self.index
        proxy_probe, proxy_fill, proxy_tables = self._proxy_store
        return (
            self,
            self.browsers,
            *((flat.probe, flat.fill, None) if flat is not None else self._browser_store),
            self.proxy,
            proxy_probe,
            proxy_fill,
            proxy_tables[0] if proxy_tables is not None else None,
            index,
            self._record_insert if index is not None else None,
            self._record_evict if index is not None else None,
            self._guarded_lookup_fn(index) if index is not None else None,
            index.is_stale if index is not None else False,
            self._failover_deliver,
            self._truth_holds,
            (
                self._advance_recovery
                if self._fault_schedule is not None or self._checkpointer is not None
                else None
            ),
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

    def _replay(self, fed=None) -> SimulationResult:
        """The one request-path loop (see the module docstring).

        *fed* is a :class:`~repro.federation.engine.FederatedSimulator`
        whose per-proxy engines (this one among them) share this loop:
        step 0 routes each request to its home proxy's bound handles,
        and step 4 escalates to the peer proxies.
        """
        features = self.features
        config = self.config
        result = self.result
        # Per-engine handles (see _bind): unpacked here, again after a
        # crash, and per request from the routed proxy under *fed*.
        (sim, browsers, browser_probe, browser_fill, browser_entries,
         proxy, proxy_probe, proxy_fill, proxy_entries,
         index, record_insert, record_evict, index_lookup, index_stale,
         failover, truth_holds, recovery) = self._bind()
        if fed is not None:
            route = fed._route
            fed_bound = fed._bound
            fed_sims = fed.sims
            peer_fetch = fed._interproxy_fetch if len(fed_sims) > 1 else None
            peer_fills = fed.fed.cache_interproxy_fetches
            monitor = fed.monitor
            # the federation's index entries: each proxy's count when
            # last re-read (after each of its requests and, at the peak
            # check, the peers a probe touched: fed.probed), and their sum
            pid = 0
            fed_counts = [x.index.n_entries for x in fed_sims] if index is not None else []
            fed_total = sum(fed_counts)
            fed_probed = fed.probed
        else:
            peer_fetch = None
            monitor = self._monitor

        # Hoisted feature/config reads — loop-invariant.
        has_browsers = features.has_browsers
        has_proxy = proxy is not None
        caches_remote = features.caches_remote_fetches

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

        flat = self.flat
        flat_ver = flat.e_ver if flat is not None else None
        security = self._security
        sec_transfer = security.transfer_cost if security is not None else None
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
        sp_hits = sp_bytes = sp_mem_hits = sp_mem_bytes = sp_disk_hits = sp_disk_bytes = 0
        og_misses = og_bytes = 0
        local_hit_time = 0.0
        proxy_hit_time = 0.0
        origin_miss_time = 0.0
        remote_storage_time = 0.0
        security_time = 0.0
        peak_entries = result.index_peak_entries
        peak_footprint = result.index_peak_footprint_bytes
        # a chain index counts the pool's slots (no crash replaces one)
        pool_entries = flat.slot_of.__len__ if isinstance(index, ChainIndex) else None

        # The step comments below are the profiler's phase markers
        # (_PHASE_MARKERS): keep their wording in sync.
        for t, c, d, s, v in self.trace.iter_rows():
            # 0. routing and proxy crash recovery
            if fed is not None:
                if index is not None:  # the previous request's home
                    fed_total += index.n_entries - fed_counts[pid]
                    fed_counts[pid] = index.n_entries
                # the home proxy's pre-request work, then its handles
                pid = route(t, c)
                (sim, browsers, browser_probe, browser_fill, browser_entries,
                 proxy, proxy_probe, proxy_fill, proxy_entries,
                 index, record_insert, record_evict, index_lookup, index_stale,
                 failover, truth_holds, recovery) = fed_bound[pid]
            elif recovery is not None and recovery(t):
                # a crash replaced the index (the proxy empties in place)
                (sim, browsers, browser_probe, browser_fill, browser_entries,
                 proxy, proxy_probe, proxy_fill, proxy_entries,
                 index, record_insert, record_evict, index_lookup, index_stale,
                 failover, truth_holds, recovery) = self._bind()
            # -- per-request hooks: invariant monitor, coherence clock
            if monitor is not None:
                # Conservation is checked from the loop's batched local
                # tallies (the result's per-location counters flush
                # only at the end); ledger/gate laws read live state.
                monitor.tick_fast(
                    result, n_requests, lb_hits + px_hits + rb_hits + sp_hits, og_misses
                )
            if coherent:
                last_mod = modified(d, v, t)
                go_origin = False

            # 1. local browser cache
            if has_browsers:
                # *held*, the probe's handle, goes to the browser fill
                if flat is not None:
                    held = browser_probe(c, d)  # the slot, or -1
                    current = held >= 0 and flat_ver[held] == v
                else:
                    if browser_entries is not None:
                        # plain LRU: LRUCache.get on the entry table,
                        # inline (two C calls, no frame)
                        bce = browser_entries[c]
                        held = bce.get(d)
                        if held is not None:
                            bce.move_to_end(d)
                    else:
                        held, memory = browser_probe(c, d)
                    current = held is not None and (
                        held.version == v
                        if fresh is None
                        else fresh(held, v, s, t, last_mod)
                    )
                if current:
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
                go_origin = coherent and held is not None

            # 2. proxy cache
            via = None
            if has_proxy and not go_origin:
                if proxy_entries is not None:
                    entry = proxy_entries.get(d)
                    if entry is not None:
                        proxy_entries.move_to_end(d)
                else:
                    entry, memory = proxy_probe(0, d)
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
                    if recovery is not None and sim._recovering:
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
                    to_proxy = False
                    to_browser = caches_remote

            # 4. peer proxies whose digest claims the document (federation)
            if peer_fetch is not None and via is None and not go_origin:
                peer_served, memory = peer_fetch(sim, pid, c, d, s, v, t)
                if peer_served:
                    n_requests += 1
                    total_bytes += s
                    sp_hits += 1
                    sp_bytes += s
                    if memory is None:
                        remote_storage_time += -(-s // disk_page) * disk_pt
                    elif memory:
                        sp_mem_hits += 1
                        sp_mem_bytes += s
                        remote_storage_time += -(-s // mem_block) * mem_bt
                    else:
                        sp_disk_hits += 1
                        sp_disk_bytes += s
                        remote_storage_time += -(-s // disk_page) * disk_pt
                    if sec_transfer is not None:
                        security_time += sec_transfer(s)
                    if not peer_fills:
                        continue
                    via = "peer_fetch"
                    ver = v
                    to_proxy = has_proxy
                    to_browser = has_browsers

            # 5. origin server
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
                # step 2's entry; a coherence skip of step 2 peeks
                proxy_fill(0, d, s, ver, t, None, None, proxy.peek(d) if go_origin else entry)
                if stamp is not None:
                    stamp(proxy, d, t, last_mod)
            if to_browser:
                browser_fill(c, d, s, ver, t, record_insert, record_evict, held)
                if stamp is not None:
                    stamp(browsers[c], d, t, last_mod)
            if index is not None and via != "proxy_probe":
                if pool_entries is not None:
                    n = pool_entries()
                elif fed is None:
                    n = index.n_entries
                else:
                    fed_probed.append(pid)
                    for q in fed_probed:
                        n = fed_sims[q].index.n_entries
                        fed_total += n - fed_counts[q]
                        fed_counts[q] = n
                    fed_probed.clear()
                    n = fed_total
                if n > peak_entries:
                    peak_entries = n
                    if pool_entries is None:
                        peak_footprint = (
                            index.footprint_bytes()
                            if fed is None
                            else sum([x.index.footprint_bytes() for x in fed_sims])
                        )

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
            (HitLocation.SIBLING_PROXY, sp_hits, sp_bytes, sp_mem_hits, sp_mem_bytes,
             sp_disk_hits, sp_disk_bytes),
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
        if pool_entries is not None:
            # ChainIndex.footprint_bytes() at the peak
            peak_footprint = peak_entries * IndexEntry.WIRE_BYTES
        result.index_peak_entries = peak_entries
        result.index_peak_footprint_bytes = peak_footprint

        return self._finalise(fed)

    def _phase_counts(self, result: SimulationResult, fed=None) -> dict[str, int]:
        """Requests reaching each step of the loop, read off the
        finalised result (see :data:`repro.util.profiling.PHASES`).
        A federation (*fed*) routes every request in step 0, and its
        peer step sees the requests steps 1-3 left unserved."""
        n = result.n_requests
        by_location = result.by_location
        recovers = self._fault_schedule is not None or self._checkpointer is not None
        peers = fed is not None and len(fed.sims) > 1
        return {
            "recovery": n if recovers or fed is not None else 0,
            "browser_probe": n if self.features.has_browsers else 0,
            "proxy_probe": (
                n - by_location[HitLocation.LOCAL_BROWSER].hits
                if self.features.has_proxy
                else 0
            ),
            "index_lookup": result.index_lookups,
            "remote_delivery": result.index_lookups,
            "peer_fetch": (
                by_location[HitLocation.SIBLING_PROXY].hits
                + by_location[HitLocation.ORIGIN].misses
                if peers
                else 0
            ),
            "origin_fetch": by_location[HitLocation.ORIGIN].misses,
        }

    def _truth_holds(self, doc: int, version: int, exclude: int) -> bool:
        """Does any other browser actually hold (doc, version)?

        Answered from the holder map (on the flat backend, the pool's
        holder chain) in O(holders of *doc*), not by scanning caches;
        the map describes the browsers, not the index, so it survives
        proxy crashes.  A federated per-proxy engine's map only ever
        holds its member clients, the only browsers that proxy writes."""
        if self.flat is not None:
            return bool(self.flat.holders(doc, exclude, version))
        held = self._holders.get(doc)
        if held:
            for cid, ver in held.items():
                if ver == version and cid != exclude:
                    return True
        return False

    def _finalise(self, fed=None) -> SimulationResult:
        """Fold each engine's tail into the result — this one, or every
        per-proxy engine of a federation (*fed*) in proxy order — then
        check the conservation and ledger laws."""
        result = self.result
        stats = None
        lookups = messages = checkpoint_bytes = 0
        for sim in (self,) if fed is None else fed.sims:
            result.overhead.absorb_bus(sim.bus.stats)
            if sim._recovering:
                # The trace ended mid-rebuild: the degraded window ran to
                # the last request, not to the never-reached window end.
                sim._close_window(sim._last_t)
            index = sim.index
            if index is not None:
                sim_stats = index.stats
                lookups += index.n_lookups
                messages += index.update_messages
                if sim._fault_schedule is not None:
                    # Fold in the generations destroyed by crashes.
                    sim_stats = sim._prior_stats.merged(sim_stats)
                    lookups += sim._prior_lookups
                    messages += sim._prior_update_messages
                stats = sim_stats if stats is None else stats.merged(sim_stats)
            if sim._checkpointer is not None:
                checkpoint_bytes += sim._checkpointer.bytes_written
        if stats is not None:
            result.index_stats = stats
            result.index_lookups = lookups
            result.overhead.index_update_messages = messages
        if self._checkpointer is not None:
            result.checkpoint_bytes_written = checkpoint_bytes
        # The conservation and ledger laws hold on every run; only the
        # per-request ticks are opt-in.
        monitor, config = (
            (self._monitor, self.config) if fed is None else (fed.monitor, fed.config)
        )
        (monitor or InvariantMonitor(config, 1)).check_final(result)
        return result


#: The replay loop's phase markers for the profiler, in source order:
#: each line of :meth:`Simulator._replay` from a marker down to the
#: next is charged to the marker's phase (``None``: to no phase).  The
#: index lookup is its own one-line phase inside step 3; the fill tail
#: is charged to the step that served the request, named by the loop's
#: ``via`` local.
_PHASE_MARKERS = (
    ("# 0. routing and proxy crash recovery", "recovery"),
    ("# -- per-request hooks", None),
    ("# 1. local browser cache", "browser_probe"),
    ("# 2. proxy cache", "proxy_probe"),
    ("# 3. browser index", "remote_delivery"),
    ("hit = index_lookup(", "index_lookup"),
    ("if hit is None:", "remote_delivery"),
    ("# 4. peer proxies", "peer_fetch"),
    ("# 5. origin server", "origin_fetch"),
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
    process-pool workers need no federation-specific wiring.  Its
    per-proxy engines share the one loop, so ``profile`` samples it the
    same way (with the peer-proxy step as its own phase).
    """
    if config.federation is not None:
        # Imported lazily: repro.federation imports this module.
        from repro.federation.engine import FederatedSimulator

        engine = FederatedSimulator(trace, organization, config)
        if profile is None:
            return engine.run()
        return profile.time_replay(
            engine.run,
            _loop_phase_map(),
            functools.partial(engine.sims[0]._phase_counts, fed=engine),
        )
    return Simulator(trace, organization, config, profile=profile).run()
