"""The cooperative multi-proxy replay engine.

Shards the client population over ``FederationConfig.n_proxies``
proxies, each a full per-proxy :class:`~repro.core.simulator.Simulator`
(browser index, checkpointing, crash recovery, churn and failover all
intact), and adds one escalation step between the home proxy's index
and the origin: probe the peer proxies whose exchanged bloom digest
claims the document (:mod:`repro.federation.digest`) over the modeled
inter-proxy link.

The per-request path for client *c* assigned to proxy *P*:

1. *c*'s browser cache at *P*;
2. *P*'s proxy cache;
3. *P*'s browser index → remote browser in *P*'s shard (with the
   usual failover/churn/integrity machinery);
4. **federation**: for each peer *Q* whose digest claims the document,
   try *Q*'s proxy cache, then *Q*'s index → a browser in *Q*'s shard;
   a serve is a ``SIBLING_PROXY`` hit priced with one inter-proxy
   transfer; a claim that does not pan out is a ``digest_false_hits``
   wasted round trip;
5. the origin.

Every proxy runs against the full trace with per-proxy state arrays —
non-member clients simply never touch proxy *P*'s browsers or index —
and all per-proxy engines share ONE :class:`SimulationResult`, so the
engine-internal accounting helpers (failover waste, bus legs, recovery
windows) charge the federation's single ledger directly.

Determinism: with ``n_proxies == 1`` the loop below reproduces the
single-proxy engine's straight-line request path operation for
operation (the digest directory never exchanges), so the result is
bit-identical to :func:`repro.core.simulator.simulate` without
federation — the anchor the experiment and tests rely on.  With
``n_proxies > 1`` and any stochastic knob active, each proxy derives
an independent seed stream via
``derive_seed(availability_seed, "federation-proxy", pid)`` so
availability/corruption draws at different proxies are uncorrelated
while staying independent of worker count and completion order.
"""

from __future__ import annotations

from repro.core.chaos import InvariantMonitor
from repro.core.config import SimulationConfig
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.simulator import Simulator, _dense_client_count, bloom_expected_docs
from repro.federation.digest import DigestDirectory
from repro.federation.linkfaults import PartitionSchedule
from repro.hierarchy.config import assign_proxy
from repro.index.staleness import StalenessStats
from repro.traces.record import Trace
from repro.util.rng import derive_seed

__all__ = ["FederatedSimulator", "federated_simulate"]


class FederatedSimulator:
    """N cooperating per-proxy engines plus digest-directed escalation."""

    def __init__(
        self,
        trace: Trace,
        organization: Organization,
        config: SimulationConfig,
    ) -> None:
        if config.chaos is not None:
            # Resolve a composed chaos plan once, here, so every knob
            # below (faults, churn, link faults, seed) sees the
            # installed models; compose() is idempotent.
            config = config.chaos.compose(config)
        fed = config.federation
        if fed is None:
            raise ValueError("FederatedSimulator requires config.federation")
        self.trace = trace
        self.organization = organization
        self.config = config
        self.fed = fed
        self.features = organization.features
        # Same dense-id contract as the per-proxy engines (which
        # re-validate it); aligning on Trace.n_clients keeps the owner
        # table sized by clients that exist, not by the highest raw id.
        n_clients = _dense_client_count(trace)
        self.n_clients = n_clients

        # Each per-proxy engine runs the plain single-proxy config; the
        # federation layer owns all cross-proxy behavior (and the
        # resolved chaos residue — the invariant monitor — lives here,
        # not on the per-proxy engines, whose loops never run).
        base = config.with_(federation=None, chaos=None)
        self.base = base
        stochastic = (
            base.holder_availability < 1.0
            or base.churn is not None
            or base.corruption_rate > 0.0
            or base.proxy_faults is not None
        )
        self.sims: list[Simulator] = []
        for pid in range(fed.n_proxies):
            cfg = base
            if stochastic and fed.n_proxies > 1:
                cfg = base.with_(
                    availability_seed=derive_seed(
                        base.availability_seed, "federation-proxy", pid
                    )
                )
            self.sims.append(Simulator(trace, organization, cfg))

        # One shared ledger: the per-proxy engines' own helpers (probe
        # waste, recovery windows, index false hits, ...) charge it
        # directly, so nothing federated needs re-deriving at merge time.
        self.result = SimulationResult(
            trace_name=trace.name,
            organization=organization.value,
            uses_memory_tier=config.memory_fraction is not None,
        )
        for sim in self.sims:
            sim.result = self.result

        self.owner = [
            assign_proxy(c, fed.n_proxies, n_clients, fed.partition)
            for c in range(n_clients)
        ]
        self._needs_recovery = [
            sim._fault_schedule is not None or sim._checkpointer is not None
            for sim in self.sims
        ]
        # One global fabric schedule, seeded from the shared master so
        # partitions hit every proxy pair at the same virtual instant
        # regardless of worker count or per-proxy sub-streams.
        lf = fed.link_faults
        self.link_schedule: PartitionSchedule | None = (
            PartitionSchedule(lf, fed.n_proxies, seed=config.availability_seed)
            if lf is not None and fed.n_proxies > 1
            else None
        )
        self.directory = DigestDirectory(
            fed,
            self._digest_capacity(),
            partitioned=self.link_schedule is not None,
        )
        chaos = config.chaos
        self.monitor: InvariantMonitor | None = (
            InvariantMonitor(config, chaos.check_invariants_every)
            if chaos is not None and chaos.monitored
            else None
        )

    def _digest_capacity(self) -> int:
        """Expected distinct documents one proxy's digest must cover.

        Proxy-cache slots plus the shard's browser-index claims, both
        sized by :func:`bloom_expected_docs`'s arithmetic so the digest
        budgets false positives consistently with the per-client
        summaries it aggregates.
        """
        trace = self.trace
        avg_doc = max(1, int(trace.mean_request_size)) if len(trace) else 1
        capacity = 0
        if self.features.has_proxy:
            capacity += max(1, self.base.proxy_capacity // avg_doc)
        if self.features.has_browsers and self.features.has_index:
            per_client = bloom_expected_docs(
                trace,
                self.sims[0]._browser_capacities(self.n_clients),
                self.base.browser_capacity,
            )
            members = -(-self.n_clients // self.fed.n_proxies)  # ceil
            capacity += per_client * members
        return max(8, capacity)

    # -- the replay loop ----------------------------------------------------

    def run(self) -> SimulationResult:
        features = self.features
        config = self.base
        fed = self.fed
        result = self.result
        overhead = result.overhead
        sims = self.sims
        owner = self.owner
        needs_recovery = self._needs_recovery
        directory = self.directory
        schedule = self.link_schedule
        monitor = self.monitor
        lan = config.lan
        wan = config.wan
        federated = fed.n_proxies > 1

        for t, c, d, s, v in self.trace.iter_rows():
            if schedule is not None:
                entered, healed = schedule.poll(t)
                if entered:
                    result.partition_windows += entered
                if healed:
                    # The fabric healed since the last request: the
                    # separated sides reconcile their digest views.
                    directory.antientropy(sims, t, result)
            if monitor is not None:
                monitor.tick(result)
            pid = owner[c]
            sim = sims[pid]
            if needs_recovery[pid]:
                sim._advance_recovery(t)
            if federated:
                directory.maybe_exchange(sims, t, result, schedule)

            # 1. local browser cache
            if features.has_browsers:
                entry, memory = sim._get(sim.browsers[c], d)
                if entry is not None and entry.version == v:
                    result.record(HitLocation.LOCAL_BROWSER, s, memory)
                    overhead.local_hit_time += sim._storage_time(s, memory)
                    continue

            # 2. home proxy cache
            if sim.proxy is not None:
                entry, memory = sim._get(sim.proxy, d)
                if entry is not None and entry.version == v:
                    result.record(HitLocation.PROXY, s, memory)
                    overhead.proxy_hit_time += sim._storage_time(
                        s, memory
                    ) + lan.transfer_time(s)
                    if features.has_browsers:
                        sim._browser_put(c, d, s, v, t)
                    continue

            # 3. home browser index -> remote browser (with failover)
            if sim.index is not None:
                remote_served, memory = sim._remote_delivery(c, d, s, v, t)
                if remote_served:
                    result.record(HitLocation.REMOTE_BROWSER, s, memory)
                    overhead.remote_storage_time += sim._storage_time(s, memory)
                    if sim._security is not None:
                        overhead.security_time += sim._security.transfer_cost(s)
                    if features.caches_remote_fetches:
                        sim._browser_put(c, d, s, v, t)
                        if config.cache_remote_hits_at_proxy and sim.proxy is not None:
                            sim.proxy.put(d, s, v)
                    self._track_peak()
                    continue

            # 4. federation: peers whose digest claims the document
            if federated and self._interproxy_fetch(sim, pid, c, d, s, v, t):
                continue

            # 5. origin server
            result.record(HitLocation.ORIGIN, s)
            overhead.origin_miss_time += wan.fetch_time(s) + lan.transfer_time(s)
            if sim.proxy is not None:
                sim.proxy.put(d, s, v)
            if features.has_browsers:
                sim._browser_put(c, d, s, v, t)
            if sim.index is not None:
                self._track_peak()

        return self._finalise()

    # -- the inter-proxy step ------------------------------------------------

    def _interproxy_fetch(
        self, home: Simulator, pid: int, c: int, d: int, s: int, v: int, t: float
    ) -> bool:
        """Probe every peer whose digest claims *d*; serve from the
        first that can.  Returns True when the request was served.

        A claim that fails (evicted since the exchange, wrong version,
        bloom collision, churned-away holders) is a digest false hit:
        the home proxy paid an inter-proxy round trip for nothing —
        charged to ``wasted_false_hit_time`` exactly like an index
        false hit, never silently rescued.  A claimed peer on the other
        side of an open partition fails *fast*: the home proxy burns
        one connection setup (charged to ``wasted_round_trip_time`` and
        attributed to ``wasted_partition_time``) and the peer is never
        consulted — its caches, clocks, and RNG streams stay untouched.
        After all claimants fail, reachable peers whose digest did
        *not* claim *d* are checked (side-effect free) for the opposite
        staleness: a peer that could have served counts one
        ``digest_missed_hits``.
        """
        fed = self.fed
        sims = self.sims
        directory = self.directory
        schedule = self.link_schedule
        result = self.result
        overhead = result.overhead
        n = fed.n_proxies
        for offset in range(1, n):
            q = (pid + offset) % n
            if not directory.claims(sims, q, d, viewer=pid):
                continue
            if schedule is not None and not schedule.connected(pid, q):
                setup = fed.interproxy_setup
                overhead.wasted_round_trip_time += setup
                result.wasted_partition_time += setup
                continue
            qsim = sims[q]
            # The peer's crash/checkpoint clock advances when it is
            # probed, so the probe sees the peer's state at time t
            # (including any recovery degradation), not its state at
            # the peer's last home request.
            if self._needs_recovery[q]:
                qsim._advance_recovery(t)
            served, memory = self._peer_serve(qsim, c, d, s, v, t)
            if served:
                self._account_interproxy_hit(home, c, d, s, v, t, memory)
                return True
            result.digest_false_hits += 1
            setup = fed.interproxy_setup
            overhead.wasted_round_trip_time += setup
            overhead.wasted_false_hit_time += setup
            result.interproxy_bandwidth_time += setup
        for offset in range(1, n):
            q = (pid + offset) % n
            if schedule is not None and not schedule.connected(pid, q):
                # An unreachable peer is partition loss, not digest
                # staleness — never a missed hit.
                continue
            if directory.claims(sims, q, d, viewer=pid):
                continue
            if self._could_serve(sims[q], c, d, v):
                result.digest_missed_hits += 1
                break
        return False

    def _peer_serve(
        self, qsim: Simulator, c: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        """One peer's attempt to serve (doc, version): its proxy cache,
        then its index → a browser in its shard.  The peer's own
        engine machinery runs the remote leg, so failover, churn,
        integrity failures and recovery staleness are priced exactly as
        they would be for the peer's own clients — onto the shared
        ledger."""
        if qsim.proxy is not None:
            entry, memory = qsim._get(qsim.proxy, d)
            if entry is not None and entry.version == v:
                return True, memory
        if qsim.index is not None:
            # c is never in the peer's shard, so exclude_client is inert.
            return qsim._remote_delivery(c, d, s, v, t)
        return False, None

    def _account_interproxy_hit(
        self,
        home: Simulator,
        c: int,
        d: int,
        s: int,
        v: int,
        t: float,
        memory: bool | None,
    ) -> None:
        """Price a cross-proxy serve: one storage read at the peer, the
        inter-proxy transfer (informational link occupancy), and the
        home LAN leg to the client; then populate the home caches when
        ``cache_interproxy_fetches`` is on."""
        fed = self.fed
        result = self.result
        overhead = result.overhead
        result.record(HitLocation.SIBLING_PROXY, s, memory)
        result.interproxy_hits += 1
        overhead.remote_storage_time += home._storage_time(s, memory)
        result.interproxy_bandwidth_time += fed.transfer_time(s)
        home.bus.submit(t, s)
        if home._security is not None:
            overhead.security_time += home._security.transfer_cost(s)
        if fed.cache_interproxy_fetches:
            if home.proxy is not None:
                home.proxy.put(d, s, v)
            if self.features.has_browsers:
                home._browser_put(c, d, s, v, t)
            if home.index is not None:
                self._track_peak()

    def _could_serve(self, qsim: Simulator, c: int, d: int, v: int) -> bool:
        """Side-effect-free oracle: could this peer have served (d, v)
        right now?  Mirrors :meth:`_peer_serve` with ``peek``/truth
        queries so the missed-hit counter never perturbs cache or RNG
        state."""
        if qsim.proxy is not None:
            held = qsim.proxy.peek(d)
            if held is not None and held.version == v:
                return True
        return qsim.index is not None and qsim._truth_holds(d, v, exclude=c)

    # -- accounting ----------------------------------------------------------

    def _track_peak(self) -> None:
        """Aggregate index peak across all proxies (reduces to the
        replay loop's single-index peak tracking for one proxy)."""
        sims = self.sims
        total = 0
        for sim in sims:
            if sim.index is not None:
                total += sim.index.n_entries
        result = self.result
        if total > result.index_peak_entries:
            result.index_peak_entries = total
            result.index_peak_footprint_bytes = sum(
                sim.index.footprint_bytes()
                for sim in sims
                if sim.index is not None
            )

    def _finalise(self) -> SimulationResult:
        """Fold per-proxy tails into the shared result.

        Mirrors ``Simulator._finalise`` per proxy — bus absorption,
        open recovery windows, index-generation folding — then merges
        the per-proxy index accounting, so one proxy reduces to the
        single-proxy finalise exactly."""
        result = self.result
        stats: StalenessStats | None = None
        lookups = 0
        messages = 0
        checkpoint_bytes = 0
        has_checkpointer = False
        for sim in self.sims:
            result.overhead.absorb_bus(sim.bus.stats)
            if sim._recovering:
                sim._close_window(sim._last_t)
            if sim.index is not None:
                sim_stats = sim.index.stats
                sim_lookups = sim.index.n_lookups
                sim_messages = sim.index.update_messages
                if sim._fault_schedule is not None:
                    sim_stats = sim._prior_stats.merged(sim_stats)
                    sim_lookups += sim._prior_lookups
                    sim_messages += sim._prior_update_messages
                stats = sim_stats if stats is None else stats.merged(sim_stats)
                lookups += sim_lookups
                messages += sim_messages
            if sim._checkpointer is not None:
                has_checkpointer = True
                checkpoint_bytes += sim._checkpointer.bytes_written
        if stats is not None:
            result.index_stats = stats
            result.index_lookups = lookups
            result.overhead.index_update_messages = messages
        if has_checkpointer:
            result.checkpoint_bytes_written = checkpoint_bytes
        # The conservation and ledger laws hold on every run; only the
        # per-request ticks are opt-in.
        (self.monitor or InvariantMonitor(self.config, 1)).check_final(result)
        return result


def federated_simulate(
    trace: Trace, organization: Organization, config: SimulationConfig
) -> SimulationResult:
    """Convenience one-shot mirroring :func:`repro.core.simulator.simulate`."""
    return FederatedSimulator(trace, organization, config).run()
