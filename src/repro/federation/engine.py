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
non-member clients simply never touch proxy *P*'s browsers or index, so
*P*'s holder map (the truth behind ``Simulator._truth_holds``, kept
current by its browser events) only ever lists its members — and all
per-proxy engines share ONE :class:`SimulationResult`, so the
engine-internal accounting helpers (failover waste, bus legs, recovery
windows) charge the federation's single ledger directly.  Digests are
kept current the same way: each proxy's counting summary
(:class:`~repro.federation.digest.CountingSummary`) only rehashes the
documents that changed since its last exchange.

There is no federated loop: :meth:`FederatedSimulator.run` replays
through the single-proxy engine's own loop,
:meth:`Simulator._replay <repro.core.simulator.Simulator._replay>`,
with this engine as its router.  Step 0 of that loop asks
:meth:`FederatedSimulator._route` for the request's home proxy and
unpacks that proxy's bound handles; step 4 calls
:meth:`FederatedSimulator._interproxy_fetch`.  Every knob the loop
implements (coherence, tiered memory, quarantine, ...) therefore works
per proxy without a federated copy.

Determinism: with ``n_proxies == 1`` the routing step only advances
the one proxy's crash clock (the digest directory never exchanges and
there are no peers), so the result is bit-identical to
:func:`repro.core.simulator.simulate` without federation, for every
organization and consistency policy — the anchor the experiment and
tests rely on.  With ``n_proxies > 1`` and any stochastic knob active,
each proxy derives an independent seed stream via
``derive_seed(availability_seed, "federation-proxy", pid)`` so
availability/corruption draws at different proxies are uncorrelated
while staying independent of worker count and completion order.
"""

from __future__ import annotations

from repro.core.chaos import InvariantMonitor
from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.simulator import (
    Simulator,
    _dense_client_count,
    _gc_paused,
    bloom_expected_docs,
)
from repro.federation.digest import DigestDirectory
from repro.federation.linkfaults import PartitionSchedule
from repro.hierarchy.config import assign_proxy
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
        # not on the per-proxy engines, which run only as routes of the
        # shared loop).
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
        if fed.n_proxies > 1:
            # A peer's missed-hit check (_could_serve) asks its browsers'
            # truth, so every proxy keeps its holder map.
            for sim in self.sims:
                sim._track_holders()
        #: peers probed since the replay loop last re-read their index
        #: entry counts (see Simulator._replay's peak check); None
        #: without an index, where nothing reads them.
        self.probed: list[int] | None = [] if self.features.has_index else None
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
            per_client = bloom_expected_docs(trace, self.base.browser_capacity)
            members = -(-self.n_clients // self.fed.n_proxies)  # ceil
            capacity += per_client * members
        return max(8, capacity)

    # -- routing ---------------------------------------------------------

    def run(self) -> SimulationResult:
        """Replay the trace through the one request-path loop,
        :meth:`Simulator._replay <repro.core.simulator.Simulator._replay>`,
        with this federation as its router."""
        self._bound = [sim._bind() for sim in self.sims]
        return _gc_paused(self.sims[0]._replay, self)

    def _route(self, t: float, c: int) -> int:
        """Step 0 of the loop: the work due before client *c*'s request
        at time *t* — the fabric poll (anti-entropy once a partition
        heals), the home proxy's crash/checkpoint clock, the periodic
        digest exchange — in that order.  Returns the home proxy."""
        schedule = self.link_schedule
        if schedule is not None:
            entered, healed = schedule.poll(t)
            if entered:
                self.result.partition_windows += entered
            if healed:
                # The fabric healed since the last request: the
                # separated sides reconcile their digest views.
                self.directory.antientropy(self.sims, t, self.result)
        pid = self.owner[c]
        self._advance(pid, t)
        # maybe_exchange's own due test (summaries exist iff digests
        # are exchanged), asked here so most requests make no call
        directory = self.directory
        if directory.summaries and t - directory.last_exchange >= self.fed.digest_period:
            directory.maybe_exchange(self.sims, t, self.result, schedule)
        return pid

    def _advance(self, pid: int, t: float) -> None:
        """Run proxy *pid*'s crash/checkpoint clock up to *t*; a crash
        replaces its index, so the loop's handles are rebound."""
        if self._needs_recovery[pid] and self.sims[pid]._advance_recovery(t):
            self._bound[pid] = self.sims[pid]._bind()

    # -- the inter-proxy step ------------------------------------------------

    def _interproxy_fetch(
        self, home: Simulator, pid: int, c: int, d: int, s: int, v: int, t: float
    ) -> tuple[bool, bool | None]:
        """Probe every peer whose digest claims *d*; serve from the
        first that can.  Returns ``(served, memory_tier)``; on a serve
        the link and the home bus are charged here, and the loop
        accounts the ``SIBLING_PROXY`` hit and fills the home caches.

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
        ``digest_missed_hits``.  Exchanged digests change only in
        :meth:`_route`, so that check reuses the claims the probe loop
        read; oracle claims read live state, which a probe can change
        (a crash in :meth:`_advance`, an evicting failover), so oracle
        mode asks again.
        """
        fed = self.fed
        sims = self.sims
        directory = self.directory
        claims = directory.claims
        schedule = self.link_schedule
        if schedule is not None and not schedule.active:
            # no window open (only _route polls the fabric): every
            # peer is reachable
            schedule = None
        result = self.result
        overhead = result.overhead
        n = fed.n_proxies
        claimed = []
        for offset in range(1, n):
            q = (pid + offset) % n
            claim = claims(sims, q, d, viewer=pid)
            claimed.append(claim)
            if not claim:
                continue
            if schedule is not None and not schedule.connected(pid, q):
                setup = fed.interproxy_setup
                overhead.wasted_round_trip_time += setup
                result.wasted_partition_time += setup
                continue
            # The peer's crash/checkpoint clock advances when it is
            # probed, so the probe sees the peer's state at time t
            # (including any recovery degradation), not its state at
            # the peer's last home request.
            self._advance(q, t)
            if self.probed is not None:
                self.probed.append(q)
            served, memory = self._peer_serve(sims[q], c, d, s, v, t)
            if served:
                # one inter-proxy transfer, then the home LAN leg
                result.interproxy_hits += 1
                result.interproxy_bandwidth_time += fed.transfer_time(s)
                home.bus.submit(t, s)
                return True, memory
            result.digest_false_hits += 1
            setup = fed.interproxy_setup
            overhead.wasted_round_trip_time += setup
            overhead.wasted_false_hit_time += setup
            result.interproxy_bandwidth_time += setup
        live = directory.oracle
        for offset, claim in enumerate(claimed, 1):
            q = (pid + offset) % n
            if schedule is not None and not schedule.connected(pid, q):
                # An unreachable peer is partition loss, not digest
                # staleness — never a missed hit.
                continue
            if claims(sims, q, d, viewer=pid) if live else claim:
                continue
            if self._could_serve(sims[q], c, d, v):
                result.digest_missed_hits += 1
                break
        return False, None

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
            entry, memory = qsim._proxy_store.probe(0, d)
            if entry is not None and entry.version == v:
                return True, memory
        if qsim.index is not None:
            # c is never in the peer's shard, so exclude_client is inert.
            return qsim._remote_delivery(c, d, s, v, t)
        return False, None

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


def federated_simulate(
    trace: Trace, organization: Organization, config: SimulationConfig
) -> SimulationResult:
    """Convenience one-shot mirroring :func:`repro.core.simulator.simulate`."""
    return FederatedSimulator(trace, organization, config).run()
