"""Inter-proxy bloom digests (Summary Cache between proxies).

Each federated proxy periodically summarises everything it can serve —
its own proxy cache plus every document its browser index claims some
member client holds — into one bloom filter and sends it to every peer.
Peers answer local misses by probing whichever proxies' digests claim
the document.

Like Summary Cache, each proxy keeps its summary current instead of
rebuilding it: :class:`CountingSummary` holds the member set (proxy
cache keys plus the browser index's ``claimed_docs``) as of the last
exchange and a count per bit, bit-sliced into a few ints.  An exchange
recomputes the member set from live state with one set display, then
adds or subtracts the int masks of only the keys that joined or left,
so its cost grows with churn between exchanges, not with cache size.
The summary's int ``bitset`` (the bits with a positive count, which is
the OR-build of the member set) ships as the digest as it is, so a
peer's claim is one shape-table lookup and one AND.

Digests go stale between exchanges exactly like Summary Cache
summaries: a claim may outlive the content (false hit — a wasted
inter-proxy round trip) and fresh content is invisible until the next
exchange (missed hit).  ``digest_period == 0.0`` is the oracle anchor:
claims are evaluated against the proxies' *current* state on every
request, and no exchange bytes or link time are charged — an upper
bound no real period can beat.

With a :class:`~repro.federation.linkfaults.PartitionSchedule` armed
the directory keeps one *view* per (viewer, about) proxy pair instead
of a single shared copy: a digest copy addressed to a proxy on the
other side of an open partition is dropped (``digest_exchanges_lost``;
the viewer keeps serving from its stale view, so staleness accrues
asymmetrically) and its bytes are **not** charged to
``digest_bytes_exchanged`` — only copies that actually crossed the
link cost anything.  When a partition heals, the engine calls
:meth:`DigestDirectory.antientropy`: a full refresh whose bytes are
charged to the separate ``antientropy_bytes`` counter.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_

from repro.core.config import FederationConfig
from repro.index.bloom import BloomFilter, shape_table

__all__ = ["CountingSummary", "DigestDirectory", "build_proxy_digest"]


class CountingSummary:
    """One proxy's running digest: a counting Bloom filter.

    ``members`` is the key set of the last update; each member counts
    once at every bit of its mask.  Bit *p* of ``planes[j]`` is bit *j*
    of bit *p*'s count, so a member joins by a ripple-carry add of its
    mask and leaves by a ripple-borrow subtract.  ``bitset``, the OR of
    the planes, is the bits an OR-build of ``members`` would set.
    """

    def __init__(self, capacity: int, bits_per_doc: float) -> None:
        shape = BloomFilter.for_capacity(capacity, bits_per_doc)
        self.n_bits = shape.n_bits
        self.n_hashes = shape.n_hashes
        self._masks = shape_table(shape.n_bits, shape.n_hashes)
        self.planes: list[int] = []
        self.bitset = 0
        self.members: set[int] = set()

    def update(self, members: set[int]) -> None:
        """Move the summary to *members*, touching only the counts of
        the keys that joined or left since the last update."""
        added = members - self.members
        removed = self.members - members
        self.members = members
        masks = self._masks
        planes = self.planes
        for key in added:
            carry = masks[key]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                planes.append(carry)
        for key in removed:
            borrow = masks[key]
            for j, plane in enumerate(planes):
                planes[j] = plane ^ borrow
                borrow &= ~plane
                if not borrow:
                    break
        self.bitset = reduce(or_, planes, 0)

    def snapshot(self, n_added: int) -> BloomFilter:
        """The current bits as a shippable digest."""
        digest = BloomFilter(self.n_bits, self.n_hashes)
        digest.bitset = self.bitset
        digest.n_added = n_added
        return digest


def build_proxy_digest(
    sim, capacity: int, bits_per_doc: float, summary: CountingSummary | None = None
) -> BloomFilter:
    """Summarise everything *sim*'s proxy can currently serve.

    Covers the proxy cache and the browser index's claimed contents
    (``claimed_docs``).  For the exact index that is the visible index;
    for the bloom index it is the per-client claimed contents — the
    same knowledge the proxy itself trusts, so the digest is exactly as
    stale as the proxy's own view, never staler.

    With *summary* (the proxy's :class:`CountingSummary`, sized for
    the same *capacity* and *bits_per_doc*) the summary is brought up
    to date and snapshotted; without one the digest is built from
    scratch.  Both give the same bits, ``n_added`` and size.
    """
    if summary is None:
        digest = BloomFilter.for_capacity(capacity, bits_per_doc)
        if sim.proxy is not None:
            digest.add_many(sim.proxy)
        if sim.index is not None:
            digest.add_many(sim.index.claimed_docs())
        return digest
    cached = sim.proxy if sim.proxy is not None else ()
    claimed = sim.index.claimed_docs() if sim.index is not None else ()
    summary.update({*cached, *claimed})
    return summary.snapshot(len(cached) + len(claimed))


class DigestDirectory:
    """The digests every federated proxy currently holds about its peers.

    All proxies exchange on the same schedule (first request, then every
    ``digest_period`` simulated seconds), so with a perfect fabric one
    shared directory stands in for N per-proxy copies.  Until the first
    exchange no proxy claims anything and every miss goes to the
    origin, exactly like the single-proxy engine.

    ``partitioned=True`` (link faults armed) switches to one
    materialised view per (viewer, about) pair, because a dropped copy
    makes the peers' knowledge diverge.
    """

    def __init__(
        self, fed: FederationConfig, capacity: int, partitioned: bool = False
    ) -> None:
        self.fed = fed
        self.capacity = capacity
        #: fresh-digest anchor: claims never go stale, exchanges are free.
        self.oracle = fed.digest_period == 0.0
        self.digests: list[BloomFilter | None] = [None] * fed.n_proxies
        #: views[viewer][about]: the digest *viewer* currently holds
        #: about proxy *about* (partitioned mode only).
        self.views: list[list[BloomFilter | None]] | None = (
            [[None] * fed.n_proxies for _ in range(fed.n_proxies)]
            if partitioned
            else None
        )
        #: one running summary per proxy; only exchanges read them.
        self.summaries: list[CountingSummary] = (
            [
                CountingSummary(capacity, fed.digest_bits_per_doc)
                for _ in range(fed.n_proxies)
            ]
            if fed.n_proxies > 1 and not self.oracle
            else []
        )
        #: doc -> its digest bits as an int (the summaries' shape table).
        self._masks = self.summaries[0]._masks if self.summaries else None
        self.exchanges = 0
        self.antientropy_refreshes = 0
        #: when the last exchange ran; none has yet at ``-inf``.
        self.last_exchange = -math.inf

    def maybe_exchange(self, sims, t: float, result, schedule=None) -> None:
        """Run a digest exchange if one is due at time *t*.

        Charges ``digest_bytes_exchanged`` and
        ``interproxy_bandwidth_time`` on *result* for the (N-1) copies
        each proxy sends — except in oracle mode, where claims are read
        directly from live state (:meth:`claims`) and nothing is built
        or charged.  With *schedule* (a
        :class:`~repro.federation.linkfaults.PartitionSchedule`) mid-
        partition, copies addressed across the split are dropped and
        counted in ``digest_exchanges_lost`` instead of being charged.

        Digests summarise each proxy as of its last processed event: a
        peer's pending crash/recovery deadline is *not* advanced here,
        so a digest can briefly claim documents a since-crashed proxy
        will have to re-learn — accountable as false hits, like every
        other form of digest staleness.
        """
        if self.fed.n_proxies <= 1 or self.oracle:
            return
        if t - self.last_exchange < self.fed.digest_period:
            return
        split = schedule is not None and schedule.active
        self._ship(sims, t, result, schedule if split else None)

    def antientropy(self, sims, t: float, result) -> None:
        """Post-heal full refresh: every proxy rebuilds its digest and
        ships it to every (now reachable) peer, reconciling the views
        that diverged behind the partition.  Bytes are charged to
        ``antientropy_bytes`` — kept apart from the periodic
        ``digest_bytes_exchanged`` so the repair traffic is visible —
        and the periodic exchange clock restarts from *t*.
        """
        if self.fed.n_proxies <= 1 or self.oracle:
            return
        self._ship(sims, t, result, None, repair=True)
        self.antientropy_refreshes += 1

    def _ship(self, sims, t: float, result, schedule, repair: bool = False) -> None:
        """Build every proxy's digest and send it to each peer *schedule*
        (``None``: no open partition) connects it to; charge the copies
        sent to ``antientropy_bytes`` on a *repair*, else to
        ``digest_bytes_exchanged``."""
        n = self.fed.n_proxies
        views = self.views
        for pid, sim in enumerate(sims):
            digest = build_proxy_digest(
                sim, self.capacity, self.fed.digest_bits_per_doc, self.summaries[pid]
            )
            self.digests[pid] = digest
            delivered = 0
            for viewer in range(n):
                if viewer == pid:
                    continue
                if schedule is None or schedule.connected(pid, viewer):
                    if views is not None:
                        views[viewer][pid] = digest
                    delivered += 1
                else:
                    result.digest_exchanges_lost += 1
            if repair:
                result.antientropy_bytes += digest.size_bytes * delivered
            else:
                result.digest_bytes_exchanged += digest.size_bytes * delivered
            result.interproxy_bandwidth_time += (
                self.fed.transfer_time(digest.size_bytes) * delivered
            )
        self.last_exchange = t
        self.exchanges += 1

    def claims(self, sims, pid: int, doc: int, viewer: int | None = None) -> bool:
        """Does proxy *pid*'s digest, as held by *viewer*, claim *doc*?

        Oracle mode consults live state instead of a materialised
        filter; digests carry no version either way, so a claim can
        still miss-serve a stale version (accounted as a false hit).
        Without link faults every peer holds the same copy, so *viewer*
        is irrelevant; in partitioned mode it selects the (possibly
        stale) view the asking proxy actually has.
        """
        if self.oracle:
            sim = sims[pid]
            if sim.proxy is not None and doc in sim.proxy:
                return True
            return sim.index is not None and sim.index.claims_doc(doc)
        if self.views is not None and viewer is not None:
            digest = self.views[viewer][pid]
        else:
            digest = self.digests[pid]
        if digest is None:
            return False
        mask = self._masks[doc]
        return digest.bitset & mask == mask
