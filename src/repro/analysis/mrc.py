"""One-pass miss-ratio curves via byte-weighted LRU stack distances.

The paper's size sweeps (figures 2 and 3) re-replay the whole trace
once per relative cache size.  A Mattson-style reuse-distance pass
computes, from a *single* traversal of the request stream, whether each
request would hit an LRU cache of **every** capacity at once: a
re-reference hits a cache of ``C`` bytes exactly when the bytes of
distinct documents touched since its previous reference, plus its own
body, fit in ``C``.  Documents have sizes, so the classic unit-object
stack distance (:func:`repro.analysis.locality.stack_distances`) is
generalised here to a *byte-weighted* distance, maintained with a
Fenwick tree over reference positions — O(log n) per request.

Exactness
---------
The engine's LRU caches (:class:`repro.cache.lru.LRUCache`) deviate
from the textbook stack model in two size-aware ways, both reproduced
exactly for a fixed capacity grid:

* a **new** document larger than the capacity is refused (it neither
  enters the cache nor evicts anything) — modelled by per-capacity
  "oversize correction" trees that subtract refused documents from the
  distance at each grid capacity;
* an **in-place refresh** of a resident document to a body larger than
  the capacity evicts every other entry and then the document itself —
  modelled by a per-capacity *barrier*: every reference position at or
  before the barrier is non-resident.

With those two corrections the stack model replays a single LRU cache
bit-exactly, so the ``proxy-cache-only`` and
``local-browser-caches-only`` organizations (one shared LRU; one
private LRU per client) are **exact**: one pass reproduces the replay's
hit and byte-hit ratios at every grid capacity to the last request.

The multi-level organizations are principled approximations ("bounded
where eviction-order approximations apply"):

* the proxy tier of ``proxy-and-local-browser`` /
  ``browsers-aware-proxy-server`` is modelled as an LRU over the *full*
  request stream, whereas the real proxy is probed and populated only
  by browser-miss traffic (recency drift, capacity-coupled);
* remote-browser hits are modelled as "some other client's private
  stack holds the document at the grid's browser capacity", ignoring
  that a real remote hit refreshes the serving holder's LRU order;
* ``global-browser-caches-only`` browsers do not cache remotely served
  fetches, which the private-stack model ignores.

The cross-validation goldens (``tests/golden/golden_small.json``) pin
both the exact agreement and the measured approximation error; see
``tools/make_goldens.py`` for the documented tolerances.

Sampling
--------
``compute_mrc`` optionally consumes only a deterministic hash-selected
subset of documents (:mod:`repro.traces.sampling`) and rescales every
reuse distance by ``1/rate`` (the SHARDS estimator), turning a 5%
sample into a full-trace curve estimate with quantified error.

Memory: the stacks hold O(distinct keys) live entries; reference
positions are periodically compacted, so long streams do not grow the
trees without bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization

__all__ = [
    "ByteMRC",
    "CapacityGrid",
    "MRCPoint",
    "TraceMRC",
    "MRC_EXACT_ORGANIZATIONS",
    "capacity_grid",
    "compute_mrc",
]

#: organizations whose MRC prediction is bit-exact against the replay
#: (a single pure-LRU cache per request path — see module docstring).
MRC_EXACT_ORGANIZATIONS = frozenset(
    {Organization.PROXY_ONLY, Organization.LOCAL_BROWSER_ONLY}
)

#: compact a stack when live keys fall below 1/4 of the position space
#: (and the position space is big enough for the rebuild to pay off).
_COMPACT_MIN_POSITIONS = 8_192


class _Fenwick:
    """Growable Fenwick (binary indexed) tree over append-only
    positions, holding integer byte weights."""

    __slots__ = ("n", "cap", "tree", "weights", "total")

    def __init__(self, cap: int = 16) -> None:
        self.n = 0
        self.cap = cap
        self.tree = [0] * (cap + 1)
        self.weights = [0] * cap
        self.total = 0

    def append(self, weight: int) -> None:
        """Add the next position with *weight*."""
        if self.n == self.cap:
            self._grow()
        i = self.n
        self.weights[i] = weight
        self.n = i + 1
        if weight:
            self.total += weight
            tree = self.tree
            cap = self.cap
            i += 1
            while i <= cap:
                tree[i] += weight
                i += i & (-i)

    def add_at(self, pos: int, delta: int) -> None:
        if not delta:
            return
        self.weights[pos] += delta
        self.total += delta
        tree = self.tree
        cap = self.cap
        i = pos + 1
        while i <= cap:
            tree[i] += delta
            i += i & (-i)

    def prefix(self, pos: int) -> int:
        """Sum of weights over positions [0, pos]."""
        tree = self.tree
        total = 0
        i = pos + 1
        while i > 0:
            total += tree[i]
            i -= i & (-i)
        return total

    def _grow(self) -> None:
        self.cap *= 2
        self.weights.extend([0] * (self.cap - len(self.weights)))
        self._rebuild()

    def _rebuild(self) -> None:
        # O(cap) tree construction from the weights array.
        cap = self.cap
        tree = [0] * (cap + 1)
        weights = self.weights
        for i in range(1, cap + 1):
            tree[i] += weights[i - 1]
            parent = i + (i & (-i))
            if parent <= cap:
                tree[parent] += tree[i]
        self.tree = tree

    def rebuild_from(self, weights: list[int]) -> None:
        """Reset to exactly *weights* (compaction support)."""
        n = len(weights)
        cap = max(16, n)
        self.n = n
        self.cap = cap
        self.weights = weights + [0] * (cap - n)
        self.total = sum(weights)
        self._rebuild()

    @classmethod
    def zeros(cls, n: int, cap: int = 0) -> "_Fenwick":
        """A tree holding *n* zero-weight positions — the history a
        lazily created correction tree must be aligned with.  *cap*
        pre-sizes the tree (e.g. to the main tree's capacity) so the
        doubling-rebuild growth path is skipped."""
        fen = cls(max(16, n, cap))
        fen.n = n
        return fen


class _TierStack:
    """Byte-weighted LRU recency stack, capacity-class aware.

    One instance models one physical LRU cache (the shared proxy, or
    one client's browser) at every capacity in ``caps`` simultaneously.
    ``caps`` must be ascending.  ``inv_rate`` rescales reuse distances
    for spatially sampled streams (1.0 = unsampled; the document's own
    body is never rescaled — it occupies the cache for real).
    """

    __slots__ = (
        "caps",
        "nc",
        "full_mask",
        "inv",
        "pos",
        "size",
        "ver",
        "fen",
        "corr",
        "corr_classes",
        "barrier",
        "dirty",
    )

    def __init__(
        self, caps: Sequence[int], inv_rate: float = 1.0, expected: int = 0
    ) -> None:
        self.caps = list(caps)
        self.nc = len(self.caps)
        self.full_mask = (1 << self.nc) - 1
        self.inv = inv_rate
        self.pos: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.ver: dict[int, int] = {}
        #: *expected* pre-sizes the position space (the stream length
        #: when known), skipping the doubling-rebuild growth path; 0
        #: starts small (right for per-client stacks).
        self.fen = _Fenwick(max(16, expected))
        #: per-class oversize-correction trees, created lazily on the
        #: first refused (size > cap) insert for that class; classes
        #: that never see an oversized document pay nothing.
        self.corr: list[_Fenwick | None] = [None] * self.nc
        self.corr_classes: list[int] = []
        #: per class: positions <= barrier are non-resident (an
        #: oversized in-place refresh flushed the cache there).
        self.barrier = [-1] * self.nc
        #: classes needing exact per-class evaluation (a correction
        #: tree or an active barrier); everything else resolves with
        #: one bisect on the ascending capacity grid.
        self.dirty: list[int] = []

    def _rebuild_dirty(self) -> None:
        self.dirty = [
            f
            for f in range(self.nc)
            if self.corr[f] is not None or self.barrier[f] >= 0
        ]

    # -- queries -------------------------------------------------------

    def _resident_mask(self, prev: int, size: int, dist_all: int | None = None) -> int:
        """Classes where the document last referenced at *prev* with
        body *size* is currently resident."""
        if dist_all is None:
            fen = self.fen
            dist_all = fen.total - fen.prefix(prev)
        inv = self.inv
        caps = self.caps
        # clean classes: resident iff dist*1/rate + size fits — a
        # suffix of the ascending grid, found with one bisect.
        f0 = bisect_left(caps, dist_all * inv + size)
        mask = (self.full_mask >> f0) << f0
        for f in self.dirty:
            bit = 1 << f
            if prev <= self.barrier[f]:
                mask &= ~bit
                continue
            cf = self.corr[f]
            over = (cf.total - cf.prefix(prev)) if cf is not None and cf.total else 0
            if (dist_all - over) * inv + size <= caps[f]:
                mask |= bit
            else:
                mask &= ~bit
        return mask

    def resident_mask(self, doc: int, version: int) -> int:
        """Classes where *doc* at *version* is resident — the remote-
        holder probe."""
        prev = self.pos.get(doc)
        if prev is None or self.ver[doc] != version:
            return 0
        return self._resident_mask(prev, self.size[doc])

    # -- the per-request transition ------------------------------------

    def access(
        self, doc: int, size: int, version: int
    ) -> tuple[int, bool, int, bool]:
        """Reference *doc*; returns ``(hit_mask, cold, dist_all,
        vmatched)``.

        ``hit_mask`` has bit *f* set when the reference hits the class-f
        cache (resident and version-matched).  ``cold`` is True for a
        first reference.  ``dist_all`` is the uncorrected byte reuse
        distance (-1 when cold) feeding the every-size curve.
        ``vmatched`` is the pre-update version match (always False when
        cold).
        """
        pos = self.pos
        prev = pos.get(doc)
        fen = self.fen
        i = fen.n
        caps = self.caps
        # classes whose capacity the new body exceeds (refused there)
        kb = bisect_left(caps, size)
        if prev is None:
            hit_mask = 0
            cold = True
            vmatch = False
            dist_all = -1
        else:
            cold = False
            old_size = self.size[doc]
            dist_all = fen.total - fen.prefix(prev)
            vmatch = self.ver[doc] == version
            # residency matters only for the hit decision (version
            # matched) or the oversized-refresh barrier (kb > 0).
            res_mask = (
                self._resident_mask(prev, old_size, dist_all)
                if vmatch or kb
                else 0
            )
            hit_mask = res_mask if vmatch else 0
            # remove the old copy's weights (corr[f] exists for every
            # class the old copy was oversized in — created when that
            # copy was pushed)
            fen.add_at(prev, -old_size)
            ko = bisect_left(caps, old_size)
            if ko:
                corr = self.corr
                for f in range(ko):
                    corr[f].add_at(prev, -old_size)
            # oversized in-place refresh: the real cache evicts every
            # other entry and then the refreshed document itself.  A
            # refused put of an *evicted* copy changes nothing, but in
            # LRU order every older entry is gone too — unless the old
            # copy was itself refused there (f < ko) and evicted nothing.
            if kb:
                barrier = self.barrier
                changed = False
                for f in range(kb):
                    if res_mask >> f & 1:
                        at = i
                    elif f >= ko:
                        at = prev
                    else:
                        continue
                    if at > barrier[f]:
                        barrier[f] = at
                        changed = True
                if changed:
                    self._rebuild_dirty()
        # push the (possibly refused) new copy at the MRU position;
        # classes where size > cap subtract it back out via corr.
        corr = self.corr
        corr_classes = self.corr_classes
        if kb:
            created = False
            for f in range(kb):
                if corr[f] is None:
                    corr[f] = _Fenwick.zeros(i, fen.cap)
                    corr_classes.append(f)
                    created = True
            if created:
                corr_classes.sort()
                self._rebuild_dirty()
        fen.append(size)
        if corr_classes:
            for f in corr_classes:
                corr[f].append(size if f < kb else 0)
        pos[doc] = i
        self.size[doc] = size
        self.ver[doc] = version
        if i + 1 >= _COMPACT_MIN_POSITIONS and i + 1 >= 4 * len(pos):
            self._compact()
        return hit_mask, cold, dist_all, vmatch

    # -- position-space compaction -------------------------------------

    def _compact(self) -> None:
        items = sorted(self.pos.items(), key=lambda kv: kv[1])
        old_positions = [p for _, p in items]
        self.barrier = [
            bisect_right(old_positions, b) - 1 for b in self.barrier
        ]
        sizes = self.size
        caps = self.caps
        weights = [sizes[doc] for doc, _ in items]
        self.fen.rebuild_from(list(weights))
        for f in list(self.corr_classes):
            cap_f = caps[f]
            corrected = [w if w > cap_f else 0 for w in weights]
            if any(corrected):
                self.corr[f].rebuild_from(corrected)
            else:
                # every once-oversized document has since been
                # refreshed smaller (or evicted from the key space):
                # the class is clean again.
                self.corr[f] = None
                self.corr_classes.remove(f)
        self._rebuild_dirty()
        self.pos = {doc: new for new, (doc, _) in enumerate(items)}


# -- capacity grids ----------------------------------------------------


@dataclass(frozen=True)
class CapacityGrid:
    """The concrete byte capacities a sweep evaluates: one proxy and
    one (uniform) browser capacity per relative cache size."""

    fractions: tuple[float, ...]
    proxy_capacities: tuple[int, ...]
    browser_capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (
            len(self.fractions)
            == len(self.proxy_capacities)
            == len(self.browser_capacities)
        ):
            raise ValueError("capacity grid columns must have equal length")
        if list(self.proxy_capacities) != sorted(self.proxy_capacities):
            raise ValueError("proxy capacities must be ascending")
        if list(self.browser_capacities) != sorted(self.browser_capacities):
            raise ValueError("browser capacities must be ascending")

    def __len__(self) -> int:
        return len(self.fractions)

    def index_of(self, fraction: float) -> int:
        try:
            return self.fractions.index(fraction)
        except ValueError:
            fracs = ", ".join(f"{f:g}" for f in self.fractions)
            raise KeyError(
                f"fraction {fraction!r} not in the analysed grid [{fracs}]"
            ) from None


def capacity_grid(
    trace,
    fractions: Sequence[float],
    browser_sizing: str = "minimum",
    **config_overrides,
) -> CapacityGrid:
    """Derive the grid the replay sweep would use, via
    :meth:`SimulationConfig.relative` — so MRC and replay size caches
    identically.  *trace* may be a :class:`~repro.traces.record.Trace`
    or a :class:`~repro.traces.streaming.TraceStream` (both expose
    ``infinite_cache_bytes`` and ``n_clients``)."""
    fractions = tuple(sorted(fractions))
    proxy_caps = []
    browser_caps = []
    for frac in fractions:
        config = SimulationConfig.relative(
            trace, proxy_frac=frac, browser_sizing=browser_sizing, **config_overrides
        )
        proxy_caps.append(config.proxy_capacity)
        browser_caps.append(config.browser_capacity)
    return CapacityGrid(fractions, tuple(proxy_caps), tuple(browser_caps))


# -- every-size curves -------------------------------------------------


@dataclass(frozen=True)
class ByteMRC:
    """Hit ratio at *every* cache size, from one pass.

    ``required`` is the sorted array of byte requirements (reuse
    distance plus body size) of all version-matched re-references;
    ``cum_hits``/``cum_hit_bytes`` are the matching cumulative sums.
    ``hit_ratio(C)`` is exact for a pure LRU without size refusals and
    a tight upper-capacity model otherwise (the fixed-grid predictions
    in :class:`TraceMRC` carry the refusal corrections).
    """

    n_requests: int
    total_bytes: int
    required: np.ndarray
    cum_hits: np.ndarray
    cum_hit_bytes: np.ndarray

    @classmethod
    def from_histogram(
        cls, hist: dict[int, list[int]], n_requests: int, total_bytes: int
    ) -> "ByteMRC":
        required = np.array(sorted(hist), dtype=np.int64)
        counts = np.array([hist[r][0] for r in required], dtype=np.int64)
        byts = np.array([hist[r][1] for r in required], dtype=np.int64)
        return cls(
            n_requests=n_requests,
            total_bytes=total_bytes,
            required=required,
            cum_hits=np.cumsum(counts),
            cum_hit_bytes=np.cumsum(byts),
        )

    def hits_at(self, capacity: int) -> int:
        idx = int(np.searchsorted(self.required, capacity, side="right"))
        return int(self.cum_hits[idx - 1]) if idx else 0

    def hit_bytes_at(self, capacity: int) -> int:
        idx = int(np.searchsorted(self.required, capacity, side="right"))
        return int(self.cum_hit_bytes[idx - 1]) if idx else 0

    def hit_ratio(self, capacity: int) -> float:
        return self.hits_at(capacity) / self.n_requests if self.n_requests else 0.0

    def byte_hit_ratio(self, capacity: int) -> float:
        return (
            self.hit_bytes_at(capacity) / self.total_bytes if self.total_bytes else 0.0
        )

    def curve(
        self, capacities: Iterable[int]
    ) -> list[tuple[int, float, float]]:
        """``(capacity, hit_ratio, byte_hit_ratio)`` per capacity."""
        return [
            (c, self.hit_ratio(c), self.byte_hit_ratio(c)) for c in capacities
        ]


# -- predictions -------------------------------------------------------


@dataclass(frozen=True)
class MRCPoint:
    """One predicted sweep cell."""

    organization: Organization
    fraction: float
    hit_ratio: float
    byte_hit_ratio: float
    local_share: float
    proxy_share: float
    remote_share: float
    exact: bool


# combo bit layout accumulated per request per class
_LOCAL = 1
_PROXY = 2
_REMOTE = 4


def _hit_location(org: Organization, bits: int) -> HitLocation | None:
    """Where the engine would have served a request with tier outcome
    *bits*, under *org*'s lookup order (browser, proxy, index)."""
    if org is Organization.PROXY_ONLY:
        return HitLocation.PROXY if bits & _PROXY else None
    if org is Organization.LOCAL_BROWSER_ONLY:
        return HitLocation.LOCAL_BROWSER if bits & _LOCAL else None
    if bits & _LOCAL:
        return HitLocation.LOCAL_BROWSER
    if org is Organization.GLOBAL_BROWSERS_ONLY:
        return HitLocation.REMOTE_BROWSER if bits & _REMOTE else None
    if bits & _PROXY:
        return HitLocation.PROXY
    if org is Organization.BROWSERS_AWARE_PROXY and bits & _REMOTE:
        return HitLocation.REMOTE_BROWSER
    return None


@dataclass
class TraceMRC:
    """The one-pass analysis: per-class tier-outcome tallies plus the
    every-size curves.  Produced by :func:`compute_mrc`."""

    trace_name: str
    grid: CapacityGrid
    #: requests analysed (after sampling) and their bytes.
    n_requests: int
    total_bytes: int
    #: ``counts[f][bits]``/``hit_bytes[f][bits]``: requests (bytes)
    #: whose tier outcome at class *f* is the combo *bits*.
    counts: list[list[int]]
    hit_bytes: list[list[int]]
    #: every-size curves (uncorrected single-LRU models); None when the
    #: organization selection made the tier unnecessary.
    proxy_curve: ByteMRC | None = None
    browser_curve: ByteMRC | None = None
    sample_rate: float = 1.0
    sample_seed: int = 0
    #: analysis wall-clock, stamped by :func:`compute_mrc`.
    wall_seconds: float = 0.0
    organizations: tuple[Organization, ...] = field(
        default_factory=lambda: tuple(Organization)
    )

    def predict(self, organization: Organization, fraction: float) -> MRCPoint:
        if organization not in self.organizations:
            orgs = ", ".join(o.value for o in self.organizations)
            raise KeyError(
                f"{organization.value!r} was not analysed (pass had: {orgs})"
            )
        f = self.grid.index_of(fraction)
        counts = self.counts[f]
        byts = self.hit_bytes[f]
        hits = {loc: 0 for loc in (HitLocation.LOCAL_BROWSER, HitLocation.PROXY, HitLocation.REMOTE_BROWSER)}
        hbytes = dict(hits)
        for bits in range(8):
            loc = _hit_location(organization, bits)
            if loc is not None:
                hits[loc] += counts[bits]
                hbytes[loc] += byts[bits]
        n = self.n_requests or 1
        b = self.total_bytes or 1
        total_hits = sum(hits.values())
        total_hbytes = sum(hbytes.values())
        return MRCPoint(
            organization=organization,
            fraction=fraction,
            hit_ratio=total_hits / n,
            byte_hit_ratio=total_hbytes / b,
            local_share=hits[HitLocation.LOCAL_BROWSER] / n,
            proxy_share=hits[HitLocation.PROXY] / n,
            remote_share=hits[HitLocation.REMOTE_BROWSER] / n,
            exact=(
                organization in MRC_EXACT_ORGANIZATIONS and self.sample_rate == 1.0
            ),
        )

    def to_simulation_result(
        self, organization: Organization, fraction: float
    ) -> SimulationResult:
        """A :class:`SimulationResult` carrying the MRC-predicted
        counters, shaped like a replay's output so sweep consumers
        (figure tables, breakdowns) work unchanged.  Latency/overhead
        models are not predicted and stay zero."""
        f = self.grid.index_of(fraction)
        counts = self.counts[f]
        byts = self.hit_bytes[f]
        result = SimulationResult(
            trace_name=self.trace_name, organization=organization.value
        )
        result.n_requests = self.n_requests
        result.total_bytes = self.total_bytes
        by_location = result.by_location
        for bits in range(8):
            if not counts[bits] and not byts[bits]:
                continue
            loc = _hit_location(organization, bits)
            if loc is None:
                stats = by_location[HitLocation.ORIGIN]
                stats.misses += counts[bits]
                stats.miss_bytes += byts[bits]
            else:
                stats = by_location[loc]
                stats.hits += counts[bits]
                stats.hit_bytes += byts[bits]
        return result


# -- the one-pass analysis ---------------------------------------------


def _needs(organizations: Sequence[Organization]) -> tuple[bool, bool, bool]:
    browser = proxy = remote = False
    for org in organizations:
        feats = org.features
        browser |= feats.has_browsers
        proxy |= feats.has_proxy
        remote |= feats.has_index
    # the remote model probes the per-client stacks
    browser |= remote
    return browser, proxy, remote


def compute_mrc(
    source,
    grid: CapacityGrid,
    *,
    organizations: Iterable[Organization] | None = None,
    sample_rate: float = 1.0,
    sample_seed: int = 0,
) -> TraceMRC:
    """Analyse *source* (a ``Trace`` or ``TraceStream`` — anything with
    ``iter_rows()`` and ``name``) against *grid* in one pass.

    ``organizations`` restricts which tiers are maintained (the default
    analyses all five paper organizations).  ``sample_rate`` < 1
    analyses only the documents kept by the deterministic spatial
    sampler (:mod:`repro.traces.sampling`) and rescales reuse distances
    by ``1/rate``.
    """
    import time as _time

    if not 0.0 < sample_rate <= 1.0:
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    organizations = (
        tuple(Organization) if organizations is None else tuple(organizations)
    )
    need_b, need_p, need_r = _needs(organizations)
    inv = 1.0 / sample_rate
    keep = None
    if sample_rate < 1.0:
        from repro.traces.sampling import SpatialSampler

        keep = SpatialSampler(sample_rate, seed=sample_seed).keep

    nc = len(grid)
    full_mask = (1 << nc) - 1
    proxy_caps = list(grid.proxy_capacities)
    browser_caps = list(grid.browser_capacities)

    # Pre-size the shared proxy stack's position space to the stream
    # length when known (one allocation instead of log2(n) doubling
    # rebuilds), capped so long streams still rely on compaction to
    # keep live positions near the distinct-key count instead of
    # allocating O(stream) slots up front; per-client browser stacks
    # stay small and start at the default capacity.
    expected = getattr(source, "n_requests", None)
    if expected is None:
        try:
            expected = len(source)
        except TypeError:
            expected = 0
    if sample_rate < 1.0:
        expected = int(expected * sample_rate * 1.25) + 16
    expected = min(expected, 16 * _COMPACT_MIN_POSITIONS)
    gstack = _TierStack(proxy_caps, inv, expected) if need_p else None
    cstacks: dict[int, _TierStack] = {}
    holders: dict[int, set[int]] = {}
    #: (local_mask | proxy_mask << nc | remote_mask << 2nc) ->
    #: [requests, bytes]; tier outcomes repeat heavily across requests,
    #: so tallying per distinct combo and expanding to the per-class
    #: histogram once at the end keeps the hot loop free of a
    #: per-class inner loop.
    combos: dict[int, list[int]] = {}
    counts = [[0] * 8 for _ in range(nc)]
    hit_bytes = [[0] * 8 for _ in range(nc)]
    gcurve: dict[int, list[int]] = {}
    bcurve: dict[int, list[int]] = {}
    n_seen = 0
    bytes_seen = 0
    sample_exact = inv == 1.0

    gaccess = gstack.access if gstack is not None else None
    cstacks_get = cstacks.get
    t0 = _time.perf_counter()
    for _t, c, d, s, v in source.iter_rows():
        if keep is not None and not keep(d):
            continue
        n_seen += 1
        bytes_seen += s
        local_mask = proxy_mask = remote_mask = 0
        if need_b:
            stack = cstacks_get(c)
            if stack is None:
                stack = cstacks[c] = _TierStack(browser_caps, inv)
            local_mask, _cold, dist, vmatch = stack.access(d, s, v)
            if vmatch:
                req = dist + s if sample_exact else int(dist * inv) + s
                entry = bcurve.get(req)
                if entry is None:
                    bcurve[req] = [1, s]
                else:
                    entry[0] += 1
                    entry[1] += s
        if gaccess is not None:
            proxy_mask, _cold, dist, vmatch = gaccess(d, s, v)
            if vmatch:
                req = dist + s if sample_exact else int(dist * inv) + s
                entry = gcurve.get(req)
                if entry is None:
                    gcurve[req] = [1, s]
                else:
                    entry[0] += 1
                    entry[1] += s
        if need_r:
            hs = holders.get(d)
            if hs:
                rm = 0
                for c2 in hs:
                    if c2 == c:
                        continue
                    rm |= cstacks[c2].resident_mask(d, v)
                    if rm == full_mask:
                        break
                remote_mask = rm
                hs.add(c)
            else:
                holders[d] = {c}
        key = local_mask | (proxy_mask << nc) | (remote_mask << (2 * nc))
        entry = combos.get(key)
        if entry is None:
            combos[key] = [1, s]
        else:
            entry[0] += 1
            entry[1] += s

    for key, (cnt, byt) in combos.items():
        local_mask = key & full_mask
        proxy_mask = (key >> nc) & full_mask
        remote_mask = key >> (2 * nc)
        for f in range(nc):
            bits = (
                (local_mask >> f & 1)
                | ((proxy_mask >> f & 1) << 1)
                | ((remote_mask >> f & 1) << 2)
            )
            counts[f][bits] += cnt
            hit_bytes[f][bits] += byt
    wall = _time.perf_counter() - t0

    return TraceMRC(
        trace_name=getattr(source, "name", "<rows>"),
        grid=grid,
        n_requests=n_seen,
        total_bytes=bytes_seen,
        counts=counts,
        hit_bytes=hit_bytes,
        proxy_curve=(
            ByteMRC.from_histogram(gcurve, n_seen, bytes_seen) if need_p else None
        ),
        browser_curve=(
            ByteMRC.from_histogram(bcurve, n_seen, bytes_seen) if need_b else None
        ),
        sample_rate=sample_rate,
        sample_seed=sample_seed,
        wall_seconds=wall,
        organizations=organizations,
    )
