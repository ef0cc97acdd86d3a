"""Simulation configuration and the paper's cache-sizing rules.

Cache sizes are expressed relative to trace footprints, exactly as in
the paper:

* The **proxy cache** is a fraction (0.5 %, 5 %, 10 %, 20 %) of the
  *infinite proxy cache size* — the storage needed to hold every unique
  requested document.
* The **minimum browser cache** is ``S_proxy / n`` for *n* clients
  ("based on real-world proxy configurations reported in [Rousskov &
  Soloviev]"), i.e. the aggregate of all browser caches equals the
  proxy cache — the 2000-era reality of ~8 MB default browser caches
  against a proxy of a few GB serving hundreds of clients.  (The
  scanned formula is unreadable; DESIGN.md §3 documents this reading
  and the sensitivity benchmark ``bench_ablation_sizing`` sweeps the
  divisor.)
* The **average browser cache** scales each client's cache as a
  fraction of the *average infinite browser cache size* — the mean over
  clients of the storage needed for each client's own unique documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.adversarial import AdversarialConfig
from repro.consistency.policies import ConsistencyPolicy
from repro.core.churn import ChurnModel
from repro.core.proxy_faults import ProxyFaultModel
from repro.index.checkpoint import CheckpointPolicy
from repro.index.staleness import PeriodicUpdatePolicy
from repro.network.ethernet import EthernetModel
from repro.network.latency import MemoryDiskModel
from repro.network.topology import WANModel
from repro.security.protocols import SecurityOverheadModel
from repro.traces.record import Trace
from repro.util.units import BITS_PER_BYTE
from repro.util.validation import (
    check_non_negative,
    check_positive,
    check_quarantine,
    check_reannounce_rate,
)

if TYPE_CHECKING:  # imported lazily to avoid a package cycle at runtime
    from repro.core.chaos import ChaosPlan
    from repro.federation.linkfaults import LinkFaultModel

__all__ = [
    "FederationConfig",
    "SimulationConfig",
    "minimum_browser_capacity",
    "average_browser_capacity",
]


def minimum_browser_capacity(
    proxy_capacity: int, n_clients: int, divisor: float = 1.0
) -> int:
    """The paper's minimum browser cache: S_proxy / (divisor · n).

    With the default ``divisor=1`` the aggregate browser capacity
    equals the proxy cache.  The sizing-sensitivity ablation sweeps
    *divisor* to show how the BAPS gain depends on this reading.
    """
    check_non_negative("proxy_capacity", proxy_capacity)
    check_positive("n_clients", n_clients)
    check_positive("divisor", divisor)
    return max(1, int(proxy_capacity / (divisor * n_clients)))


def average_browser_capacity(trace: Trace, fraction: float) -> int:
    """*fraction* of the average infinite browser cache size.

    The infinite browser cache of a client is the total size of all
    documents the client itself uniquely requested; the average is
    taken over all clients appearing in the trace.
    """
    check_positive("fraction", fraction)
    footprints = trace.client_footprint_bytes()
    active = footprints[footprints > 0]
    if active.size == 0:
        return 1
    return max(1, int(fraction * float(np.mean(active))))


@dataclass(frozen=True)
class FederationConfig:
    """Cooperative multi-proxy federation (Summary-Cache digests).

    The client population is sharded over ``n_proxies`` cooperating
    proxies, each running the full per-proxy machinery (browser index,
    checkpointing, crash recovery, churn, failover).  Proxies exchange
    bloom digests of everything they can currently serve — their proxy
    cache plus their browser index's claimed contents — every
    ``digest_period`` virtual seconds, so a miss at one proxy can be
    served as a cross-proxy remote hit over the modeled inter-proxy
    link.  Stale digests produce accountable errors: a digest that
    still claims an evicted document costs a wasted inter-proxy round
    trip (``digest_false_hits``); a document cached after the last
    exchange is invisible until the next one (``digest_missed_hits``).

    Construction draws no randomness: with ``federation=None`` (the
    default on :class:`SimulationConfig`) nothing here executes and all
    existing results are bit-identical.
    """

    #: cooperating proxies the client population is sharded over.
    n_proxies: int = 2
    #: digest exchange period in virtual seconds.  ``0.0`` is the
    #: *oracle anchor*: digests are rebuilt fresh before every request
    #: and no exchange bytes/time are charged.
    digest_period: float = 300.0
    #: inter-proxy link pricing (connection setup + store-and-forward).
    interproxy_setup: float = 0.010
    interproxy_bandwidth_bps: float = 100e6
    #: digest compression knob (bloom bits per summarised document).
    digest_bits_per_doc: float = 16.0
    #: client -> proxy assignment: ``"interleave"`` (client % n) or
    #: ``"blocks"`` (contiguous ranges), matching the hierarchy layer.
    partition: str = "interleave"
    #: does a cross-proxy hit populate the requesting proxy's cache
    #: (and, for organizations that cache remote fetches, the
    #: requesting browser)?
    cache_interproxy_fetches: bool = True
    #: inter-proxy link partitions (see
    #: :mod:`repro.federation.linkfaults`); ``None`` keeps the perfect
    #: fabric and every existing federation result bit-identical.
    link_faults: "LinkFaultModel | None" = None

    def __post_init__(self) -> None:
        check_positive("n_proxies", self.n_proxies)
        check_non_negative("digest_period", self.digest_period)
        check_non_negative("interproxy_setup", self.interproxy_setup)
        check_positive("interproxy_bandwidth_bps", self.interproxy_bandwidth_bps)
        check_positive("digest_bits_per_doc", self.digest_bits_per_doc)
        if self.partition not in ("interleave", "blocks"):
            raise ValueError(
                f"partition must be 'interleave' or 'blocks', got {self.partition!r}"
            )

    def transfer_time(self, n_bytes: int) -> float:
        """Inter-proxy link time for one document or digest transfer."""
        return (
            self.interproxy_setup
            + n_bytes * BITS_PER_BYTE / self.interproxy_bandwidth_bps
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Everything the engine needs besides the trace and organization."""

    proxy_capacity: int
    browser_capacity: int
    #: replacement policy names (see :data:`repro.cache.POLICIES`).
    proxy_policy: str = "lru"
    browser_policy: str = "lru"
    #: memory tier fraction; ``None`` disables the tiered model.
    memory_fraction: float | None = None
    #: memory tier fraction for *browser* caches when it differs from
    #: the proxy's (paper §1/§4.2: "the memory cache portion in a
    #: browser can be much larger than that for the proxy cache in
    #: practice"; 1.0 models the memory-resident browser cache).
    #: ``None`` means same as ``memory_fraction``.
    browser_memory_fraction: float | None = None
    #: browser-index representation: ``"exact"`` (per-entry directory)
    #: or ``"bloom"`` (Summary-Cache per-client Bloom filters).
    index_kind: str = "exact"
    #: browser-index maintenance (exact kind only): ``None`` =
    #: invalidation-based; a policy = periodic (stale) updates.
    index_update_policy: PeriodicUpdatePolicy | None = None
    #: timing models for the overhead report.
    lan: EthernetModel = field(default_factory=EthernetModel)
    wan: WANModel = field(default_factory=WANModel)
    storage: MemoryDiskModel = field(default_factory=MemoryDiskModel)
    #: optional §6 crypto pricing per remote hit.
    security: SecurityOverheadModel | None = None
    #: expiration-based cache coherence for browser/proxy hits; ``None``
    #: keeps the paper's perfect-coherence rule (a version mismatch is
    #: silently a miss).  See :mod:`repro.consistency`.
    consistency: ConsistencyPolicy | None = None
    #: probability that a holder is online when asked to serve a remote
    #: hit (client churn; 1.0 = the paper's always-on LAN).  An offline
    #: holder costs a wasted round trip before the request escalates.
    #: Mutually exclusive with ``churn`` (which replaces the per-probe
    #: Bernoulli draw with correlated on/off sessions).
    holder_availability: float = 1.0
    #: session-based churn process (see :mod:`repro.core.churn`):
    #: per-client alternating on/off durations advanced by virtual
    #: request time, so offline periods are correlated like real
    #: browser sessions.  ``None`` keeps the always-on LAN (or the
    #: Bernoulli model when ``holder_availability < 1``).
    churn: ChurnModel | None = None
    #: extra holder candidates probed (from the index's replica list)
    #: after the chosen holder fails — offline, stale, or integrity-
    #: failing — before the request falls back to proxy/origin.  Each
    #: failed probe costs a wasted LAN round trip.
    max_holder_retries: int = 0
    #: probability that a remote-browser transfer arrives corrupted and
    #: is rejected by the §6 watermark/MD5 integrity check; the wasted
    #: transfer plus verification is charged and the document is
    #: retransmitted (next holder, or origin).  A nonzero rate enables
    #: the §6 :class:`SecurityOverheadModel` pricing even when
    #: ``security`` is unset — integrity failures are only detectable
    #: with the integrity layer on.
    corruption_rate: float = 0.0
    #: proxy crash model (see :mod:`repro.core.proxy_faults`): ``None``
    #: keeps the always-up proxy.  Each crash cold-restarts the proxy
    #: cache and destroys the in-memory browser index; recovery restores
    #: the last checkpoint (if any) and rebuilds from client
    #: re-announcements while serving degraded.
    proxy_faults: "ProxyFaultModel | None" = None
    #: browser-index checkpoint schedule (see
    #: :mod:`repro.index.checkpoint`); only meaningful with
    #: ``proxy_faults`` set.  ``None`` = never checkpoint (a crash loses
    #: the whole index).
    checkpoint: "CheckpointPolicy | None" = None
    #: post-crash rebuild speed: clients re-announce their browser-cache
    #: contents at this many announcements per virtual second (the
    #: recovery window for *n* announcing clients spans ``n / rate``
    #: seconds after the crash).
    reannounce_rate: float = 1.0
    #: master seed for the deterministic failure draws (Bernoulli
    #: availability, churn sessions, corruption, and proxy crashes).
    availability_seed: int = 0
    #: cooperative multi-proxy federation; ``None`` keeps the paper's
    #: single proxy and leaves every replay loop untouched.
    federation: "FederationConfig | None" = None
    #: adversarial peer profiles (see :mod:`repro.adversarial`):
    #: persistent polluters and correlated flappers assigned by a seeded
    #: :class:`~repro.adversarial.PeerPopulation`.  ``None`` keeps the
    #: single global ``corruption_rate`` draw (bit-identical goldens).
    adversarial: "AdversarialConfig | None" = None
    #: reputation defense: quarantine a holder after this many integrity
    #: failures — the index then skips it as a remote-hit candidate for
    #: the rest of the replay.  0 = defense off.
    quarantine_threshold: int = 0
    #: holders excluded from remote-hit candidacy for the whole replay —
    #: the oracle-defense anchor (e.g. exactly the polluter ids from
    #: :meth:`~repro.adversarial.PeerPopulation.for_simulation`).
    static_blacklist: tuple[int, ...] | None = None
    #: composed chaos schedule (see :mod:`repro.core.chaos`): one seeded
    #: spec installing several fault models at once, plus the opt-in
    #: mid-replay invariant monitor.  ``None`` leaves every replay loop
    #: untouched.
    chaos: "ChaosPlan | None" = None

    def __post_init__(self) -> None:
        check_non_negative("proxy_capacity", self.proxy_capacity)
        check_non_negative("browser_capacity", self.browser_capacity)
        for name in ("memory_fraction", "browser_memory_fraction"):
            value = getattr(self, name)
            if value is not None and not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.index_kind not in ("exact", "bloom"):
            raise ValueError(
                f"index_kind must be 'exact' or 'bloom', got {self.index_kind!r}"
            )
        if self.index_kind == "bloom" and self.index_update_policy is not None:
            raise ValueError("the bloom index has its own rebuild policy")
        if not (0.0 <= self.holder_availability <= 1.0):
            raise ValueError(
                f"holder_availability must be in [0, 1], got {self.holder_availability}"
            )
        if self.churn is not None and self.holder_availability < 1.0:
            raise ValueError(
                "set either churn (session model) or holder_availability "
                "(per-probe Bernoulli), not both"
            )
        if self.max_holder_retries < 0:
            raise ValueError(
                f"max_holder_retries must be >= 0, got {self.max_holder_retries}"
            )
        if not (0.0 <= self.corruption_rate <= 1.0):
            raise ValueError(
                f"corruption_rate must be in [0, 1], got {self.corruption_rate}"
            )
        if self.browser_memory_fraction is not None and self.memory_fraction is None:
            raise ValueError(
                "browser_memory_fraction requires memory_fraction to enable "
                "the tiered model"
            )
        check_reannounce_rate(self.reannounce_rate)
        check_quarantine(self.quarantine_threshold)
        if self.static_blacklist is not None:
            if any(c < 0 for c in self.static_blacklist):
                raise ValueError(
                    f"static_blacklist client ids must be >= 0, got "
                    f"{self.static_blacklist!r}"
                )
            object.__setattr__(
                self, "static_blacklist",
                tuple(sorted(set(self.static_blacklist))),
            )
        if self.chaos is not None:
            chaos = self.chaos
            for name in ("churn", "proxy_faults", "adversarial"):
                if (
                    getattr(chaos, name) is not None
                    and getattr(self, name) is not None
                ):
                    raise ValueError(
                        f"both chaos.{name} and config.{name} are set; a "
                        f"chaos plan owns the fault models it composes — "
                        f"give the model to one of the two"
                    )
            if chaos.link_faults is not None:
                if self.federation is None:
                    raise ValueError(
                        "chaos.link_faults partitions the inter-proxy "
                        "fabric: set SimulationConfig.federation "
                        "(n_proxies > 1) to have links to cut"
                    )
                if self.federation.link_faults is not None:
                    raise ValueError(
                        "both chaos.link_faults and federation.link_faults "
                        "are set; give the model to one of the two"
                    )
        # adversarial (like proxy_faults / checkpoint) validates itself
        # in its own __post_init__.
        # proxy_faults and checkpoint validate themselves in their own
        # __post_init__.  A checkpoint policy without proxy_faults is
        # legal: nothing ever crashes, so nothing is restored, but the
        # snapshots are still taken and charged — that measures the pure
        # cost of the insurance, which the recovery sweeps use.

    # -- constructors ------------------------------------------------------

    @classmethod
    def relative(
        cls,
        trace: Trace,
        proxy_frac: float,
        browser_sizing: str = "minimum",
        browser_frac: float | None = None,
        **kwargs,
    ) -> "SimulationConfig":
        """Size caches the way the paper's figures do.

        * ``browser_sizing="minimum"`` — browser cache is
          S_proxy / (10 n),
        * ``browser_sizing="average"`` — browser cache is
          *browser_frac* (default: *proxy_frac*) of the average
          infinite browser cache size.
        """
        check_positive("proxy_frac", proxy_frac)
        proxy_capacity = max(1, int(proxy_frac * trace.infinite_cache_bytes()))
        n_clients = max(1, trace.n_clients)
        if browser_sizing == "minimum":
            browser_capacity = minimum_browser_capacity(proxy_capacity, n_clients)
        elif browser_sizing == "average":
            browser_capacity = average_browser_capacity(
                trace, proxy_frac if browser_frac is None else browser_frac
            )
        else:
            raise ValueError(
                f"browser_sizing must be 'minimum' or 'average', got {browser_sizing!r}"
            )
        return cls(proxy_capacity=proxy_capacity, browser_capacity=browser_capacity, **kwargs)

    def with_(self, **overrides) -> "SimulationConfig":
        """Return a modified copy (dataclasses.replace convenience)."""
        return replace(self, **overrides)
