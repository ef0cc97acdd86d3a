"""Calibrated synthetic web workload generator.

The paper drives its simulations with five real proxy traces that are no
longer obtainable (NLANR published rolling seven-day logs; the BU and
CA*netII archives are gone).  This module generates synthetic traces
with the same *knobs that matter* for browser/proxy cache simulation:

* **Compulsory-miss rate** — the fraction of requests that are first
  accesses to a unique document.  This directly sets the trace's
  maximum achievable hit ratio (Table 1's "Max Hit Ratio"), since even
  an infinite cache misses every first access.
* **Popularity skew** — document re-references use preferential
  attachment (sampling uniformly from the stream of past shared
  references), which produces the Zipf-like popularity observed in web
  traces, plus a recency-biased component for temporal locality.
* **Size/popularity anti-correlation** — popular documents are smaller
  on average (``size ~ count^-beta``), which makes the maximum byte hit
  ratio lower than the maximum hit ratio, as in every row of Table 1.
* **Client affinity** — a fraction of each client's re-references go to
  its own recent history, and a fraction of newly created documents are
  *private* (never re-referenced by other clients).  Together these
  control how much browser-cache content is sharable, the quantity the
  paper sets out to measure.
* **Document mutation** — requests occasionally observe a changed
  document (new version/size); the simulator counts a hit on a stale
  copy as a miss, matching the paper's size-change rule.

Generation is two-pass: pass one builds the (client, doc, version)
reference stream from pre-drawn random arrays, resolving every
re-reference by numpy pointer jumping (a per-request loop only when
pages have embedded objects); pass two assigns sizes per unique (doc,
version) from final popularity counts, fully vectorised.  Both passes
live in :class:`repro.traces.streaming.TraceStream`;
:func:`generate_trace` materialises one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.churn import MassChurnSchedule
from repro.traces.record import Trace
from repro.util.rng import derive_seed, make_rng
from repro.util.validation import (
    check_finite,
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
)

__all__ = [
    "SyntheticTraceConfig",
    "generate_trace",
    "FlashCrowdSpec",
    "inject_flash_crowd",
    "mass_churn_schedule",
]


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Knobs for :func:`generate_trace`.

    Defaults produce a mid-sized NLANR-like workload; the per-paper
    profiles in :mod:`repro.traces.profiles` override them per trace.
    """

    n_requests: int = 100_000
    n_clients: int = 64
    #: probability that a request introduces a brand-new document
    #: (compulsory miss rate; max hit ratio ~= 1 - p_new - p_mutate).
    p_new: float = 0.45
    #: probability that a re-reference goes to the client's own recent
    #: history rather than the global shared pool.
    p_self: float = 0.25
    #: probability that a newly created document is private to its
    #: creator (excluded from the shared reference pool).
    private_doc_frac: float = 0.15
    #: probability that a re-referenced document has mutated (version
    #: bump; a cached copy of the old version becomes a miss).
    p_mutate: float = 0.01
    #: global re-references: probability of sampling from the recent
    #: window instead of the whole history (temporal locality).
    recency_bias: float = 0.3
    #: global re-references: probability of sampling uniformly over
    #: *distinct* shared documents instead of by popularity.  This is
    #: the mid-tail "revisit" traffic with long reuse distances — the
    #: documents that a small proxy cache has already evicted but that
    #: still sit in some browser cache, i.e. the paper's sharable
    #: browser locality.
    uniform_doc_frac: float = 0.25
    #: size of the recent window as a fraction of the pool.
    recency_window_frac: float = 0.05
    #: mean look-back depth into the client's own history for self
    #: re-references (exponentially distributed).
    self_lookback_mean: float = 40.0
    #: mean document size in bytes (the overall trace averages to this).
    mean_doc_size: float = 12_000.0
    #: lognormal sigma for per-document size noise.
    size_sigma: float = 1.2
    #: size/popularity anti-correlation: size ~ count**-beta.
    size_popularity_beta: float = 0.45
    #: lognormal sigma applied when a document mutates to a new size.
    mutate_size_sigma: float = 0.3
    #: mean number of embedded objects per page (Poisson).  When a
    #: client fetches a page, its embedded objects (images, frames —
    #: fixed per page) are requested immediately after, giving the
    #: trace the sequential structure that prefetch predictors exploit.
    #: 0 disables the feature (the calibrated paper profiles use 0 and
    #: are unaffected).
    embedded_per_page_mean: float = 0.0
    #: Dirichlet concentration for per-client activity (lower = a few
    #: clients dominate, as in real proxy logs).
    client_activity_alpha: float = 0.8
    #: total trace duration in seconds (one day by default).
    duration: float = 86_400.0
    #: strength of the diurnal load pattern in [0, 1): 0 = flat Poisson
    #: arrivals, 0.8 = pronounced day/night cycle (request rate swings
    #: between 1±0.8 of the mean over each 24 h period).
    diurnal_amplitude: float = 0.0
    #: minimum document size in bytes.
    min_doc_size: int = 64
    name: str = "synthetic"

    def __post_init__(self) -> None:
        check_positive("n_requests", self.n_requests)
        check_positive("n_clients", self.n_clients)
        check_probability("p_new", self.p_new)
        check_probability("p_self", self.p_self)
        check_probability("private_doc_frac", self.private_doc_frac)
        check_probability("p_mutate", self.p_mutate)
        check_probability("recency_bias", self.recency_bias)
        check_probability("uniform_doc_frac", self.uniform_doc_frac)
        check_fraction("recency_window_frac", self.recency_window_frac)
        check_positive("self_lookback_mean", self.self_lookback_mean)
        check_non_negative("embedded_per_page_mean", self.embedded_per_page_mean)
        check_positive("mean_doc_size", self.mean_doc_size)
        check_positive("duration", self.duration)
        check_positive("min_doc_size", self.min_doc_size)
        for name in (
            "client_activity_alpha", "size_sigma", "size_popularity_beta", "mutate_size_sigma"
        ):
            check_finite(name, getattr(self, name))
        check_positive("client_activity_alpha", self.client_activity_alpha)
        check_non_negative("size_sigma", self.size_sigma)
        check_non_negative("mutate_size_sigma", self.mutate_size_sigma)
        if not (0.0 <= self.diurnal_amplitude < 1.0):
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.p_new + self.p_self > 1.0:
            raise ValueError(
                "p_new + p_self must not exceed 1 "
                f"(got {self.p_new} + {self.p_self})"
            )

    def scaled(self, requests_frac: float) -> "SyntheticTraceConfig":
        """Return a config with the request count scaled by a factor."""
        check_positive("requests_frac", requests_frac)
        return replace(self, n_requests=max(1, int(self.n_requests * requests_frac)))


def generate_trace(config: SyntheticTraceConfig, seed: int | None = 0) -> Trace:
    """Generate a synthetic :class:`Trace` from *config*.

    Deterministic for a given ``(config, seed)`` pair: the materialised
    :class:`~repro.traces.streaming.TraceStream`, whose calibration
    resolves the workload.  *seed* is an integer or ``None`` (fresh OS
    entropy); a ``Generator`` raises ``TypeError``, because the stream
    re-positions a bit generator it owns.
    """
    # streaming imports this module for the config and the client draw
    from repro.traces.streaming import TraceStream

    return TraceStream(config, seed=seed).materialise()


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------


def _draw_clients(config: SyntheticTraceConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the requesting client for each request.

    Activity is skewed via a Dirichlet draw, then every client is
    guaranteed to appear at least once (the paper's client counts are
    counts of *active* clients).

    The repair step that plants missing clients is *count-aware*: a
    drawn slot is only overwritten when its current occupant appears at
    least twice, and the draw loops to fixpoint until no client is
    missing.  (A single blind pass could overwrite the sole occurrence
    of another client, silently re-violating the invariant it was
    repairing — at ``n_requests=30, n_clients=25`` that lost clients on
    294 of 300 seeds.)  The repair only runs when the initial draw
    violates the invariant, so non-violating draws consume exactly the
    same RNG stream as before and stay bit-identical.
    """
    weights = rng.dirichlet(np.full(config.n_clients, config.client_activity_alpha))
    clients = rng.choice(config.n_clients, size=config.n_requests, p=weights)
    if config.n_requests >= config.n_clients:
        counts = np.bincount(clients, minlength=config.n_clients)
        missing = np.flatnonzero(counts == 0)
        while missing.size:
            slots = rng.choice(config.n_requests, size=missing.size, replace=False)
            for slot, client in zip(slots.tolist(), missing.tolist()):
                occupant = int(clients[slot])
                if counts[occupant] < 2:
                    continue  # sole occurrence: stealing it loses a client
                counts[occupant] -= 1
                clients[slot] = client
                counts[client] += 1
            missing = np.flatnonzero(counts == 0)
    return clients.astype(np.int64)


# ---------------------------------------------------------------------------
# surge generators: flash crowds and correlated mass churn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlashCrowdSpec:
    """One document going viral during ``[start, end)``.

    ``multiplier`` scales the document's in-window popularity: requests
    inside the window are redirected to the target until it has
    ``multiplier`` times its original in-window reference count.
    ``doc`` names the target explicitly; ``None`` picks the most
    popular document seen up to the end of the window (the realistic
    case — things that go viral were already warm).
    """

    start: float
    end: float
    multiplier: float = 10.0
    doc: int | None = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"flash-crowd window must satisfy 0 <= start < end, got "
                f"{(self.start, self.end)!r}"
            )
        if not self.multiplier > 1.0:
            raise ValueError(
                f"flash-crowd multiplier must be > 1, got {self.multiplier!r}"
            )
        if self.doc is not None and self.doc < 0:
            raise ValueError(f"flash-crowd doc must be >= 0, got {self.doc!r}")


def inject_flash_crowd(
    trace: Trace, spec: FlashCrowdSpec, seed: int = 0
) -> Trace:
    """Return a copy of *trace* with a flash-crowd spike injected.

    A deterministic post-transform on a materialised trace (a
    :class:`~repro.traces.streaming.TraceStream` of the same config and
    seed has no flash crowd):
    randomly chosen in-window requests — seeded from ``(seed, spec)``
    via :func:`~repro.util.rng.derive_seed` — are redirected to the
    target document, which keeps clients, timestamps, and the request
    count untouched.  A redirected request observes the target's
    version (and per-version size) as of its position in the stream,
    preserving the sizes-constant-per-(doc, version) property.
    """
    timestamps = trace.timestamps
    in_window = np.flatnonzero(
        (timestamps >= spec.start) & (timestamps < spec.end)
    )
    if in_window.size == 0:
        return trace
    docs = trace.docs.copy()
    target = spec.doc
    if target is None:
        seen = docs[timestamps < spec.end]
        if seen.size == 0:
            seen = docs
        target = int(np.argmax(np.bincount(seen)))
    occurrences = np.flatnonzero(trace.docs == target)
    if occurrences.size == 0:
        raise ValueError(
            f"flash-crowd doc {target} never occurs in trace {trace.name!r}"
        )
    already = int(np.count_nonzero(docs[in_window] == target))
    wanted = int(round(spec.multiplier * max(already, 1)))
    victims = in_window[docs[in_window] != target]
    extra = min(wanted - already, victims.size)
    if extra > 0:
        rng = make_rng(
            derive_seed(
                seed, "flash-crowd", spec.start, spec.end,
                spec.multiplier, target,
            )
        )
        chosen = rng.choice(victims, size=extra, replace=False)
        # Each redirected request observes the target's state as of its
        # stream position (the last preceding occurrence; requests
        # before the first occurrence see its initial state).
        source = np.maximum(np.searchsorted(occurrences, chosen) - 1, 0)
        source_idx = occurrences[source]
        docs[chosen] = target
        versions = trace.versions.copy()
        sizes = trace.sizes.copy()
        versions[chosen] = trace.versions[source_idx]
        sizes[chosen] = trace.sizes[source_idx]
    else:
        versions = trace.versions.copy()
        sizes = trace.sizes.copy()
    return Trace(
        timestamps=timestamps.copy(),
        clients=trace.clients.copy(),
        docs=docs,
        sizes=sizes,
        versions=versions,
        name=f"{trace.name}:flash",
    )


def mass_churn_schedule(
    duration: float,
    n_waves: int = 3,
    offline_seconds: float = 600.0,
    jitter: float = 0.25,
    seed: int = 0,
) -> MassChurnSchedule:
    """Correlated mass-churn waves for a flapper cohort.

    ``n_waves`` offline windows of ``offline_seconds`` each, centred at
    evenly spaced points over ``duration`` with each centre jittered by
    up to ``jitter`` of the inter-wave spacing — deterministic per
    ``(arguments, seed)`` via :func:`~repro.util.rng.derive_seed`.
    Overlapping windows are merged, so the result is always a valid
    :class:`~repro.core.churn.MassChurnSchedule`.
    """
    check_positive("duration", duration)
    check_positive("n_waves", n_waves)
    check_positive("offline_seconds", offline_seconds)
    check_fraction("jitter", jitter)
    rng = make_rng(
        derive_seed(seed, "mass-churn", duration, n_waves, offline_seconds)
    )
    spacing = duration / (n_waves + 1)
    centers = np.arange(1, n_waves + 1) * spacing
    centers = centers + rng.uniform(-jitter, jitter, size=n_waves) * spacing
    half = offline_seconds / 2.0
    windows: list[tuple[float, float]] = []
    for center in np.sort(centers):
        start = max(0.0, float(center) - half)
        end = min(duration, float(center) + half)
        if end <= start:
            continue
        if windows and start < windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], end))
        else:
            windows.append((start, end))
    return MassChurnSchedule(windows=tuple(windows))
