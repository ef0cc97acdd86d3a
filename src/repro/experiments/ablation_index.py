"""Ablation — index maintenance discipline.

Compares the three index representations the paper discusses:

* exact invalidation-based index (always fresh, one message per
  insert/evict),
* periodic batched updates at a 10% delay threshold (fewer messages,
  some staleness),
* Bloom-filter summaries (Summary-Cache style): rebuilt from the true
  browser contents at the end of a BAPS run, then evaluated for
  footprint and false-positive rate against a sample of lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.simulator import Simulator
from repro.index.bloom import BloomFilter
from repro.index.staleness import PeriodicUpdatePolicy
from repro.traces.profiles import load_paper_trace
from repro.util.fmt import ascii_table
from repro.util.rng import make_rng

__all__ = ["IndexAblationResult", "run"]


@dataclass
class IndexAblationResult:
    trace_name: str
    exact: SimulationResult
    periodic: SimulationResult
    exact_footprint_bytes: int
    bloom_footprint_bytes: int
    bloom_false_positive_rate: float

    def render(self) -> str:
        headers = ["variant", "hit ratio", "update messages", "footprint", "notes"]
        rows = [
            [
                "invalidation (exact)",
                f"{self.exact.hit_ratio * 100:.2f}%",
                self.exact.overhead.index_update_messages,
                f"{self.exact_footprint_bytes / 1e6:.3f} MB",
                "peak, 28 B/entry",
            ],
            [
                "periodic (10% threshold)",
                f"{self.periodic.hit_ratio * 100:.2f}%",
                self.periodic.overhead.index_update_messages,
                "-",
                f"{self.periodic.index_stats.false_hits} false hits",
            ],
            [
                "bloom summaries",
                "-",
                "-",
                f"{self.bloom_footprint_bytes / 1e6:.3f} MB",
                f"FP rate {self.bloom_false_positive_rate * 100:.3f}%",
            ],
        ]
        return ascii_table(
            headers,
            rows,
            title=f"Ablation: index maintenance ({self.trace_name}, BAPS, 10% cache)",
        )


def run(
    trace_name: str = "NLANR-uc",
    proxy_frac: float = 0.10,
    bits_per_doc: float = 16.0,
    n_probe: int = 20_000,
    seed: int = 7,
) -> IndexAblationResult:
    trace = load_paper_trace(trace_name)
    base = SimulationConfig.relative(
        trace, proxy_frac=proxy_frac, browser_sizing="average"
    )

    exact_sim = Simulator(trace, Organization.BROWSERS_AWARE_PROXY, base)
    exact = exact_sim.run()

    periodic = Simulator(
        trace,
        Organization.BROWSERS_AWARE_PROXY,
        base.with_(index_update_policy=PeriodicUpdatePolicy(threshold=0.10)),
    ).run()

    # Bloom summaries rebuilt from the final true browser contents.
    browsers = exact_sim.browsers
    per_client = max(1, max((len(c) for c in browsers), default=1))
    filters = []
    cached: set[tuple[int, int]] = set()
    for cid, cache in enumerate(browsers):
        docs = list(cache)
        summary = BloomFilter.for_capacity(per_client, bits_per_doc)
        summary.add_many(docs)
        filters.append(summary)
        cached.update((cid, d) for d in docs)

    # False-positive probe: random (client, doc) pairs that are *not*
    # cached must mostly be rejected by the summaries.
    rng = make_rng(seed)
    n_docs = trace.n_docs
    probes = 0
    false_pos = 0
    clients = rng.integers(0, len(browsers), size=n_probe)
    docs = rng.integers(0, n_docs, size=n_probe)
    for cid, doc in zip(clients.tolist(), docs.tolist()):
        if (cid, doc) in cached:
            continue
        probes += 1
        if doc in filters[cid]:
            false_pos += 1
    fp_rate = false_pos / probes if probes else 0.0

    return IndexAblationResult(
        trace_name=trace.name,
        exact=exact,
        periodic=periodic,
        exact_footprint_bytes=exact.index_peak_footprint_bytes,
        bloom_footprint_bytes=sum(f.size_bytes for f in filters),
        bloom_false_positive_rate=fp_rate,
    )
