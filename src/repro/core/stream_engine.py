"""Streaming replay: flat per-client state, any row source.

:class:`~repro.core.simulator.Simulator` keeps one cache *object* per
client.  At the paper's scales (tens to hundreds of clients) that is
free; at a million clients the per-object overhead alone costs hundreds
of megabytes before a single document is cached.

:func:`simulate_stream` replays through the same loop,
:meth:`Simulator._replay <repro.core.simulator.Simulator._replay>`,
with the second client-state backend: every browser cache lives in one
:class:`~repro.cache.FlatBrowsers` slot pool of flat columns, a few
machine words per client; its exact index is a view of the pool's
per-document holder chains (:class:`~repro.index.chain.ChainIndex`), not
a second copy.  The input can be any **row source** —
a materialised :class:`~repro.traces.record.Trace` or a
:class:`~repro.traces.streaming.TraceStream` — so a million-client,
ten-million-request cell replays out-of-core.  The flat pool replicates
LRU browser caches exactly, so for every accepted configuration the
result is **bit identical** to ``simulate(trace, organization,
config)`` on the materialised trace; property tests pin this.

Rejected knobs
--------------
Everything the loop and its hooks implement works on the flat backend
too: churn and Bernoulli availability, corruption, adversarial peers,
quarantine, proxy crashes and checkpoints, single-proxy chaos plans,
bloom indexes and periodic index updates.  Five knobs raise
:class:`ValueError` naming the knob: the tiered memory model and
consistency policies (per-entry state the slot pool does not keep), a
non-LRU browser policy (the pool implements LRU order), and federation
and its link faults (the federated router in front of the same loop
shards clients over per-proxy engines with object caches).
"""

from __future__ import annotations

from repro.cache.flat import DOC_LIMIT
from repro.core.config import SimulationConfig
from repro.core.metrics import SimulationResult
from repro.core.policies import Organization
from repro.core.simulator import Simulator
from repro.util.profiling import ReplayProfile

__all__ = ["StreamSimulator", "simulate_stream"]


def _reject(knob: str, why: str) -> ValueError:
    return ValueError(
        f"simulate_stream does not support {knob} ({why}); "
        "replay a materialised Trace through repro.core.simulate instead"
    )


def check_stream_config(config: SimulationConfig) -> None:
    """Raise :class:`ValueError` for knobs the flat backend cannot hold."""
    if config.memory_fraction is not None or config.browser_memory_fraction is not None:
        raise _reject("the tiered memory model", "per-entry tier state")
    if config.browser_policy != "lru":
        raise _reject(
            f"browser_policy={config.browser_policy!r}",
            "the flat slot pool implements LRU order",
        )
    if config.consistency is not None:
        raise _reject("consistency policies", "per-entry expiry state")
    if config.federation is not None:
        if config.federation.link_faults is not None:
            raise _reject(
                "link_faults", "time-varying inter-proxy connectivity"
            )
        raise _reject("federation", "multi-proxy replay")


class StreamSimulator(Simulator):
    """A :class:`~repro.core.simulator.Simulator` over flat client state.

    *source* is anything with ``name``, ``n_clients``,
    ``has_dense_clients``, ``max_doc_id``, ``__len__`` and
    ``iter_rows()`` — a :class:`~repro.traces.record.Trace` or a
    :class:`~repro.traces.streaming.TraceStream`.  ``profile`` samples
    the loop exactly as it does for :class:`Simulator`.
    """

    flat_clients = True

    def __init__(
        self,
        source,
        organization: Organization,
        config: SimulationConfig,
        profile: ReplayProfile | None = None,
    ) -> None:
        check_stream_config(config)
        if source.max_doc_id >= DOC_LIMIT:
            raise ValueError(
                f"document id {source.max_doc_id} exceeds the packed-key "
                f"limit ({DOC_LIMIT})"
            )
        super().__init__(source, organization, config, profile=profile)


def simulate_stream(
    source,
    organization: Organization,
    config: SimulationConfig,
    profile: ReplayProfile | None = None,
) -> SimulationResult:
    """Replay any row source over the flat client-state backend.

    Bit-identical to ``simulate(trace, organization, config)`` on the
    materialised trace; raises :class:`ValueError` for the knobs listed
    in the module docstring.  ``profile`` (a
    :class:`~repro.util.profiling.ReplayProfile`) runs the same loop
    under the phase sampler; results are bit-identical either way.
    """
    return StreamSimulator(source, organization, config, profile=profile).run()
