"""The benchmark's three workloads.

Each workload has a *setup* (trace generation or ``TraceStream``
calibration, plus engine construction — what ``setup_s`` times) and a
*unit* of timed work that the harness repeats for the measured
seconds.  Units call the engines only through their public entry
points, looked up on their modules at call time so the traced run's
wrappers see them.  The seed selects the generated inputs; the engines
receive only those inputs.

======================  =====================================================
``stream-baps``         one BAPS cell shaped like the 1M-client cell
                        (10 requests per client), ``simulate_stream`` over a
                        ``TraceStream``
``fig2``                the Figure 2 sweep, 5 organizations x 4 sizes, on
                        NLANR-uc scaled to 12k requests, replayed cell by cell
                        and then predicted by the one-pass MRC analysis
``federated-chaos``     4 proxies exchanging bloom digests, bloom browser
                        index, churn, failover, one mid-trace partition
======================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    ChurnModel,
    FederationConfig,
    HitLocation,
    Organization,
    SimulationConfig,
    StreamSimulator,
)
from repro.core import simulator as simulator_mod
from repro.core import stream_engine
from repro.core import sweep as sweep_mod
from repro.federation.engine import FederatedSimulator
from repro.federation.linkfaults import LinkFaultModel
from repro.traces import SyntheticTraceConfig, TraceStream, get_profile
from repro.traces import synthetic

from checks import (
    digest_failures,
    dominance_failures,
    invariant_failures,
    mrc_check,
)

__all__ = ["DEFAULT_SEED", "Cell", "Unit", "WORKLOADS"]

#: the seed whose result digests are pinned in ``pinned.json``.
DEFAULT_SEED = 0

BAPS = Organization.BROWSERS_AWARE_PROXY
FIG2_TRACE = "NLANR-uc"
#: NLANR-uc scaled down (from 120k requests) so that one fig2 unit, a
#: replayed and a predicted sweep, takes under a second: many short
#: units per run let the harness report the fastest one, which a noisy
#: shared host disturbs least.
FIG2_REQUESTS = 12_000


@dataclass
class Cell:
    """One replayed or predicted (organization, size) cell."""

    key: str
    organization: Organization | None
    config: SimulationConfig | None
    result: object | None
    error: str | None = None
    failures: list[str] = field(default_factory=list)
    #: reported but not failing (see ``checks.mrc_check``).
    deviations: list[str] = field(default_factory=list)
    #: predicted by the MRC analysis rather than replayed.
    predicted: bool = False


@dataclass
class Unit:
    """One repetition of a workload's timed work."""

    cells: list[Cell]
    seconds: float
    sweep: object | None = None


@dataclass
class State:
    """What setup produced: the generated input and its config."""

    source: object
    config: SimulationConfig | None = None


def _paper_trace(seed: int, n_requests: int | None = None):
    """NLANR-uc at a workload seed; seed 0 is the paper profile itself
    (``load_paper_trace``/``small_paper_trace`` give the same trace)."""
    profile = get_profile(FIG2_TRACE)
    if n_requests is not None:
        profile = profile.scaled(n_requests)
    return synthetic.generate_trace(profile.config, seed=profile.seed + seed)


def cell_key(organization: Organization, fraction: float) -> str:
    return f"{organization.value}@{fraction:g}"


class Workload:
    name: str
    #: cells one unit replays (or predicts).
    cells_per_unit: int = 1

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def run_unit(self, state: State) -> Unit:
        raise NotImplementedError

    def requests_per_unit(self, state: State) -> int:
        return self.cells_per_unit * len(state.source)

    # -- checks ----------------------------------------------------------

    def check(self, state: State, units: list[Unit], pinned: dict | None) -> None:
        """Fill in ``cell.failures`` for every cell of *units*."""
        digests = pinned["digests"].get(self.name, {}) if pinned is not None else None
        for unit in units:
            for cell in unit.cells:
                if cell.error is not None:
                    cell.failures.append(f"{cell.key}: {cell.error}")
                    continue
                try:
                    cell.failures += digest_failures(cell.key, cell.result, digests)
                    cell.failures += invariant_failures(
                        cell.key, cell.config, cell.result
                    )
                except Exception as exc:  # a broken result is a failed cell
                    cell.failures.append(f"{cell.key}: {type(exc).__name__}: {exc}")
            if unit.cells and not any(c.error for c in unit.cells):
                try:
                    self.check_unit(state, unit, pinned)
                except Exception as exc:
                    for cell in unit.cells:
                        cell.failures.append(f"{type(exc).__name__}: {exc}")

    def check_unit(self, state: State, unit: Unit, pinned: dict | None) -> None:
        """Workload-specific checks over one whole unit."""

    # -- workload properties --------------------------------------------

    def distinct_docs(self, state: State) -> int:
        return int(np.unique(state.source.docs).size)

    def capacities(self, units: list[Unit]) -> list[tuple[int, int]]:
        """(proxy capacity, per-client browser capacity) per config."""
        return sorted(
            {
                (c.config.proxy_capacity, c.config.browser_capacity)
                for u in units
                for c in u.cells
                if c.config is not None
            }
        )


# -- stream-baps -----------------------------------------------------------


class StreamBaps(Workload):
    """One BAPS cell in the shape of the 1M-client cell, scaled down to
    10k clients (about a second a unit): 10 requests per client, 1e9-byte proxy, 20 kB browsers, the exact
    index, every other knob at its default."""

    name = "stream-baps"
    N_CLIENTS = 10_000
    REQUESTS_PER_CLIENT = 10
    CONFIG = SimulationConfig(proxy_capacity=1_000_000_000, browser_capacity=20_000)

    def setup(self, seed: int) -> State:
        stream = TraceStream(
            SyntheticTraceConfig(
                n_requests=self.N_CLIENTS * self.REQUESTS_PER_CLIENT,
                n_clients=self.N_CLIENTS,
            ),
            seed=seed,
        )
        StreamSimulator(stream, BAPS, self.CONFIG)
        return State(stream, self.CONFIG)

    def run_unit(self, state: State) -> Unit:
        result = stream_engine.simulate_stream(state.source, BAPS, state.config)
        return Unit([Cell(self.name, BAPS, state.config, result)], 0.0)

    def distinct_docs(self, state: State) -> int:
        docs: set[int] = set()
        for _, _, chunk_docs, _, _ in state.source.chunks():
            docs.update(np.unique(chunk_docs).tolist())
        return len(docs)


# -- fig2 ----------------------------------------------------------------


class Fig2(Workload):
    """The Figure 2 grid twice over the same trace:
    ``run_policy_sweep(NLANR-uc, workers=0)`` replays every cell
    in-process, then ``run_policy_sweep(..., mrc=True)`` predicts all 20
    cells from one trace pass.  The trace is scaled to
    :data:`FIG2_REQUESTS` (cache sizes are fractions of the trace's
    infinite-cache size, so each cell keeps its shape).  The replay is
    the reference the predictions are checked against."""

    name = "fig2"
    cells_per_unit = 2 * len(Organization) * len(sweep_mod.PAPER_SIZE_FRACTIONS)

    def setup(self, seed: int) -> State:
        return State(_paper_trace(seed, FIG2_REQUESTS))

    def run_unit(self, state: State) -> Unit:
        trace = state.source
        replay = sweep_mod.run_policy_sweep(trace, workers=0)
        mrc = sweep_mod.run_policy_sweep(trace, workers=0, mrc=True)
        cells = self.cells(trace, replay, "") + self.cells(trace, mrc, "mrc:")
        return Unit(cells, 0.0, replay)

    @staticmethod
    def cells(trace, sweep, prefix: str) -> list[Cell]:
        failed = {
            (f.cell.organization, f.cell.fraction): f.error for f in sweep.failures
        }
        cells = []
        for frac in sweep.fractions:
            config = SimulationConfig.relative(
                trace, proxy_frac=frac, browser_sizing="minimum"
            )
            for org in sweep.organizations:
                cells.append(
                    Cell(
                        prefix + cell_key(org, frac),
                        org,
                        config,
                        sweep.results.get((org, frac)),
                        failed.get((org, frac)),
                        predicted=bool(prefix),
                    )
                )
        return cells

    def check_unit(self, state: State, unit: Unit, pinned: dict | None) -> None:
        problems = dominance_failures(unit.sweep)
        replayed = {c.key: c.result for c in unit.cells if not c.predicted}
        for cell in unit.cells:
            if not cell.predicted:
                if cell.organization is BAPS:
                    cell.failures += problems
                continue
            reference = replayed[cell.key.removeprefix("mrc:")]
            failures, deviations = mrc_check(
                cell.key,
                cell.organization,
                cell.result,
                (reference.hit_ratio, reference.byte_hit_ratio),
            )
            cell.failures += failures
            cell.deviations += deviations


# -- federated-chaos -------------------------------------------------------


class FederatedChaos(Workload):
    """NLANR-uc scaled to 1k requests (under a second a unit) under BAPS
    over 4 federated proxies:
    bloom browser index, 900 s digest period, session churn, two
    failover retries and one partition window over the middle fifth of
    the trace."""

    name = "federated-chaos"
    N_REQUESTS = 1_000
    N_PROXIES = 4

    def setup(self, seed: int) -> State:
        trace = _paper_trace(seed, self.N_REQUESTS)
        span = trace.duration
        window = (0.4 * span, 0.6 * span)
        config = SimulationConfig.relative(
            trace, proxy_frac=0.10, browser_sizing="minimum"
        ).with_(
            index_kind="bloom",
            churn=ChurnModel(),
            max_holder_retries=2,
            federation=FederationConfig(
                n_proxies=self.N_PROXIES,
                digest_period=900.0,
                link_faults=LinkFaultModel(partition_windows=(window,)),
            ),
        )
        FederatedSimulator(trace, BAPS, config)
        return State(trace, config)

    def run_unit(self, state: State) -> Unit:
        result = simulator_mod.simulate(state.source, BAPS, state.config)
        return Unit([Cell(self.name, BAPS, state.config, result)], 0.0)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (StreamBaps(), Fig2(), FederatedChaos())
}


def hit_shares(results) -> dict[str, float]:
    """Share of all requests served at each location."""
    total = sum(r.n_requests for r in results) or 1
    shares = {}
    for loc in HitLocation:
        if loc is HitLocation.ORIGIN:
            n = sum(r.by_location[loc].misses for r in results)
        else:
            n = sum(r.by_location[loc].hits for r in results)
        shares[loc.value] = n / total
    return shares
