"""Composed chaos schedules and the mid-replay invariant monitor.

Every fault model in the library — proxy crash schedules
(:mod:`repro.core.proxy_faults`), client churn
(:mod:`repro.core.churn`), adversarial peer profiles
(:mod:`repro.adversarial`), inter-proxy link partitions
(:mod:`repro.federation.linkfaults`) — was built to run alone.  Real
outages compose: a proxy crashes *during* a partition while flappers
churn.  :class:`ChaosPlan` is the one seeded spec that installs several
models at once, deriving every stochastic sub-stream from one master
seed via namespaced :func:`~repro.util.rng.derive_seed`, so a composed
scenario is exactly as reproducible (and worker-count independent) as
each model alone.

Long chaos soaks have a debugging problem: a counter corrupted at
request 40 000 surfaces as a nonsense ledger at finalise, two million
requests later.  :class:`InvariantMonitor` (opt-in via
``check_invariants_every``) asserts the engine's conservation laws
mid-replay — hits + misses == requests served, the
:class:`~repro.core.overhead.OverheadReport` ledger non-negative and
internally consistent, gated counters zero while their knob is off —
raising :class:`InvariantViolation` naming the violated law and the
request index, so a soak fails at the violating request, not at
finalise.  The same laws are checked once at finalise on *every* run
of every engine, monitored or not; only the per-request ticks are
opt-in.

With ``SimulationConfig.chaos = None`` (the default) no fault model is
installed, no RNG is constructed, and every existing result is
bit-identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.overhead import OverheadReport
from repro.util.rng import derive_seed

if TYPE_CHECKING:
    from repro.adversarial import AdversarialConfig
    from repro.core.churn import ChurnModel
    from repro.core.config import SimulationConfig
    from repro.core.proxy_faults import ProxyFaultModel
    from repro.federation.linkfaults import LinkFaultModel

__all__ = ["ChaosPlan", "InvariantMonitor", "InvariantViolation"]

#: relative slack for comparing independently accumulated float sums.
_REL_TOL = 1e-9
_ABS_TOL = 1e-9


@dataclass(frozen=True)
class ChaosPlan:
    """One seeded spec composing several fault models.

    Any subset of the sub-models may be set; each is installed verbatim
    on the config by :meth:`compose` (a sub-model also set directly on
    the config is a validation error — the plan owns what it composes).
    ``seed`` folds into the config's ``availability_seed`` through the
    ``"chaos"`` namespace — ``derive_seed(availability_seed, "chaos",
    seed)`` — so composed runs draw streams independent of any plain
    run with the same master seed while sweep cells (whose engine
    derives a per-cell ``availability_seed``) stay uncorrelated;
    ``None`` keeps the config's own seed untouched.
    ``check_invariants_every`` > 0 arms the :class:`InvariantMonitor`
    at that request cadence.
    """

    proxy_faults: "ProxyFaultModel | None" = None
    churn: "ChurnModel | None" = None
    adversarial: "AdversarialConfig | None" = None
    link_faults: "LinkFaultModel | None" = None
    seed: int | None = None
    check_invariants_every: int = 0

    def __post_init__(self) -> None:
        if self.check_invariants_every < 0:
            raise ValueError(
                f"check_invariants_every must be >= 0 requests, "
                f"got {self.check_invariants_every!r}"
            )

    @property
    def monitored(self) -> bool:
        return self.check_invariants_every > 0

    def compose(self, config: "SimulationConfig") -> "SimulationConfig":
        """Install the plan's sub-models on *config*.

        Returns a config whose fault knobs carry the composed models
        and whose ``chaos`` field retains only the monitor cadence (or
        ``None`` when unmonitored), so composing is idempotent — the
        engines resolve at construction and a pre-resolved config
        passes through unchanged.
        """
        updates: dict = {}
        if self.proxy_faults is not None:
            updates["proxy_faults"] = self.proxy_faults
        if self.churn is not None:
            updates["churn"] = self.churn
        if self.adversarial is not None:
            updates["adversarial"] = self.adversarial
        if self.link_faults is not None:
            # Validated by SimulationConfig.__post_init__: link faults
            # require a federation to have links to cut.
            updates["federation"] = replace(
                config.federation, link_faults=self.link_faults
            )
        if self.seed is not None:
            updates["availability_seed"] = derive_seed(
                config.availability_seed, "chaos", self.seed
            )
        updates["chaos"] = (
            ChaosPlan(check_invariants_every=self.check_invariants_every)
            if self.monitored
            else None
        )
        return config.with_(**updates)


class InvariantViolation(AssertionError):
    """A conservation law failed mid-replay (or at finalise)."""


class InvariantMonitor:
    """Asserts the engine's conservation laws against a live result.

    Constructed from the *resolved* config (after
    :meth:`ChaosPlan.compose`), because the gated-counter laws depend
    on which knobs are actually armed.  The replay loops call
    :meth:`tick` (live-result loops) or :meth:`tick_fast` (the
    optimized loop, whose per-location counters are batched locally)
    once per request; a check runs every ``check_every`` requests.
    :meth:`check_final` runs the full battery once more after finalise
    — on every run: unmonitored engines call it on a one-shot
    ``InvariantMonitor(config, 1)``.
    """

    def __init__(self, config: "SimulationConfig", check_every: int) -> None:
        if check_every <= 0:
            raise ValueError(
                f"check_every must be > 0 requests, got {check_every!r}"
            )
        self.config = config
        self.check_every = check_every
        self.checks_run = 0
        self._next = check_every

    # -- engine-facing hooks ------------------------------------------------

    def tick(self, result: SimulationResult) -> None:
        """Per-request hook for loops that record into *result* live."""
        if result.n_requests >= self._next:
            at = result.n_requests
            self._check_conservation(
                result.n_requests, result.hits, self._misses(result), at
            )
            self._check_ledger(result, at)
            self._check_gates(result, at)
            self.checks_run += 1
            self._next = result.n_requests + self.check_every

    def tick_fast(
        self, result: SimulationResult, n_requests: int, hits: int, misses: int
    ) -> None:
        """Per-request hook for the optimized loop.

        The fast loop batches its per-location counters in locals and
        flushes once at the end, so conservation is checked against the
        caller's local tallies; the ledger and gate laws still read the
        live result (those counters are charged unbatched).
        """
        if n_requests >= self._next:
            self._check_conservation(n_requests, hits, misses, n_requests)
            self._check_ledger(result, n_requests)
            self._check_gates(result, n_requests)
            self.checks_run += 1
            self._next = n_requests + self.check_every

    def check_final(self, result: SimulationResult) -> None:
        """The full battery against the finalised result."""
        at = result.n_requests
        self._check_conservation(
            result.n_requests, result.hits, self._misses(result), at
        )
        self._check_ledger(result, at)
        self._check_gates(result, at)
        self.checks_run += 1

    # -- the laws -----------------------------------------------------------

    def _fail(self, law: str, at: int, detail: str) -> None:
        raise InvariantViolation(
            f"invariant {law!r} violated at request {at}: {detail}"
        )

    @staticmethod
    def _misses(result: SimulationResult) -> int:
        return result.by_location[HitLocation.ORIGIN].misses

    def _check_conservation(
        self, n_requests: int, hits: int, misses: int, at: int
    ) -> None:
        if hits + misses != n_requests:
            self._fail(
                "hits + misses == requests served",
                at,
                f"hits={hits} misses={misses} n_requests={n_requests}",
            )
        if n_requests < 0 or hits < 0 or misses < 0:
            self._fail(
                "request counters non-negative",
                at,
                f"hits={hits} misses={misses} n_requests={n_requests}",
            )

    def _check_ledger(self, result: SimulationResult, at: int) -> None:
        overhead = result.overhead
        for f in dataclasses.fields(OverheadReport):
            value = getattr(overhead, f.name)
            if value < 0 or not math.isfinite(value):
                self._fail(
                    "overhead ledger components non-negative and finite",
                    at,
                    f"overhead.{f.name}={value!r}",
                )
        total = overhead.total_service_time
        if not math.isfinite(total):
            self._fail(
                "total_service_time finite", at, f"total={total!r}"
            )
        breakdown = overhead.wasted_offline_time + overhead.wasted_false_hit_time
        budget = overhead.wasted_round_trip_time
        if breakdown > budget * (1.0 + _REL_TOL) + _ABS_TOL:
            self._fail(
                "wasted_round_trip_time covers its breakdown",
                at,
                f"offline={overhead.wasted_offline_time!r} + "
                f"false_hit={overhead.wasted_false_hit_time!r} > "
                f"total={budget!r}",
            )
        if result.wasted_partition_time > budget * (1.0 + _REL_TOL) + _ABS_TOL:
            self._fail(
                "wasted_round_trip_time covers wasted_partition_time",
                at,
                f"partition={result.wasted_partition_time!r} > "
                f"total={budget!r}",
            )

    def _check_gates(self, result: SimulationResult, at: int) -> None:
        cfg = self.config
        gates: list[tuple[bool, tuple[str, ...]]] = []
        fed = cfg.federation
        gates.append(
            (
                fed is None,
                (
                    "interproxy_hits",
                    "digest_false_hits",
                    "digest_missed_hits",
                    "digest_bytes_exchanged",
                    "interproxy_bandwidth_time",
                ),
            )
        )
        gates.append(
            (
                fed is None or fed.link_faults is None,
                (
                    "digest_exchanges_lost",
                    "partition_windows",
                    "wasted_partition_time",
                    "antientropy_bytes",
                ),
            )
        )
        gates.append(
            (
                cfg.proxy_faults is None,
                (
                    "proxy_crashes",
                    "recovery_time",
                    "degraded_window_requests",
                    "hits_lost_to_recovery",
                ),
            )
        )
        gates.append((cfg.checkpoint is None, ("checkpoint_bytes_written",)))
        gates.append((cfg.quarantine_threshold == 0, ("quarantined_peers",)))
        gates.append(
            (
                cfg.quarantine_threshold == 0 and not cfg.static_blacklist,
                ("quarantine_rescued_hits",),
            )
        )
        gates.append(
            (
                cfg.adversarial is None,
                ("corrupt_deliveries", "poisoned_requests"),
            )
        )
        gates.append(
            (
                cfg.corruption_rate == 0.0 and cfg.adversarial is None,
                ("integrity_failures",),
            )
        )
        gates.append(
            (
                cfg.churn is None
                and cfg.holder_availability >= 1.0
                and cfg.adversarial is None,
                ("holder_unavailable",),
            )
        )
        gates.append(
            (
                cfg.max_holder_retries == 0,
                ("failover_attempts", "failover_rescued_hits"),
            )
        )
        for gated_off, names in gates:
            if not gated_off:
                continue
            for name in names:
                value = getattr(result, name)
                if value != 0:
                    self._fail(
                        f"{name} stays zero while its knob is off",
                        at,
                        f"{name}={value!r}",
                    )
