"""JSONL run journal: durable per-attempt records and resume support.

A sweep that dies halfway — machine reboot, OOM kill, ctrl-C — used to
discard every completed cell.  The journal makes sweep execution
*restartable*: the engine appends one JSON line per event as it runs,
and a later invocation pointed at the journal (``--resume``) replays
completed cells from their recorded results instead of re-simulating
them.  Restored results are bit-identical to fresh ones: every counter
of :class:`~repro.core.metrics.SimulationResult` round-trips through
JSON exactly (Python serialises floats by ``repr``, which is lossless).

Record kinds (each line is one JSON object with a ``kind`` field):

* ``run`` — header: engine settings and grid size, written once;
* ``attempt`` — one per execution attempt: cell identity (index,
  trace, organization, fraction, seed), attempt number, elapsed
  seconds, outcome (``ok`` / ``error`` / ``timeout`` / ``pool-crash``
  / ``resumed``), and the error string for failures;
* ``result`` — the full serialised :class:`SimulationResult` of a
  completed cell (what resume restores).

Cells are identified for resume by ``(trace, organization, fraction,
seed)`` — never by grid position — so a journal survives grid
reordering and a resumed run can safely add or drop cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
from pathlib import Path
from typing import IO, Any, Iterator

from repro.cache.stats import CacheStats
from repro.consistency.policies import ConsistencyStats
from repro.core.events import HitLocation
from repro.core.metrics import SimulationResult
from repro.core.overhead import OverheadReport
from repro.index.staleness import StalenessStats

__all__ = [
    "JournalWriter",
    "result_to_jsonable",
    "result_from_jsonable",
    "read_journal",
    "load_completed_results",
    "cell_key",
    "config_digest",
]

log = logging.getLogger(__name__)

JOURNAL_VERSION = 1

#: identity of a cell as recorded in the journal: what resume matches on.
CellKey = tuple[str, str, float, int, str]


def config_digest(config) -> str:
    """A short stable fingerprint of a :class:`SimulationConfig`.

    Part of the resume identity: two cells at the same grid coordinate
    but different configurations (say, ``minimum`` vs ``average``
    browser sizing) must never satisfy each other's resume lookup.
    ``repr`` of the frozen config dataclass is deterministic — every
    field is a number, string, tuple, or nested frozen dataclass.
    """
    return hashlib.sha1(repr(config).encode("utf-8")).hexdigest()[:12]


def cell_key(
    trace_name: str, organization: str, fraction: float, seed: int, digest: str = ""
) -> CellKey:
    return (trace_name, organization, float(fraction), int(seed), digest)


# -- SimulationResult <-> JSON ----------------------------------------------


def _from_fields(cls, data: dict):
    """Build a dataclass from a dict, ignoring unknown keys so old
    journals stay readable after the schema grows."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})


def result_to_jsonable(result: SimulationResult) -> dict[str, Any]:
    """Serialise a result to plain JSON types, losslessly."""
    return {
        "trace_name": result.trace_name,
        "organization": result.organization,
        "n_requests": result.n_requests,
        "total_bytes": result.total_bytes,
        "by_location": {
            loc.name: dataclasses.asdict(stats)
            for loc, stats in result.by_location.items()
        },
        "overhead": dataclasses.asdict(result.overhead),
        "index_stats": dataclasses.asdict(result.index_stats),
        "consistency_stats": dataclasses.asdict(result.consistency_stats),
        "index_lookups": result.index_lookups,
        "index_false_hits": result.index_false_hits,
        "holder_unavailable": result.holder_unavailable,
        "failover_attempts": result.failover_attempts,
        "failover_rescued_hits": result.failover_rescued_hits,
        "integrity_failures": result.integrity_failures,
        "corrupt_deliveries": result.corrupt_deliveries,
        "poisoned_requests": result.poisoned_requests,
        "quarantined_peers": result.quarantined_peers,
        "quarantine_rescued_hits": result.quarantine_rescued_hits,
        "proxy_crashes": result.proxy_crashes,
        "recovery_time": result.recovery_time,
        "degraded_window_requests": result.degraded_window_requests,
        "hits_lost_to_recovery": result.hits_lost_to_recovery,
        "checkpoint_bytes_written": result.checkpoint_bytes_written,
        "interproxy_hits": result.interproxy_hits,
        "digest_false_hits": result.digest_false_hits,
        "digest_missed_hits": result.digest_missed_hits,
        "digest_bytes_exchanged": result.digest_bytes_exchanged,
        "digest_exchanges_lost": result.digest_exchanges_lost,
        "partition_windows": result.partition_windows,
        "wasted_partition_time": result.wasted_partition_time,
        "antientropy_bytes": result.antientropy_bytes,
        "interproxy_bandwidth_time": result.interproxy_bandwidth_time,
        "index_peak_entries": result.index_peak_entries,
        "index_peak_footprint_bytes": result.index_peak_footprint_bytes,
        "uses_memory_tier": result.uses_memory_tier,
    }


def result_from_jsonable(data: dict[str, Any]) -> SimulationResult:
    """Rebuild a result from :func:`result_to_jsonable` output."""
    result = SimulationResult(
        trace_name=data["trace_name"],
        organization=data["organization"],
        n_requests=data["n_requests"],
        total_bytes=data["total_bytes"],
        by_location={
            HitLocation[name]: _from_fields(CacheStats, stats)
            for name, stats in data["by_location"].items()
        },
        overhead=_from_fields(OverheadReport, data["overhead"]),
        index_stats=_from_fields(StalenessStats, data["index_stats"]),
        consistency_stats=_from_fields(ConsistencyStats, data["consistency_stats"]),
        index_lookups=data["index_lookups"],
        index_false_hits=data["index_false_hits"],
        holder_unavailable=data["holder_unavailable"],
        # journals written before the resilience counters existed load
        # with zeros, matching what those engines measured.
        failover_attempts=data.get("failover_attempts", 0),
        failover_rescued_hits=data.get("failover_rescued_hits", 0),
        integrity_failures=data.get("integrity_failures", 0),
        # journals written before the adversarial counters existed load
        # with zeros, matching what those engines measured.
        corrupt_deliveries=data.get("corrupt_deliveries", 0),
        poisoned_requests=data.get("poisoned_requests", 0),
        quarantined_peers=data.get("quarantined_peers", 0),
        quarantine_rescued_hits=data.get("quarantine_rescued_hits", 0),
        proxy_crashes=data.get("proxy_crashes", 0),
        recovery_time=data.get("recovery_time", 0.0),
        degraded_window_requests=data.get("degraded_window_requests", 0),
        hits_lost_to_recovery=data.get("hits_lost_to_recovery", 0),
        checkpoint_bytes_written=data.get("checkpoint_bytes_written", 0),
        # journals written before the federation counters existed load
        # with zeros, matching what those single-proxy engines measured.
        interproxy_hits=data.get("interproxy_hits", 0),
        digest_false_hits=data.get("digest_false_hits", 0),
        digest_missed_hits=data.get("digest_missed_hits", 0),
        digest_bytes_exchanged=data.get("digest_bytes_exchanged", 0),
        # journals written before the partition counters existed load
        # with zeros, matching what those perfect-fabric engines measured.
        digest_exchanges_lost=data.get("digest_exchanges_lost", 0),
        partition_windows=data.get("partition_windows", 0),
        wasted_partition_time=data.get("wasted_partition_time", 0.0),
        antientropy_bytes=data.get("antientropy_bytes", 0),
        interproxy_bandwidth_time=data.get("interproxy_bandwidth_time", 0.0),
        index_peak_entries=data["index_peak_entries"],
        index_peak_footprint_bytes=data["index_peak_footprint_bytes"],
        uses_memory_tier=data["uses_memory_tier"],
    )
    # locations absent from an old journal keep fresh zero counters.
    for loc in HitLocation:
        result.by_location.setdefault(loc, CacheStats())
    return result


# -- writing ----------------------------------------------------------------


class JournalWriter:
    """Appends journal records as JSON lines, flushing after each so a
    killed run leaves every finished attempt on disk."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] = self.path.open("a", encoding="utf-8")

    def _write(self, record: dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()

    def write_header(
        self,
        n_cells: int,
        workers: int,
        retries: int,
        cell_timeout: float | None,
    ) -> None:
        self._write(
            {
                "kind": "run",
                "version": JOURNAL_VERSION,
                "n_cells": n_cells,
                "workers": workers,
                "retries": retries,
                "cell_timeout": cell_timeout,
            }
        )

    def write_attempt(
        self,
        cell,
        attempt: int,
        outcome: str,
        elapsed: float,
        error: str | None = None,
    ) -> None:
        """One line per execution attempt (``cell`` is a SweepCell)."""
        self._write(
            {
                "kind": "attempt",
                "cell": cell.index,
                "trace": cell.trace_name,
                "organization": cell.organization.value,
                "fraction": cell.fraction,
                "seed": cell.seed,
                "config": config_digest(cell.config),
                "attempt": attempt,
                "outcome": outcome,
                "elapsed": elapsed,
                "error": error,
            }
        )

    def write_result(self, cell, result: SimulationResult) -> None:
        self._write(
            {
                "kind": "result",
                "cell": cell.index,
                "trace": cell.trace_name,
                "organization": cell.organization.value,
                "fraction": cell.fraction,
                "seed": cell.seed,
                "config": config_digest(cell.config),
                "result": result_to_jsonable(result),
            }
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- reading ----------------------------------------------------------------


def _discard(path, where: str) -> None:
    log.warning(
        "journal %s: discarding corrupt record at %s "
        "(likely a crash mid-write); the cell will be re-run",
        path,
        where,
    )


def read_journal(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield journal records; skips blank and truncated/corrupt lines
    with a warning (a crash mid-write must not make the journal
    unreadable — the torn trailing record is simply re-simulated).  A
    line is corrupt unless it is UTF-8 text holding one JSON object."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                record = None
            if isinstance(record, dict):
                yield record
            else:
                _discard(path, f"line {lineno}")


def load_completed_results(path: str | Path) -> dict[CellKey, SimulationResult]:
    """The resume set: completed cells keyed by identity.

    Later records win, so a journal that was itself produced by a
    resumed run (containing both ``resumed`` re-records and fresh
    results) loads cleanly.  A result record missing its identity or
    holding a result that does not rebuild is discarded with the same
    warning as a corrupt line, and its cell re-runs.
    """
    completed: dict[CellKey, SimulationResult] = {}
    for record in read_journal(path):
        if record.get("kind") != "result":
            continue
        try:
            key = cell_key(
                record["trace"],
                record["organization"],
                record["fraction"],
                record["seed"],
                record.get("config", ""),
            )
            completed[key] = result_from_jsonable(record["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            _discard(path, f"result record of cell {record.get('cell')!r}")
    return completed
