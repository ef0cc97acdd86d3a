"""BAPS performance benchmark: one workload per run, end-to-end metrics
untraced, per-layer metrics from a separate traced run, every output
checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload federated-chaos --trace 1
    python3 perfbench/run.py --pin            # rewrite perfbench/pinned.json

Workloads: ``stream-baps``, ``fig2``, ``federated-chaos`` (see
``workloads.py``).  A run

1. times a short fixed pure-Python loop (``host.calib_mops``), so
   rates from different machines can be normalised;
2. until ``--seconds`` have passed, sets the workload up and runs one
   unit of its work (under a second), checking each unit outside its
   timing; it reports the median setup time (``setup_s``), the rate of
   the fastest unit (``requests_per_s``) and the process's peak RSS
   (``peak_rss_mib``).  The fastest unit is the one least disturbed by
   other load on a shared host: that load only ever slows a unit down,
   and it comes and goes over seconds.  Setups are spread over the
   whole run for the same reason;
3. with ``--trace 1``, sets up and runs one more unit with span
   wrappers installed (``tracing.py``) and reports the per-layer
   metrics instead of the end-to-end ones;
4. checks the traced unit too (``checks.py``), prints the workload's properties
   and, as the last line of standard output, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

All times are host seconds.  Exit status is 0 when the run completed
(even with failed cells, which the JSON reports), 2 when the package
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PINNED = HERE / "pinned.json"

MIB = 1024 * 1024


def calibrate(n: int = 200_000, repeats: int = 10) -> float:
    """Millions of iterations per second of a fixed dict-update loop
    (best of *repeats*): a machine-speed yardstick, not a metric of
    the program."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(n):
            k = i & 1023
            table[k] = table.get(k, 0) + i
        best = min(best, time.perf_counter() - t0)
    return n / best / 1e6


def run_unit(workload, state):
    """One unit of work; an exception becomes failed cells."""
    from workloads import Cell, Unit

    t0 = time.perf_counter()
    try:
        unit = workload.run_unit(state)
    except Exception as exc:  # counted as failed cells, never a crash
        error = f"{type(exc).__name__}: {exc}"
        unit = Unit(
            [
                Cell(f"{workload.name}#{i}", None, None, None, error)
                for i in range(workload.cells_per_unit)
            ],
            0.0,
        )
    unit.seconds = time.perf_counter() - t0
    return unit


def timed_runs(workload, seed: int, seconds: float, pinned: dict | None):
    """Set up, run and check one unit at a time until *seconds* have
    passed; returns (last state, setup seconds list, units).  Only the
    first unit keeps its results (for the property report); the others
    drop theirs once checked, so peak RSS does not grow with the unit
    count."""
    setup_times: list[float] = []
    units = []
    start = time.perf_counter()
    while True:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
        unit = run_unit(workload, state)
        workload.check(state, [unit], pinned)
        if units:
            for cell in unit.cells:
                cell.result = None
        units.append(unit)
        if time.perf_counter() - start >= seconds:
            return state, setup_times, units


def traced_run(workload, seed: int):
    """Setup plus one unit under the span wrappers."""
    from tracing import ROOT, Tracer

    tracer = Tracer()
    with tracer.installed():
        with tracer.span(ROOT):
            unit = run_unit(workload, workload.setup(seed))
    return tracer, unit


def per_layer_metrics(tracer, results, requests: int, untraced_s: float) -> dict:
    """Layer rows of one traced run.  The layer self times,
    ``replay.construct_s`` and ``replay.self_s`` add up to
    ``trace.wall_s``: ``replay.self_s`` is what the layers do not
    explain (the engines' own loop code and the harness glue)."""
    from repro.core import HitLocation

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    wall = tracer.wall_s()
    exact = [r for r, cfg in results if cfg is None or cfg.index_kind == "exact"]
    bloom = [r for r, cfg in results if cfg is not None and cfg.index_kind == "bloom"]
    rs = [r for r, _ in results]
    n_req = sum(r.n_requests for r in rs)

    def total(field, among=rs):
        return sum(getattr(r, field) for r in among)

    def hits(loc, among=rs):
        return sum(r.by_location[loc].hits for r in among)

    def ratio(a, b):
        return a / b if b else 0.0

    misses = sum(r.by_location[HitLocation.ORIGIN].misses for r in rs)
    miss_bytes = sum(r.by_location[HitLocation.ORIGIN].miss_bytes for r in rs)
    layer_s = {
        layer: self_s(layer)
        for layer in ("traces", "cache", "index", "bloom", "federation", "sweep", "mrc")
    }
    construct_s = self_s("engine", "construct")
    replay_self = wall - sum(layer_s.values()) - construct_s
    failovers = total("failover_attempts")
    m = {
        "traces.gen_s": (layer_s["traces"], "s"),
        "traces.rows": (counts["traces.rows"], "count"),
        "cache.get_calls": (calls("cache", "get"), "count"),
        "cache.put_calls": (calls("cache", "put"), "count"),
        "cache.peek_calls": (calls("cache", "peek"), "count"),
        "cache.self_s": (layer_s["cache"], "s"),
        "index.lookup_calls": (calls("index", "lookup"), "count"),
        "index.lookup_s": (self_s("index", "lookup") + self_s("index", "candidates"), "s"),
        "index.update_calls": (calls("index", "update"), "count"),
        "index.update_s": (self_s("index", "update"), "s"),
        "index.useful_frac": (
            ratio(hits(HitLocation.REMOTE_BROWSER, exact), calls("index", "lookup")),
            "frac",
        ),
        "index.peak_footprint_mib": (
            max((r.index_peak_footprint_bytes for r in exact), default=0) / MIB,
            "MiB",
        ),
        "bloom.lookup_calls": (calls("bloom", "lookup"), "count"),
        "bloom.lookup_s": (self_s("bloom", "lookup") + self_s("bloom", "candidates"), "s"),
        "bloom.rebuild_calls": (calls("bloom", "rebuild"), "count"),
        "bloom.rebuild_s": (self_s("bloom", "rebuild"), "s"),
        "bloom.update_s": (self_s("bloom", "update"), "s"),
        "bloom.false_hit_frac": (
            ratio(
                total("index_false_hits", bloom),
                counts["bloom.lookup_hits"] + total("failover_attempts", bloom),
            ),
            "frac",
        ),
        "federation.digest_builds": (calls("federation", "digest_build"), "count"),
        "federation.digest_build_s": (self_s("federation", "digest_build"), "s"),
        "federation.claims_calls": (calls("federation", "claims"), "count"),
        "federation.claims_s": (self_s("federation", "claims"), "s"),
        "federation.exchange_s": (self_s("federation", "exchange"), "s"),
        "federation.useful_frac": (
            ratio(total("interproxy_hits"), counts["federation.claims_true"]),
            "frac",
        ),
        "federation.exchange_bytes": (
            total("digest_bytes_exchanged") + total("antientropy_bytes"),
            "bytes",
        ),
        "replay.construct_s": (construct_s, "s"),
        "replay.self_s": (replay_self, "s"),
        "replay.self_ns_per_req": (ratio(replay_self * 1e9, requests), "ns"),
        "delivery.failover_attempts": (failovers, "count"),
        "delivery.rescued_frac": (ratio(total("failover_rescued_hits"), failovers), "frac"),
        "sweep.cells": (counts["sweep.cells"], "count"),
        "sweep.overhead_s": (layer_s["sweep"], "s"),
        "mrc.pass_s": (self_s("mrc", "pass"), "s"),
        "mrc.predict_s": (self_s("mrc", "predict"), "s"),
        "sim.hit_ratio": (ratio(n_req - misses, n_req), "frac"),
        "sim.byte_hit_ratio": (
            ratio(total("total_bytes") - miss_bytes, total("total_bytes")),
            "frac",
        ),
        "sim.remote_hit_frac": (ratio(hits(HitLocation.REMOTE_BROWSER), n_req), "frac"),
        "sim.index_lookups_per_req": (ratio(total("index_lookups"), n_req), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_frac": (ratio(wall, untraced_s) - 1.0, "frac"),
    }
    return m


def describe(workload, state, units) -> list[str]:
    """The workload-property report."""
    from workloads import hit_shares

    source = state.source
    results = [
        c.result
        for u in units
        for c in u.cells
        if c.result is not None and not c.predicted
    ]
    n, clients = len(source), source.n_clients
    lines = [
        f"  requests {n:,}  clients {clients:,}  requests/client {n / max(1, clients):.1f}"
        f"  distinct docs {workload.distinct_docs(state):,}",
        f"  infinite-cache bytes {source.infinite_cache_bytes():,}",
    ]
    for proxy, browser in workload.capacities(units):
        lines.append(
            f"    proxy capacity {proxy:,} ({proxy / source.infinite_cache_bytes():.1%})"
            f"  browsers {browser:,} x {clients:,} = {browser * clients:,}"
        )
    shares = hit_shares(results)
    lines.append(
        "  hit-location shares "
        + "  ".join(f"{loc} {share:.3f}" for loc, share in shares.items())
    )
    req = sum(r.n_requests for r in results) or 1
    lines.append(
        f"  index lookups/request {sum(r.index_lookups for r in results) / req:.3f}"
    )
    return lines


def layer_table(tracer) -> list[str]:
    from tracing import ROOT

    wall = tracer.wall_s()
    rows = []
    for (key, parent), s in sorted(tracer.spans.items(), key=lambda kv: -kv[1].self_s):
        if key == ROOT:
            continue
        where = f"{parent[0]}.{parent[1]}" if parent else "-"
        rows.append(
            f"    {key[0]:<10} {key[1]:<22} under {where:<28} {s.calls:>10,} calls"
            f"  self {s.self_s:8.3f} s ({s.self_s / wall:6.1%})"
        )
    for layer in ("cache", "index", "bloom", "federation", "mrc", "sweep", "traces"):
        if tracer.calls(layer) == 0:
            rows.append(
                f"    {layer:<10} not visible: 0 calls seen (any cost it has "
                f"is inside replay.self_s)"
            )
    return rows


def pin(names) -> int:
    """Replay each workload once at the default seed and write the
    digests to pinned.json."""
    from checks import result_digest
    from workloads import DEFAULT_SEED, WORKLOADS

    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    pinned["seed"] = DEFAULT_SEED
    digests = pinned.setdefault("digests", {})
    for name in names:
        workload = WORKLOADS[name]
        state = workload.setup(DEFAULT_SEED)
        unit = run_unit(workload, state)
        workload.check(state, [unit], None)
        failures = [f for c in unit.cells for f in c.failures]
        if failures:
            print(f"refusing to pin {name}:", *failures, sep="\n  ", file=sys.stderr)
            return 1
        digests[name] = {c.key: result_digest(c.result) for c in unit.cells}
        print(f"pinned {name}: {len(unit.cells)} cells")
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="rewrite pinned.json from the default seed (all workloads, "
        "or --workload)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro.util.memory import peak_rss_bytes
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.pin:
        return pin([args.workload] if args.workload else list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    pinned = (
        json.loads(PINNED.read_text())
        if args.seed == DEFAULT_SEED and PINNED.exists()
        else None
    )

    state, setup_times, units = timed_runs(workload, args.seed, args.seconds, pinned)
    peak_rss = peak_rss_bytes()
    calib = calibrate()

    per_unit = workload.requests_per_unit(state)
    clean = [u.seconds for u in units if not any(c.error for c in u.cells)]
    fastest = min(clean) if clean else 0.0
    rate = per_unit / fastest if clean else 0.0
    setup_s = statistics.median(setup_times)

    checked = list(units)
    if args.trace:
        tracer, traced_unit = traced_run(workload, args.seed)
        # The traced run replays the same seed's inputs, so one state
        # serves it too.
        workload.check(state, [traced_unit], pinned)
        checked.append(traced_unit)
    cells = [c for u in checked for c in u.cells]
    failed = [c for c in cells if c.failures]

    print(
        f"perfbench {workload.name} seed {args.seed}: calibration "
        f"{calib:.2f} Mops/s; setup x{len(setup_times)} median {setup_s:.4f} s; "
        f"{len(units)} units in {sum(u.seconds for u in units):.2f} s"
    )
    if clean:
        quartiles = statistics.quantiles(clean, n=4) if len(clean) > 1 else clean * 3
        print(
            f"unit seconds: fastest {fastest:.4f}  quartiles "
            + " ".join(f"{q:.4f}" for q in quartiles)
            + f"  slowest {max(clean):.4f}"
        )
    print("workload properties:")
    for line in describe(workload, state, units[:1]):
        print(line)
    print(f"checks: {len(cells)} cells attempted, {len(failed)} failed")
    for cell in failed[:10]:
        for failure in cell.failures[:3]:
            print(f"  FAILED {failure}")
    deviating = [c for c in cells if c.deviations]
    for cell in deviating[:10]:
        for deviation in cell.deviations[:2]:
            print(f"  DEVIATION {deviation}")

    if args.trace:
        untraced_s = setup_s + fastest
        # Model rows come from replayed cells: an MRC prediction makes
        # no index lookups and exchanges no digests.
        results = [
            (c.result, c.config)
            for c in traced_unit.cells
            if c.result is not None and not c.predicted
        ]
        metrics = per_layer_metrics(tracer, results, per_unit, untraced_s)
        metrics["host.calib_mops"] = (calib, "Mops/s")
        metrics["check.failed_frac"] = (len(failed) / len(cells), "frac")
        metrics["check.mrc_exact_deviations"] = (len(deviating), "count")
        print("traced run, spans by self time:")
        for line in layer_table(tracer):
            print(line)
        parts = sum(metrics[name][0] for name in SUMMED_ROWS)
        print(
            f"layer rows + replay.self_s = {parts:.4f} s of "
            f"trace.wall_s {metrics['trace.wall_s'][0]:.4f} s"
        )
    else:
        metrics = {
            "requests_per_s": (rate, "req/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss / MIB, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(cells),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


#: the per-layer time rows that partition ``trace.wall_s``.
SUMMED_ROWS = (
    "traces.gen_s",
    "cache.self_s",
    "index.lookup_s",
    "index.update_s",
    "bloom.lookup_s",
    "bloom.update_s",
    "bloom.rebuild_s",
    "federation.digest_build_s",
    "federation.claims_s",
    "federation.exchange_s",
    "sweep.overhead_s",
    "mrc.pass_s",
    "mrc.predict_s",
    "replay.construct_s",
    "replay.self_s",
)


if __name__ == "__main__":
    sys.exit(main())
