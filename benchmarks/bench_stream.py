"""Streaming replay benchmark: million-client cells, out-of-core.

Replays a large synthetic cell through the streaming path —
:class:`repro.traces.streaming.TraceStream` feeding
:func:`repro.core.stream_engine.simulate_stream` — and records requests
per second plus the process's peak resident set size.  With
``--compare`` the same cell also runs materialised
(:func:`~repro.traces.synthetic.generate_trace` +
:func:`~repro.core.simulator.simulate`) and the report carries the
streamed/materialised peak-RSS ratio plus a result digest proving both
engines produced identical numbers, and a generation-only row: the
stream's calibration seconds and peak RSS.

Every measurement runs in a fresh subprocess: ``ru_maxrss`` is a
per-process *lifetime* high-water mark, so in-process back-to-back runs
would contaminate each other.

Usage::

    python benchmarks/bench_stream.py                    # 1M clients / 10M requests, streamed
    python benchmarks/bench_stream.py --compare          # + materialised run and RSS ratio
    python benchmarks/bench_stream.py --ci               # small cell, hard RSS ceiling
    python benchmarks/bench_stream.py --check BENCH_stream.json
        # CI gate: identity + committed digest + streamed RSS under the ceiling

The throughput numbers are machine-dependent and informational; the
gate (``--check``) asserts only machine-neutral facts — the two engines
agree bit for bit, the streamed result equals the committed CI-cell
``result_digest``, and the streamed replay stays under an absolute
RSS ceiling sized ~4x above the expected footprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: default big cell: the million-client scale the streaming path exists for.
BIG_REQUESTS = 10_000_000
BIG_CLIENTS = 1_000_000
#: CI smoke cell: small enough for a PR gate, big enough that a
#: materialised-trace regression in the streaming path would show.
CI_REQUESTS = 200_000
CI_CLIENTS = 50_000
#: hard peak-RSS ceiling for the CI cell (bytes).  The streamed replay
#: of the CI cell measures ~125 MiB; 600 MB leaves headroom for
#: allocator/interpreter drift while still failing loudly if anything
#: rematerialises the trace or reintroduces per-client objects.
CI_RSS_CEILING = 600 * 1024 * 1024

#: cell sizing: browsers hold a couple of mean-sized documents each, so
#: the *simulated* state (index entries, cached docs — identical in
#: both engines) stays small relative to the engine-side overhead the
#: streaming path exists to eliminate (trace columns, generation
#: temporaries, per-client cache objects).
PROXY_CAPACITY = 1_000_000_000
BROWSER_CAPACITY = 20_000
ORGANIZATION = "browsers-aware-proxy-server"


def _worker(mode: str, n_requests: int, n_clients: int, seed: int) -> None:
    """Runs in a fresh subprocess; prints one JSON line."""
    import dataclasses
    import time

    from repro.core import Organization, SimulationConfig, simulate, simulate_stream
    from repro.traces import SyntheticTraceConfig, TraceStream, generate_trace
    from repro.util.memory import peak_rss_bytes

    tc = SyntheticTraceConfig(n_requests=n_requests, n_clients=n_clients)
    config = SimulationConfig(
        proxy_capacity=PROXY_CAPACITY, browser_capacity=BROWSER_CAPACITY
    )
    org = Organization(ORGANIZATION)
    t0 = time.perf_counter()
    if mode == "genstream":
        # workload generation only: calibrate the stream (resolve every
        # request's document, size the pairs, normalise the timestamps),
        # keep it referenced
        workload = TraceStream(tc, seed=seed)
        print(
            json.dumps(
                {
                    "mode": mode,
                    "seconds": time.perf_counter() - t0,
                    "peak_rss_bytes": peak_rss_bytes(),
                    "n_requests": len(workload),
                }
            )
        )
        return
    if mode == "stream":
        result = simulate_stream(TraceStream(tc, seed=seed), org, config)
    else:
        result = simulate(generate_trace(tc, seed=seed), org, config)
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256(
        repr(dataclasses.asdict(result)).encode()
    ).hexdigest()
    print(
        json.dumps(
            {
                "mode": mode,
                "seconds": elapsed,
                "requests_per_second": n_requests / elapsed,
                "peak_rss_bytes": peak_rss_bytes(),
                "hit_ratio": result.hit_ratio,
                "byte_hit_ratio": result.byte_hit_ratio,
                "index_peak_footprint_bytes": result.index_peak_footprint_bytes,
                "result_digest": digest,
            }
        )
    )


def run_cell(mode: str, n_requests: int, n_clients: int, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--worker",
            mode,
            "--requests",
            str(n_requests),
            "--clients",
            str(n_clients),
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_benchmark(
    n_requests: int, n_clients: int, seed: int, compare: bool
) -> dict:
    report: dict = {
        "cell": {
            "n_requests": n_requests,
            "n_clients": n_clients,
            "seed": seed,
            "organization": ORGANIZATION,
            "proxy_capacity": PROXY_CAPACITY,
            "browser_capacity": BROWSER_CAPACITY,
        },
        "streamed": run_cell("stream", n_requests, n_clients, seed),
    }
    if compare:
        report["materialised"] = run_cell("mat", n_requests, n_clients, seed)
        s, m = report["streamed"], report["materialised"]
        report["comparison"] = {
            "identical_results": s["result_digest"] == m["result_digest"],
            "rss_ratio_materialised_over_streamed": (
                m["peak_rss_bytes"] / s["peak_rss_bytes"]
            ),
        }
        # Workload generation alone: the stream's calibration, its
        # seconds and peak RSS.  (Both engines generate through
        # TraceStream, so there is no second generator to compare.)
        report["generation"] = run_cell("genstream", n_requests, n_clients, seed)
    return report


def _mb(n: float) -> str:
    return f"{n / (1024 * 1024):,.0f} MiB"


def render(report: dict) -> str:
    cell = report["cell"]
    lines = [
        f"streaming replay — {cell['n_clients']:,} clients, "
        f"{cell['n_requests']:,} requests, {cell['organization']}",
    ]
    for mode in ("streamed", "materialised"):
        row = report.get(mode)
        if row is None:
            continue
        lines.append(
            f"  {mode:<12} {row['requests_per_second']:>10,.0f} req/s  "
            f"peak RSS {_mb(row['peak_rss_bytes']):>12}  "
            f"({row['seconds']:.1f}s, hit {row['hit_ratio']:.3f})"
        )
    comp = report.get("comparison")
    if comp is not None:
        same = "identical" if comp["identical_results"] else "DIVERGED"
        lines.append(
            f"  materialised/streamed peak-RSS ratio "
            f"{comp['rss_ratio_materialised_over_streamed']:.2f}x, results {same}"
        )
    gen = report.get("generation")
    if gen is not None:
        lines.append(
            f"  generation only (calibration) {gen['seconds']:.1f}s, "
            f"peak RSS {_mb(gen['peak_rss_bytes'])}"
        )
    return "\n".join(lines)


def check(baseline_path: Path, seed: int) -> int:
    """The CI gate: replay the committed CI cell, assert engine
    identity, the committed streamed result digest and the committed
    RSS ceiling."""
    baseline = json.loads(baseline_path.read_text())
    ci = baseline["ci"]
    cell = ci["cell"]
    ceiling = ci["rss_ceiling_bytes"]
    report = run_benchmark(
        cell["n_requests"], cell["n_clients"], cell["seed"], compare=True
    )
    print(render(report))
    failures = []
    if not report["comparison"]["identical_results"]:
        failures.append("streamed and materialised engines diverged")
    # Both engines can move alike; the committed digest catches that.
    pinned = ci["report"]["streamed"]["result_digest"]
    digest = report["streamed"]["result_digest"]
    if digest != pinned:
        failures.append(
            f"streamed result digest {digest[:8]}… differs from the committed "
            f"{pinned[:8]}…"
        )
    rss = report["streamed"]["peak_rss_bytes"]
    print(f"streamed peak RSS {_mb(rss)}, committed ceiling {_mb(ceiling)}")
    if rss > ceiling:
        failures.append(
            f"streamed peak RSS {_mb(rss)} exceeds the ceiling {_mb(ceiling)}"
        )
    for failure in failures:
        print(f"STREAMING REGRESSION: {failure}", file=sys.stderr)
    if not failures:
        print(
            "OK: engines identical, results equal the committed digest, "
            "streamed RSS under the committed ceiling"
        )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=BIG_REQUESTS)
    parser.add_argument("--clients", type=int, default=BIG_CLIENTS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--compare",
        action="store_true",
        help="also run the materialised engine; report the RSS ratio",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help=f"CI cell ({CI_REQUESTS:,} requests / {CI_CLIENTS:,} clients) "
        "with compare and a hard RSS ceiling",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON report")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="run the baseline's CI cell; exit 1 on divergence, a digest "
        "other than the committed one, or an RSS breach",
    )
    parser.add_argument(
        "--pin",
        metavar="PATH",
        help="run the big cell and the CI cell (both with compare) and "
        "write the combined committed baseline",
    )
    parser.add_argument(
        "--worker",
        choices=("stream", "mat", "genstream"),
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)

    if args.worker:
        _worker(args.worker, args.requests, args.clients, args.seed)
        return 0
    if args.check:
        return check(Path(args.check), args.seed)
    if args.pin:
        big = run_benchmark(args.requests, args.clients, args.seed, compare=True)
        print(render(big))
        ci = run_benchmark(CI_REQUESTS, CI_CLIENTS, args.seed, compare=True)
        print(render(ci))
        baseline = {
            "big": big,
            "ci": {
                "cell": ci["cell"],
                "rss_ceiling_bytes": CI_RSS_CEILING,
                "report": ci,
            },
        }
        ok = (
            big["comparison"]["identical_results"]
            and ci["comparison"]["identical_results"]
            and ci["streamed"]["peak_rss_bytes"] <= CI_RSS_CEILING
        )
        if not ok:
            print("refusing to pin: divergence or CI RSS over the ceiling",
                  file=sys.stderr)
            return 1
        Path(args.pin).write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"pinned {args.pin}")
        return 0

    if args.ci:
        report = run_benchmark(CI_REQUESTS, CI_CLIENTS, args.seed, compare=True)
        report["rss_ceiling_bytes"] = CI_RSS_CEILING
        print(render(report))
        rss = report["streamed"]["peak_rss_bytes"]
        ok = report["comparison"]["identical_results"] and rss <= CI_RSS_CEILING
        print(
            f"streamed peak RSS {_mb(rss)}, ceiling {_mb(CI_RSS_CEILING)}: "
            + ("OK" if ok else "FAIL")
        )
        if args.json:
            Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        return 0 if ok else 1

    report = run_benchmark(args.requests, args.clients, args.seed, args.compare)
    print(render(report))
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
