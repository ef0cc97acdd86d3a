"""``baps`` command-line interface.

Examples::

    baps list                               # list experiments
    baps run table1                         # one experiment
    baps run fig2 fig3                      # several
    baps run all                            # the full evaluation
    baps run fig2 --workers 4 --timing      # parallel sweep + timing report
    baps run fig2 --retries 2 --cell-timeout 300 --journal fig2.jsonl
    baps run fig2 --resume fig2.jsonl       # skip already-completed cells
    baps traces                             # trace characteristics only
    baps simulate --trace NLANR-uc --organization browsers-aware-proxy-server
    baps simulate --log access.log --format squid --proxy-frac 0.05
    baps profile --trace NLANR-uc -o all    # per-phase sampled replay time
    baps parse access.log --format squid    # trace statistics for a log
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.config import SimulationConfig
from repro.core.policies import Organization
from repro.core.simulator import simulate
from repro.experiments.runner import ALL_EXPERIMENTS, run_experiment
from repro.traces.bu import parse_bu_log
from repro.traces.canet import parse_canet_log
from repro.traces.profiles import PAPER_TRACES, load_paper_trace
from repro.traces.squid import parse_squid_log
from repro.traces.stats import TraceStats, compute_stats
from repro.util.fmt import ascii_table

__all__ = ["main"]

_PARSERS = {"squid": parse_squid_log, "bu": parse_bu_log, "canet": parse_canet_log}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baps",
        description=(
            "Browsers-Aware Proxy Server — reproduction of Xiao, Zhang & Xu "
            "(IPDPS 2002). Runs the paper's tables and figures and custom "
            "simulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run experiments by id (or 'all')")
    run_p.add_argument("experiments", nargs="+", help="experiment ids or 'all'")
    run_p.add_argument(
        "--workers",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help=(
            "fan sweep cells out over N worker processes (0 = serial "
            "in-process, -1 = all CPUs); results are bit-identical "
            "regardless of N"
        ),
    )
    run_p.add_argument(
        "--timing",
        action="store_true",
        help="print the sweep timing report (cells/sec, speedup vs serial)",
    )
    run_p.add_argument(
        "--profile",
        action="store_true",
        help=(
            "sample per-phase replay time into the timing report "
            "(implies --timing; serial runs only — ignored with --workers)"
        ),
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra attempts per sweep cell after a crash or timeout "
            "(capped exponential backoff between attempts; results are "
            "attempt-independent)"
        ),
    )
    run_p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget; an overrunning cell is retried or quarantined",
    )
    run_p.add_argument(
        "--journal",
        metavar="PATH",
        help=(
            "append a JSONL run journal (one record per attempt plus "
            "completed-cell results) usable later with --resume"
        ),
    )
    run_p.add_argument(
        "--resume",
        metavar="PATH",
        help=(
            "restore cells already completed in a prior run's journal "
            "instead of re-simulating them (bit-identical results)"
        ),
    )
    run_p.add_argument(
        "--max-holder-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "holder failover budget forwarded to experiments that model "
            "churn (e.g. 'availability'): extra replicas probed before a "
            "failed remote hit escalates to the origin"
        ),
    )
    run_p.add_argument(
        "--corruption-rate",
        type=float,
        default=None,
        metavar="P",
        help=(
            "probability a remote transfer fails the integrity check, "
            "forwarded to experiments that accept it"
        ),
    )
    run_p.add_argument(
        "--proxies",
        default=None,
        metavar="N[,N...]",
        help=(
            "cooperating proxy counts for the federation sweep "
            "(e.g. '2,4'); forwarded to experiments that accept it"
        ),
    )
    run_p.add_argument(
        "--digest-period",
        default=None,
        metavar="T[,T...]",
        help=(
            "inter-proxy digest exchange periods in virtual seconds for "
            "the federation sweep (e.g. '900,3600'; 0 = fresh-digest "
            "oracle)"
        ),
    )
    run_p.add_argument(
        "--interproxy-bandwidth",
        type=float,
        default=None,
        metavar="BPS",
        help="modeled inter-proxy link bandwidth in bits/s (federation sweep)",
    )
    run_p.add_argument(
        "--partition-length",
        default=None,
        metavar="S[,S...]",
        help=(
            "inter-proxy partition window lengths in virtual seconds for "
            "the chaos sweep (one mid-trace window per length; default "
            "scales with the trace span)"
        ),
    )
    run_p.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "extra seed folded into every chaos cell's stochastic "
            "sub-streams (chaos sweep; explicit windows stay RNG-free)"
        ),
    )
    run_p.add_argument(
        "--polluter-fraction",
        default=None,
        metavar="F[,F...]",
        help=(
            "polluter client fractions for the stress sweep "
            "(e.g. '0.1,0.2')"
        ),
    )
    run_p.add_argument(
        "--quarantine-threshold",
        default=None,
        metavar="N[,N...]",
        help=(
            "integrity-failure counts before a holder is quarantined, "
            "for the stress sweep (e.g. '1,3')"
        ),
    )
    run_p.add_argument(
        "--flash-crowd",
        action="store_true",
        help=(
            "replay the stress sweep on a flash-crowd surge trace "
            "(hottest document's popularity multiplied over the middle "
            "third of the trace)"
        ),
    )
    run_p.add_argument(
        "--mrc",
        action="store_true",
        help=(
            "derive sweep grids from a one-pass miss-ratio-curve "
            "analysis instead of one replay per cell (fig2/fig3; exact "
            "for pure-LRU organizations, documented approximation "
            "elsewhere; incompatible with the fault-tolerance flags)"
        ),
    )
    run_p.add_argument(
        "--sample-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "run the --mrc pass on a deterministic spatial sample "
            "keeping fraction R of documents (0 < R <= 1), with reuse "
            "distances rescaled by 1/R"
        ),
    )
    run_p.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        metavar="N",
        help="seed for the --sample-rate document hash (default 0)",
    )

    sub.add_parser("traces", help="print trace characteristics (Table 1)")

    sim = sub.add_parser("simulate", help="run one custom simulation")
    src = sim.add_mutually_exclusive_group()
    src.add_argument(
        "--trace",
        default="NLANR-uc",
        help=f"paper trace name ({', '.join(sorted(PAPER_TRACES))})",
    )
    src.add_argument("--log", help="path to a real access log instead")
    sim.add_argument(
        "--format",
        choices=sorted(_PARSERS),
        default="squid",
        help="log format for --log",
    )
    sim.add_argument(
        "--organization",
        "-o",
        default="browsers-aware-proxy-server",
        help="one of: " + ", ".join(o.value for o in Organization),
    )
    sim.add_argument("--proxy-frac", type=float, default=0.10,
                     help="proxy cache as a fraction of the infinite cache size")
    sim.add_argument("--browser-sizing", choices=("minimum", "average"),
                     default="minimum")
    sim.add_argument("--policy", default="lru",
                     help="replacement policy (lru, fifo, lfu, size, gdsf)")
    sim.add_argument("--index-kind", choices=("exact", "bloom"), default="exact")
    sim.add_argument(
        "--churn",
        action="store_true",
        help=(
            "model session-based client churn: holders alternate between "
            "on and off sessions instead of being always reachable"
        ),
    )
    sim.add_argument(
        "--churn-on",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="mean online-session length for --churn (default: 1800)",
    )
    sim.add_argument(
        "--churn-off",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="mean offline-session length for --churn (default: 600)",
    )
    sim.add_argument(
        "--churn-distribution",
        choices=("exponential", "pareto"),
        default="exponential",
        help="session-length distribution for --churn",
    )
    sim.add_argument(
        "--max-holder-retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "failover budget: extra index replicas probed after the chosen "
            "holder fails (offline, stale, or corrupt) before falling back "
            "to the origin"
        ),
    )
    sim.add_argument(
        "--corruption-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "probability a remote-browser transfer arrives corrupted and is "
            "rejected by the integrity check (retransmitted from the next "
            "holder or the origin)"
        ),
    )
    crash = sim.add_mutually_exclusive_group()
    crash.add_argument(
        "--proxy-crash-rate",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "proxy crashes per virtual second (exponential inter-crash "
            "gaps): each crash empties the proxy cache and destroys the "
            "in-memory browser index"
        ),
    )
    crash.add_argument(
        "--proxy-crash-at",
        metavar="T1,T2,...",
        help=(
            "explicit comma-separated proxy crash times (virtual seconds); "
            "deterministic alternative to --proxy-crash-rate"
        ),
    )
    sim.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "snapshot the browser index every SECONDS of virtual time "
            "(periodic full + incremental checkpoints); after a crash the "
            "index restores from the last consistent snapshot"
        ),
    )
    sim.add_argument(
        "--proxies",
        type=int,
        default=None,
        metavar="N",
        help=(
            "shard the clients over N cooperating proxies exchanging "
            "bloom digests (federation model); required by the "
            "partition flags below"
        ),
    )
    sim.add_argument(
        "--digest-period",
        type=float,
        default=900.0,
        metavar="SECONDS",
        help=(
            "inter-proxy digest exchange period for --proxies "
            "(0 = fresh-digest oracle; default: 900)"
        ),
    )
    sim.add_argument(
        "--partition-at",
        metavar="T1,T2,...",
        help=(
            "open an inter-proxy partition at each listed virtual time "
            "(the federation splits into two halves; heals after "
            "--partition-length seconds)"
        ),
    )
    sim.add_argument(
        "--partition-length",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="length of each --partition-at window (default: 600)",
    )
    sim.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "compose the failure flags through a seeded chaos plan: "
            "folds N into every stochastic sub-stream's seed"
        ),
    )
    sim.add_argument(
        "--check-invariants",
        type=int,
        default=0,
        metavar="N",
        help=(
            "assert the engine's conservation laws every N requests "
            "mid-replay (0 = off); a violated invariant aborts at the "
            "violating request"
        ),
    )
    sim.add_argument(
        "--reannounce-rate",
        type=float,
        default=1.0,
        metavar="RATE",
        help=(
            "clients per virtual second that re-announce their browser-cache "
            "contents after a proxy restart (default: 1.0)"
        ),
    )

    prof = sub.add_parser(
        "profile",
        help="sample where the replay loop spends its time, per phase",
    )
    prof_src = prof.add_mutually_exclusive_group()
    prof_src.add_argument(
        "--trace",
        default="NLANR-uc",
        help=f"paper trace name ({', '.join(sorted(PAPER_TRACES))})",
    )
    prof_src.add_argument("--log", help="path to a real access log instead")
    prof.add_argument(
        "--format",
        choices=sorted(_PARSERS),
        default="squid",
        help="log format for --log",
    )
    prof.add_argument(
        "--organization",
        "-o",
        default="browsers-aware-proxy-server",
        help="one of: " + ", ".join(o.value for o in Organization) + ", or 'all'",
    )
    prof.add_argument("--proxy-frac", type=float, default=0.10,
                      help="proxy cache as a fraction of the infinite cache size")
    prof.add_argument("--browser-sizing", choices=("minimum", "average"),
                      default="minimum")
    prof.add_argument("--policy", default="lru",
                      help="replacement policy (lru, fifo, lfu, size, gdsf)")
    prof.add_argument("--index-kind", choices=("exact", "bloom"), default="exact")
    prof.add_argument("--repeat", type=int, default=1, metavar="N",
                      help="replay N times, accumulating samples (default: 1)")
    prof.add_argument("--json", action="store_true",
                      help="emit a machine-readable JSON summary instead")

    parse_p = sub.add_parser("parse", help="print statistics for an access log")
    parse_p.add_argument("log", help="path to the log file")
    parse_p.add_argument("--format", choices=sorted(_PARSERS), default="squid")

    an = sub.add_parser(
        "analyze", help="workload analysis (Zipf, locality, sizes, skew)"
    )
    an_src = an.add_mutually_exclusive_group()
    an_src.add_argument("--trace", default="NLANR-uc")
    an_src.add_argument("--log", help="path to a real access log instead")
    an.add_argument("--format", choices=sorted(_PARSERS), default="squid")

    rep = sub.add_parser(
        "report", help="collect benchmarks/results/ into one Markdown report"
    )
    rep.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory of saved result tables",
    )
    rep.add_argument("--output", help="write to a file instead of stdout")
    return parser


def _load_trace(args) -> "object":
    if args.log:
        return _PARSERS[args.format](args.log, name=args.log)
    return load_paper_trace(args.trace)


def _cmd_simulate(args) -> int:
    trace = _load_trace(args)
    if len(trace) == 0:
        print("trace is empty after filtering", file=sys.stderr)
        return 1
    organization = Organization.from_name(args.organization)
    failure_kwargs = {}
    if args.churn:
        from repro.core.churn import ChurnModel

        failure_kwargs["churn"] = ChurnModel(
            mean_on_seconds=args.churn_on,
            mean_off_seconds=args.churn_off,
            distribution=args.churn_distribution,
        )
    if args.proxy_crash_rate is not None or args.proxy_crash_at is not None:
        from repro.core.proxy_faults import ProxyFaultModel

        crash_times = None
        if args.proxy_crash_at is not None:
            try:
                crash_times = tuple(
                    float(t) for t in args.proxy_crash_at.split(",") if t.strip()
                )
            except ValueError:
                print(
                    "--proxy-crash-at must be comma-separated numbers",
                    file=sys.stderr,
                )
                return 2
        failure_kwargs["proxy_faults"] = ProxyFaultModel(
            crash_rate=args.proxy_crash_rate or 0.0,
            crash_times=crash_times,
        )
        failure_kwargs["reannounce_rate"] = args.reannounce_rate
    if args.checkpoint_interval is not None:
        from repro.index.checkpoint import CheckpointPolicy

        failure_kwargs["checkpoint"] = CheckpointPolicy(
            interval=args.checkpoint_interval
        )
    link_faults = None
    if args.partition_at is not None:
        if args.proxies is None or args.proxies < 2:
            print(
                "--partition-at needs a federation to split: set --proxies "
                "to 2 or more",
                file=sys.stderr,
            )
            return 2
        from repro.federation.linkfaults import LinkFaultModel
        from repro.util.validation import check_partition_windows

        try:
            starts = tuple(
                float(t) for t in args.partition_at.split(",") if t.strip()
            )
            windows = tuple(
                (t, t + args.partition_length) for t in sorted(starts)
            )
            check_partition_windows(windows, span=trace.duration)
            link_faults = LinkFaultModel(partition_windows=windows)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.proxies is not None:
        from repro.core.config import FederationConfig

        failure_kwargs["federation"] = FederationConfig(
            n_proxies=args.proxies,
            digest_period=args.digest_period,
            link_faults=link_faults,
        )
    if args.chaos_seed is not None or args.check_invariants:
        from repro.core.chaos import ChaosPlan

        failure_kwargs["chaos"] = ChaosPlan(
            seed=args.chaos_seed,
            check_invariants_every=args.check_invariants,
        )
    config = SimulationConfig.relative(
        trace,
        proxy_frac=args.proxy_frac,
        browser_sizing=args.browser_sizing,
        proxy_policy=args.policy,
        browser_policy=args.policy,
        index_kind=args.index_kind,
        max_holder_retries=args.max_holder_retries,
        corruption_rate=args.corruption_rate,
        **failure_kwargs,
    )
    t0 = time.perf_counter()
    result = simulate(trace, organization, config)
    elapsed = time.perf_counter() - t0
    bd = result.breakdown()
    rows = [
        ["trace", trace.name],
        ["requests", f"{result.n_requests:,}"],
        ["organization", result.organization],
        ["proxy cache", f"{config.proxy_capacity / 1e6:.1f} MB"],
        ["browser cache (each)", f"{config.browser_capacity / 1e3:.0f} KB"],
        ["hit ratio", f"{result.hit_ratio:.2%}"],
        ["byte hit ratio", f"{result.byte_hit_ratio:.2%}"],
        ["local-browser share", f"{bd.local_browser:.2%}"],
        ["proxy share", f"{bd.proxy:.2%}"],
        ["remote-browser share", f"{bd.remote_browser:.2%}"],
        ["communication overhead", f"{result.overhead.communication_fraction:.3%}"],
        ["simulated in", f"{elapsed:.2f}s"],
    ]
    if result.holder_unavailable:
        rows.insert(-1, ["offline-holder probes", f"{result.holder_unavailable:,}"])
    if result.failover_attempts:
        rows.insert(-1, ["failover probes", f"{result.failover_attempts:,}"])
        rows.insert(-1, ["failover-rescued hits", f"{result.failover_rescued_hits:,}"])
    if result.integrity_failures:
        rows.insert(-1, ["integrity retries", f"{result.integrity_failures:,}"])
    if result.proxy_crashes:
        rows.insert(-1, ["proxy crashes", f"{result.proxy_crashes:,}"])
        rows.insert(-1, ["recovery time", f"{result.recovery_time:,.0f}s"])
        rows.insert(-1, ["degraded-window requests",
                         f"{result.degraded_window_requests:,}"])
        rows.insert(-1, ["hits lost to recovery",
                         f"{result.hits_lost_to_recovery:,}"])
    if result.checkpoint_bytes_written:
        rows.insert(-1, ["checkpoint bytes written",
                         f"{result.checkpoint_bytes_written:,}"])
    if result.interproxy_hits:
        rows.insert(-1, ["inter-proxy hits", f"{result.interproxy_hits:,}"])
    if result.partition_windows:
        rows.insert(-1, ["partition windows", f"{result.partition_windows:,}"])
        rows.insert(-1, ["digest exchanges lost",
                         f"{result.digest_exchanges_lost:,}"])
        rows.insert(-1, ["wasted partition time",
                         f"{result.wasted_partition_time:,.2f}s"])
        rows.insert(-1, ["anti-entropy bytes", f"{result.antientropy_bytes:,}"])
    print(ascii_table(["quantity", "value"], rows, title="simulation result"))
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.util.profiling import ReplayProfile

    trace = _load_trace(args)
    if len(trace) == 0:
        print("trace is empty after filtering", file=sys.stderr)
        return 1
    if args.repeat < 1:
        print("--repeat must be >= 1", file=sys.stderr)
        return 2
    if args.organization == "all":
        organizations = list(Organization)
    else:
        organizations = [Organization.from_name(args.organization)]
    config = SimulationConfig.relative(
        trace,
        proxy_frac=args.proxy_frac,
        browser_sizing=args.browser_sizing,
        proxy_policy=args.policy,
        browser_policy=args.policy,
        index_kind=args.index_kind,
    )
    summaries = {}
    for organization in organizations:
        profile = ReplayProfile()
        for _ in range(args.repeat):
            simulate(trace, organization, config, profile=profile)
        if args.json:
            summaries[organization.value] = profile.as_dict()
        else:
            print(f"{organization.value} — {trace.name}")
            print(profile.render())
    if args.json:
        print(json.dumps({"trace": trace.name, "organizations": summaries}, indent=2))
    return 0


def _cmd_parse(args) -> int:
    from repro.traces import ParseReport

    report = ParseReport()
    trace = _PARSERS[args.format](args.log, name=args.log, report=report)
    stats = compute_stats(trace)
    print(ascii_table(TraceStats.headers(), [stats.as_row()], title="trace statistics"))
    if not report.ok:
        print(report.summary(), file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(ALL_EXPERIMENTS):
            print(name)
        return 0

    if args.command == "traces":
        print(run_experiment("table1").render())
        return 0

    if args.command == "simulate":
        return _cmd_simulate(args)

    if args.command == "profile":
        return _cmd_profile(args)

    if args.command == "parse":
        return _cmd_parse(args)

    if args.command == "analyze":
        from repro.analysis import analyze_trace

        trace = _load_trace(args)
        if len(trace) == 0:
            print("trace is empty after filtering", file=sys.stderr)
            return 1
        print(analyze_trace(trace).render())
        return 0

    if args.command == "report":
        from repro.experiments.export import atomic_write_text, collect_report

        text = collect_report(args.results_dir)
        if args.output:
            atomic_write_text(args.output, text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0

    names = args.experiments
    if names == ["all"]:
        names = sorted(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(sorted(ALL_EXPERIMENTS))}", file=sys.stderr)
        return 2

    workers = None if args.workers < 0 else args.workers
    if args.profile:
        args.timing = True
    if args.sample_rate is not None and not args.mrc:
        print("--sample-rate requires --mrc (it samples the one-pass "
              "analysis, not the replay engine)", file=sys.stderr)
        return 2
    if args.mrc and any((args.retries, args.cell_timeout, args.journal,
                         args.resume, args.profile)):
        print("--mrc computes the whole grid in one in-process pass; the "
              "per-cell fault-tolerance flags (--retries, --cell-timeout, "
              "--journal, --resume, --profile) do not apply", file=sys.stderr)
        return 2
    options = None
    if any((args.retries, args.cell_timeout, args.journal, args.resume,
            args.profile)):
        from repro.core.parallel import EngineOptions

        options = EngineOptions(
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            journal=args.journal,
            resume=args.resume,
            profile=args.profile,
        )
    def _csv(raw: str | None, cast):
        if raw is None:
            return None
        return tuple(cast(part) for part in raw.split(",") if part.strip())

    for name in names:
        t0 = time.perf_counter()
        result = run_experiment(
            name,
            workers=workers,
            options=options,
            max_holder_retries=args.max_holder_retries,
            corruption_rate=args.corruption_rate,
            proxy_counts=_csv(args.proxies, int),
            digest_periods=_csv(args.digest_period, float),
            interproxy_bandwidth=args.interproxy_bandwidth,
            polluter_fractions=_csv(args.polluter_fraction, float),
            quarantine_thresholds=_csv(args.quarantine_threshold, int),
            flash_crowd=args.flash_crowd or None,
            partition_lengths=_csv(args.partition_length, float),
            chaos_seed=args.chaos_seed,
            mrc=args.mrc or None,
            sample_rate=args.sample_rate,
            sample_seed=args.sample_seed,
        )
        elapsed = time.perf_counter() - t0
        print(f"== {name} ({elapsed:.1f}s) " + "=" * max(0, 60 - len(name)))
        print(result.render())
        if args.timing:
            sweep = getattr(result, "sweep", None)
            if sweep is not None and getattr(sweep, "timing", None) is not None:
                print()
                print(sweep.timing.render())
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
