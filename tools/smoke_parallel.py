"""Serial-vs-parallel smoke sweep — run by CI.

Replays a fig2-scale grid (all five organizations x the paper's four
relative cache sizes) twice: once in-process (``workers=0``) and once
over a process pool sized to the machine.  Exits non-zero unless the
two runs are bit-identical; prints both timing reports and the
measured speedup.

With ``--inject-fault`` the parallel run additionally suffers an
injected worker kill and a transient cell failure (with retries
enabled), exercising the engine's pool-crash recovery and retry paths
end to end — the recovered results must still be bit-identical to the
clean serial run.

With ``--churn`` every cell runs under session-based client churn, and
``--max-holder-retries N`` arms the engine's holder failover.  The
smoke then additionally asserts that failover actually rescued remote
hits (some backup holder served a request whose primary was offline) —
the resilience path must be exercised, not just survived.

With ``--proxy-crash`` every cell additionally suffers two proxy cold
restarts (explicit crash times at 35% and 70% of the trace) with index
checkpointing and post-crash client re-announcements armed.  The smoke
asserts the recovery model actually fired — crashes registered, hits
were lost to degraded windows — and, when a journal was written,
re-runs the sweep with ``--resume`` and asserts every cell is restored
from the journal bit-identically (the new recovery counters must
round-trip).

With ``--federation`` every cell runs the cooperative two-proxy
federation with a digest exchange every 1/12th of the trace.  The
smoke asserts cooperation actually fired — cross-proxy hits were
served and digest staleness produced accountable false hits — and the
generic journal/resume block covers the new counters' round-trip.
Under ``--federation`` and ``--chaos`` the serial sweep runs with the
phase profiler on (``EngineOptions(profile=True)``): its timing must
name the ``peer_fetch`` phase, and its results must still equal the
unprofiled parallel run cell for cell.

With ``--adversarial`` every cell runs against a hostile peer
population — 20% persistent polluters (every transfer they serve fails
the integrity check) and 20% flappers churning offline over the middle
40% of the trace — with the quarantine defense armed at two strikes.
The smoke asserts the attack and the defense both fired (corrupt
deliveries attributed, peers quarantined) and re-runs the same grid
with the defense disarmed: quarantine must strictly reduce the summed
``wasted_round_trip_time`` versus the no-defense run.

With ``--chaos`` every cell runs a composed outage through one seeded
:class:`~repro.core.ChaosPlan`: a proxy cold restart *inside* an
inter-proxy partition window while clients churn, on a two-proxy
federation over the bloom browser index (the shape of the benchmark's
federated-chaos workload; ``--federation`` keeps the exact index), with
the runtime invariant monitor armed at a 5000-request cadence.  The smoke asserts the partition actually fired (windows
entered, digest exchanges lost, crashes composed in), re-runs the grid
at ``workers=1`` (so serial, one worker, and the pool are all
bit-identical), and corrupts a copied result to prove the monitor
catches it.

With ``--stream`` every cell is additionally replayed over the flat
client-state backend (:func:`repro.core.simulate_stream`) with the
same knobs the serial run used, and must be bit-identical to the
serial run; every index-carrying cell (BAPS, global-browsers) is also
replayed with ``index_kind="bloom"`` through both backends, which must
agree bit for bit; the process's peak RSS must also stay under
``--stream-rss-ceiling-mb``.  Incompatible with the federated grids
(``--federation``, ``--chaos``): the flat backend is single-proxy.

With ``--mrc`` the base grid is additionally derived from one
stack-distance pass (``run_policy_sweep(..., mrc=True)``) and checked
against the serial replay — bit-exact for the pure-LRU organizations,
within the documented approximation bound for the rest — and a
sampled pass at ``--sample-rate`` must stay within the documented
per-rate error bound (``repro.traces.sampling.SAMPLE_ERROR_BOUNDS``)
of the full pass.  Incompatible with the fault grids (the one-pass
analysis models the fault-free hierarchy).

    PYTHONPATH=src python tools/smoke_parallel.py [--workers N] [--requests M]
        [--journal PATH] [--inject-fault] [--churn] [--max-holder-retries N]
        [--proxy-crash] [--federation] [--adversarial] [--chaos] [--stream]
        [--mrc] [--sample-rate R]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import (  # noqa: E402
    AdversarialConfig,
    ChaosPlan,
    CheckpointPolicy,
    ChurnModel,
    EngineOptions,
    FaultPlan,
    FederationConfig,
    InvariantMonitor,
    InvariantViolation,
    MassChurnSchedule,
    Organization,
    ProxyFaultModel,
    SimulationConfig,
    build_cells,
    resolve_workers,
    run_policy_sweep,
)
from repro.federation import LinkFaultModel  # noqa: E402
from repro.core.sweep import PAPER_SIZE_FRACTIONS  # noqa: E402
from repro.traces.profiles import get_profile  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=None,
                        help="pool width for the parallel run (default: all CPUs)")
    parser.add_argument("--requests", type=int, default=30_000,
                        help="trace length (default 30k: fig2 scale, CI-friendly)")
    parser.add_argument("--trace", default="NLANR-uc")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="write the parallel run's JSONL attempt journal here")
    parser.add_argument("--inject-fault", action="store_true",
                        help="kill one worker and fail one cell transiently "
                             "during the parallel run (recovery must still "
                             "yield bit-identical results)")
    parser.add_argument("--churn", action="store_true",
                        help="run every cell under session-based client churn "
                             "(default 1800s on / 600s off sessions)")
    parser.add_argument("--max-holder-retries", type=int, default=0, metavar="N",
                        help="holder failover budget; with --churn the smoke "
                             "asserts failover rescued at least one remote hit")
    parser.add_argument("--proxy-crash", action="store_true",
                        help="inject two proxy cold restarts per cell with "
                             "checkpointing and re-announcement armed; the "
                             "smoke asserts the recovery model fired")
    parser.add_argument("--federation", action="store_true",
                        help="run every cell as a cooperative two-proxy "
                             "federation with periodic digest exchange; the "
                             "smoke asserts cross-proxy hits and digest "
                             "false hits occurred")
    parser.add_argument("--adversarial", action="store_true",
                        help="run every cell against 20%% polluters + 20%% "
                             "flappers with two-strike quarantine armed; the "
                             "smoke asserts the defense fired and strictly "
                             "reduced wasted round-trip time vs. no defense")
    parser.add_argument("--chaos", action="store_true",
                        help="compose a proxy crash inside an inter-proxy "
                             "partition with client churn through one chaos "
                             "plan (invariant monitor armed); the smoke "
                             "asserts the partition fired and that a "
                             "corrupted result trips the monitor")
    parser.add_argument("--stream", action="store_true",
                        help="also replay every cell over the flat "
                             "client-state backend; results must be "
                             "bit-identical and peak RSS must stay under "
                             "the ceiling")
    parser.add_argument("--stream-rss-ceiling-mb", type=int, default=2048,
                        metavar="MB",
                        help="peak-RSS ceiling for the --stream check "
                             "(default 2048)")
    parser.add_argument("--mrc", action="store_true",
                        help="also derive the base grid from one "
                             "stack-distance pass and from a sampled pass; "
                             "both must stay within the documented bounds "
                             "of the serial replay")
    parser.add_argument("--sample-rate", type=float, default=0.05,
                        metavar="R",
                        help="spatial sample rate for the --mrc sampled "
                             "check (default 0.05; must have a documented "
                             "bound in SAMPLE_ERROR_BOUNDS)")
    args = parser.parse_args(argv)

    if args.stream and (args.federation or args.chaos):
        parser.error("--stream replays single-proxy cells only; drop "
                     "--federation/--chaos")
    if args.mrc and (args.churn or args.proxy_crash or args.federation
                     or args.adversarial or args.chaos):
        parser.error("--mrc covers only the base grid; drop --churn/"
                     "--proxy-crash/--federation/--adversarial/--chaos")
    if args.chaos and (args.churn or args.proxy_crash or args.federation
                       or args.adversarial):
        parser.error("--chaos composes its own fault models; drop --churn/"
                     "--proxy-crash/--federation/--adversarial")

    workers = resolve_workers(args.workers)
    trace = get_profile(args.trace).scaled(args.requests).generate()
    grid = dict(
        organizations=tuple(Organization),
        fractions=PAPER_SIZE_FRACTIONS,
        browser_sizing="minimum",
    )
    if args.churn:
        grid["churn"] = ChurnModel()
        grid["max_holder_retries"] = args.max_holder_retries
        print(f"churn: 1800s on / 600s off sessions, "
              f"max_holder_retries={args.max_holder_retries}")
    if args.proxy_crash:
        duration = float(trace.timestamps.max())
        grid["proxy_faults"] = ProxyFaultModel(
            crash_times=(0.35 * duration, 0.70 * duration)
        )
        grid["checkpoint"] = CheckpointPolicy(interval=duration / 24)
        grid["reannounce_rate"] = 0.02
        print(f"proxy crashes at t={0.35 * duration:.0f}s and "
              f"t={0.70 * duration:.0f}s, checkpoint every "
              f"{duration / 24:.0f}s, re-announce 0.02 clients/s")
    if args.federation:
        duration = float(trace.timestamps.max())
        grid["federation"] = FederationConfig(
            n_proxies=2, digest_period=duration / 12
        )
        print(f"federation: 2 proxies, digest exchange every "
              f"{duration / 12:.0f}s")
    if args.adversarial:
        duration = float(trace.timestamps.max())
        grid["adversarial"] = AdversarialConfig(
            polluter_fraction=0.2,
            flapper_fraction=0.2,
            flap_schedule=MassChurnSchedule(
                windows=((0.30 * duration, 0.70 * duration),)
            ),
        )
        grid["quarantine_threshold"] = 2
        grid["max_holder_retries"] = max(
            int(grid.get("max_holder_retries", 0)), args.max_holder_retries, 2
        )
        print(f"adversarial: 20% polluters, 20% flappers offline "
              f"t={0.30 * duration:.0f}-{0.70 * duration:.0f}s, "
              f"quarantine after 2 strikes, "
              f"max_holder_retries={grid['max_holder_retries']}")
    if args.chaos:
        duration = float(trace.timestamps.max())
        grid["federation"] = FederationConfig(
            n_proxies=2, digest_period=duration / 12
        )
        grid["index_kind"] = "bloom"
        grid["chaos"] = ChaosPlan(
            proxy_faults=ProxyFaultModel(crash_times=(0.50 * duration,)),
            churn=ChurnModel(),
            link_faults=LinkFaultModel(
                partition_windows=((0.40 * duration, 0.60 * duration),)
            ),
            check_invariants_every=5_000,
        )
        print(f"chaos: proxy crash at t={0.50 * duration:.0f}s inside a "
              f"partition t={0.40 * duration:.0f}-{0.60 * duration:.0f}s, "
              f"default churn, 2-proxy federation (digest every "
              f"{duration / 12:.0f}s) over the bloom index, invariants "
              f"checked every 5000 requests")
    n_cells = len(grid["organizations"]) * len(grid["fractions"])
    print(f"smoke sweep: {trace.name}, {len(trace):,} requests, {n_cells} cells")

    options = None
    if args.inject_fault or args.journal:
        faults = None
        retries = 0
        if args.inject_fault:
            # one hard worker death and one transient failure, both on
            # the first attempt only — the engine must absorb both.
            faults = FaultPlan.parse(f"kill:0, raise:{n_cells // 2}")
            retries = 2
            print("fault injection: worker kill on cell 0, transient "
                  f"failure on cell {n_cells // 2} (retries={retries})")
        options = EngineOptions(
            retries=retries, journal=args.journal, faults=faults,
            backoff_base=0.1,
        )

    # A federated serial sweep runs under the phase profiler: the
    # per-proxy engines share the one replay loop, so its timing must
    # name the peer-proxy step, and the profiled serial results must
    # still match the (unprofiled) parallel ones cell for cell.
    federated = bool(args.federation or args.chaos)
    serial = run_policy_sweep(
        trace, workers=0,
        options=EngineOptions(profile=True) if federated else None,
        **grid,
    )
    parallel = run_policy_sweep(trace, workers=workers, options=options, **grid)

    for sweep, label in ((serial, "serial"), (parallel, f"parallel x{workers}")):
        if sweep.failures:
            print(f"FAIL: {label} run had cell failures:")
            for failure in sweep.failures:
                print(f"  {failure}")
            return 1
        print()
        print(f"-- {label}")
        print(sweep.timing.render())

    if args.inject_fault:
        retried = {k: n for k, n in parallel.attempts.items() if n > 1}
        print()
        print(f"recovered: pool crashes={parallel.pool_crashes}, "
              f"cells retried={len(retried)}")
        if parallel.pool_crashes < 1:
            print("FAIL: injected worker kill did not register a pool crash")
            return 1

    diverged = [
        key
        for key in serial.results
        if dataclasses.asdict(serial.results[key])
        != dataclasses.asdict(parallel.results[key])
    ]
    if diverged:
        print(f"FAIL: {len(diverged)} cells diverged between serial and parallel:")
        for org, frac in diverged:
            print(f"  ({org.value}, {frac:g})")
        return 1

    if federated:
        phases = dict(serial.timing.phase_seconds)
        print()
        print(f"profiled serial sweep: phases {', '.join(phases)}")
        if "peer_fetch" not in phases:
            print("FAIL: the profiled federated sweep named no peer_fetch phase")
            return 1

    if args.churn and args.max_holder_retries > 0:
        rescued = sum(
            r.failover_rescued_hits for r in parallel.results.values()
        )
        offline = sum(r.holder_unavailable for r in parallel.results.values())
        print()
        print(f"churn resilience: {offline} offline-holder probes, "
              f"{rescued} remote hits rescued by failover")
        if rescued <= 0:
            print("FAIL: churn + failover produced no rescued remote hits")
            return 1

    if args.proxy_crash:
        crashes = sum(r.proxy_crashes for r in parallel.results.values())
        lost = sum(r.hits_lost_to_recovery for r in parallel.results.values())
        degraded = sum(
            r.degraded_window_requests for r in parallel.results.values()
        )
        ck_bytes = sum(
            r.checkpoint_bytes_written for r in parallel.results.values()
        )
        print()
        print(f"proxy recovery: {crashes} crashes, {degraded} degraded-window "
              f"requests, {lost} hits lost, {ck_bytes:,} checkpoint bytes")
        if crashes <= 0:
            print("FAIL: --proxy-crash registered no proxy crashes")
            return 1
        if lost <= 0:
            print("FAIL: --proxy-crash lost no hits to recovery windows")
            return 1
        if ck_bytes <= 0:
            print("FAIL: --proxy-crash wrote no checkpoint bytes")
            return 1

    if args.federation:
        ipx = sum(r.interproxy_hits for r in parallel.results.values())
        false_hits = sum(r.digest_false_hits for r in parallel.results.values())
        digest_bytes = sum(
            r.digest_bytes_exchanged for r in parallel.results.values()
        )
        print()
        print(f"federation: {ipx} cross-proxy hits, {false_hits} digest "
              f"false hits, {digest_bytes:,} digest bytes exchanged")
        if ipx <= 0:
            print("FAIL: --federation served no cross-proxy hits")
            return 1
        if false_hits <= 0:
            print("FAIL: --federation produced no digest false hits")
            return 1

    if args.adversarial:
        corrupt = sum(r.corrupt_deliveries for r in parallel.results.values())
        poisoned = sum(r.poisoned_requests for r in parallel.results.values())
        quarantined = sum(
            r.quarantined_peers for r in parallel.results.values()
        )
        rescued = sum(
            r.quarantine_rescued_hits for r in parallel.results.values()
        )
        defended_wasted = sum(
            r.overhead.wasted_round_trip_time for r in parallel.results.values()
        )
        print()
        print(f"adversarial: {corrupt} corrupt deliveries over "
              f"{poisoned} poisoned requests, {quarantined} peers "
              f"quarantined, {rescued} hits rescued by the ban list")
        if corrupt <= 0:
            print("FAIL: --adversarial attributed no corrupt deliveries")
            return 1
        if quarantined <= 0:
            print("FAIL: --adversarial quarantined no peers")
            return 1
        # the same attack with the defense disarmed: quarantine must
        # strictly reduce the time wasted on failed remote probes.
        undefended_grid = {
            k: v for k, v in grid.items() if k != "quarantine_threshold"
        }
        undefended = run_policy_sweep(trace, workers=0, **undefended_grid)
        if undefended.failures:
            print("FAIL: no-defense comparison run had cell failures")
            return 1
        undefended_wasted = sum(
            r.overhead.wasted_round_trip_time
            for r in undefended.results.values()
        )
        print(f"wasted round-trip time: defended {defended_wasted:,.2f}s "
              f"vs no defense {undefended_wasted:,.2f}s")
        if not defended_wasted < undefended_wasted:
            print("FAIL: quarantine did not strictly reduce wasted "
                  "round-trip time vs. the no-defense run")
            return 1

    if args.chaos:
        import copy

        windows = sum(r.partition_windows for r in parallel.results.values())
        lost = sum(r.digest_exchanges_lost for r in parallel.results.values())
        wasted = sum(
            r.wasted_partition_time for r in parallel.results.values()
        )
        crashes = sum(r.proxy_crashes for r in parallel.results.values())
        print()
        print(f"chaos: {windows} partition windows entered, {lost} digest "
              f"exchanges lost, {wasted:.2f}s wasted on dead links, "
              f"{crashes} proxy crashes composed in; invariant monitor "
              f"clean on every cell")
        if windows <= 0:
            print("FAIL: --chaos entered no partition windows")
            return 1
        if lost <= 0:
            print("FAIL: --chaos lost no digest exchanges to the partition")
            return 1
        if crashes <= 0:
            print("FAIL: --chaos composed no proxy crashes")
            return 1
        # one worker must agree with serial and the pool bit-identically.
        single = run_policy_sweep(trace, workers=1, **grid)
        if single.failures:
            print("FAIL: workers=1 chaos run had cell failures")
            return 1
        lone = [
            key
            for key in serial.results
            if dataclasses.asdict(serial.results[key])
            != dataclasses.asdict(single.results[key])
        ]
        if lone:
            print(f"FAIL: {len(lone)} cells diverged between serial and "
                  "workers=1 under chaos")
            return 1
        print(f"workers=1 rerun: all {len(single.results)} chaos cells "
              "bit-identical to serial")
        # negative test: the monitor must reject a corrupted result.
        probe = grid["chaos"].compose(
            SimulationConfig.relative(
                trace, proxy_frac=0.10,
                browser_sizing=grid["browser_sizing"],
                federation=grid["federation"], chaos=grid["chaos"],
                index_kind=grid["index_kind"],
            )
        )
        monitor = InvariantMonitor(probe, check_every=1)
        intact = next(iter(parallel.results.values()))
        monitor.check_final(intact)
        corrupted = copy.deepcopy(intact)
        corrupted.overhead.wasted_offline_time += 1e6
        try:
            monitor.check_final(corrupted)
        except InvariantViolation as exc:
            print(f"monitor negative test: caught {exc}")
        else:
            print("FAIL: the invariant monitor accepted a corrupted ledger")
            return 1

    if args.journal:
        print(f"journal written to {args.journal}")
        # resume from the journal we just wrote: every cell must restore
        # without re-simulating, and the restored results (including any
        # recovery counters) must match the live run exactly.
        resume_options = dataclasses.replace(
            options, journal=None, faults=None, resume=args.journal
        )
        resumed = run_policy_sweep(
            trace, workers=0, options=resume_options, **grid
        )
        if resumed.failures:
            print("FAIL: resume run had cell failures")
            return 1
        resimulated = [k for k, n in resumed.attempts.items() if n > 0]
        if resimulated:
            print(f"FAIL: resume re-simulated {len(resimulated)} cells "
                  "instead of restoring them from the journal")
            return 1
        stale = [
            key
            for key in parallel.results
            if dataclasses.asdict(parallel.results[key])
            != dataclasses.asdict(resumed.results[key])
        ]
        if stale:
            print(f"FAIL: {len(stale)} journal-restored cells diverged "
                  "from the live run")
            return 1
        print(f"resume: all {len(resumed.results)} cells restored from "
              "the journal bit-identically")

    if args.stream:
        from repro.core import simulate, simulate_stream
        from repro.util.memory import peak_rss_bytes

        # rebuild the serial run's cells, so each replay gets the same
        # knobs and the same per-cell availability seed
        overrides = {
            k: v for k, v in grid.items()
            if k not in ("organizations", "fractions", "browser_sizing")
        }
        cells = build_cells(
            trace.name, grid["organizations"], grid["fractions"],
            lambda frac: SimulationConfig.relative(
                trace, proxy_frac=frac, browser_sizing=grid["browser_sizing"],
                **overrides,
            ),
        )
        stream_diverged = []
        n_bloom = 0
        for cell in cells:
            ref = serial.results[(cell.organization, cell.fraction)]
            got = simulate_stream(trace, cell.organization, cell.config)
            if dataclasses.asdict(got) != dataclasses.asdict(ref):
                stream_diverged.append((cell.organization, cell.fraction, ""))
            if cell.organization.features.has_index:
                # the same cell over the bloom index, through both
                # backends: stale lookups exercise the truth queries
                n_bloom += 1
                bloom = cell.config.with_(index_kind="bloom")
                ref = simulate(trace, cell.organization, bloom)
                got = simulate_stream(trace, cell.organization, bloom)
                if dataclasses.asdict(got) != dataclasses.asdict(ref):
                    stream_diverged.append(
                        (cell.organization, cell.fraction, " bloom")
                    )
        rss = peak_rss_bytes()
        ceiling = args.stream_rss_ceiling_mb * 1024 * 1024
        print()
        print(f"stream engine: {len(serial.results)} cells replayed "
              f"flat-state, plus {n_bloom} index cells over the bloom index "
              f"through both backends, process peak RSS "
              f"{rss / (1024 * 1024):.0f} MB "
              f"(ceiling {args.stream_rss_ceiling_mb} MB)")
        if stream_diverged:
            print(f"FAIL: {len(stream_diverged)} streamed cells diverged "
                  "from the object-cache run:")
            for org, frac, index in stream_diverged:
                print(f"  ({org.value}, {frac:g}){index}")
            return 1
        if rss > ceiling:
            print("FAIL: peak RSS exceeds the --stream ceiling")
            return 1

    if args.mrc:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from make_goldens import (
            MRC_APPROX_TOLERANCE,
            MRC_EXACT_TOLERANCE,
        )

        from repro.analysis.mrc import (
            MRC_EXACT_ORGANIZATIONS,
            capacity_grid,
            compute_mrc,
        )
        from repro.traces.sampling import SAMPLE_ERROR_BOUNDS, build_sample_report

        if args.sample_rate not in SAMPLE_ERROR_BOUNDS:
            parser.error(f"--sample-rate {args.sample_rate:g} has no documented "
                         f"bound; choose from {sorted(SAMPLE_ERROR_BOUNDS)}")

        mrc_sweep = run_policy_sweep(trace, workers=0, mrc=True, **grid)
        if mrc_sweep.failures:
            print("FAIL: mrc=True sweep had cell failures")
            return 1
        worst_exact = worst_approx = 0.0
        for (org, frac), ref in serial.results.items():
            got = mrc_sweep.get(org, frac)
            err = max(abs(got.hit_ratio - ref.hit_ratio),
                      abs(got.byte_hit_ratio - ref.byte_hit_ratio))
            if org in MRC_EXACT_ORGANIZATIONS:
                worst_exact = max(worst_exact, err)
            else:
                worst_approx = max(worst_approx, err)
        print()
        print(f"mrc: one pass covered {mrc_sweep.timing.mrc_points} cells "
              f"({mrc_sweep.timing.replays_avoided} replays avoided); "
              f"vs serial replay worst |err| exact={worst_exact:.2e} "
              f"(bound {MRC_EXACT_TOLERANCE:g}), approx={worst_approx:.4f} "
              f"(bound {MRC_APPROX_TOLERANCE:g})")
        if worst_exact > MRC_EXACT_TOLERANCE:
            print("FAIL: mrc pass not bit-exact for a pure-LRU organization")
            return 1
        if worst_approx > MRC_APPROX_TOLERANCE:
            print("FAIL: mrc pass exceeds the documented approximation bound")
            return 1

        bound = SAMPLE_ERROR_BOUNDS[args.sample_rate]
        report = build_sample_report(
            trace, capacity_grid(trace, grid["fractions"]), args.sample_rate,
            organizations=grid["organizations"],
        )
        print(f"sampled mrc: {report.summary()}")
        print(f"documented bound at rate {args.sample_rate:g}: {bound:g}")
        if report.max_abs_hit_error > bound or report.max_abs_byte_hit_error > bound:
            print("FAIL: sampled pass exceeds the documented error bound")
            return 1

    speedup = parallel.timing.speedup_vs_serial
    print()
    print(f"OK: all {len(serial.results)} cells bit-identical; "
          f"parallel speedup vs serial {speedup:.2f}x on {workers} workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
