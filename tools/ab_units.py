"""In-process A/B timing of one perfbench workload on two source trees.

Loads ``perfbench/workloads.py`` and the whole ``repro`` package of
each tree into one process, sets each side's workload up once, then
runs PAIRS pairs of units, alternating which side goes first.  Both
sides of a pair must return equal results (``repr`` of
``dataclasses.asdict``, as ``perfbench/checks.result_digest`` hashes
it), or the run stops.  It prints each side's median, interquartile
range and fastest unit, and how many pairs the change won (ties count
for neither), so a gain can be judged by the rule "wins at least nine
in ten pairs and the medians differ by more than the parent's IQR".

Before each unit the side's complete ``repro``/``workloads``/``checks``
module set is swapped into ``sys.modules``: engine code imports some
modules lazily (``simulate`` imports ``repro.federation.engine`` on
first use), and without the swap those imports would run the other
tree's code.

With ``--setup`` it times each side's ``workload.setup(seed)``
instead of its units, alternating in the same way.  Outside the timing,
both sides of a pair must have built equal inputs: the same columns of
the trace, or of the stream's ``materialise()``.

The tool only reads the trees' ``perfbench/`` directories.

Usage (from anywhere)::

    python tools/ab_units.py PARENT_ROOT CHANGE_ROOT federated-chaos \\
        --seed 0 --pairs 20 [--cpu] [--setup]

``--cpu`` times units with process CPU time instead of wall time,
which other load on a shared host disturbs less.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: top-level modules a side owns: the package and perfbench's helpers.
OWNED = ("repro", "workloads", "checks", "tracing")
#: the columns of a trace, compared between the two sides' inputs.
COLUMNS = ("timestamps", "clients", "docs", "sizes", "versions")


def _owned(name: str) -> bool:
    return name.split(".", 1)[0] in OWNED


class Side:
    """One source tree's module set and its workload state."""

    def __init__(self, label: str, root: Path, workload: str, seed: int) -> None:
        self.label = label
        self.modules: dict[str, object] = {}
        src, bench = root / "src", root / "perfbench"
        if not (src / "repro" / "__init__.py").is_file() or not bench.is_dir():
            raise SystemExit(f"{root}: no src/repro package or perfbench/ directory")
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        sys.path[:0] = [str(src), str(bench)]
        try:
            repro = importlib.import_module("repro")
            for info in pkgutil.walk_packages(repro.__path__, "repro."):
                importlib.import_module(info.name)
            workloads = importlib.import_module("workloads")
            self.checks = importlib.import_module("checks")
        finally:
            del sys.path[:2]
        if workload not in workloads.WORKLOADS:
            raise SystemExit(
                f"--workload must be one of {', '.join(workloads.WORKLOADS)}"
            )
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.stash()
        self.activate()
        self.state = self.workload.setup(seed)
        self.requests = self.workload.requests_per_unit(self.state)
        self.stash()
        self.seconds: list[float] = []

    def stash(self) -> None:
        """Move every owned module out of ``sys.modules`` into this side."""
        for name in [n for n in sys.modules if _owned(n)]:
            self.modules[name] = sys.modules.pop(name)

    def activate(self) -> None:
        sys.modules.update(self.modules)

    def run(self, clock) -> list[str]:
        """Time one unit; returns each cell's ``result_digest``."""
        self.activate()
        try:
            gc.collect()
            t0 = clock()
            unit = self.workload.run_unit(self.state)
            self.seconds.append(clock() - t0)
            return [self.checks.result_digest(c.result) for c in unit.cells]
        finally:
            self.stash()


    def run_setup(self, clock) -> dict[str, np.ndarray]:
        """Time one ``workload.setup(seed)``; returns the input's columns
        (a stream's through ``materialise()``), read outside the timing."""
        self.activate()
        try:
            gc.collect()
            t0 = clock()
            source = self.workload.setup(self.seed).source
            self.seconds.append(clock() - t0)
            if hasattr(source, "materialise"):
                source = source.materialise()
            return {col: getattr(source, col) for col in COLUMNS}
        finally:
            self.stash()


def summary(label: str, seconds: list[float], requests: int | None) -> str:
    """One side's median, IQR and fastest; as throughput when timing
    units of *requests* requests, in milliseconds alone otherwise."""
    q1, med, q3 = statistics.quantiles(seconds, n=4)
    if requests is None:
        return (
            f"{label:<7} median {med * 1e3:8.2f} ms  IQR {(q3 - q1) * 1e3:7.2f} ms"
            f"  fastest {min(seconds) * 1e3:8.2f} ms"
        )
    return (
        f"{label:<7} median {requests / med:10.1f} req/s ({med * 1e3:8.2f} ms)"
        f"  IQR {(q3 - q1) * 1e3:7.2f} ms"
        f"  fastest {requests / min(seconds):10.1f} req/s"
    )


def same_input(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return all(
        a[col].dtype == b[col].dtype and np.array_equal(a[col], b[col])
        for col in COLUMNS
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent tree")
    parser.add_argument("change", type=Path, help="root of the changed tree")
    parser.add_argument("workload", help="a perfbench workload name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument(
        "--cpu", action="store_true", help="time with process CPU time"
    )
    parser.add_argument(
        "--setup",
        action="store_true",
        help="time workload.setup(seed) instead of units; check equal inputs",
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    clock = time.process_time if args.cpu else time.perf_counter

    parent = Side("parent", args.parent.resolve(), args.workload, args.seed)
    change = Side("change", args.change.resolve(), args.workload, args.seed)
    if parent.requests != change.requests:
        raise SystemExit("the two trees run different amounts of work per unit")
    wins = 0
    for i in range(args.pairs):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        if args.setup:
            built = {side.label: side.run_setup(clock) for side in order}
            if not same_input(built["parent"], built["change"]):
                raise SystemExit(f"pair {i}: the two trees built different inputs")
        else:
            digests = {side.label: side.run(clock) for side in order}
            if digests["parent"] != digests["change"]:
                raise SystemExit(f"pair {i}: the two trees returned different results")
        wins += change.seconds[-1] < parent.seconds[-1]
    print(
        f"{args.workload} seed {args.seed}: {args.pairs} alternating pairs, "
        + (
            "setup timed, inputs equal in every pair"
            if args.setup
            else f"{parent.requests:,} requests/unit, results equal in every pair"
        )
        + f", {'CPU' if args.cpu else 'wall'} time"
    )
    for side in (parent, change):
        print(summary(side.label, side.seconds, None if args.setup else side.requests))
    q1, med, q3 = statistics.quantiles(parent.seconds, n=4)
    gap = med - statistics.median(change.seconds)
    print(
        f"change wins {wins}/{args.pairs} pairs; median gap {gap * 1e3:.2f} ms "
        f"vs parent IQR {(q3 - q1) * 1e3:.2f} ms; speedup "
        f"{med / statistics.median(change.seconds):.3f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
