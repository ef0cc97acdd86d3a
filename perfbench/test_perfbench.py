"""Tests for the benchmark harness's own code.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from checks import (  # noqa: E402
    digest_failures,
    invariant_failures,
    mrc_check,
    result_digest,
)
from repro.core import Organization, SimulationConfig, simulate  # noqa: E402
from repro.core import sweep as sweep_mod  # noqa: E402
from repro.traces.profiles import small_paper_trace  # noqa: E402
from run import SUMMED_ROWS, per_layer_metrics  # noqa: E402
from tracing import ROOT, Tracer, Wrap  # noqa: E402
from workloads import Cell, State, Unit, Workload, _paper_trace  # noqa: E402


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_nested_and_sibling_spans():
    # root [0, 10]: child a [1, 3], sibling b [4, 8] holding c [5, 6]
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    a, b, c = ("x", "a"), ("x", "b"), ("y", "c")
    with tracer.span(ROOT):
        with tracer.span(a):
            pass
        with tracer.span(b):
            with tracer.span(c):
                pass
    spans = tracer.spans
    assert spans[(ROOT, None)].total_s == 10
    assert spans[(ROOT, None)].self_s == 10 - 2 - 4
    assert spans[(a, ROOT)].self_s == 2
    assert spans[(b, ROOT)].total_s == 4
    assert spans[(b, ROOT)].self_s == 3
    assert spans[(c, b)].self_s == 1
    assert sum(s.self_s for s in spans.values()) == tracer.wall_s() == 10
    assert tracer.self_s("x") == 5
    assert tracer.calls("x") == 2


def test_same_function_under_two_parents_is_kept_apart():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 7))
    leaf, mid = ("l", "leaf"), ("m", "mid")
    with tracer.span(ROOT):
        with tracer.span(leaf):
            pass
        with tracer.span(mid):
            with tracer.span(leaf):
                pass
    assert tracer.spans[(leaf, ROOT)].calls == 1
    assert tracer.spans[(leaf, mid)].calls == 1
    assert tracer.calls("l", "leaf") == 2


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3))
    with tracer.span(ROOT):
        with pytest.raises(ValueError):
            with tracer.span(("x", "boom")):
                raise ValueError
    assert tracer.spans[(("x", "boom"), ROOT)].self_s == 1
    assert tracer.spans[(ROOT, None)].self_s == 2


class Dummy:
    def work(self, n):
        return list(range(n))

    def items(self, n):
        yield from range(n)


def test_installed_wraps_methods_and_generators_then_restores():
    original_work, original_items = Dummy.work, Dummy.items
    wraps = (
        Wrap("d", f"{__name__}:Dummy", "work",
             count=lambda counts, args, result: counts.__setitem__("n", len(result))),
        Wrap("d", f"{__name__}:Dummy", "items", generator=True),
    )
    tracer = Tracer()
    with tracer.installed(wraps):
        with tracer.span(ROOT):
            assert Dummy().work(3) == [0, 1, 2]
            assert list(Dummy().items(4)) == [0, 1, 2, 3]
    assert Dummy.work is original_work and Dummy.items is original_items
    assert tracer.calls("d", "work") == 1
    assert tracer.counts["n"] == 3
    # four items plus the final StopIteration
    assert tracer.calls("d", "items") == 5


def test_layer_rows_add_up_to_the_traced_wall_time():
    trace = small_paper_trace("NLANR-uc", n_requests=1500)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span(ROOT):
            sweep = sweep_mod.run_policy_sweep(trace, fractions=(0.05, 0.2), workers=0)
    results = [(r, None) for r in sweep.results.values()]
    metrics = per_layer_metrics(tracer, results, 10 * len(trace), untraced_s=1.0)
    parts = sum(metrics[name][0] for name in SUMMED_ROWS)
    assert parts == pytest.approx(metrics["trace.wall_s"][0], rel=1e-9)
    assert metrics["sweep.cells"][0] == 10
    assert metrics["index.lookup_calls"][0] > 0
    assert metrics["bloom.lookup_calls"][0] == 0


# -- output checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def cell():
    trace = small_paper_trace("NLANR-uc", n_requests=1500)
    config = SimulationConfig.relative(trace, proxy_frac=0.1)
    org = Organization.BROWSERS_AWARE_PROXY
    return trace, config, org, simulate(trace, org, config)


class OneCell(Workload):
    name = "one-cell"


def test_perturbed_result_is_flagged_as_failed(cell):
    trace, config, org, result = cell
    pinned = {"digests": {"one-cell": {"c": result_digest(result)}}}

    good = Cell("c", org, config, result)
    OneCell().check(State(trace), [Unit([good], 0.0)], pinned)
    assert good.failures == []

    bad_result = simulate(trace, org, config)
    bad_result.n_requests += 1
    bad = Cell("c", org, config, bad_result)
    OneCell().check(State(trace), [Unit([bad], 0.0)], pinned)
    assert any("digest" in f for f in bad.failures)
    assert any("hits + misses" in f for f in bad.failures)


def test_invariants_run_without_pins(cell):
    trace, config, org, result = cell
    assert digest_failures("c", result, None) == []
    assert invariant_failures("c", config, result) == []


def test_cell_error_counts_as_failed():
    broken = Cell("c", None, None, None, error="RuntimeError: boom")
    OneCell().check(State(None), [Unit([broken], 0.0)], None)
    assert broken.failures == ["c: RuntimeError: boom"]


def test_mrc_tolerances():
    exact, approx = Organization.PROXY_ONLY, Organization.BROWSERS_AWARE_PROXY

    class R:
        hit_ratio = 0.5
        byte_hit_ratio = 0.25

    assert mrc_check("k", exact, R, (0.5, 0.25)) == ([], [])
    failures, deviations = mrc_check("k", exact, R, (0.5 + 1e-9, 0.25))
    assert failures == [] and len(deviations) == 1
    assert mrc_check("k", approx, R, (0.51, 0.24)) == ([], [])
    assert mrc_check("k", approx, R, (0.52, 0.25))[0]
    assert mrc_check("k", exact, R, (0.52, 0.25))[0]


def test_default_seed_is_the_paper_profile():
    ours = _paper_trace(0, 2000)
    paper = small_paper_trace("NLANR-uc", n_requests=2000)
    for column in ("timestamps", "clients", "docs", "sizes", "versions"):
        assert np.array_equal(getattr(ours, column), getattr(paper, column))
    assert not np.array_equal(_paper_trace(1, 2000).docs, paper.docs)
