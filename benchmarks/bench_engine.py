"""Engine microbenchmarks — simulator and substrate throughput.

Unlike the table/figure benchmarks these use pytest-benchmark's normal
multi-round timing, giving stable ops/sec numbers for the hot paths.
"""

import dataclasses

import numpy as np

from repro.cache import LRUCache, TieredLRUCache
from repro.core import Organization, SimulationConfig, resolve_workers, run_policy_sweep, simulate
from repro.index.bloom import BloomFilter
from repro.security.md5 import md5_digest
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

_TRACE = generate_trace(
    SyntheticTraceConfig(n_requests=20_000, n_clients=32, name="bench"), seed=9
)
_CONFIG = SimulationConfig.relative(_TRACE, proxy_frac=0.10, browser_sizing="minimum")

_SWEEP_ORGS = (
    Organization.PROXY_ONLY,
    Organization.PROXY_AND_LOCAL_BROWSER,
    Organization.BROWSERS_AWARE_PROXY,
)
_SWEEP_FRACTIONS = (0.05, 0.10, 0.20)


def test_engine_throughput_baps(benchmark):
    result = benchmark.pedantic(
        lambda: simulate(_TRACE, Organization.BROWSERS_AWARE_PROXY, _CONFIG),
        rounds=3,
        iterations=1,
    )
    assert result.n_requests == len(_TRACE)


def test_engine_throughput_plb(benchmark):
    result = benchmark.pedantic(
        lambda: simulate(_TRACE, Organization.PROXY_AND_LOCAL_BROWSER, _CONFIG),
        rounds=3,
        iterations=1,
    )
    assert result.n_requests == len(_TRACE)


def test_sweep_engine_serial(benchmark):
    """Serial-equivalent baseline for the parallel sweep engine."""
    sweep = benchmark.pedantic(
        lambda: run_policy_sweep(
            _TRACE, organizations=_SWEEP_ORGS, fractions=_SWEEP_FRACTIONS, workers=0
        ),
        rounds=2,
        iterations=1,
    )
    assert not sweep.failures
    assert len(sweep.results) == len(_SWEEP_ORGS) * len(_SWEEP_FRACTIONS)


def test_sweep_engine_parallel(benchmark):
    """Same grid over a full-width process pool; asserts the results
    are bit-identical to the serial path (the engine's core guarantee)
    and reports the measured speedup."""
    serial = run_policy_sweep(
        _TRACE, organizations=_SWEEP_ORGS, fractions=_SWEEP_FRACTIONS, workers=0
    )
    sweep = benchmark.pedantic(
        lambda: run_policy_sweep(
            _TRACE,
            organizations=_SWEEP_ORGS,
            fractions=_SWEEP_FRACTIONS,
            workers=resolve_workers(None),
        ),
        rounds=2,
        iterations=1,
    )
    assert not sweep.failures
    for key, result in serial.results.items():
        assert dataclasses.asdict(sweep.results[key]) == dataclasses.asdict(result)
    benchmark.extra_info["speedup_vs_serial"] = round(
        sweep.timing.speedup_vs_serial, 3
    )
    benchmark.extra_info["workers"] = sweep.timing.workers


def test_trace_generation(benchmark):
    config = SyntheticTraceConfig(n_requests=20_000, n_clients=32)
    trace = benchmark.pedantic(lambda: generate_trace(config, seed=1), rounds=3, iterations=1)
    assert len(trace) == 20_000


def test_lru_cache_ops(benchmark):
    keys = np.random.default_rng(0).integers(0, 2_000, size=10_000).tolist()

    def work():
        cache = LRUCache(100_000)
        for k in keys:
            if cache.get(k) is None:
                cache.put(k, 64)
        return cache

    benchmark(work)


def test_tiered_cache_ops(benchmark):
    keys = np.random.default_rng(0).integers(0, 2_000, size=10_000).tolist()

    def work():
        cache = TieredLRUCache(100_000, memory_fraction=0.1)
        for k in keys:
            entry, _tier = cache.get(k)
            if entry is None:
                cache.put(k, 64)
        return cache

    benchmark(work)


def test_bloom_filter_ops(benchmark):
    def work():
        f = BloomFilter.for_capacity(5_000)
        for k in range(5_000):
            f.add(k)
        return sum(1 for k in range(5_000) if k in f)

    assert benchmark(work) == 5_000


def test_bloom_filter_add_many(benchmark):
    """The batch path of ``test_bloom_filter_ops``' adds (one
    ``add_many`` call, as digest builds and summary rebuilds use)."""
    keys = list(range(5_000))

    def work():
        f = BloomFilter.for_capacity(5_000)
        f.add_many(keys)
        return f

    f = benchmark(work)
    assert f.n_added == 5_000
    assert all(k in f for k in keys)


def test_md5_throughput(benchmark):
    payload = b"x" * 65_536
    digest = benchmark(lambda: md5_digest(payload))
    assert len(digest) == 16
