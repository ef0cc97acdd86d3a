"""Shared fixtures: small deterministic traces and configurations.

Unit/integration tests run on purpose-built small traces (a few
thousand requests) so the whole suite stays fast; the full paper-scale
traces are exercised by the benchmarks.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.core.config import SimulationConfig
from repro.traces.record import Trace
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace

import numpy as np


def example_budget(n: int) -> int:
    """Hypothesis examples for a test that runs *n* by default: at least
    200 under ``HYPOTHESIS_PROFILE=ci-nightly``, the nightly deep run's
    budget (the ``ci-nightly`` profile of ``tests/test_differential.py``)."""
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci-nightly":
        return max(n, 200)
    return n


# -- bloom reference, written apart from repro.index.bloom -------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def bloom_positions(key: int, n_bits: int, n_hashes: int) -> list[int]:
    """A key's bloom bit positions in closed form, ``(h1 + i * h2) %
    n_bits`` with SplitMix64 ``h1`` and ``h2 = mix(h1 ^ golden) | 1``."""
    h1 = _splitmix64(key)
    h2 = _splitmix64(h1 ^ 0x9E3779B97F4A7C15) | 1
    return [(h1 + i * h2) % n_bits for i in range(n_hashes)]


def bloom_claims(words, key: int, n_bits: int, n_hashes: int) -> bool:
    """Bit-level membership: every position's bit is set in the word
    sequence *words* (bit *p* is bit ``p & 63`` of word ``p >> 6``)."""
    return all(
        (int(words[p >> 6]) >> (p & 63)) & 1
        for p in bloom_positions(key, n_bits, n_hashes)
    )


def assert_result_roundtrips(result):
    """Exhaustive journal round-trip check for a SimulationResult.

    Serialises through :func:`repro.core.journal.result_to_jsonable`,
    an actual JSON encode/decode, and back; then walks **every** field
    of the dataclass via :func:`dataclasses.fields`, so a counter added
    to :class:`~repro.core.metrics.SimulationResult` but forgotten in
    the journal codec fails here by name instead of silently loading
    as its default.  Returns the restored result for extra assertions.
    """
    from repro.core.journal import result_from_jsonable, result_to_jsonable

    restored = result_from_jsonable(
        json.loads(json.dumps(result_to_jsonable(result)))
    )
    for fld in dataclasses.fields(type(result)):
        original = getattr(result, fld.name)
        recovered = getattr(restored, fld.name)
        assert recovered == original, (
            f"field {fld.name!r} did not survive the journal round-trip: "
            f"{original!r} -> {recovered!r}"
        )
    assert dataclasses.asdict(restored) == dataclasses.asdict(result)
    return restored


@pytest.fixture(scope="session")
def small_trace() -> Trace:
    """8k requests, 20 clients — enough structure for cache dynamics."""
    config = SyntheticTraceConfig(
        n_requests=8_000,
        n_clients=20,
        p_new=0.45,
        p_self=0.2,
        client_activity_alpha=0.3,
        uniform_doc_frac=0.35,
        recency_bias=0.15,
        name="small",
    )
    return generate_trace(config, seed=42)


@pytest.fixture(scope="session")
def tiny_trace() -> Trace:
    """A hand-checkable 2-client trace.

    Layout (doc, size, version):
      t0 client0 doc0 (100)   compulsory miss
      t1 client0 doc0 (100)   local browser hit
      t2 client1 doc0 (100)   proxy hit (or remote-browser without proxy)
      t3 client1 doc1 (200)   compulsory miss
      t4 client0 doc1 (200)   proxy hit / remote hit
      t5 client0 doc2 (300)   compulsory miss
    """
    return Trace(
        timestamps=np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
        clients=np.array([0, 0, 1, 1, 0, 0]),
        docs=np.array([0, 0, 0, 1, 1, 2]),
        sizes=np.array([100, 100, 100, 200, 200, 300]),
        versions=np.zeros(6, dtype=np.int64),
        name="tiny",
    )


@pytest.fixture()
def roomy_config() -> SimulationConfig:
    """Caches big enough to never evict in the tiny trace."""
    return SimulationConfig(proxy_capacity=10_000, browser_capacity=10_000)
