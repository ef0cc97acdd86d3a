"""SimulationConfig and the paper's sizing rules."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import (
    SimulationConfig,
    average_browser_capacity,
    minimum_browser_capacity,
)
from repro.traces.record import Trace


def test_minimum_browser_capacity_default():
    # aggregate of all browsers == proxy cache
    assert minimum_browser_capacity(1_000_000, 100) == 10_000


def test_minimum_browser_capacity_divisor():
    assert minimum_browser_capacity(1_000_000, 100, divisor=10) == 1_000
    assert minimum_browser_capacity(0, 5) == 1  # floor of 1 byte


def test_minimum_browser_capacity_validation():
    with pytest.raises(ValueError):
        minimum_browser_capacity(100, 0)
    with pytest.raises(ValueError):
        minimum_browser_capacity(-1, 10)
    with pytest.raises(ValueError):
        minimum_browser_capacity(100, 10, divisor=0)


def test_average_browser_capacity():
    t = Trace(
        timestamps=np.arange(4, dtype=float),
        clients=np.array([0, 0, 1, 1]),
        docs=np.array([0, 1, 2, 2]),
        sizes=np.array([100, 200, 400, 400]),
        versions=np.zeros(4, dtype=np.int64),
    )
    # footprints: client0 = 300, client1 = 400 -> mean 350
    assert average_browser_capacity(t, 0.1) == 35
    assert average_browser_capacity(t, 1.0) == 350
    with pytest.raises(ValueError):
        average_browser_capacity(t, 0.0)


def test_relative_constructor_minimum(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.10, browser_sizing="minimum")
    expected_proxy = int(0.10 * small_trace.infinite_cache_bytes())
    assert config.proxy_capacity == expected_proxy
    assert config.browser_capacity == minimum_browser_capacity(
        expected_proxy, small_trace.n_clients
    )


def test_relative_constructor_average(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.10, browser_sizing="average")
    assert config.browser_capacity == average_browser_capacity(small_trace, 0.10)
    custom = SimulationConfig.relative(
        small_trace, proxy_frac=0.10, browser_sizing="average", browser_frac=0.25
    )
    assert custom.browser_capacity == average_browser_capacity(small_trace, 0.25)


def test_relative_constructor_validation(small_trace):
    with pytest.raises(ValueError):
        SimulationConfig.relative(small_trace, proxy_frac=0.0)
    with pytest.raises(ValueError):
        SimulationConfig.relative(small_trace, proxy_frac=0.1, browser_sizing="huge")


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(proxy_capacity=-1, browser_capacity=10)
    with pytest.raises(ValueError):
        SimulationConfig(proxy_capacity=10, browser_capacity=10, memory_fraction=1.5)
    with pytest.raises(ValueError):
        # browser memory override without the tiered model enabled
        SimulationConfig(
            proxy_capacity=10, browser_capacity=10, browser_memory_fraction=0.5
        )


def test_with_override(small_trace):
    config = SimulationConfig.relative(small_trace, proxy_frac=0.10)
    tweaked = config.with_(memory_fraction=0.1)
    assert tweaked.memory_fraction == 0.1
    assert tweaked.proxy_capacity == config.proxy_capacity
    assert config.memory_fraction is None  # original untouched


def test_tiered_requires_lru(small_trace):
    from repro.core import Organization, Simulator

    config = SimulationConfig.relative(
        small_trace, proxy_frac=0.1, memory_fraction=0.1, proxy_policy="lfu"
    )
    with pytest.raises(ValueError, match="LRU"):
        Simulator(small_trace, Organization.PROXY_AND_LOCAL_BROWSER, config)


# -- every field has a user ------------------------------------------------

_REPO = Path(__file__).resolve().parent.parent
#: where a field counts as set by something: the CLI, experiments and
#: subsystems built on the engine, examples, benchmarks and tools.
_USERS = [
    _REPO / "src/repro/cli.py",
    *(
        _REPO / "src/repro" / package
        for package in (
            "experiments", "federation", "adversarial", "hierarchy", "prefetch", "analysis"
        )
    ),
    _REPO / "examples",
    _REPO / "benchmarks",
    _REPO / "perfbench",
    _REPO / "tools",
]
#: fields nothing sets whose defaults are the paper's own timing models
#: (§4.2 10 Mbps Ethernet, the WAN fetch, §5 memory/disk access), read by
#: every overhead report.  Listed so the rule below stays strict for
#: everything else; a field leaves this list once something sets it.
_PAPER_DEFAULTS = {"lan", "wan", "storage"}


def test_every_config_field_is_set_by_a_user():
    """Each ``SimulationConfig`` field costs a branch in every engine, a
    row in the stream support matrix and a dimension in the
    differential suite, so each must be set (``field=``) somewhere
    outside the engines and tests.  A new field fails here until
    something uses it."""
    files = [
        path
        for root in _USERS
        for path in ([root] if root.is_file() else sorted(root.rglob("*.py")))
    ]
    text = "\n".join(p.read_text(encoding="utf-8") for p in files)
    set_somewhere = {
        f.name
        for f in dataclasses.fields(SimulationConfig)
        if re.search(rf"(?<![\w.]){f.name}=(?!=)", text)
    }
    unset = {f.name for f in dataclasses.fields(SimulationConfig)} - set_somewhere
    assert unset == _PAPER_DEFAULTS
