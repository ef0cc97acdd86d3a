"""Synthetic workload generator tests."""

import numpy as np
import pytest

from repro.traces.stats import compute_stats
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace


def gen(seed=0, **kw):
    defaults = dict(n_requests=6_000, n_clients=12)
    defaults.update(kw)
    return generate_trace(SyntheticTraceConfig(**defaults), seed=seed)


def test_shape_and_dtypes():
    t = gen()
    assert len(t) == 6_000
    assert t.clients.max() < 12
    assert (t.sizes >= 64).all()
    assert (np.diff(t.timestamps) >= 0).all()


def test_deterministic_for_seed():
    a, b = gen(seed=3), gen(seed=3)
    assert np.array_equal(a.docs, b.docs)
    assert np.array_equal(a.sizes, b.sizes)
    assert np.array_equal(a.timestamps, b.timestamps)
    c = gen(seed=4)
    assert not np.array_equal(a.docs, c.docs)


def test_all_clients_present():
    t = gen()
    assert t.n_clients == 12


def test_p_new_controls_max_hit_ratio():
    lo = compute_stats(gen(p_new=0.2)).max_hit_ratio
    hi = compute_stats(gen(p_new=0.7)).max_hit_ratio
    assert lo > hi
    # roughly 1 - p_new (mutations shave a little more)
    assert lo == pytest.approx(0.8, abs=0.08)
    assert hi == pytest.approx(0.3, abs=0.08)


def test_beta_controls_byte_hit_gap():
    flat = compute_stats(gen(size_popularity_beta=0.0))
    steep = compute_stats(gen(size_popularity_beta=1.2))
    gap_flat = flat.max_hit_ratio - flat.max_byte_hit_ratio
    gap_steep = steep.max_hit_ratio - steep.max_byte_hit_ratio
    assert gap_steep > gap_flat


def test_mutation_rate_creates_versions():
    none = gen(p_mutate=0.0)
    some = gen(p_mutate=0.05)
    assert none.versions.max() == 0
    assert some.versions.max() >= 1


def test_mean_doc_size_calibrated():
    t = gen(mean_doc_size=20_000)
    assert t.sizes.mean() == pytest.approx(20_000, rel=0.05)


def test_duration_respected():
    t = gen(duration=3600.0)
    assert t.timestamps[0] == 0.0
    assert t.timestamps[-1] == pytest.approx(3600.0)


def test_sizes_constant_per_doc_version():
    t = gen()
    seen: dict[tuple[int, int], int] = {}
    for _, _, d, s, v in t.iter_rows():
        key = (d, v)
        assert seen.setdefault(key, s) == s


def test_private_docs_reduce_sharing():
    shared = gen(private_doc_frac=0.0)
    private = gen(private_doc_frac=0.9)

    def cross_client_docs(t):
        holders = {}
        for _, c, d, _, _ in t.iter_rows():
            holders.setdefault(d, set()).add(c)
        return sum(1 for s in holders.values() if len(s) > 1)

    assert cross_client_docs(private) < cross_client_docs(shared)


def test_activity_skew():
    skewed = gen(client_activity_alpha=0.1)
    counts = np.bincount(skewed.clients, minlength=12)
    # top client dominates under a strongly skewed Dirichlet
    assert counts.max() > 3 * np.median(counts)


def test_config_validation():
    with pytest.raises(ValueError):
        SyntheticTraceConfig(n_requests=0)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(p_new=1.5)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(p_new=0.7, p_self=0.5)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(mean_doc_size=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("client_activity_alpha", 0.0),
        ("client_activity_alpha", -0.5),
        ("client_activity_alpha", float("inf")),
        ("size_sigma", -0.1),
        ("size_sigma", float("nan")),
        ("mutate_size_sigma", -1.0),
        ("mutate_size_sigma", float("inf")),
        ("size_popularity_beta", float("nan")),
        ("size_popularity_beta", float("-inf")),
    ],
)
def test_trace_knobs_fail_at_construction_naming_the_field(field, value):
    """A bad activity, size or popularity knob is rejected when the
    config is built, with an error that names it, instead of failing
    (or warning) deep inside calibration."""
    with pytest.raises(ValueError, match=field):
        SyntheticTraceConfig(n_requests=200, n_clients=8, **{field: value})


def test_trace_knob_edges_still_generate():
    """Zero size noise and a negative size/popularity exponent are
    valid and still build a trace."""
    trace = gen(
        n_requests=200, size_sigma=0.0, mutate_size_sigma=0.0, size_popularity_beta=-0.5
    )
    assert len(trace) == 200


def test_scaled_helper():
    cfg = SyntheticTraceConfig(n_requests=10_000)
    assert cfg.scaled(0.5).n_requests == 5_000
    assert cfg.scaled(0.5).p_new == cfg.p_new
    with pytest.raises(ValueError):
        cfg.scaled(0)


def test_tiny_trace_generates():
    t = gen(n_requests=1, n_clients=1)
    assert len(t) == 1
