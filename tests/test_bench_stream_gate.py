"""``benchmarks/bench_stream.py --check`` fails on a result digest
other than the committed one, even when both engines agree."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_stream():
    spec = importlib.util.spec_from_file_location(
        "bench_stream", ROOT / "benchmarks" / "bench_stream.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_report(digest: str, rss: int) -> dict:
    row = {
        "seconds": 1.0,
        "requests_per_second": 1.0,
        "peak_rss_bytes": rss,
        "hit_ratio": 0.5,
        "result_digest": digest,
    }
    return {
        "cell": {"n_requests": 10, "n_clients": 2, "organization": "x"},
        "streamed": dict(row),
        "materialised": dict(row),
        "comparison": {
            "identical_results": True,
            "rss_ratio_materialised_over_streamed": 1.0,
        },
    }


@pytest.mark.parametrize(
    "digest,rss,status",
    [("a" * 64, 100, 0), ("b" * 64, 100, 1), ("a" * 64, 10_000, 1)],
    ids=["pinned", "moved-alike", "over-ceiling"],
)
def test_check_compares_the_committed_digest(tmp_path, monkeypatch, digest, rss, status):
    bench = _bench_stream()
    baseline = tmp_path / "BENCH_stream.json"
    baseline.write_text(
        json.dumps(
            {
                "ci": {
                    "cell": {"n_requests": 10, "n_clients": 2, "seed": 0},
                    "rss_ceiling_bytes": 1_000,
                    "report": _fake_report("a" * 64, 100),
                }
            }
        )
    )
    monkeypatch.setattr(
        bench, "run_benchmark", lambda *args, **kw: _fake_report(digest, rss)
    )
    assert bench.check(baseline, seed=0) == status

