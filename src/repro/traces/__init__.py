"""Web trace substrate.

The paper's evaluation is trace-driven: five proxy access-log traces
(NLANR-uc, NLANR-bo1, BU-95, BU-98, CA*netII) are replayed through a
simulated browser/proxy caching hierarchy.  The original 2000-era log
files are no longer distributable, so this package provides both

* parsers/writers for the real on-disk formats (Squid/NLANR access
  logs, Boston University client logs, CA*netII parent-cache logs), so
  genuine traces can be replayed if available, and
* a calibrated synthetic workload generator whose output matches the
  Table 1 characteristics of each paper trace (request count, unique
  footprint, client count, maximum hit and byte-hit ratios).
"""

from repro.traces.record import Request, Trace
from repro.traces._parse_common import ParseReport
from repro.traces.synthetic import SyntheticTraceConfig, generate_trace
from repro.traces.streaming import TraceStream
from repro.traces.profiles import (
    TraceProfile,
    PAPER_TRACES,
    get_profile,
    load_paper_trace,
    small_paper_trace,
)
from repro.traces.stats import TraceStats, compute_stats
from repro.traces.filters import select_clients, head, cacheable_only
from repro.traces.squid import parse_squid_log, write_squid_log
from repro.traces.bu import parse_bu_log, write_bu_log
from repro.traces.canet import parse_canet_log, write_canet_log, concatenate
from repro.traces.sampling import (
    SAMPLE_ERROR_BOUNDS,
    SpatialSampler,
    SampleReport,
    SampleSizeError,
    sample_trace,
    build_sample_report,
)

__all__ = [
    "Request",
    "Trace",
    "ParseReport",
    "SyntheticTraceConfig",
    "generate_trace",
    "TraceStream",
    "TraceProfile",
    "PAPER_TRACES",
    "get_profile",
    "load_paper_trace",
    "small_paper_trace",
    "TraceStats",
    "compute_stats",
    "select_clients",
    "head",
    "cacheable_only",
    "parse_squid_log",
    "write_squid_log",
    "parse_bu_log",
    "write_bu_log",
    "parse_canet_log",
    "write_canet_log",
    "concatenate",
    "SAMPLE_ERROR_BOUNDS",
    "SpatialSampler",
    "SampleReport",
    "SampleSizeError",
    "sample_trace",
    "build_sample_report",
]
