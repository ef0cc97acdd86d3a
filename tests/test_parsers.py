"""Log-format parsers: Squid/NLANR, BU, CA*netII."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.traces.bu import parse_bu_log, write_bu_log
from repro.traces.canet import concatenate, parse_canet_log, write_canet_log
from repro.traces.squid import parse_squid_log, write_squid_log
from tests.conftest import example_budget

SQUID_LOG = """\
963561600.123 45 client-a TCP_MISS/200 8192 GET http://x.example/a - DIRECT/x text/html
963561601.000 10 client-b TCP_HIT/200 512 GET http://x.example/b - NONE/- image/gif
963561602.500 99 client-a TCP_MISS/304 100 GET http://x.example/a - DIRECT/x text/html
963561603.000 12 client-a TCP_MISS/200 0 GET http://x.example/zero - DIRECT/x text/html
963561604.000 12 client-c TCP_MISS/200 400 POST http://x.example/form - DIRECT/x text/html
963561605.000 12 client-b TCP_MISS/404 99 GET http://x.example/missing - DIRECT/x text/html
963561606.000 12 client-b TCP_MISS/200 9000 GET http://x.example/a - DIRECT/x text/html
"""


def test_parse_squid_basic():
    t = parse_squid_log(SQUID_LOG, name="sq")
    # kept: lines 1,2,3,7 (GET, 2xx/3xx, size>0)
    assert len(t) == 4
    assert t.n_clients == 2  # client-a, client-b
    assert t.n_docs == 2  # /a and /b


def test_parse_squid_version_bump_on_size_change():
    t = parse_squid_log(SQUID_LOG)
    # doc /a appears with sizes 8192, 100, 9000 -> versions 0, 1, 2
    a_rows = [(r.size, r.version) for r in t if t.url_of(r.doc).endswith("/a")]
    assert a_rows == [(8192, 0), (100, 1), (9000, 2)]


def test_parse_squid_skips_malformed_lines():
    junk = "this is not a log line\n963561600.1 10\n" + SQUID_LOG
    assert len(parse_squid_log(junk)) == 4


def test_parse_squid_strict_raises():
    with pytest.raises(ValueError, match="malformed"):
        parse_squid_log("garbage line\n", strict=True)


def test_parse_squid_comments_and_blanks_ignored():
    assert len(parse_squid_log("# comment\n\n")) == 0


def test_squid_roundtrip(tmp_path, small_trace):
    path = tmp_path / "access.log"
    write_squid_log(small_trace, path)
    back = parse_squid_log(path, name="rt")
    assert len(back) == len(small_trace)
    assert back.n_clients == small_trace.n_clients
    assert back.n_docs == small_trace.n_docs
    assert np.array_equal(back.sizes, small_trace.sizes)
    # version structure is re-derived from size changes and must match
    # the original versions' hit/miss semantics
    assert np.array_equal(back.versions > 0, small_trace.versions > 0)


BU_LOG = """\
beaker s1 794397473.5 http://cs-www.bu.edu/ 2009 0.5
beaker s1 794397500.0 http://cs-www.bu.edu/faculty 4000 0.3
piper  s2 794397510.0 http://cs-www.bu.edu/ 2009 0.1
piper 794397520.0 http://cs-www.bu.edu/five-field 100 0.1
beaker s1 794397530.0 ftp://not-http/ 50 0.1
beaker s1 794397540.0 http://cs-www.bu.edu/zero 0 0.1
"""


def test_parse_bu_basic():
    t = parse_bu_log(BU_LOG)
    assert len(t) == 4  # ftp and zero-size dropped; 5-field line kept
    assert t.n_clients == 2
    assert t.n_docs == 3


def test_bu_strict():
    with pytest.raises(ValueError):
        parse_bu_log("one two\n", strict=True)


def test_bu_roundtrip(tmp_path, small_trace):
    path = tmp_path / "bu.log"
    write_bu_log(small_trace, path)
    back = parse_bu_log(path)
    assert len(back) == len(small_trace)
    assert back.n_clients == small_trace.n_clients
    assert np.array_equal(back.sizes, small_trace.sizes)


def test_canet_is_squid_format():
    t = parse_canet_log(SQUID_LOG, name="canet")
    assert len(t) == 4


def test_canet_roundtrip(tmp_path, small_trace):
    path = tmp_path / "canet.log"
    write_canet_log(small_trace, path)
    assert len(parse_canet_log(path)) == len(small_trace)


def test_concatenate_two_days(tmp_path, small_trace):
    """The paper concatenates two CA*netII days; ids unify by URL."""
    p1 = tmp_path / "day1.log"
    p2 = tmp_path / "day2.log"
    write_canet_log(small_trace, p1)
    write_canet_log(small_trace, p2)
    day1 = parse_canet_log(p1, name="d1")
    day2 = parse_canet_log(p2, name="d2")
    both = concatenate([day1, day2])
    assert len(both) == 2 * len(small_trace)
    # same URL universe -> doc count does not double
    assert both.n_docs == day1.n_docs
    assert (np.diff(both.timestamps) >= 0).all()


def test_concatenate_single():
    t = parse_squid_log(SQUID_LOG)
    assert concatenate([t]) is t
    with pytest.raises(ValueError):
        concatenate([])


def test_concatenate_rederives_versions():
    t = parse_squid_log(SQUID_LOG)
    both = concatenate([t, t])
    # doc /a sizes across the join: 8192,100,9000,8192,100,9000
    # -> versions 0,1,2,3,4,5 (every size change is a new version)
    a_vers = [r.version for r in both if both.url_of(r.doc).endswith("/a")]
    assert a_vers == [0, 1, 2, 3, 4, 5]


# -- lenient parsing: errors mode + ParseReport ------------------------------


def test_errors_skip_quarantines_into_report():
    from repro.traces import ParseReport

    junk = "this is not a log line\n963561600.1 10\n" + SQUID_LOG
    report = ParseReport()
    t = parse_squid_log(junk, errors="skip", report=report)
    assert len(t) == 4
    assert report.parsed == 4
    assert report.skipped == 2
    assert not report.ok
    assert [lineno for lineno, _ in report.samples] == [1, 2]
    assert "not a log line" in report.samples[0][1]
    assert "2 malformed" in report.summary()


def test_errors_raise_matches_strict():
    with pytest.raises(ValueError, match="malformed"):
        parse_squid_log("garbage line\n", errors="raise")
    # an explicit mode wins over the legacy flag
    t = parse_squid_log("garbage line\n" + SQUID_LOG, strict=True, errors="skip")
    assert len(t) == 4


def test_errors_mode_validated():
    with pytest.raises(ValueError, match="errors must be one of"):
        parse_squid_log(SQUID_LOG, errors="ignore")


def test_report_samples_capped():
    from repro.traces import ParseReport

    junk = "\n".join(f"bad line {i}" for i in range(25))
    report = ParseReport()
    parse_squid_log(junk, errors="skip", report=report)
    assert report.skipped == 25
    assert len(report.samples) == ParseReport.MAX_SAMPLES


def test_report_clean_parse():
    from repro.traces import ParseReport

    report = ParseReport()
    parse_squid_log(SQUID_LOG, report=report)
    assert report.ok
    assert report.skipped == 0
    assert "no malformed" in report.summary()


def test_bu_errors_skip_report():
    from repro.traces import ParseReport

    log = (
        "beaker s0 794397473.5 http://cs-www.bu.edu/ 2009 0.5\n"
        "torn-record-without-fields\n"
        "beaker s0 notatime http://cs-www.bu.edu/x 10 0.5\n"
    )
    report = ParseReport()
    t = parse_bu_log(log, errors="skip", report=report)
    assert len(t) == 1
    assert report.skipped == 2
    with pytest.raises(ValueError, match="malformed"):
        parse_bu_log(log, errors="raise")


def test_canet_forwards_errors_and_report():
    from repro.traces import ParseReport

    report = ParseReport()
    t = parse_canet_log("junk\n" + SQUID_LOG, errors="skip", report=report)
    assert len(t) == 4
    assert report.skipped == 1
    with pytest.raises(ValueError, match="malformed"):
        parse_canet_log("junk\n", errors="raise")


# -- non-finite timestamps and fuzzing ----------------------------------------


@pytest.mark.parametrize("ts", ["nan", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_timestamp_is_a_malformed_line(ts):
    from repro.traces import ParseReport

    squid = f"{ts} 1 c TCP_MISS/200 5 GET http://a\n" + SQUID_LOG
    bu = f"m s0 {ts} http://a 5 0.1\n" + "beaker s0 794397473.5 http://a/ 2009 0.5\n"
    for parse, log in (
        (parse_squid_log, squid),
        (parse_canet_log, squid),
        (parse_bu_log, bu),
    ):
        report = ParseReport()
        trace = parse(log, errors="skip", report=report)
        assert report.skipped == 1 and report.samples[0][0] == 1
        assert len(trace) == report.parsed > 0
        assert np.isfinite(trace.timestamps).all()
        with pytest.raises(ValueError, match="malformed"):
            parse(log, errors="raise")


def test_size_beyond_int64_is_a_malformed_line():
    from repro.traces import ParseReport

    report = ParseReport()
    parse_squid_log(
        f"1.0 1 c TCP_MISS/200 {2**63} GET http://a\n", errors="skip", report=report
    )
    assert report.skipped == 1 and report.parsed == 0


_TIMESTAMPS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "Infinity", "1e999", "963561600.5"]),
    st.text(max_size=6),
)
_SIZES = st.one_of(st.integers(-5, 2**70).map(str), st.text(max_size=4))
_SQUID_LINES = st.builds(
    "{} 10 c{} {} {} {} http://x.example/{}".format,
    _TIMESTAMPS,
    st.integers(0, 3),
    st.sampled_from(["TCP_MISS/200", "TCP_HIT/304", "TCP_MISS/404", "junk"]),
    _SIZES,
    st.sampled_from(["GET", "POST"]),
    st.integers(0, 5),
)
_BU_LINES = st.builds(
    "m{} {}{} http://x.example/{} {} 0.5".format,
    st.integers(0, 3),
    st.sampled_from(["", "s0 "]),
    _TIMESTAMPS,
    st.integers(0, 5),
    _SIZES,
)


@pytest.mark.parametrize(
    "parse, lines",
    [
        (parse_squid_log, _SQUID_LINES),
        (parse_canet_log, _SQUID_LINES),
        (parse_bu_log, _BU_LINES),
    ],
    ids=["squid", "canet", "bu"],
)
@given(data=st.data())
@settings(max_examples=example_budget(100), deadline=None)
def test_skip_mode_parses_arbitrary_text(parse, lines, data):
    """Arbitrary text, mixed with lines built from (possibly invalid)
    fields, never makes a parser raise in skip mode; every kept
    timestamp is finite and each non-blank, non-comment line is at most
    parsed or skipped once."""
    from repro.traces import ParseReport

    text = "\n".join(data.draw(st.lists(st.one_of(st.text(), lines), max_size=25)))
    source = text.splitlines()  # how a parser splits a text source
    content = [
        line for line in map(str.strip, source) if line and not line.startswith("#")
    ]
    report = ParseReport()
    trace = parse(source, errors="skip", report=report)
    assert np.isfinite(trace.timestamps).all()
    assert len(trace) == report.parsed
    assert report.parsed + report.skipped <= len(content)


@pytest.mark.parametrize("parse", [parse_squid_log, parse_bu_log], ids=["squid", "bu"])
def test_directory_source_is_rejected_by_name(parse, tmp_path, monkeypatch):
    """A ``str`` naming a directory (``"src"`` from a checkout's root)
    raises a ``ValueError`` naming it, in either errors mode, instead of
    an ``IsADirectoryError`` or a parse of the name as log text."""
    (tmp_path / "src").mkdir()
    monkeypatch.chdir(tmp_path)
    for errors in ("raise", "skip"):
        with pytest.raises(ValueError, match="'src' is a directory"):
            parse("src", errors=errors)
        with pytest.raises(ValueError, match="is a directory"):
            parse(tmp_path, errors=errors)


@pytest.mark.parametrize(
    "parse, line",
    [
        (parse_squid_log, SQUID_LOG.splitlines()[1]),
        (parse_bu_log, BU_LOG.splitlines()[1]),
    ],
    ids=["squid", "bu"],
)
def test_one_line_text_is_log_text(parse, line, tmp_path, monkeypatch):
    """A one-line log text (no newline) is parsed as text, like the same
    line in a file."""
    monkeypatch.chdir(tmp_path)
    one = parse(line, errors="raise")
    assert len(one) == 1
    (tmp_path / "log").write_text(line + "\n")
    assert list(parse("log", errors="raise").sizes) == list(one.sizes)
