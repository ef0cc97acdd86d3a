"""Squid native access-log parser (NLANR sanitized logs).

NLANR's IRCache project published Squid proxy logs in Squid's native
``access.log`` format::

    timestamp elapsed client action/code size method URL ident hierarchy/host type

e.g.::

    963561600.123    45 982a1f33 TCP_MISS/200 8192 GET http://a.example/x - DIRECT/a.example text/html

Client fields in the sanitized logs are randomised identifiers that are
consistent within one day's file, which is why the paper uses single-day
logs; we treat the field as an opaque key.  Only ``GET`` requests with a
2xx/3xx status and a positive size are cacheable and kept.
"""

from __future__ import annotations

import os
from typing import Iterable

from repro.traces._parse_common import (
    ParseReport,
    iter_lines,
    parse_size,
    parse_timestamp,
    resolve_errors,
    rows_to_trace,
)
from repro.traces.record import Trace

__all__ = ["parse_squid_log", "write_squid_log"]

_CACHEABLE_METHODS = {"GET"}


def parse_squid_log(
    source: str | os.PathLike | Iterable[str],
    name: str = "squid",
    strict: bool = False,
    errors: str | None = None,
    report: ParseReport | None = None,
) -> Trace:
    """Parse a Squid native access log into a :class:`Trace`.

    *source* may be a path, the log text itself, or an iterable of
    lines.  ``errors`` is ``"raise"`` (abort on the first malformed
    line) or ``"skip"`` (quarantine it and keep going); when ``None``
    the legacy ``strict`` flag picks the mode.  In skip mode a caller-
    supplied *report* collects the quarantine (count plus the first few
    offending lines); lines filtered for cacheability are not malformed
    and are never quarantined.
    """
    mode = resolve_errors(errors, strict)
    rows = []
    for lineno, line in enumerate(iter_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            ts = parse_timestamp(fields[0])
            client = fields[2]
            action_code = fields[3]
            size = parse_size(fields[4])
            method = fields[5]
            url = fields[6]
        except (IndexError, ValueError) as exc:
            if mode == "raise":
                raise ValueError(f"malformed squid log line {lineno}: {line!r}") from exc
            if report is not None:
                report.record_bad(lineno, line)
            continue
        status = action_code.rsplit("/", 1)[-1]
        if method not in _CACHEABLE_METHODS:
            continue
        if not (status.startswith("2") or status.startswith("3")):
            continue
        if size <= 0:
            continue
        rows.append((ts, client, url, size))
    if report is not None:
        report.parsed += len(rows)
    return rows_to_trace(rows, name)


def write_squid_log(trace: Trace, path: str | os.PathLike) -> None:
    """Write *trace* back out in Squid native format (for round-trips
    and for feeding other tools)."""
    with open(path, "w", encoding="utf-8") as fh:
        for req in trace:
            url = trace.url_of(req.doc)
            fh.write(
                f"{req.timestamp:.3f} 10 client{req.client:05d} "
                f"TCP_MISS/200 {req.size} GET {url} - DIRECT/origin text/html\n"
            )
