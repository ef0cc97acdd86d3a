"""Boston University client trace parser.

The BU traces (Cunha/Bestavros/Crovella 1995 and the 1998 follow-up
used by Barford et al.) were collected by an instrumented Mosaic/NCSA
browser on a shared computing facility.  Each record describes one URL
fetch by one client machine::

    <machine> <timestamp> <url> <size> <elapsed>

e.g.::

    beaker census 794397473.5 http://cs-www.bu.edu/ 2009 0.5

Some distributions prepend a user/session field; the parser accepts
five- or six-field lines and takes the machine name as the client key
(the paper simulates browser caches per client *machine*).
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

__all__ = ["parse_bu_log", "write_bu_log"]


def parse_bu_log(
    source: str | os.PathLike | Iterable[str],
    name: str = "bu",
    strict: bool = False,
    errors: str | None = None,
    report: ParseReport | None = None,
) -> Trace:
    """Parse a BU browser trace into a :class:`Trace`.

    ``errors``/``report`` behave as in
    :func:`~repro.traces.squid.parse_squid_log`: ``"raise"`` aborts on
    the first malformed line, ``"skip"`` quarantines it into *report*.
    """
    mode = resolve_errors(errors, strict)
    rows = []
    for lineno, line in enumerate(iter_lines(source), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if len(fields) >= 6:
                machine, _session, ts_s, url, size_s = fields[0], fields[1], fields[2], fields[3], fields[4]
            elif len(fields) == 5:
                machine, ts_s, url, size_s = fields[0], fields[1], fields[2], fields[3]
            else:
                raise ValueError("too few fields")
            ts = parse_timestamp(ts_s)
            size = parse_size(size_s)
        except (IndexError, ValueError) as exc:
            if mode == "raise":
                raise ValueError(f"malformed BU trace line {lineno}: {line!r}") from exc
            if report is not None:
                report.record_bad(lineno, line)
            continue
        if size <= 0 or not url.startswith("http"):
            continue
        rows.append((ts, machine, url, size))
    if report is not None:
        report.parsed += len(rows)
    return rows_to_trace(rows, name)


def write_bu_log(trace: Trace, path: str | os.PathLike) -> None:
    """Write *trace* in the six-field BU format."""
    with open(path, "w", encoding="utf-8") as fh:
        for req in trace:
            url = trace.url_of(req.doc)
            fh.write(
                f"machine{req.client:04d} s0 {req.timestamp:.1f} {url} {req.size} 0.2\n"
            )
