"""Shared machinery for log-format parsers.

All parsers reduce a text log to rows of ``(timestamp, client_key,
url, size)`` and then call :func:`rows_to_trace`, which maps client
keys and URLs to dense integer ids and infers document versions from
observed size changes (the paper counts a hit on a size-changed
document as a miss, so a size change is exactly a version bump).

Real 2000-era logs are messy — truncated records at rotation
boundaries, sanitizer artifacts, stray binary.  Every parser therefore
takes an ``errors`` mode: ``"raise"`` aborts on the first malformed
line, ``"skip"`` quarantines it into a :class:`ParseReport` (count plus
the first few offending lines) and keeps going, so one torn line does
not discard a day of trace.  A line is malformed when a field is
missing or does not parse, and also when its timestamp is not finite
(``nan``/``inf`` would reach every virtual-time schedule) or its size
does not fit the trace's 64-bit column.
"""

from __future__ import annotations

import gzip
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.traces.record import Trace

__all__ = [
    "ParseReport",
    "iter_lines",
    "parse_size",
    "parse_timestamp",
    "resolve_errors",
    "rows_to_trace",
]

#: valid ``errors`` modes for the log parsers.
ERROR_MODES = ("raise", "skip")

_INT64_MAX = 2**63 - 1


def parse_timestamp(text: str) -> float:
    """A log timestamp; ``ValueError`` unless it is a finite number."""
    ts = float(text)
    if not math.isfinite(ts):
        raise ValueError(f"non-finite timestamp {text!r}")
    return ts


def parse_size(text: str) -> int:
    """A log size field; ``ValueError`` unless it is an integer that
    fits the trace's int64 size column."""
    size = int(text)
    if size > _INT64_MAX:
        raise ValueError(f"size {text!r} overflows 64 bits")
    return size


def iter_lines(source: str | os.PathLike | Iterable[str]) -> Iterator[str]:
    """The lines of a parser's *source*: a path, the log text itself, or
    an iterable of lines.

    A ``str`` holding a newline, or naming nothing on disk, is log text.
    Otherwise the path is opened (gzip-compressed if it ends in ``.gz``,
    as NLANR published its logs), unless it is a directory, which raises
    :class:`ValueError` naming it."""
    if not isinstance(source, (str, os.PathLike)):
        yield from source
        return
    path = os.fspath(source)
    if isinstance(source, str) and ("\n" in source or not os.path.exists(path)):
        yield from source.splitlines()
        return
    if os.path.isdir(path):
        raise ValueError(f"log source {path!r} is a directory, not a log file")
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", errors="replace") as fh:
        yield from fh


def resolve_errors(errors: str | None, strict: bool) -> str:
    """Resolve a parser's ``errors`` mode against its legacy ``strict``
    flag: an explicit mode wins; otherwise ``strict=True`` means
    ``"raise"`` and the historical default means ``"skip"``."""
    if errors is None:
        return "raise" if strict else "skip"
    if errors not in ERROR_MODES:
        raise ValueError(f"errors must be one of {ERROR_MODES}, got {errors!r}")
    return errors


@dataclass
class ParseReport:
    """Quarantine record for one parse: what was kept, what was not.

    ``samples`` holds the first :attr:`MAX_SAMPLES` malformed lines
    with their line numbers — enough to diagnose a systematically
    broken log without retaining gigabytes of garbage.
    """

    MAX_SAMPLES = 10

    #: rows that made it into the trace.
    parsed: int = 0
    #: malformed lines quarantined (``errors="skip"`` only).
    skipped: int = 0
    #: ``(lineno, line)`` for the first few malformed lines.
    samples: list[tuple[int, str]] = field(default_factory=list)

    def record_bad(self, lineno: int, line: str) -> None:
        self.skipped += 1
        if len(self.samples) < self.MAX_SAMPLES:
            self.samples.append((lineno, line))

    @property
    def ok(self) -> bool:
        """True when nothing had to be quarantined."""
        return self.skipped == 0

    def summary(self) -> str:
        if self.ok:
            return f"{self.parsed} rows parsed, no malformed lines"
        lines = [
            f"{self.parsed} rows parsed, {self.skipped} malformed "
            f"line{'s' if self.skipped != 1 else ''} skipped; first "
            f"{len(self.samples)}:"
        ]
        for lineno, line in self.samples:
            shown = line if len(line) <= 120 else line[:117] + "..."
            lines.append(f"  line {lineno}: {shown!r}")
        return "\n".join(lines)


def rows_to_trace(
    rows: Iterable[tuple[float, str, str, int]],
    name: str,
) -> Trace:
    """Build a :class:`Trace` from parsed ``(ts, client, url, size)`` rows."""
    timestamps: list[float] = []
    clients: list[int] = []
    docs: list[int] = []
    sizes: list[int] = []
    versions: list[int] = []

    client_ids: dict[str, int] = {}
    doc_ids: dict[str, int] = {}
    last_size: dict[int, int] = {}
    version_of: dict[int, int] = {}
    urls: dict[int, str] = {}

    for ts, client_key, url, size in rows:
        cid = client_ids.get(client_key)
        if cid is None:
            cid = client_ids[client_key] = len(client_ids)
        did = doc_ids.get(url)
        if did is None:
            did = doc_ids[url] = len(doc_ids)
            urls[did] = url
            version_of[did] = 0
            last_size[did] = size
        elif size != last_size[did]:
            version_of[did] += 1
            last_size[did] = size
        timestamps.append(ts)
        clients.append(cid)
        docs.append(did)
        sizes.append(size)
        versions.append(version_of[did])

    order = np.argsort(np.asarray(timestamps, dtype=np.float64), kind="stable")
    return Trace(
        timestamps=np.asarray(timestamps, dtype=np.float64)[order],
        clients=np.asarray(clients, dtype=np.int64)[order],
        docs=np.asarray(docs, dtype=np.int64)[order],
        sizes=np.asarray(sizes, dtype=np.int64)[order],
        versions=np.asarray(versions, dtype=np.int64)[order],
        name=name,
        urls=urls,
    )
