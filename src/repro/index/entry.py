"""Index entry: one (client, document) item of the browser index file.

The paper: "Each item of the index file includes the ID number of a
client machine, the URL including the full path name of the cached file
object, and, if any, a time stamp of the file or the TTL provided by
the data source."  URLs are stored as 16-byte MD5 signatures (§5).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IndexEntry"]


@dataclass(slots=True)
class IndexEntry:
    """One browser-index item.

    A plain (non-frozen) slots dataclass: construction sits on the
    replay hot path — one entry per browser-cache insert — and the
    frozen-dataclass ``__setattr__`` indirection costs real time there.
    By convention entries are never mutated after construction
    (checkpoint snapshots share them), which is what ``frozen=True``
    used to enforce.
    """

    client: int
    doc: int
    version: int
    size: int
    timestamp: float

    #: on-the-wire/in-memory footprint used by the §5 space estimate:
    #: 16-byte MD5 URL signature + 4-byte client id + 8-byte timestamp.
    WIRE_BYTES = 28
