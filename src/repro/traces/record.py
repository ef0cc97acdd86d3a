"""Trace data model.

A :class:`Trace` is a column-oriented container of web requests backed
by NumPy arrays.  The simulator's hot loop iterates requests as plain
Python ints/floats; everything else (statistics, filtering, client
scaling) operates on whole columns vectorised.

Columns
-------
``timestamps``  float64, seconds, non-decreasing
``clients``     int64, dense client ids starting at 0
``docs``        int64, dense document ids starting at 0
``sizes``       int64, response body size in bytes for this request
``versions``    int64, document version; a change in version (or size)
                between the cached copy and the request is a *cache
                miss*, matching the paper's "if a user request hits on
                a document whose size has been changed, we count it as
                a cache miss".

URL strings are kept out of the engine: :attr:`Trace.urls` optionally
maps document ids back to URLs for parsers and the security layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Request", "Trace"]


@dataclass(frozen=True, slots=True)
class Request:
    """A single web request (row view of a :class:`Trace`)."""

    timestamp: float
    client: int
    doc: int
    size: int
    version: int

    @property
    def key(self) -> int:
        """The cache key for this request (the document id)."""
        return self.doc


@dataclass
class Trace:
    """Column-oriented web request trace.

    Instances are immutable by convention: filtering helpers return new
    traces sharing the underlying arrays via views where possible.
    """

    timestamps: np.ndarray
    clients: np.ndarray
    docs: np.ndarray
    sizes: np.ndarray
    versions: np.ndarray
    name: str = "trace"
    urls: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        for attr in ("clients", "docs", "sizes", "versions"):
            if len(getattr(self, attr)) != n:
                raise ValueError(
                    f"column {attr!r} has length {len(getattr(self, attr))}, "
                    f"expected {n}"
                )
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.clients = np.asarray(self.clients, dtype=np.int64)
        self.docs = np.asarray(self.docs, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self.versions = np.asarray(self.versions, dtype=np.int64)
        if n and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if n and (self.sizes < 0).any():
            raise ValueError("sizes must be non-negative")

    # -- construction ------------------------------------------------

    @classmethod
    def from_requests(cls, requests: Sequence[Request], name: str = "trace") -> "Trace":
        """Build a trace from an iterable of :class:`Request` rows."""
        reqs = list(requests)
        return cls(
            timestamps=np.array([r.timestamp for r in reqs], dtype=np.float64),
            clients=np.array([r.client for r in reqs], dtype=np.int64),
            docs=np.array([r.doc for r in reqs], dtype=np.int64),
            sizes=np.array([r.size for r in reqs], dtype=np.int64),
            versions=np.array([r.version for r in reqs], dtype=np.int64),
            name=name,
        )

    @classmethod
    def empty(cls, name: str = "empty") -> "Trace":
        z = np.array([], dtype=np.int64)
        return cls(
            timestamps=np.array([], dtype=np.float64),
            clients=z.copy(),
            docs=z.copy(),
            sizes=z.copy(),
            versions=z.copy(),
            name=name,
        )

    # -- basic protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    #: rows converted per ``iter_rows`` batch: large enough that the
    #: per-chunk ``tolist()`` overhead vanishes, small enough that the
    #: transient Python-object copies stay a few MB regardless of trace
    #: size (five columns at once used to ~double resident memory at
    #: replay start for multi-million-request traces).
    ITER_CHUNK_ROWS = 65_536

    def __iter__(self) -> Iterator[Request]:
        for row in self.iter_rows():
            yield Request(*row)

    def __getitem__(self, index: int) -> Request:
        i = int(index)
        return Request(
            float(self.timestamps[i]),
            int(self.clients[i]),
            int(self.docs[i]),
            int(self.sizes[i]),
            int(self.versions[i]),
        )

    def iter_rows(
        self, chunk_rows: int | None = None
    ) -> Iterator[tuple[float, int, int, int, int]]:
        """Iterate ``(timestamp, client, doc, size, version)`` tuples.

        This is the simulator's hot path; it avoids constructing
        :class:`Request` objects.  Columns are converted to native
        Python scalars (``tolist()`` — much faster in the replay loop
        than per-element numpy scalar boxing) in bounded chunks of
        ``chunk_rows`` rows (default :attr:`ITER_CHUNK_ROWS`), so the
        transient conversion memory is O(chunk), not O(trace).
        Iteration order and yielded values are identical to the old
        whole-column conversion.  The result is a C-level iterator
        chaining one ``zip`` per chunk: no Python frame resumes per row.
        """
        step = chunk_rows if chunk_rows else self.ITER_CHUNK_ROWS
        if step <= 0:
            raise ValueError(f"chunk_rows must be > 0, got {step}")
        cols = (self.timestamps, self.clients, self.docs, self.sizes, self.versions)
        return chain.from_iterable(
            zip(*[col[start : start + step].tolist() for col in cols])
            for start in range(0, len(self.timestamps), step)
        )

    # -- derived properties -------------------------------------------

    def _client_id_info(self) -> tuple[int, int]:
        """``(n_distinct, max_id)`` for the client column, memoized.

        Instances are immutable by convention, so the scan runs once no
        matter how many sweep cells replay the same trace.
        """
        cached = getattr(self, "_client_info_cache", None)
        if cached is None:
            if len(self) == 0:
                cached = (0, -1)
            else:
                cached = (
                    int(np.unique(self.clients).size),
                    int(self.clients.max()),
                )
            self._client_info_cache = cached
        return cached

    @property
    def n_clients(self) -> int:
        """Number of distinct clients appearing in the trace."""
        return self._client_id_info()[0]

    @property
    def has_dense_clients(self) -> bool:
        """True when client ids are exactly ``0..n_clients-1``.

        Dense ids are the documented contract (the simulator indexes
        per-client state by id); filtering can leave gaps, which
        :meth:`renumbered` repairs.
        """
        n_distinct, max_id = self._client_id_info()
        return max_id + 1 == n_distinct

    @property
    def n_docs(self) -> int:
        """Number of distinct documents appearing in the trace."""
        if len(self) == 0:
            return 0
        return int(np.unique(self.docs).size)

    @property
    def max_doc_id(self) -> int:
        """Largest document id (-1 if empty)."""
        return int(self.docs.max()) if len(self) else -1

    @property
    def total_bytes(self) -> int:
        """Total bytes requested (sum of response sizes over requests)."""
        return int(self.sizes.sum())

    @property
    def mean_request_size(self) -> float:
        """Mean response size in bytes over all requests (0.0 if empty)."""
        if len(self) == 0:
            return 0.0
        return float(self.sizes.mean())

    @property
    def duration(self) -> float:
        """Trace wall-clock span in seconds."""
        if len(self) == 0:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def infinite_cache_bytes(self) -> int:
        """Total size of all unique (doc, version) bodies — the paper's
        "infinite cache size": the storage needed to hold every unique
        requested document."""
        if len(self) == 0:
            return 0
        # The last size seen for each (doc, version) pair is the
        # authoritative body size for that version.
        key = self.docs * (self.versions.max() + 1) + self.versions
        _, first_idx = np.unique(key, return_index=True)
        return int(self.sizes[first_idx].sum())

    def client_footprint_bytes(self) -> np.ndarray:
        """Per-client infinite browser cache size.

        For each client, the total size of unique (doc, version) pairs
        that the client itself requested.  Used to size "average"
        browser caches the way the paper does.
        """
        n = int(self.clients.max()) + 1 if len(self) else 0
        out = np.zeros(n, dtype=np.int64)
        if len(self) == 0:
            return out
        vmax = int(self.versions.max()) + 1
        key = (self.clients * (int(self.docs.max()) + 1) + self.docs) * vmax + self.versions
        _, first_idx = np.unique(key, return_index=True)
        np.add.at(out, self.clients[first_idx], self.sizes[first_idx])
        return out

    # -- transforms ----------------------------------------------------

    def take(self, mask_or_index: np.ndarray, name: str | None = None) -> "Trace":
        """Return a sub-trace selected by a boolean mask or index array."""
        return Trace(
            timestamps=self.timestamps[mask_or_index],
            clients=self.clients[mask_or_index],
            docs=self.docs[mask_or_index],
            sizes=self.sizes[mask_or_index],
            versions=self.versions[mask_or_index],
            name=name or self.name,
            urls=self.urls,
        )

    def renumbered(self) -> "Trace":
        """Return a copy with dense client and doc ids starting at 0.

        Filtering can leave gaps in the id spaces; the simulator relies
        on dense client ids to index per-client caches.
        """
        _, clients = np.unique(self.clients, return_inverse=True)
        doc_values, docs = np.unique(self.docs, return_inverse=True)
        urls = {}
        if self.urls:
            for new_id, old_id in enumerate(doc_values.tolist()):
                if old_id in self.urls:
                    urls[new_id] = self.urls[old_id]
        return Trace(
            timestamps=self.timestamps.copy(),
            clients=clients.astype(np.int64),
            docs=docs.astype(np.int64),
            sizes=self.sizes.copy(),
            versions=self.versions.copy(),
            name=self.name,
            urls=urls,
        )

    def url_of(self, doc: int) -> str:
        """URL for a document id (synthesised if the trace has none)."""
        url = self.urls.get(doc)
        if url is None:
            url = f"http://doc-{doc}.{self.name}.example/object"
        return url

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.name!r}, requests={len(self)}, "
            f"clients={self.n_clients}, docs={self.n_docs}, "
            f"bytes={self.total_bytes})"
        )
