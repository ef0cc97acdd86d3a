"""The browser index file — the core BAPS data structure (paper §2, §5).

The proxy maintains a directory of every client browser cache: for each
cached object, the client id, a 16-byte MD5 signature of the URL, and a
timestamp/TTL.  Two maintenance disciplines from the paper are
implemented:

* **invalidation** — an index item is added when the proxy sends a
  document to a browser, and removed when the client sends an
  invalidation message on eviction (always-fresh index), and
* **periodic** — clients batch their updates and flush when a delay
  threshold is crossed (a fixed percentage of cached documents are
  new, per Fan et al.), which makes the index *stale*: lookups can
  return false hits (object already evicted) and suffer false misses
  (object cached but not yet reported).

:mod:`repro.index.bloom` adds the compressed Summary-Cache-style
per-client Bloom filter representation the paper cites for reducing
index memory.
"""

from repro.index.entry import IndexEntry
from repro.index.browser_index import BrowserIndex, IndexLookup, UpdateMode
from repro.index.signatures import url_signature, IndexSpaceModel
from repro.index.bloom import BloomFilter
from repro.index.staleness import PeriodicUpdatePolicy, StalenessStats
from repro.index.checkpoint import CheckpointPolicy, IndexCheckpointer, IndexSnapshot

__all__ = [
    "IndexEntry",
    "BrowserIndex",
    "IndexLookup",
    "UpdateMode",
    "url_signature",
    "IndexSpaceModel",
    "BloomFilter",
    "PeriodicUpdatePolicy",
    "StalenessStats",
    "CheckpointPolicy",
    "IndexCheckpointer",
    "IndexSnapshot",
]
