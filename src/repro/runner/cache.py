"""Content-addressed on-disk cache for pipeline stage results.

Every cacheable stage of the pipeline — tokenized pages, template
verdicts, extract lists, observation tables, segmentations — is a
pure function of (a) the page bytes it reads and (b) the stage's
configuration.  :class:`StageCache` therefore stores each value under
a SHA-256 key of exactly those inputs: re-running a corpus, or
sweeping a downstream parameter, hits the cache for every stage whose
inputs did not change instead of recomputing it.

The pipeline runs its stages directly and computes their keys with
:func:`repro.core.stages.stage_key` (hashed with the
:func:`fingerprint` this module re-exports), then calls
:meth:`StageCache.get` and :meth:`StageCache.put`.

Storage layout and integrity::

    <root>/<stage>/<key[:2]>/<key>.bin
    entry = sha256(payload) || payload        (payload = pickle)

Entries are written atomically (:func:`repro._atomic.write_atomic`:
temp file + ``os.replace``) so a killed run never leaves a torn
entry, and verified on read: a checksum mismatch or unpickle failure
is counted as *corrupt*, the entry is discarded, and the value is
recomputed and rewritten — a damaged cache degrades to a cold one, it
is never trusted.

A cache may also be *size-bounded* (``max_bytes``): every verified hit
bumps its entry's mtime, and every store prunes least-recently-used
entries until the cache fits the budget again — the discipline a
long-lived server needs, where an unbounded on-disk cache is a slow
leak.  Evictions are booked into ``CacheStats.evictions`` and the
``runner.cache.evictions`` counter.  Without ``max_bytes`` (the batch
default) nothing is ever pruned.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro._atomic import write_atomic
from repro.core.stages import fingerprint
from repro.obs import NULL_OBS, Observability

__all__ = ["CacheStats", "MemoryStageCache", "StageCache", "fingerprint"]

_CHECKSUM_BYTES = 32


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`StageCache` instance."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    evictions: int = 0
    store_errors: int = 0


class StageCache:
    """The content-addressed stage cache (see module docstring).

    Args:
        root: cache directory; created on first write.
        obs: observability bundle for the ``runner.cache.*`` counters
            (defaults to the no-op bundle).
        max_bytes: total on-disk size budget; each store prunes
            least-recently-used entries back under it (None =
            unbounded, the batch-run default).

    Instances are cheap — one per worker task is the normal pattern —
    and concurrent use of one ``root`` by many processes is safe:
    reads verify checksums, writes are atomic renames, and two workers
    racing to fill the same key simply both write the same bytes.
    Pruning tolerates concurrent deletion (a missing file just means
    someone else evicted it first).
    """

    def __init__(
        self,
        root: str | Path,
        obs: Observability | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1 (or None), got {max_bytes}")
        self.root = Path(root)
        self.obs = obs if obs is not None else NULL_OBS
        self.max_bytes = max_bytes
        self.stats = CacheStats()

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / key[:2] / f"{key}.bin"

    def load(self, stage: str, key: str) -> tuple[bool, Any]:
        """``(True, value)`` on a verified hit, else ``(False, None)``."""
        path = self._path(stage, key)
        try:
            blob = path.read_bytes()
        except OSError:
            return False, None
        checksum, payload = blob[:_CHECKSUM_BYTES], blob[_CHECKSUM_BYTES:]
        if hashlib.sha256(payload).digest() != checksum:
            self.stats.corrupt += 1
            self.obs.counter("runner.cache.corrupt").inc()
            return False, None
        try:
            value = pickle.loads(payload)
        except Exception:
            self.stats.corrupt += 1
            self.obs.counter("runner.cache.corrupt").inc()
            return False, None
        if self.max_bytes is not None:
            # Bump recency so LRU pruning spares the working set.
            try:
                os.utime(path)
            except OSError:
                pass
        return True, value

    def store(self, stage: str, key: str, value: Any) -> None:
        """Write ``value`` under ``key`` atomically (torn-write safe)."""
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        write_atomic(path, hashlib.sha256(payload).digest() + payload)
        if self.max_bytes is not None:
            self._prune(keep=path)

    def delete(self, stage: str, key: str) -> bool:
        """Drop one entry; True when a file was actually removed.

        The invalidation hook: a consumer that knows an entry is stale
        (e.g. the wrapper registry after its site's template changed)
        removes it so no later process warms up from poisoned history.
        Missing entries are not an error — concurrent deleters race
        benignly, exactly like :meth:`_prune`.
        """
        try:
            os.unlink(self._path(stage, key))
        except OSError:
            return False
        self.obs.counter("runner.cache.deletes").inc()
        return True

    def _entries(self) -> list[tuple[float, int, Path]]:
        """Every cache entry as ``(mtime, size, path)``, oldest first."""
        entries: list[tuple[float, int, Path]] = []
        for path in self.root.glob("*/*/*.bin"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort(key=lambda entry: (entry[0], entry[2]))
        return entries

    def total_bytes(self) -> int:
        """Current on-disk size of all cache entries."""
        return sum(size for _, size, _ in self._entries())

    def _prune(self, keep: Path | None = None) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        The just-written entry (``keep``) is evicted only as a last
        resort — when it alone exceeds the whole budget.
        """
        assert self.max_bytes is not None
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evictions = 0
        for pass_keeps_new in (True, False):
            for _, size, path in entries:
                if total <= self.max_bytes:
                    break
                if pass_keeps_new and keep is not None and path == keep:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                evictions += 1
            if total <= self.max_bytes:
                break
        if evictions:
            self.stats.evictions += evictions
            self.obs.counter("runner.cache.evictions").inc(evictions)

    def get(self, stage: str, key: str) -> tuple[bool, Any]:
        """:meth:`load`, booked as a hit or a miss."""
        found, value = self.load(stage, key)
        if found:
            self.stats.hits += 1
            self.obs.counter("runner.cache.hits").inc()
        else:
            self.stats.misses += 1
            self.obs.counter("runner.cache.misses").inc()
        return found, value

    def put(self, stage: str, key: str, value: Any) -> Any:
        """:meth:`store` ``value`` and return it; never raises ``OSError``."""
        try:
            self.store(stage, key, value)
        except OSError:
            # A full or failing disk costs the *cache entry*, never
            # the computed result: degrade to uncached and move on.
            self.stats.store_errors += 1
            self.obs.counter("runner.cache.store_errors").inc()
        return value


class MemoryStageCache:
    """An in-process stage cache with :class:`StageCache` semantics.

    Used where the win is sharing *within* one run rather than across
    runs — e.g. a method sweep over a caller-supplied corpus, where
    ``tokenize``/``template``/``extracts``/``observations`` results
    are identical across methods but the corpus object cannot be
    named on disk.  It takes the same keys and the same ``get``/``put``
    calls as the on-disk cache, and values round-trip through pickle
    on both store and load so a cached result is isolated from its
    producer exactly like a disk hit would be (mutating a returned
    value never poisons the cache).
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], bytes] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, stage: str, key: str) -> tuple[bool, Any]:
        """``(True, a fresh copy)`` on a hit, else ``(False, None)``."""
        payload = self._entries.get((stage, key))
        if payload is None:
            self.stats.misses += 1
            return False, None
        self.stats.hits += 1
        return True, pickle.loads(payload)

    def put(self, stage: str, key: str, value: Any) -> Any:
        """Store ``value``; returns a copy isolated from the entry."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._entries[(stage, key)] = payload
        return pickle.loads(payload)
