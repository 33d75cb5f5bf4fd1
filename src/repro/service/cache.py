"""Two-tier content-addressed result cache (memory LRU + disk JSON store).

Tier 1 is a bounded in-process LRU keyed by request fingerprint; tier 2 is
an on-disk JSON object store laid out like a git object database::

    <cache root>/
        objects/
            <first two hex chars>/
                <full 64-char fingerprint>.json

A memory hit costs a dict lookup; a disk hit additionally parses the JSON
file and promotes the entry back into the memory tier.  Writes go to both
tiers (disk writes are atomic: temp file + ``os.replace``).  The cache
stores plain payload dicts — the service layer passes
``AnalysisResponse.to_dict()``, with its ``to_json()`` encoding for the
disk tier — so the disk format is independent of the in-process object
layout.  All operations are thread-safe.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import add_event as _add_event

__all__ = ["CacheStats", "ResultCache"]


class CacheStats:
    """Hit/miss counters of one :class:`ResultCache` instance.

    A thin view over :class:`~repro.obs.metrics.MetricsRegistry`
    counters under the ``cache.`` namespace.  Each instance owns a
    private registry by default, so two caches never conflate counters;
    the historical attribute API (``stats.hits``, ``stats.hits += 1``,
    ``reset()``, ``as_dict()``) is preserved, and :meth:`snapshot`
    exposes the mergeable registry form.
    """

    FIELDS = ("hits", "misses", "memory_hits", "disk_hits",
              "stores", "evictions")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        if registry is None:
            registry = MetricsRegistry()
        object.__setattr__(self, "_registry", registry)
        object.__setattr__(
            self, "_counters",
            {f: registry.counter(f"cache.{f}") for f in self.FIELDS})

    def __getattr__(self, name):
        try:
            return self._counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name, value):
        counter = self._counters.get(name)
        if counter is None:
            raise AttributeError(
                f"CacheStats has no counter {name!r}; "
                f"known: {', '.join(self.FIELDS)}")
        counter.value = value

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomic increment (preferred over the legacy ``+=`` pattern)."""
        self._counters[name].inc(amount)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()

    def as_dict(self) -> dict:
        """The historical flat dict, derived from the registry snapshot
        (one serialization path: :meth:`MetricsRegistry.snapshot`)."""
        counters = self.snapshot()["counters"]
        data = {name: counters.get(f"cache.{name}", 0)
                for name in self.FIELDS}
        data["hit_rate"] = self.hit_rate
        return data

    def snapshot(self) -> dict:
        """The backing registry's mergeable, timestamp-free snapshot."""
        return self._registry.snapshot()


class ResultCache:
    """Content-addressed result store: in-memory LRU over a disk JSON tier.

    Parameters
    ----------
    directory:
        Root of the on-disk store.  ``None`` disables the disk tier (the
        cache then lives purely in memory).
    max_memory_entries:
        Bound of the LRU tier; the least recently used entry is evicted
        (it remains on disk) when the bound is exceeded.
    """

    def __init__(self, directory: Optional[str] = None,
                 max_memory_entries: int = 64):
        if max_memory_entries < 1:
            raise ValueError("max_memory_entries must be at least 1")
        self.directory = directory
        self.max_memory_entries = int(max_memory_entries)
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _object_path(self, key: str) -> str:
        return os.path.join(self.directory, "objects", key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Payload stored under ``key``, or None.  Disk hits are promoted
        into the memory tier."""
        # Lookups are traced as point events on the caller's open span
        # (not spans of their own): a Monte Carlo batch performs one
        # lookup per sample, and a full span per lookup would dominate
        # the enabled-tracing overhead budget.
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.inc("hits")
                self.stats.inc("memory_hits")
                _add_event("cache.lookup", tier="memory")
                return self._memory[key]
            if self.directory is not None:
                path = self._object_path(key)
                if os.path.exists(path):
                    try:
                        with open(path, "r", encoding="utf-8") as handle:
                            payload = json.load(handle)
                    except (OSError, ValueError):
                        # A truncated/corrupt entry is treated as a miss;
                        # the fresh run will overwrite it.
                        self.stats.inc("misses")
                        _add_event("cache.lookup", tier="miss")
                        return None
                    self._remember(key, payload)
                    self.stats.inc("hits")
                    self.stats.inc("disk_hits")
                    _add_event("cache.lookup", tier="disk")
                    return payload
            self.stats.inc("misses")
            _add_event("cache.lookup", tier="miss")
            return None

    def put(self, key: str, payload: dict,
            text: Optional[str] = None) -> None:
        """Store ``payload`` under ``key`` in both tiers.

        ``text`` is the payload already JSON-encoded (the service passes
        ``AnalysisResponse.to_json()``); the disk tier writes it as is
        instead of encoding the payload a second time.
        """
        _add_event("cache.store", disk=self.directory is not None)
        if self.directory is not None and text is None:
            # One C-accelerated ``dumps`` and one write: ``json.dump``
            # to a handle takes the pure-Python encoder, twice as slow.
            # Strict JSON: a non-finite payload raises ``ValueError``
            # before either tier holds it.
            text = json.dumps(payload, allow_nan=False)
        with self._lock:
            self._remember(key, payload)
            self.stats.inc("stores")
        if self.directory is None:
            return
        # Temp file + ``os.replace`` is atomic, so the write needs no lock.
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                         suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_path, path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise

    def _remember(self, key: str, payload: dict) -> None:
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self.stats.inc("evictions")

    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """True when ``key`` is present in either tier (no stats impact)."""
        with self._lock:
            if key in self._memory:
                return True
            return (self.directory is not None
                    and os.path.exists(self._object_path(key)))

    def __len__(self) -> int:
        """Number of entries in the memory tier."""
        with self._lock:
            return len(self._memory)

    def disk_entries(self) -> int:
        """Number of objects in the disk tier (0 when disabled)."""
        if self.directory is None:
            return 0
        root = os.path.join(self.directory, "objects")
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(root):
            count += sum(1 for name in filenames if name.endswith(".json"))
        return count

    def clear(self, disk: bool = True) -> None:
        """Drop the memory tier and (optionally) delete every disk object."""
        with self._lock:
            self._memory.clear()
            if disk and self.directory is not None:
                root = os.path.join(self.directory, "objects")
                for dirpath, _dirnames, filenames in os.walk(root):
                    for name in filenames:
                        if name.endswith(".json"):
                            try:
                                os.unlink(os.path.join(dirpath, name))
                            except OSError:
                                pass
