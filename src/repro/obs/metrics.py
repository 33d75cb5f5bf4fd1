"""Mergeable metrics: counters, gauges and histograms behind one registry.

The registry is the numeric half of the observability subsystem (the
other half — span tracing — lives in :mod:`repro.obs.trace`).  Design
constraints, in order:

* **Zero dependencies, cheap when idle.**  A metric update is a lock
  acquisition and an integer add; nothing allocates after the metric is
  created.  Metric *objects* are cached per name, so hot paths hold a
  direct reference and never touch the registry dict.
* **Snapshots are plain JSON data.**  :meth:`MetricsRegistry.snapshot`
  returns nested dicts of numbers with **no timestamps, hostnames or
  uptime** — two snapshots of identical registries compare equal and
  diff cleanly in tests (see :func:`assert_snapshot_schema`).
* **Snapshots merge.**  :func:`merge_snapshots` is associative and
  :func:`subtract_snapshots` inverts it for counters/histograms, which
  is what lets pool workers ship *deltas* (snapshot-after minus
  snapshot-before) back inside their chunk results and the parent
  engine fold them in (:meth:`MetricsRegistry.merge`) — worker-side
  counters no longer die with the chunk.

Metric naming: dotted lowercase paths, ``<layer>.<thing>[.<detail>]``
(``linalg.dense.factorizations``, ``cache.hits``, ``newton.iterations``,
``engine.chunk_seconds``).  The existing :class:`~repro.linalg.SolveStats`
and :class:`~repro.service.cache.CacheStats` classes are thin views over
registry counters, so every historical call site keeps working.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_SCHEMA_VERSION",
    "assert_snapshot_schema",
    "empty_snapshot",
    "global_registry",
    "merge_snapshots",
    "subtract_snapshots",
]

#: Version stamped into every snapshot; bump on layout changes.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket upper edges (seconds-flavoured, but any
#: positive quantity bins reasonably on a log-ish scale).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


class Counter:
    """A monotonically *intended* integer counter.

    ``inc`` is the atomic update path; the ``value`` property is
    settable so legacy ``stats.field += 1`` view code keeps working
    (that pattern is read-then-write, exactly as racy as the plain
    dataclass ints it replaces — new code should call :meth:`inc`).
    """

    kind = "counter"

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def inc_held(self, amount: int) -> None:
        """Increment while the caller holds this counter's lock (counters
        created with one shared lock then update under one acquisition)."""
        self._value += amount

    @property
    def value(self) -> int:
        return self._value

    @value.setter
    def value(self, new_value: int) -> None:
        with self._lock:
            self._value = int(new_value)

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def data(self):
        return self._value

    def merge_data(self, data) -> None:
        self.inc(int(data))


class Gauge:
    """A point-in-time float value (queue depth, pool size, ...)."""

    kind = "gauge"

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def data(self):
        return self._value

    def merge_data(self, data) -> None:
        # Merging point-in-time values has no sum semantics; the merged
        # (usually worker-side) observation wins, matching "last write".
        self.set(float(data))


class Histogram:
    """Fixed-bucket histogram: counts per ``(edge[i-1], edge[i]]`` bin.

    ``buckets`` are the upper edges; one overflow bin catches values
    beyond the last edge, so ``counts`` has ``len(buckets) + 1``
    entries.  Values exactly on an edge land in that edge's bin
    (``value <= edge`` semantics).  ``sum``/``count`` track the total
    mass for mean computations.
    """

    kind = "histogram"

    __slots__ = ("name", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for b, a in zip(edges[1:], edges)):
            raise ValueError(f"histogram {name!r} needs strictly "
                             f"increasing bucket edges, got {edges}")
        self.name = name
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def counts(self) -> List[int]:
        return list(self._counts)

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0

    def data(self):
        return {"buckets": list(self.buckets), "counts": list(self._counts),
                "sum": self._sum, "count": self._count}

    def merge_data(self, data) -> None:
        if tuple(data.get("buckets", ())) != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket edges "
                f"{tuple(data.get('buckets', ()))} != {self.buckets}")
        with self._lock:
            for i, c in enumerate(data["counts"]):
                self._counts[i] += int(c)
            self._sum += float(data["sum"])
            self._count += int(data["count"])


_KINDS = {"counters": Counter, "gauges": Gauge, "histograms": Histogram}


class MetricsRegistry:
    """Thread-safe name -> metric store with a mergeable snapshot form.

    One process-global instance (:func:`global_registry`) backs the
    library's built-in instrumentation; private instances back
    per-object stats views (each :class:`~repro.service.cache.CacheStats`
    owns one, so two caches never conflate counters).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    # -- creation ------------------------------------------------------
    def _get_or_create(self, cls, name: str, lock=None, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, lock or threading.Lock(), **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(f"metric {name!r} already registered as a "
                                 f"{metric.kind}, not a {cls.kind}")
            elif lock is not None and metric._lock is not lock:
                raise ValueError(f"metric {name!r} already registered under "
                                 "another lock")
            return metric

    def counter(self, name: str,
                lock: Optional[threading.Lock] = None) -> Counter:
        """The counter registered under ``name`` (created on first use).

        ``lock``, when given, guards the counter: counters created with
        one shared lock can be updated together under one acquisition
        (:meth:`Counter.inc_held`).
        """
        return self._get_or_create(Counter, name, lock=lock)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        return self._get_or_create(Gauge, name)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram under ``name`` (bucket edges fixed on creation)."""
        return self._get_or_create(Histogram, name, buckets=buckets)

    # -- introspection -------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str):
        """The metric object registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every metric (tests bracket a region of interest)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    # -- snapshot / merge protocol -------------------------------------
    def snapshot(self) -> dict:
        """Plain-data snapshot of every metric, sorted and timestamp-free.

        The layout is the one :func:`merge_snapshots` /
        :func:`subtract_snapshots` operate on::

            {"schema": 1,
             "counters":   {name: int},
             "gauges":     {name: float},
             "histograms": {name: {"buckets": [...], "counts": [...],
                                   "sum": float, "count": int}}}
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
        out = empty_snapshot()
        for name, metric in metrics:
            out[metric.kind + "s"][name] = metric.data()
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histograms add; gauges take the merged value.
        Metrics absent from this registry are created, so a parent
        process sees worker-only metrics without pre-declaring them.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).merge_data(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).merge_data(value)
        for name, data in snapshot.get("histograms", {}).items():
            self.histogram(name, buckets=data["buckets"]).merge_data(data)


def empty_snapshot() -> dict:
    """A snapshot with no metrics (the identity of :func:`merge_snapshots`)."""
    return {"schema": METRICS_SCHEMA_VERSION,
            "counters": {}, "gauges": {}, "histograms": {}}


def _merge_histogram_data(a: dict, b: dict, sign: int) -> dict:
    if tuple(a["buckets"]) != tuple(b["buckets"]):
        raise ValueError(f"histogram bucket edges differ: "
                         f"{a['buckets']} vs {b['buckets']}")
    return {"buckets": list(a["buckets"]),
            "counts": [x + sign * y for x, y in zip(a["counts"], b["counts"])],
            "sum": a["sum"] + sign * b["sum"],
            "count": a["count"] + sign * b["count"]}


def merge_snapshots(a: dict, b: dict) -> dict:
    """Combine two snapshots: counters/histograms add, gauges last-write.

    Associative (``merge(merge(a, b), c) == merge(a, merge(b, c))``), so
    worker deltas fold in any arrival order.
    """
    out = empty_snapshot()
    for section in ("counters", "gauges"):
        out[section].update(a.get(section, {}))
        for name, value in b.get(section, {}).items():
            if section == "counters":
                out[section][name] = out[section].get(name, 0) + value
            else:
                out[section][name] = value
    out["histograms"].update({k: dict(v, buckets=list(v["buckets"]),
                                      counts=list(v["counts"]))
                              for k, v in a.get("histograms", {}).items()})
    for name, data in b.get("histograms", {}).items():
        if name in out["histograms"]:
            out["histograms"][name] = _merge_histogram_data(
                out["histograms"][name], data, +1)
        else:
            out["histograms"][name] = dict(data, buckets=list(data["buckets"]),
                                           counts=list(data["counts"]))
    return out


def subtract_snapshots(after: dict, before: dict) -> dict:
    """``after - before`` for counters/histograms — the *delta* a worker
    ships home.  Gauges keep their ``after`` value (deltas of
    point-in-time readings are meaningless).  Metrics that only exist in
    ``after`` pass through unchanged; metrics that vanished are dropped.
    """
    out = empty_snapshot()
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            out["counters"][name] = delta
    out["gauges"].update(after.get("gauges", {}))
    for name, data in after.get("histograms", {}).items():
        previous = before.get("histograms", {}).get(name)
        if previous is None:
            out["histograms"][name] = dict(data, buckets=list(data["buckets"]),
                                           counts=list(data["counts"]))
            continue
        delta = _merge_histogram_data(data, previous, -1)
        if delta["count"]:
            out["histograms"][name] = delta
    return out


def assert_snapshot_schema(snapshot: dict) -> None:
    """Validate the snapshot layout and its determinism guarantees.

    Raises ``AssertionError`` when the snapshot carries anything outside
    the documented sections — in particular wall-clock fields
    (``created``, ``uptime``...), which would make snapshots undiffable
    in tests.  Used by the test suite and safe to call in production
    assertions.
    """
    allowed = {"schema", "counters", "gauges", "histograms"}
    extra = set(snapshot) - allowed
    assert not extra, f"snapshot carries non-schema keys: {sorted(extra)}"
    assert snapshot.get("schema") == METRICS_SCHEMA_VERSION
    for name, value in snapshot.get("counters", {}).items():
        assert isinstance(value, int), f"counter {name!r} is not an int"
    for name, value in snapshot.get("gauges", {}).items():
        assert isinstance(value, (int, float)), f"gauge {name!r} not numeric"
    for name, data in snapshot.get("histograms", {}).items():
        assert set(data) == {"buckets", "counts", "sum", "count"}, \
            f"histogram {name!r} has unexpected fields: {sorted(data)}"
        assert len(data["counts"]) == len(data["buckets"]) + 1, \
            f"histogram {name!r} bucket/count length mismatch"


#: The process-global registry backing the built-in instrumentation.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry (one per process; pool workers each
    have their own and ship deltas home — see :mod:`repro.service.engine`)."""
    return _GLOBAL
