"""Span tracing: contextvar-scoped, bounded, Chrome-trace exportable.

A :class:`Tracer` records :class:`Span` objects — name, wall time, free
key/value attributes and point-in-time events — into a bounded in-memory
ring.  Spans nest through a context variable, so a Monte Carlo request
produces the natural tree::

    service.submit_batch
      engine.run
        engine.fastpath
          circuit.restamp_batch
          linalg.solve_batch
        request.execute
          circuit.parse
          newton.solve
            newton.strategy [strategy=newton]

and exports as JSON-lines (:meth:`Tracer.to_jsonl`) or the Chrome
``trace_event`` format (:meth:`Tracer.to_chrome_trace` — load the file
at ``chrome://tracing`` / https://ui.perfetto.dev for a flame view).

**The disabled fast path is the design center**: no tracer installed
means :func:`span` costs one context-variable read plus a ``None``
check and returns a shared, stateless null context manager — no
allocation, no ring, no timestamps.  ``benchmarks/bench_obs_overhead.py``
enforces the budget (≤2% on the 256-sample Monte Carlo OP sweep).
Installation is contextvar-scoped (:func:`use_tracer` /
:func:`install_tracer`), so concurrent threads or tasks can trace
independently; pool *worker processes* never inherit a tracer — they
ship metric deltas instead (see :mod:`repro.service.engine`).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "add_event",
    "current_span",
    "current_tracer",
    "install_tracer",
    "set_attribute",
    "span",
    "use_tracer",
]

#: Version stamped into exported span records; bump on layout changes.
TRACE_SCHEMA_VERSION = 1

#: Default ring capacity: deep Newton traces of a large Monte Carlo run
#: fit, while an unbounded pathological loop cannot exhaust memory.
DEFAULT_CAPACITY = 20000

#: Per-span event bound: the span ring is bounded, so a single
#: long-lived span (e.g. one batch over 100k samples) must not grow an
#: unbounded event list either.  Overflow is counted, not silent.
MAX_EVENTS_PER_SPAN = 4096

_perf = time.perf_counter

_TRACER: "ContextVar[Optional[Tracer]]" = ContextVar("repro_obs_tracer",
                                                     default=None)
_SPAN: "ContextVar[Optional[Span]]" = ContextVar("repro_obs_span",
                                                 default=None)


class Span:
    """One named, timed region with attributes and point events.

    Spans are created through :meth:`Tracer.span` (or the module-level
    :func:`span` helper) and recorded into the tracer's ring when the
    ``with`` block exits.  ``attrs`` values should be JSON-able (the
    exports serialize them as-is).
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "attrs", "events", "events_dropped", "_tracer", "_token")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], attrs: Dict[str, object]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.duration = 0.0
        self.attrs = attrs
        self.events: List[dict] = []
        self.events_dropped = 0
        self._tracer = tracer
        self._token = None

    # -- recording -----------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on this span."""
        self.attrs.update(attrs)
        return self

    def add_event(self, name: str, **fields) -> None:
        """Record a point-in-time event (e.g. one Newton iteration)."""
        if len(self.events) >= MAX_EVENTS_PER_SPAN:
            self.events_dropped += 1
            return
        self.events.append({"name": name,
                            "ts": _perf() - self._tracer.epoch,
                            **fields})

    # -- context-manager protocol --------------------------------------
    def __enter__(self) -> "Span":
        self.start = _perf() - self._tracer.epoch
        self._token = _SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = _perf() - self._tracer.epoch - self.start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _SPAN.reset(self._token)
        self._tracer._record(self)
        return False

    # -- export --------------------------------------------------------
    def to_dict(self) -> dict:
        return {"schema": TRACE_SCHEMA_VERSION, "name": self.name,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "start": self.start, "duration": self.duration,
                "attrs": dict(self.attrs), "events": list(self.events),
                "events_dropped": self.events_dropped}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span {self.name!r} id={self.span_id} "
                f"parent={self.parent_id} {self.duration * 1e3:.3f}ms>")


class _NullSpan:
    """Shared no-op stand-in returned when no tracer is installed.

    Stateless and reentrant, so one module-level instance serves every
    disabled ``with span(...)`` block concurrently.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def add_event(self, name: str, **fields) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded span recorder.

    Parameters
    ----------
    capacity:
        Ring bound; the oldest completed spans fall off first.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("tracer capacity must be at least 1")
        self.capacity = int(capacity)
        self.epoch = time.perf_counter()
        self._ring: "deque[Span]" = deque(maxlen=self.capacity)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._recorded = 0

    @property
    def dropped(self) -> int:
        """Spans evicted by the ring bound (since the last clear)."""
        return max(0, self._recorded - self.capacity)

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """Open a span; use as ``with tracer.span("engine.run"): ...``."""
        parent = _SPAN.get()
        return Span(self, name, next(self._ids),
                    parent.span_id if parent is not None else None, attrs)

    def _record(self, span: Span) -> None:
        # Lock-free hot path: deque.append with maxlen evicts atomically
        # under the GIL, and eviction is derived from the append count.
        self._ring.append(span)
        self._recorded += 1

    # -- inspection ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def spans(self) -> List[Span]:
        """Completed spans, oldest first."""
        with self._lock:
            return list(self._ring)

    def mark(self) -> int:
        """Opaque position marker for :meth:`spans_since` (request-scoped
        telemetry extraction: mark, run, collect what was recorded)."""
        with self._lock:
            return (self._ring[-1].span_id if self._ring else 0)

    def spans_since(self, mark: int) -> List[Span]:
        """Spans recorded after :meth:`mark` (best effort: span ids are
        monotonic, so eviction can only lose the *oldest* spans)."""
        return [s for s in self.spans() if s.span_id > mark]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._recorded = 0

    # -- export --------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per completed span, oldest first."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in self.spans())

    def to_chrome_trace(self, spans: Optional[List[Span]] = None) -> dict:
        """The spans as a Chrome ``trace_event`` object.

        Complete spans become ``"ph": "X"`` duration events (µs
        timestamps) and span events become ``"ph": "i"`` instants, so
        ``chrome://tracing`` and Perfetto render the nesting directly.
        """
        pid = os.getpid()
        events = []
        for s in (self.spans() if spans is None else spans):
            args = dict(s.attrs)
            args["span_id"] = s.span_id
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            events.append({"name": s.name, "ph": "X", "pid": pid, "tid": 0,
                           "ts": s.start * 1e6, "dur": s.duration * 1e6,
                           "cat": s.name.partition(".")[0], "args": args})
            for event in s.events:
                fields = {k: v for k, v in event.items()
                          if k not in ("name", "ts")}
                events.append({"name": event["name"], "ph": "i", "pid": pid,
                               "tid": 0, "ts": event["ts"] * 1e6, "s": "t",
                               "cat": s.name.partition(".")[0],
                               "args": dict(fields, span_id=s.span_id)})
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"schema": TRACE_SCHEMA_VERSION,
                              "dropped_spans": self.dropped}}

    def write_chrome_trace(self, path: str) -> None:
        """Serialize :meth:`to_chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_chrome_trace()))


# ----------------------------------------------------------------------
# Module-level API (what instrumented code calls)
# ----------------------------------------------------------------------

def current_tracer() -> Optional[Tracer]:
    """The tracer installed in this context, or ``None`` (the default)."""
    return _TRACER.get()


def current_span() -> Optional[Span]:
    """The innermost open span in this context, or ``None``."""
    return _SPAN.get()


def install_tracer(tracer: Optional[Tracer]) -> None:
    """Install ``tracer`` in the current context (``None`` uninstalls).

    Prefer :func:`use_tracer` where a ``with`` block fits — it restores
    the previous tracer on exit.
    """
    _TRACER.set(tracer)


@contextmanager
def use_tracer(tracer: Tracer):
    """Scoped installation: ``with use_tracer(t): ...``."""
    token = _TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _TRACER.reset(token)


def span(name: str, **attrs):
    """Open a span under the installed tracer, or a shared no-op.

    This is the hot-path entry point of the whole subsystem: with no
    tracer installed it performs one context-variable read and returns a
    reusable null object — instrumented code stays on a single-check
    fast path.
    """
    tracer = _TRACER.get()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def add_event(name: str, **fields) -> None:
    """Record an event on the innermost open span (no-op when none)."""
    current = _SPAN.get()
    if current is not None:
        current.add_event(name, **fields)


def set_attribute(**attrs) -> None:
    """Attach attributes to the innermost open span (no-op when none)."""
    current = _SPAN.get()
    if current is not None:
        current.attrs.update(attrs)
