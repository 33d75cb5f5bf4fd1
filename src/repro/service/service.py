"""The batch stability-screening service: cache + engine + scenarios.

:class:`StabilityService` is the front door of the subsystem: submit one
request or a batch, and every response is either served from the two-tier
result cache (``response.cached == True``) or computed — batches on the
process pool — and stored for next time.  Failed analyses are never
cached, so a transient failure does not poison the key.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import global_registry
from repro.obs.trace import span as _span
from repro.service.cache import ResultCache
from repro.service.engine import BatchEngine, ProgressCallback, execute_request
from repro.service.requests import AnalysisRequest, AnalysisResponse
from repro.service.scenarios import (
    OpSpread,
    Scenario,
    ScenarioSpec,
    StabilityCriteria,
    SweepEnvelope,
    YieldSummary,
    dc_sweep_envelope,
    op_spread,
    scenario_requests,
    stability_yield,
)

__all__ = ["StabilityService", "MonteCarloReport", "DCSweepReport",
           "OpReport"]

#: Cross-thread request coalescing events: how many submissions waited on
#: an identical in-flight computation instead of re-running it.
_INFLIGHT_WAITS = global_registry().counter("service.inflight_waits")


class _Flight:
    """One in-flight computation other threads can wait on.

    The thread that registers the flight (the *leader*) runs the request
    and resolves the flight with its response; every other thread that
    arrives with the same fingerprint while it runs (a *waiter*) blocks
    on the event and clones the leader's response.  ``response`` stays
    ``None`` when the leader died without producing one — waiters then
    fall back to computing inline.
    """

    __slots__ = ("event", "response")

    def __init__(self):
        self.event = threading.Event()
        self.response: Optional[AnalysisResponse] = None


@dataclass
class MonteCarloReport:
    """Outcome of one Monte Carlo screening run."""

    scenarios: List[Scenario]
    responses: List[AnalysisResponse]
    summary: YieldSummary
    elapsed_seconds: float = 0.0

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.responses if r.cached)

    def format(self) -> str:
        text = self.summary.format()
        return (text + f"  ({self.cached_count}/{len(self.responses)} samples "
                       f"from cache, batch took {self.elapsed_seconds:.2f}s)\n")


@dataclass
class DCSweepReport:
    """Outcome of one Monte Carlo transfer-curve screening run."""

    scenarios: List[Scenario]
    responses: List[AnalysisResponse]
    envelope: SweepEnvelope
    elapsed_seconds: float = 0.0

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.responses if r.cached)

    def format(self) -> str:
        text = self.envelope.format()
        return (text + f"  ({self.cached_count}/{len(self.responses)} samples "
                       f"from cache, batch took {self.elapsed_seconds:.2f}s)\n")


@dataclass
class OpReport:
    """Outcome of one Monte Carlo operating-point screening run."""

    scenarios: List[Scenario]
    responses: List[AnalysisResponse]
    spread: OpSpread
    elapsed_seconds: float = 0.0

    @property
    def cached_count(self) -> int:
        return sum(1 for r in self.responses if r.cached)

    def format(self) -> str:
        text = self.spread.format()
        return (text + f"  ({self.cached_count}/{len(self.responses)} samples "
                       f"from cache, batch took {self.elapsed_seconds:.2f}s)\n")


class StabilityService:
    """Content-addressed, pool-backed screening front end.

    Parameters
    ----------
    cache_directory:
        Root of the on-disk cache tier; ``None`` keeps results in memory
        only.  Ignored when an explicit ``cache`` is given.
    max_workers / backend / persistent / compiled_cache_size /
    pool_idle_timeout:
        Forwarded to :class:`BatchEngine` unless ``engine`` is given.
        With the default ``persistent=True`` the service keeps the
        engine's worker pool warm across batches — call :meth:`close`
        (or use the service as a context manager) when done.
    """

    #: Leave each fresh response holding the JSON text its disk-cache
    #: entry was written from (``AnalysisResponse.to_json``), for a
    #: front end that sends the text on and then releases it.  The HTTP
    #: gateway sets it; everyone else drops the text once it is stored.
    keep_encoding = False

    def __init__(self,
                 cache: Optional[ResultCache] = None,
                 engine: Optional[BatchEngine] = None,
                 cache_directory: Optional[str] = None,
                 max_workers: Optional[int] = None,
                 backend: str = "process",
                 persistent: bool = True,
                 compiled_cache_size: Optional[int] = None,
                 pool_idle_timeout: Optional[float] = None):
        # The in-flight table exists before the engine so that close()
        # and the stampede guard are safe even when engine construction
        # itself raises and leaves a half-built service behind.
        self._inflight: Dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()
        self.cache = cache if cache is not None else ResultCache(cache_directory)
        self.engine = engine if engine is not None else BatchEngine(
            max_workers=max_workers, backend=backend, persistent=persistent,
            compiled_cache_size=compiled_cache_size,
            pool_idle_timeout=pool_idle_timeout)

    def close(self) -> None:
        """Release the engine's persistent pool (idempotent; the service
        stays usable — the pool restarts lazily on the next batch).

        Safe in every lifecycle corner: on a service whose pool never
        lazily started, on repeated calls, and on a half-constructed
        instance where ``__init__`` failed before the engine existed.
        """
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()

    def __enter__(self) -> "StabilityService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(request: AnalysisRequest) -> Optional[str]:
        try:
            return request.fingerprint()
        except Exception:
            # Unparsable request: let the execution path produce the
            # detailed failure response (which is never cached anyway).
            return None

    def _lookup(self, request: AnalysisRequest) -> Optional[AnalysisResponse]:
        key = self._fingerprint(request)
        if key is None:
            return None
        payload = self.cache.get(key)
        if payload is None:
            return None
        response = AnalysisResponse.from_dict(payload)
        response.cached = True
        response.label = request.label
        return response

    def _store(self, response: AnalysisResponse) -> None:
        if response.ok and response.fingerprint:
            # Only a disk tier or a front end that sends the text on
            # needs the encoding: an in-process memory-only service
            # (every in-process screen) never pays for one.
            text = response.to_json() \
                if self.cache.directory is not None or self.keep_encoding \
                else None
            # The strict encoding fails a non-finite result in place:
            # such a response is never cached.
            if response.ok:
                self.cache.put(response.fingerprint, response.to_dict(), text)
            if not self.keep_encoding:
                response.release_json()

    # -- cache-stampede guard ------------------------------------------
    # Concurrent submissions of the same content-addressed fingerprint
    # would all miss the cache together and each pay the full solve (the
    # classic stampede).  The in-flight table collapses them: the first
    # thread to claim a key becomes its leader and computes, everyone
    # else waits on the leader's flight and clones the response.

    def _claim_flight(self, key: str) -> Tuple[_Flight, bool]:
        """The flight for ``key`` plus whether this thread leads it."""
        with self._inflight_lock:
            flight = self._inflight.get(key)
            if flight is not None:
                return flight, False
            flight = _Flight()
            self._inflight[key] = flight
            return flight, True

    def _resolve_flight(self, key: str, flight: _Flight,
                        response: Optional[AnalysisResponse]) -> None:
        """Publish the leader's outcome and release the waiters."""
        with self._inflight_lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]
        flight.response = response
        flight.event.set()

    def _await_flight(self, flight: _Flight,
                      request: AnalysisRequest) -> AnalysisResponse:
        """Wait out another thread's identical computation and clone it.

        Falls back to an inline solve when the leader vanished without a
        response (its engine call raised) — correctness never depends on
        the coalescing fast path.
        """
        _INFLIGHT_WAITS.inc()
        flight.event.wait()
        if flight.response is not None:
            return replace(flight.response, label=request.label, cached=True)
        response = execute_request(request)
        self._store(response)
        return response

    # ------------------------------------------------------------------
    def submit(self, request: AnalysisRequest) -> AnalysisResponse:
        """Serve one request: from cache when possible, else run inline.

        Concurrent submissions of the same fingerprint coalesce onto one
        execution (see the stampede guard above).
        """
        with _span("service.submit", mode=request.mode) as submit_span:
            cached = self._lookup(request)
            if cached is not None:
                submit_span.set(cached=True)
                return cached
            key = self._fingerprint(request)
            if key is None:
                response = execute_request(request)
                submit_span.set(cached=False, status=response.status)
                return response
            flight, leader = self._claim_flight(key)
            if not leader:
                response = self._await_flight(flight, request)
                submit_span.set(cached=response.cached, coalesced=True,
                                status=response.status)
                return response
            response: Optional[AnalysisResponse] = None
            try:
                response = execute_request(request)
                self._store(response)
            finally:
                self._resolve_flight(key, flight, response)
            submit_span.set(cached=False, status=response.status)
            return response

    def submit_batch(self, requests: Sequence[AnalysisRequest],
                     progress: Optional[ProgressCallback] = None
                     ) -> List[AnalysisResponse]:
        """Serve a batch: cache hits immediately, misses on the pool.

        Identical requests within the batch (same fingerprint) are
        computed once and shared, and requests identical to another
        *thread's* in-flight work wait for that thread instead of
        re-running it.  Responses are returned in submission order; the
        progress callback sees cached responses first, then fresh ones
        as they complete.
        """
        requests = list(requests)
        batch_span = _span("service.submit_batch", requests=len(requests))
        with batch_span:
            responses: List[Optional[AnalysisResponse]] = [None] * len(requests)
            done = 0

            def emit(response: AnalysisResponse) -> None:
                nonlocal done
                done += 1
                if progress is not None:
                    progress(done, len(requests), response)

            to_run: List[int] = []                  # one index per unique miss
            duplicates: Dict[int, List[int]] = {}   # representative -> clones
            first_seen: Dict[str, int] = {}
            owned: Dict[str, int] = {}              # led flights: key -> index
            flights: Dict[str, _Flight] = {}
            waiting: Dict[int, _Flight] = {}        # foreign flights to join
            for index, request in enumerate(requests):
                key = self._fingerprint(request)
                if key is not None:
                    payload = self.cache.get(key)
                    if payload is not None:
                        cached = AnalysisResponse.from_dict(payload)
                        cached.cached = True
                        cached.label = request.label
                        responses[index] = cached
                        emit(cached)
                        continue
                    if key in first_seen:
                        duplicates.setdefault(first_seen[key],
                                              []).append(index)
                        continue
                    first_seen[key] = index
                    flight, leader = self._claim_flight(key)
                    if not leader:
                        waiting[index] = flight
                        continue
                    owned[key] = index
                    flights[key] = flight
                to_run.append(index)

            batch_span.set(cache_hits=len(requests) - len(to_run)
                           - sum(len(v) for v in duplicates.values())
                           - len(waiting),
                           to_run=len(to_run), coalesced=len(waiting))
            try:
                if to_run:
                    fresh = self.engine.run([requests[i] for i in to_run],
                                            progress=lambda _c, _t, r: emit(r))
                    for index, response in zip(to_run, fresh):
                        responses[index] = response
                        self._store(response)
                        for clone_index in duplicates.get(index, ()):
                            clone = replace(response,
                                            label=requests[clone_index].label,
                                            cached=True)
                            responses[clone_index] = clone
                            emit(clone)
            finally:
                # Resolve every led flight — with the response when the
                # engine delivered one, with None when it raised — so
                # waiters in other threads can never deadlock on us.
                for key, index in owned.items():
                    self._resolve_flight(key, flights[key], responses[index])
            # Only after our own flights are resolved do we join foreign
            # ones: two batches leading disjoint keys and waiting on each
            # other's therefore cannot deadlock.
            for index, flight in waiting.items():
                response = self._await_flight(flight, requests[index])
                responses[index] = response
                emit(response)
                for clone_index in duplicates.get(index, ()):
                    clone = replace(response,
                                    label=requests[clone_index].label,
                                    cached=True)
                    responses[clone_index] = clone
                    emit(clone)
            return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def screen(self, spec: ScenarioSpec,
               netlist: Optional[str] = None,
               circuit=None,
               base: Optional[AnalysisRequest] = None,
               criteria: Optional[StabilityCriteria] = None,
               progress: Optional[ProgressCallback] = None) -> MonteCarloReport:
        """Monte Carlo screening: sample, run the batch, reduce to yield."""
        started = time.time()
        with _span("service.screen", samples=spec.samples):
            scenarios, requests = scenario_requests(spec, netlist=netlist,
                                                    circuit=circuit, base=base)
            responses = self.submit_batch(requests, progress=progress)
            summary = stability_yield(scenarios, responses, criteria)
        return MonteCarloReport(scenarios=scenarios, responses=responses,
                                summary=summary,
                                elapsed_seconds=time.time() - started)

    def screen_dc_sweep(self, spec: ScenarioSpec,
                        base: AnalysisRequest,
                        node: str,
                        progress: Optional[ProgressCallback] = None
                        ) -> DCSweepReport:
        """Monte Carlo over DC transfer curves: sample, sweep, envelope.

        ``base`` must be a ``mode="dc-sweep"`` request (it carries the
        swept source/variable and the grid); ``node`` selects the output
        whose per-point min/max envelope is reported.  Each worker
        compiles the topology once and runs every sample's warm-started
        sweep on the compiled Newton pattern.
        """
        started = time.time()
        with _span("service.screen_dc_sweep", samples=spec.samples,
                   node=node):
            scenarios, requests = scenario_requests(spec, base=base)
            responses = self.submit_batch(requests, progress=progress)
            envelope = dc_sweep_envelope(scenarios, responses, node)
        return DCSweepReport(scenarios=scenarios, responses=responses,
                             envelope=envelope,
                             elapsed_seconds=time.time() - started)

    def screen_op(self, spec: ScenarioSpec,
                  base: AnalysisRequest,
                  node: str,
                  progress: Optional[ProgressCallback] = None) -> OpReport:
        """Monte Carlo over bare operating points: sample, batch, spread.

        ``base`` must be a ``mode="op"`` request; ``node`` selects the
        output whose voltage distribution is reported.  Because every
        sample shares one topology, a linear circuit runs the whole
        cache-miss set through the engine's in-process batched kernel —
        one vectorized restamp plus one batched solve for the entire
        group (see ``docs/compiled-engine.md``).
        """
        started = time.time()
        # Fail fast on a typo'd node: the reducer reads it only after the
        # whole batch has run, and a misspelling must not discard
        # hundreds of completed solves.
        from repro.circuit.elements.base import is_ground
        from repro.exceptions import ToolError

        circuit = base.resolved_circuit().flattened()
        resolved = circuit.resolve_node(node)
        if not is_ground(resolved) and resolved not in circuit.nodes():
            raise ToolError(f"unknown node {node!r} for the operating-point "
                            "spread (check --node against the netlist)")
        with _span("service.screen_op", samples=spec.samples, node=node):
            scenarios, requests = scenario_requests(spec, base=base)
            responses = self.submit_batch(requests, progress=progress)
            spread = op_spread(scenarios, responses, node)
        return OpReport(scenarios=scenarios, responses=responses,
                        spread=spread,
                        elapsed_seconds=time.time() - started)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Cache statistics plus tier sizes (for the CLI and monitoring)."""
        data = self.cache.stats.as_dict()
        data["memory_entries"] = len(self.cache)
        data["disk_entries"] = self.cache.disk_entries()
        data["directory"] = self.cache.directory
        return data

    def engine_report(self) -> dict:
        """The service's whole telemetry state as one JSON-able payload.

        This is the body a future HTTP gateway's ``/metrics`` endpoint
        serves: the last :class:`~repro.obs.report.EngineReport` (if a
        batch has run), the cache statistics, and the process-global
        metric registry snapshot (see :mod:`repro.obs.metrics` for the
        timestamp-free layout).
        """
        report = self.engine.last_report
        return {
            "engine": report.to_dict() if report is not None else None,
            "cache": self.stats(),
            "metrics": global_registry().snapshot(),
        }
