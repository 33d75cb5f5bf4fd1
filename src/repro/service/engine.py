"""Batch execution engine: request fan-out over a warm process pool.

The per-node bookkeeping around the solves is pure Python and serialises
on the GIL, so the :class:`BatchEngine` fans independent requests out
over the long-lived :class:`~repro.service.pool.WorkerPool` — each
worker process runs the full analysis for one or more requests and
ships the serialized
:class:`~repro.service.requests.AnalysisResponse` objects back.

Scenario batches are **grouped by circuit structure**: requests sharing a
:meth:`~repro.service.requests.AnalysisRequest.structure_fingerprint`
(same topology, different variables/temperature) are chunked together so
each worker compiles the circuit once
(:class:`~repro.analysis.compiled.CompiledCircuit`) and only restamps
values per sample.  Groups are cut into about ``STEAL_FACTOR`` tasks per
worker on one shared queue, so a single-topology Monte Carlo batch still
saturates the pool, and a process-local compiled-structure cache catches
reuse across chunks that land on the same worker.

One tier above the pool sits the **mode-aware in-process fast path**:
when a structure-fingerprint group consists of ``op``/``ac``/
``all-nodes``/``single-node`` requests on one topology (same mode, same
effective solver backend, same sweep — and same probe node for
``single-node``), the engine skips per-request dispatch entirely and
runs the whole group through the sample-axis batch kernel —
:meth:`~repro.analysis.CompiledCircuit.restamp_batch` (every dynamic
element evaluated once for all samples) feeding
:meth:`~repro.linalg.LinearSystem.solve_batch` (one batched LAPACK call
on dense, one cached symbolic ordering on sparse).  Linear groups solve
directly; nonlinear groups run the masked batched Newton engine
(:func:`~repro.analysis.op.solve_nonlinear_dc_batch`), with per-sample
demotion to the scalar ladder on divergence, then linearize per sample
(:func:`~repro.analysis.compiled.linearize_batch`) for the frequency-
domain modes.  Stability-screening groups push the linearized batch
through one stacked impedance-cube solve
(:func:`~repro.analysis.ac.solve_ac_stacked_batch`) and one vectorized
peak-extraction pass (:func:`~repro.core.peaks.find_peaks_grid`).  See
``docs/compiled-engine.md`` for the whole pipeline.

Every failure mode is isolated per request: :func:`execute_request` never
raises (analysis errors become ``status="failed"`` responses with the full
traceback attached), pool-level transport failures (a killed worker, an
unpicklable payload) are converted into failed responses for the affected
chunk only — each carrying the request's fingerprint (computed guardedly)
so failures stay correlatable with the cache and the yield reducer — and
a poisoned sample inside a batched group falls back to the scalar
per-request path without disturbing its batchmates.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.ac import ac_analysis, solve_ac_batch
from repro.analysis.compiled import BatchStampState, CompiledCircuit, linearize_batch
from repro.analysis.dcsweep import dc_sweep
from repro.analysis.op import (
    batch_device_info,
    operating_point,
    solve_linear_dc_batch,
    solve_nonlinear_dc_batch,
)
from repro.analysis.results import ACResult, OPResult
from repro.analysis.sweeps import FrequencySweep
from repro.core.all_nodes import (
    AllNodesOptions,
    analyze_all_nodes,
    analyze_all_nodes_batch,
)
from repro.core.report import (
    format_ac_report,
    format_all_nodes_report,
    format_dc_sweep_report,
    format_op_report,
    format_single_node_report,
)
from repro.core.single_node import (
    STABILITY_NEWTON,
    SingleNodeOptions,
    analyze_node,
    analyze_node_batch,
)
from repro.exceptions import AnalysisError, ConvergenceError, ToolError
from repro.obs.metrics import global_registry, subtract_snapshots
from repro.obs.report import EngineReport
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    current_tracer,
    span as _span,
)
from repro.service import shm as shm_transport
from repro.service.pool import TASK_CHUNK, TASK_SOLVE, WorkerPool
from repro.service.requests import (
    STABILITY_MODES,
    AnalysisRequest,
    AnalysisResponse,
)

__all__ = ["BatchEngine", "execute_linear_batch", "execute_request",
           "execute_request_chunk", "execute_solve_task",
           "set_compiled_cache_size", "stability_payload"]

#: Progress callback: ``f(completed_count, total_count, response)``.
ProgressCallback = Callable[[int, int, AnalysisResponse], None]

_BACKENDS = ("process", "serial")

#: Process-local cache: structure fingerprint -> compiled circuit.  Each
#: pool worker keeps the few most recent topologies compiled so repeated
#: samples of one Monte Carlo sweep skip the structural pass entirely.
#: The lock matters in the parent process, where the gateway's job
#: dispatcher threads run the in-process fast path concurrently and
#: their LRU bookkeeping would otherwise race.
_COMPILED_CACHE: "OrderedDict[str, CompiledCircuit]" = OrderedDict()
_COMPILED_CACHE_LOCK = threading.Lock()

#: Environment override for the per-process compiled-structure LRU size.
COMPILED_CACHE_ENV_VAR = "REPRO_COMPILED_CACHE"
_COMPILED_CACHE_DEFAULT = 8


def _default_compiled_cache_size() -> int:
    """The compiled-cache size from ``REPRO_COMPILED_CACHE`` (min 1)."""
    raw = os.environ.get(COMPILED_CACHE_ENV_VAR, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return _COMPILED_CACHE_DEFAULT


_COMPILED_CACHE_SIZE = _default_compiled_cache_size()

# Direct metric references (creation is cached per name; holding the
# objects keeps the per-request hot path off the registry dict).
_REQUESTS_COUNTER = global_registry().counter("engine.requests")
_FAILED_COUNTER = global_registry().counter("engine.requests_failed")
_CACHE_HITS = global_registry().counter("engine.compile_cache.hits")
_CACHE_MISSES = global_registry().counter("engine.compile_cache.misses")
_CACHE_EVICTIONS = global_registry().counter("engine.compile_cache.evictions")
_CIRCUIT_FETCHES = global_registry().counter("transport.circuit_fetches")

#: Batched stability-screening telemetry.  Incremented only in the
#: submitting process (the fast path and the shm-plan finalizer both run
#: there) — workers must not touch these counters, or their shipped
#: metric deltas would double-count every group on merge.
_STABILITY_GROUPS = global_registry().counter("engine.stability_batch.groups")
_STABILITY_SAMPLES = global_registry().counter("engine.stability_batch.samples")
_STABILITY_DEMOTIONS = global_registry().counter(
    "engine.stability_batch.demotions")


def set_compiled_cache_size(size: int) -> None:
    """Resize this process's compiled-structure LRU (evicting oldest).

    Workers of a persistent pool call this on startup with the engine's
    ``compiled_cache_size`` so every process in the fleet agrees on the
    residency budget; the initial value comes from the
    ``REPRO_COMPILED_CACHE`` environment variable (default 8).
    """
    global _COMPILED_CACHE_SIZE
    size = max(1, int(size))
    with _COMPILED_CACHE_LOCK:
        _COMPILED_CACHE_SIZE = size
        while len(_COMPILED_CACHE) > size:
            _COMPILED_CACHE.popitem(last=False)
            _CACHE_EVICTIONS.inc()


def stability_payload(result, detail: str) -> dict:
    """Wire payload of an ``all-nodes``/``single-node`` result.

    Peaks, verdicts, loops and the operating point always; every node's
    ``plot``, ``response`` and ``refined_plot`` arrays only for
    ``detail="plots"`` (they are about 95 % of a full payload).  The
    typed result is the same either way, so every verdict number is too.
    """
    return result.to_dict(plots=detail == "plots")


def _safe_fingerprint(request: AnalysisRequest) -> str:
    """The request's fingerprint, or "" when it cannot be computed (an
    unparsable netlist must not turn a failure report into a crash)."""
    try:
        return request.fingerprint()
    except Exception:
        return ""


def _cache_put(key: str, compiled: CompiledCircuit,
               cache_size: Optional[int] = None) -> None:
    limit = int(cache_size) if cache_size else _COMPILED_CACHE_SIZE
    with _COMPILED_CACHE_LOCK:
        _COMPILED_CACHE[key] = compiled
        while len(_COMPILED_CACHE) > max(1, limit):
            _COMPILED_CACHE.popitem(last=False)
            _CACHE_EVICTIONS.inc()


def _cache_get(key: str) -> Optional[CompiledCircuit]:
    with _COMPILED_CACHE_LOCK:
        compiled = _COMPILED_CACHE.get(key)
        if compiled is not None:
            _CACHE_HITS.inc()
            _COMPILED_CACHE.move_to_end(key)
            return compiled
    _CACHE_MISSES.inc()
    return None


def _compiled_for(request: AnalysisRequest,
                  cache_size: Optional[int] = None
                  ) -> Optional[CompiledCircuit]:
    """Compiled structure for the request's circuit (process-local LRU).

    Returns ``None`` when the circuit cannot be fingerprinted or compiled
    — the caller then falls back to the classic rebuild path, and the
    analysis reports the underlying problem with its usual diagnostics.
    Hits, misses and evictions are counted under
    ``engine.compile_cache.*`` (workers ship them home in their metric
    deltas, making warm-pool reuse visible in the engine report).
    """
    try:
        key = request.structure_fingerprint()
    except Exception:
        return None
    compiled = _cache_get(key)
    if compiled is not None:
        return compiled
    try:
        compiled = CompiledCircuit(request.resolved_circuit())
    except Exception:
        return None
    _cache_put(key, compiled, cache_size)
    return compiled


def _compiled_from_structure(fingerprint: str,
                             block_name: str) -> CompiledCircuit:
    """Compiled structure for a content-addressed solve task.

    The pool's zero-copy path: the compiled-circuit LRU is keyed by the
    same structure fingerprint the pickle path uses, so a worker that
    already holds the topology — from an earlier task, an earlier batch,
    or inherited from the parent at fork — never touches the shared-
    memory structure block at all.  A miss fetches the pickled circuit
    from the :class:`~repro.service.shm.StructureStore` block (counted
    as ``transport.circuit_fetches``: the proof that a structure is
    serialized to a given worker at most once per pool lifetime).
    """
    compiled = _cache_get(fingerprint)
    if compiled is not None:
        return compiled
    payload = shm_transport.fetch_structure(block_name)
    _CIRCUIT_FETCHES.inc()
    compiled = CompiledCircuit(pickle.loads(payload))
    _cache_put(fingerprint, compiled)
    return compiled


def _solve_stability_rows(descriptor: dict, compiled: CompiledCircuit,
                          batch: BatchStampState, x: np.ndarray,
                          solve_failures: Dict[int, Exception],
                          start: int, stop: int) -> dict:
    """Stability half of :func:`execute_solve_task`: screen one row range.

    Linearizes the row-sliced batch (zero-copy for these linear groups),
    runs the sample-axis screening pipeline over it, and returns the
    per-row result payloads in the task outcome — stability results are
    small, ragged dicts, so they ride the pickle channel home instead of
    a fixed-stride output block.  ``results`` holds one
    ``[payload, report]`` pair per row (``None`` for failed rows, which
    the parent recomputes locally with full diagnostics).
    """
    lin = linearize_batch(batch, failures=solve_failures)
    sweep_start, sweep_stop, sweep_ppd = descriptor["sweep"]
    sweep = FrequencySweep(sweep_start, sweep_stop, sweep_ppd)
    backend = descriptor.get("backend")
    names = compiled.variable_names
    single = descriptor["mode"] == "single-node"
    options_cls = SingleNodeOptions if single else AllNodesOptions
    ops: List[Optional[OPResult]] = []
    options_rows = []
    for row in range(stop - start):
        temperature = float(batch.temperatures[row])
        options_rows.append(options_cls(
            sweep=sweep, temperature=temperature,
            gmin=float(batch.gmins[row]), backend=backend))
        ops.append(None if row in lin.failures else
                   OPResult(names, x[row], iterations=0, strategy="linear",
                            temperature=temperature))
    if single:
        results = analyze_node_batch(compiled.circuit, descriptor["node"],
                                     options_rows, ops, lin)
        formatter = format_single_node_report
    else:
        results = analyze_all_nodes_batch(compiled.circuit, options_rows,
                                          ops, lin)
        formatter = format_all_nodes_report
    payloads: List[Optional[list]] = []
    failed = {int(k) + start for k in lin.failures}
    for row, result in enumerate(results):
        if isinstance(result, Exception):
            failed.add(row + start)
            payloads.append(None)
            continue
        try:
            payloads.append([stability_payload(result,
                                               descriptor["details"][row]),
                             formatter(result)])
        except Exception:
            failed.add(row + start)
            payloads.append(None)
    return {"rows": [start, stop], "failed": sorted(failed),
            "results": payloads}


def execute_solve_task(descriptor: dict) -> dict:
    """Worker half of the zero-copy transport: solve one row range.

    ``descriptor`` names the structure fingerprint + store block, the
    plane block (the parent's ``BatchStampState.export_planes`` layout),
    the output block (``op``/``ac`` groups only) and a ``rows`` range.
    The worker rebuilds a row-sliced batch over mapped views
    (:meth:`~repro.analysis.compiled.BatchStampState.from_planes` — no
    copies), solves it, and writes the result vectors straight into the
    output block; stability rows (``all-nodes``/``single-node``) run
    the batched screening pipeline instead and return their serialized
    results (see :func:`_solve_stability_rows`).  Returns
    ``{"rows": [start, stop], "failed": [...absolute sample indices]}``
    (plus ``"results"`` for stability rows); exceptions propagate to
    the pool, which reports a clean ``error`` outcome (the parent then
    recomputes the range locally with full per-request diagnostics).
    """
    start, stop = descriptor["rows"]
    compiled = _compiled_from_structure(descriptor["fingerprint"],
                                        descriptor["structure"])
    planes = shm_transport.attach_block(descriptor["planes"])
    output = shm_transport.attach_block(descriptor["output"]) \
        if descriptor.get("output") else None
    batch = arrays = None
    try:
        arrays = {name: view[start:stop]
                  for name, view in planes.arrays.items()}
        try:
            compiled.pattern_G       # already structurally compiled?
        except Exception:
            # One structural pass per worker per topology; values are
            # irrelevant (the batch below carries the real planes).
            compiled.restamp(temperature=27.0)
        failures = {int(k) - start:
                    AnalysisError("restamp failed in the submitting process")
                    for k in descriptor.get("failed", ())}
        batch = BatchStampState.from_planes(compiled, arrays,
                                            failures=failures)
        backend = descriptor.get("backend")
        x, solve_failures = solve_linear_dc_batch(batch, backend=backend)
        if descriptor["mode"] in STABILITY_MODES:
            return _solve_stability_rows(descriptor, compiled, batch, x,
                                         solve_failures, start, stop)
        output.arrays["x"][start:stop] = x
        failed = {int(k) + start for k in solve_failures}
        if descriptor["mode"] == "ac":
            frequencies = np.asarray(descriptor["frequencies"], dtype=float)
            data, ac_failures = solve_ac_batch(batch, frequencies,
                                               backend=backend)
            output.arrays["ac"][start:stop] = data
            failed.update(int(k) + start for k in ac_failures)
        return {"rows": [start, stop], "failed": sorted(failed)}
    finally:
        # Drop every view into the mapped buffers before unmapping.
        batch = arrays = None  # noqa: F841
        planes.close()
        if output is not None:
            output.close()


def execute_request(request: AnalysisRequest) -> AnalysisResponse:
    """Run one request to completion; never raises.

    This is the worker entry point of the process pool (it must stay a
    module-level function so it pickles by reference) and the inline
    execution path of :class:`~repro.service.service.StabilityService`.
    The circuit structure is compiled once per topology per process
    (see :func:`_compiled_for`); each request then only restamps values.

    When a tracer is installed in the calling context, the whole
    execution runs under a ``request.execute`` span and every span it
    produced is attached to the response as its ``telemetry`` block
    (schema-versioned, JSON round-trippable, excluded from request
    fingerprints).  With no tracer this adds one context-variable check.
    """
    tracer = current_tracer()
    if tracer is None:
        return _execute_request_inner(request)
    mark = tracer.mark()
    with tracer.span("request.execute", mode=request.mode,
                     label=request.label) as request_span:
        response = _execute_request_inner(request)
        request_span.set(status=response.status)
    response.telemetry = {
        "schema": TRACE_SCHEMA_VERSION,
        "spans": [s.to_dict() for s in tracer.spans_since(mark)]}
    return response


def _execute_request_inner(request: AnalysisRequest) -> AnalysisResponse:
    started = time.time()
    fingerprint = ""
    _REQUESTS_COUNTER.inc()
    try:
        fingerprint = request.fingerprint()
        circuit = request.resolved_circuit()
        compiled = _compiled_for(request)
        if request.mode == "dc-sweep":
            result = dc_sweep(circuit, request.dc_variable,
                              request.dc_sweep_grid(),
                              temperature=request.temperature,
                              gmin=request.gmin,
                              variables=dict(request.variables) or None,
                              backend=request.backend,
                              compiled=compiled)
            payload = result.to_dict()
            report = format_dc_sweep_report(result, node=request.node)
        elif request.mode == "op":
            result = operating_point(circuit, temperature=request.temperature,
                                     gmin=request.gmin,
                                     variables=dict(request.variables) or None,
                                     backend=request.backend,
                                     compiled=compiled)
            payload = result.to_dict()
            report = format_op_report(result)
        elif request.mode == "ac":
            result = ac_analysis(circuit, sweep=request.sweep(),
                                 temperature=request.temperature,
                                 gmin=request.gmin,
                                 variables=dict(request.variables) or None,
                                 backend=request.backend, compiled=compiled)
            payload = result.to_dict()
            report = format_ac_report(result, node=request.node)
        elif request.mode == "single-node":
            options = request.analysis_options()
            result = analyze_node(circuit, request.node, options=options,
                                  compiled=compiled)
            payload = stability_payload(result, request.detail)
            report = format_single_node_report(result)
        else:
            options = request.analysis_options()
            result = analyze_all_nodes(circuit, options=options,
                                       compiled=compiled)
            payload = stability_payload(result, request.detail)
            report = format_all_nodes_report(result)
        return AnalysisResponse(
            fingerprint=fingerprint, mode=request.mode, status="done",
            label=request.label, result=payload, report=report,
            elapsed_seconds=time.time() - started)
    except Exception as exc:
        _FAILED_COUNTER.inc()
        # Convergence failures carry a structured diagnostic trail that
        # must survive the serialized trip home from a pool worker.
        details = exc.to_details() if isinstance(exc, ConvergenceError) \
            else None
        return AnalysisResponse(
            fingerprint=fingerprint, mode=request.mode, status="failed",
            label=request.label, error=str(exc),
            traceback=traceback.format_exc(),
            error_details=details,
            elapsed_seconds=time.time() - started)


def execute_request_chunk(requests: Sequence[AnalysisRequest]
                          ) -> List[AnalysisResponse]:
    """Run a same-structure chunk of requests in this process, in order.

    Pickled to a pool worker as one task: the first request compiles the
    shared circuit structure (into the process-local cache), the rest
    restamp.  Per-request failure isolation is preserved —
    :func:`execute_request` never raises.  The chunk's wall time is
    observed as ``engine.chunk_seconds``; the pool worker ships it home
    in the task's metric delta like every other counter.
    """
    started = time.perf_counter()
    responses = [execute_request(request) for request in requests]
    global_registry().histogram("engine.chunk_seconds").observe(
        time.perf_counter() - started)
    return responses


def _batch_op_result(batch: BatchStampState, names: Sequence[str],
                     nonlinear: bool, index: int, x: np.ndarray,
                     iterations, strategies,
                     temperature: float) -> OPResult:
    """One sample's :class:`OPResult` out of the batched DC solve."""
    if nonlinear:
        info, info_failures = batch_device_info(batch, index, x[index])
        return OPResult(names, x[index], device_info=info,
                        iterations=int(iterations[index]),
                        strategy=strategies[index],
                        temperature=temperature,
                        info_failures=info_failures)
    return OPResult(names, x[index], iterations=0, strategy="linear",
                    temperature=temperature)


def execute_linear_batch(requests: Sequence[AnalysisRequest],
                         prefer_pool_for_sparse: bool = False,
                         cache_size: Optional[int] = None
                         ) -> Optional[List[AnalysisResponse]]:
    """Run one same-structure group of ``op``/``ac``/``all-nodes``/
    ``single-node`` requests through the batched restamp+solve kernel,
    in this process.

    The group contract (enforced by the caller's grouping key): every
    request shares one circuit structure, one mode, one effective solver
    backend and — for every frequency-domain mode — one sweep (plus one
    probe node for ``single-node``).  The whole group is then a single
    :meth:`~repro.analysis.CompiledCircuit.restamp_batch` (each dynamic
    element evaluated once for all samples) plus one batched DC solve:
    :func:`~repro.analysis.op.solve_linear_dc_batch` for linear
    circuits, or the masked batched Newton engine
    :func:`~repro.analysis.op.solve_nonlinear_dc_batch` for nonlinear
    groups.  ``ac`` groups then run one batched frequency sweep,
    :func:`~repro.analysis.ac.solve_ac_batch` (nonlinear circuits
    linearized at the batched Newton solutions).  Stability
    groups (``all-nodes``/``single-node``) push the same linearized
    batch through the sample-axis screening pipeline —
    :func:`~repro.core.all_nodes.analyze_all_nodes_batch` /
    :func:`~repro.core.single_node.analyze_node_batch` — so the whole
    Monte Carlo screen shares one impedance cube solve and one
    vectorized peak-extraction pass.

    Returns ``None`` when the group cannot be batched at all (compile
    failure, sparse group deferred to the pool) — the caller then
    dispatches it down the per-request path.  Per-sample problems never
    poison the group: any sample that failed to restamp, solve,
    linearize or screen falls back to the scalar
    :func:`execute_request`, which reproduces the failure (or recovers)
    with its full per-request diagnostics.
    """
    started = time.time()
    first = requests[0]
    stability = first.mode in STABILITY_MODES
    stability_results = None
    try:
        compiled = _compiled_for(first, cache_size=cache_size)
        if compiled is None:
            return None
        nonlinear = not compiled.is_linear
        if prefer_pool_for_sparse:
            # On the sparse kernel solve_batch is a sequential refactor
            # loop — for systems large enough to resolve sparse, the LU
            # dominates and a process pool's parallel workers beat the
            # in-process batch.  Dense groups (one genuinely batched
            # LAPACK call) always win in-process.
            from repro.linalg import resolve_backend

            resolved = resolve_backend(first.backend, size=compiled.size)
            if resolved.name == "sparse":
                return None
        batch = compiled.restamp_batch(
            variables=[dict(request.variables) for request in requests],
            temperature=[request.temperature for request in requests],
            gmin=[request.gmin for request in requests])
        data = None
        iterations = strategies = None
        if nonlinear:
            # Stability screens run the tight stability Newton options
            # (same fixpoint as the scalar screening path) and
            # warm-start from a pilot sample that starts from the
            # structure's anchor (Monte Carlo scatter shares one bias
            # neighbourhood); op/ac groups stay cold on the default
            # options, which take no anchor, so their 1e-9 scalar
            # parity holds bit for bit.
            x, iterations, strategies, failures = solve_nonlinear_dc_batch(
                batch, backend=first.backend,
                options=STABILITY_NEWTON if stability else None,
                pilot=stability)
        else:
            x, failures = solve_linear_dc_batch(batch, backend=first.backend)
        if first.mode == "ac":
            data, failures = solve_ac_batch(
                batch, first.sweep().frequencies, backend=first.backend,
                x=x if nonlinear else None, failures=failures)
        elif stability and len(failures) < len(requests):
            lin = linearize_batch(batch, x if nonlinear else None,
                                  failures=failures)
            failures = dict(lin.failures)
            names = compiled.variable_names
            ops: List[Optional[OPResult]] = []
            for index, request in enumerate(requests):
                if index in failures:
                    ops.append(None)
                    continue
                try:
                    ops.append(_batch_op_result(
                        batch, names, nonlinear, index, x, iterations,
                        strategies, request.temperature))
                except Exception as exc:
                    ops.append(None)
                    failures[index] = exc
            options_rows = [request.analysis_options()
                            for request in requests]
            circuit = first.resolved_circuit()
            if first.mode == "all-nodes":
                stability_results = analyze_all_nodes_batch(
                    circuit, options_rows, ops, lin)
            else:
                stability_results = analyze_node_batch(
                    circuit, first.node, options_rows, ops, lin)
    except Exception:
        return None
    elapsed = (time.time() - started) / max(len(requests), 1)

    responses: List[AnalysisResponse] = []
    names = compiled.variable_names
    demotions = 0
    for index, request in enumerate(requests):
        if index in failures or (stability and isinstance(
                stability_results[index], Exception)):
            demotions += 1
            responses.append(execute_request(request))
            continue
        try:
            if stability:
                result = stability_results[index]
                payload = stability_payload(result, request.detail)
                report = format_all_nodes_report(result) \
                    if request.mode == "all-nodes" \
                    else format_single_node_report(result)
            else:
                op = _batch_op_result(batch, names, nonlinear, index, x,
                                      iterations, strategies,
                                      request.temperature)
                if request.mode == "ac":
                    result = ACResult(names, first.sweep().frequencies,
                                      data[index], op=op)
                    payload = result.to_dict()
                    report = format_ac_report(result, node=request.node)
                else:
                    result = op
                    payload = result.to_dict()
                    report = format_op_report(result)
            responses.append(AnalysisResponse(
                fingerprint=request.fingerprint(), mode=request.mode,
                status="done", label=request.label, result=payload,
                report=report, elapsed_seconds=elapsed))
        except Exception:
            demotions += 1
            responses.append(execute_request(request))
    if stability:
        _STABILITY_GROUPS.inc()
        _STABILITY_SAMPLES.inc(len(requests))
        if demotions:
            _STABILITY_DEMOTIONS.inc(demotions)
    return responses


class _ShmGroupPlan:
    """One same-structure group travelling the zero-copy transport.

    Owns the group's plane and output blocks (the structure block
    belongs to the pool's :class:`~repro.service.shm.StructureStore`),
    the row ranges its solve tasks cover, and the per-slot
    :class:`~repro.service.pool.TaskOutcome` collected by the dispatch
    loop.  :meth:`descriptor` is the entire per-task payload — a handful
    of names and numbers, never the arrays themselves.
    """

    __slots__ = ("indices", "mode", "backend", "fingerprint", "structure",
                 "names", "frequencies", "failures", "planes", "output",
                 "ranges", "outcomes", "started", "node", "sweep", "details")

    def __init__(self, indices, mode, backend, fingerprint, structure,
                 names, frequencies, failures, planes, output, ranges,
                 node=None, sweep=None, details=None):
        self.indices = indices
        self.mode = mode
        self.backend = backend
        self.fingerprint = fingerprint
        self.structure = structure
        self.names = names
        self.frequencies = frequencies
        self.failures = failures
        self.planes = planes
        self.output = output
        self.ranges = ranges
        self.node = node
        self.sweep = sweep
        self.details = details
        self.outcomes: List[Optional[object]] = [None] * len(ranges)
        self.started = time.time()

    def descriptor(self, slot: int) -> dict:
        start, stop = self.ranges[slot]
        descriptor = {
            "fingerprint": self.fingerprint,
            "structure": self.structure,
            "planes": self.planes.name,
            "output": self.output.name if self.output is not None else None,
            "rows": [start, stop],
            "mode": self.mode,
            "backend": self.backend,
            "failed": [k for k in self.failures if start <= k < stop],
        }
        if self.frequencies is not None:
            descriptor["frequencies"] = [float(f) for f in self.frequencies]
        if self.sweep is not None:
            descriptor["sweep"] = list(self.sweep)
            descriptor["details"] = self.details[start:stop]
        if self.node is not None:
            descriptor["node"] = self.node
        return descriptor

    def release(self) -> None:
        """Unlink the group's plane and output blocks (idempotent)."""
        for block in (self.planes, self.output):
            if block is None:
                continue
            block.close()
            block.unlink()


class BatchEngine:
    """Fans a batch of requests out over a local worker pool.

    A run takes three routes: same-structure groups go through the
    in-process batch kernel (:func:`execute_linear_batch`); what is left
    runs in-line through :func:`execute_request` on the serial backend
    (or when a single request is left), and otherwise as solve and
    chunk tasks on the :class:`~repro.service.pool.WorkerPool`.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to the CPU count (capped at 8 — the analyses
        are memory-bandwidth-bound well before that).
    backend:
        "process" (default) bypasses the GIL entirely, "serial" runs
        in-line (useful for debugging: breakpoints and profilers see the
        analysis frames).
    persistent:
        Keep the :class:`~repro.service.pool.WorkerPool` warm across
        ``run()`` calls: workers (and their compiled-circuit LRUs)
        survive between batches.  Call :meth:`close` — or use the
        engine as a context manager — to stop the workers and unlink
        the shared memory.  ``False`` starts a pool for each run that
        needs one and closes it before the run returns.
    compiled_cache_size:
        Per-process compiled-structure LRU size, applied to this
        engine's in-process fast path and shipped to every pool worker
        (``None``: the ``REPRO_COMPILED_CACHE`` default, 8).
    pool_idle_timeout:
        Seconds of engine inactivity after which the persistent pool
        recycles its workers and shared memory (``None``: never); the
        pool restarts lazily on the next run.
    """

    def __init__(self, max_workers: Optional[int] = None,
                 backend: str = "process", persistent: bool = True,
                 compiled_cache_size: Optional[int] = None,
                 pool_idle_timeout: Optional[float] = None):
        if backend not in _BACKENDS:
            raise ToolError(f"unknown backend {backend!r}; "
                            f"expected one of {_BACKENDS}")
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        if max_workers < 1:
            raise ToolError("max_workers must be at least 1")
        if compiled_cache_size is not None and int(compiled_cache_size) < 1:
            raise ToolError("compiled_cache_size must be at least 1")
        self.max_workers = int(max_workers)
        self.backend = backend
        self.persistent = bool(persistent)
        self.compiled_cache_size = (int(compiled_cache_size)
                                    if compiled_cache_size is not None
                                    else None)
        self.pool_idle_timeout = pool_idle_timeout
        self._pool: Optional[WorkerPool] = None
        self._release_pool: Optional[weakref.finalize] = None
        self._pool_lock = threading.Lock()
        #: Telemetry of the most recent :meth:`run` (None before any).
        self.last_report: Optional[EngineReport] = None

    #: Minimum group size for the in-process batched fast path — a
    #: single request gains nothing from a batch kernel.
    BATCH_FASTPATH_MIN = 2

    #: Work-stealing granularity: each structure group is cut into about
    #: this many tasks per worker, so fast workers drain the tail
    #: instead of idling behind one pre-split straggler chunk.
    STEAL_FACTOR = 4

    # ------------------------------------------------------------------
    @property
    def pool(self) -> Optional[WorkerPool]:
        """The persistent worker pool (``None`` until first needed)."""
        return self._pool

    def _new_pool(self) -> WorkerPool:
        return WorkerPool(self.max_workers,
                          compiled_cache_size=self.compiled_cache_size,
                          idle_timeout=self.pool_idle_timeout)

    def _ensure_pool(self) -> WorkerPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
                # An engine dropped without close() can never reach its
                # pool again: close it then, rather than strand the
                # workers and the structure store's shared memory.
                self._release_pool = weakref.finalize(self, self._pool.close)
            return self._pool

    def close(self) -> None:
        """Stop the persistent pool and unlink its shared memory.

        Idempotent; the engine remains usable — a later :meth:`run`
        lazily builds a fresh pool.  Non-persistent engines close their
        pool inside each run, so this is always safe to call.  An engine
        that is garbage-collected without it closes its pool then.
        """
        with self._pool_lock:
            self._pool = None
            release, self._release_pool = self._release_pool, None
        if release is not None:
            release()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[AnalysisRequest],
            progress: Optional[ProgressCallback] = None
            ) -> List[AnalysisResponse]:
        """Execute every request; responses come back in submission order.

        Same-structure groups of ``op``/``ac``/``all-nodes``/
        ``single-node`` requests are served first by the in-process
        batched kernel
        (:func:`execute_linear_batch` — one vectorized restamp + one
        batched solve for the whole group, bypassing per-request pool
        dispatch); everything else runs in-line on the serial backend
        and on the worker pool otherwise.  Failures (analysis errors,
        worker crashes, poisoned batch samples) never abort the batch —
        the affected request yields a ``status="failed"`` response.

        Every run leaves its telemetry in :attr:`last_report` — request
        dispatch counts, pool chunk timings, the metric deltas shipped
        home by pool workers, and the parent registry delta over
        the whole run (see :class:`~repro.obs.report.EngineReport`).
        """
        requests = list(requests)
        report = EngineReport(requests=len(requests), backend=self.backend)
        if not requests:
            self.last_report = report
            return []
        registry = global_registry()
        run_before = registry.snapshot()
        started = time.perf_counter()
        responses: List[Optional[AnalysisResponse]] = [None] * len(requests)
        completed = 0

        def emit(index: int, response: AnalysisResponse) -> None:
            nonlocal completed
            responses[index] = response
            completed += 1
            if progress is not None:
                progress(completed, len(requests), response)

        with _span("engine.run", requests=len(requests),
                   backend=self.backend):
            remaining = self._run_batched_fastpath(requests, emit)
            report.fastpath_requests = len(requests) - len(remaining)
            report.pool_requests = len(remaining)
            if remaining:
                if self.backend == "serial" or len(remaining) == 1:
                    for index in remaining:
                        emit(index, execute_request(requests[index]))
                else:
                    self._run_pool(requests, remaining, emit, report)
        report.elapsed_seconds = time.perf_counter() - started
        if self._pool is not None:
            report.pool = self._pool.stats()
        registry.counter("engine.runs").inc()
        registry.counter("engine.fastpath_requests").inc(
            report.fastpath_requests)
        # The run-total delta: everything this run did in the parent
        # registry, *including* the worker deltas _run_pool folded in.
        report.run_metrics = subtract_snapshots(registry.snapshot(),
                                                run_before)
        self.last_report = report
        return responses  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _fastpath_key(self, request: AnalysisRequest, index: int):
        """Batched-group key of a request; ``None`` when ineligible.

        Eligible requests are ``op``/``ac``/``all-nodes``/``single-node``
        mode; the key pins everything a batch must share — circuit
        structure, mode, effective solver backend, the frequency sweep
        for every frequency-domain mode, and the probe node for
        ``single-node``.  The payload ``detail`` is not in it: it changes
        only how each row's result is serialized.  Linearity is a
        property of the compiled circuit and is checked once per group by
        :func:`execute_linear_batch`.
        """
        if request.mode not in ("op", "ac") + STABILITY_MODES:
            return None
        try:
            backend = request.effective_backend()
        except Exception:
            return None
        key = self._group_key(request, index)
        if isinstance(key, tuple) and key and key[0] == "ungroupable":
            return None
        sweep = ((request.sweep_start, request.sweep_stop,
                  request.sweep_points_per_decade)
                 if request.mode != "op" else None)
        node = request.node if request.mode == "single-node" else None
        return (request.mode, key, backend, sweep, node)

    def _run_batched_fastpath(self, requests: Sequence[AnalysisRequest],
                              emit) -> List[int]:
        """Serve every batchable group in-process; return unhandled indices."""
        groups: "OrderedDict[object, List[int]]" = OrderedDict()
        for index, request in enumerate(requests):
            groups.setdefault(self._fastpath_key(request, index),
                              []).append(index)
        remaining: List[int] = []
        for key, indices in groups.items():
            if key is None or len(indices) < self.BATCH_FASTPATH_MIN:
                remaining.extend(indices)
                continue
            with _span("engine.fastpath", mode=key[0],
                       group_size=len(indices)) as fastpath_span:
                group = execute_linear_batch(
                    [requests[i] for i in indices],
                    prefer_pool_for_sparse=(self.backend == "process"),
                    cache_size=self.compiled_cache_size)
                fastpath_span.set(batched=group is not None)
            if group is None:          # unbatchable topology: normal path
                remaining.extend(indices)
                continue
            for index, response in zip(indices, group):
                emit(index, response)
        remaining.sort()
        return remaining

    @staticmethod
    def _group_key(request: AnalysisRequest, index: int) -> object:
        """Cheap same-structure grouping key, computed without parsing.

        Already-parsed (Circuit-backed) requests use the canonical
        structure fingerprint; netlist-backed requests are grouped by a
        hash of the raw text.  Text hashing is coarser (two spellings of
        one circuit land in different groups) but grouping is purely an
        optimisation, and parsing every netlist on the submitting thread
        — and then shipping the parsed circuit inside each pickled chunk
        — would cost more than the grouping saves.
        """
        if request.circuit is not None:
            try:
                return request.structure_fingerprint()
            except Exception:
                return ("ungroupable", index)
        if request.netlist is not None:
            # Memoised on the request instance: fastpath grouping and
            # pool chunking both key the same batch, and re-hashing a
            # large netlist twice per request is pure waste.
            return request.netlist_text_hash()
        return ("ungroupable", index)

    def _steal_chunk_size(self, total: int) -> int:
        """Rows per work-stealing task: about ``STEAL_FACTOR`` tasks per
        worker, so the queue always has a tail for fast workers to drain."""
        return max(1, -(-total // (self.max_workers * self.STEAL_FACTOR)))

    def _run_pool(self, requests: Sequence[AnalysisRequest],
                  indices: Sequence[int], emit,
                  report: Optional[EngineReport] = None) -> None:
        """Dispatch the given request indices over the worker pool.

        Structure groups eligible for the batch kernel travel the
        zero-copy shared-memory transport (:meth:`_plan_shm_group`):
        the circuit ships content-addressed through the pool's
        structure store, value planes go into one block per group, and
        each solve task is a row range into those blocks.  Everything
        else falls back to pickled request chunks
        (:func:`execute_request_chunk`) on the same work-stealing queue.
        Either way the group is cut into ``~STEAL_FACTOR`` tasks per
        worker so fast workers drain the tail.  Every task's metric
        delta is folded into the parent registry and
        ``report.worker_metrics``.  A non-persistent engine runs on a
        pool of its own that is closed before this returns; its
        telemetry is kept in ``report.pool``.
        """
        pool = self._ensure_pool() if self.persistent else self._new_pool()
        registry = global_registry()
        tasks: List[Tuple[str, object]] = []
        handlers: List[tuple] = []
        plans: List[_ShmGroupPlan] = []
        try:
            groups: "OrderedDict[object, List[int]]" = OrderedDict()
            for index in indices:
                groups.setdefault(self._group_key(requests[index], index),
                                  []).append(index)
            for group in groups.values():
                plan = None
                if len(group) >= self.BATCH_FASTPATH_MIN:
                    plan = self._plan_shm_group(requests, group, pool)
                if plan is not None:
                    plans.append(plan)
                    for slot in range(len(plan.ranges)):
                        tasks.append((TASK_SOLVE, plan.descriptor(slot)))
                        handlers.append(("solve", plan, slot))
                    continue
                per_chunk = self._steal_chunk_size(len(group))
                for start in range(0, len(group), per_chunk):
                    chunk = group[start:start + per_chunk]
                    tasks.append((TASK_CHUNK, [requests[i] for i in chunk]))
                    handlers.append(("chunk", chunk))
            if report is not None:
                report.chunks = len(tasks)
            registry.counter("engine.chunks").inc(len(tasks))
            for position, outcome in pool.run_tasks(tasks):
                if outcome.delta is not None:
                    registry.merge(outcome.delta)
                    if report is not None:
                        report.add_worker_delta(outcome.delta)
                handler = handlers[position]
                if handler[0] == "chunk":
                    self._finish_chunk_task(requests, handler[1], outcome,
                                            emit, report)
                else:
                    handler[1].outcomes[handler[2]] = outcome
            for plan in plans:
                self._finalize_shm_plan(requests, plan, emit)
        finally:
            for plan in plans:
                plan.release()
            if not self.persistent:
                if report is not None:
                    report.pool = pool.stats()
                pool.close()

    def _plan_shm_group(self, requests: Sequence[AnalysisRequest],
                        group: Sequence[int],
                        pool: WorkerPool) -> Optional[_ShmGroupPlan]:
        """Plan the zero-copy transport for one structure group.

        Eligibility mirrors the in-process fast path: every request in
        the group must share one fastpath key (mode, structure,
        effective backend, sweep, probe node) and the compiled circuit
        must be linear.  The parent restamps the whole group once
        (:meth:`~repro.analysis.CompiledCircuit.restamp_batch`), copies
        the value planes into a shared-memory block, stores the pickled
        circuit content-addressed (at most one copy per structure per
        pool lifetime) and cuts the sample axis into work-stealing row
        ranges.  ``op``/``ac`` tasks write solution vectors into a
        shared output block; stability tasks (``all-nodes``/
        ``single-node``) return serialized result payloads in the task
        outcome instead (per-node results are small and ragged — a
        fixed-stride block fits them poorly).  Returns ``None`` when
        the group cannot take this path — the caller falls back to
        pickled chunks.
        """
        first = requests[group[0]]
        keys = {self._fastpath_key(requests[i], i) for i in group}
        if len(keys) != 1 or None in keys:
            return None
        compiled = _compiled_for(first, cache_size=self.compiled_cache_size)
        if compiled is None or not compiled.is_linear:
            return None
        stability = first.mode in STABILITY_MODES
        try:
            fingerprint = first.structure_fingerprint()
            payload = pickle.dumps(first.resolved_circuit(),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            structure_name, _ = pool.structure_store.put(fingerprint, payload)
            batch = compiled.restamp_batch(
                variables=[dict(requests[i].variables) for i in group],
                temperature=[requests[i].temperature for i in group],
                gmin=[requests[i].gmin for i in group])
            frequencies = first.sweep().frequencies \
                if first.mode == "ac" else None
            planes = shm_transport.create_block(batch.export_planes())
        except Exception:
            return None
        total = len(group)
        output = None
        if not stability:
            try:
                specs = {"x": ((total, compiled.size), np.float64)}
                if frequencies is not None:
                    specs["ac"] = ((total, len(frequencies), compiled.size),
                                   np.complex128)
                output = shm_transport.create_empty_block(specs)
            except Exception:
                planes.close()
                planes.unlink()
                return None
        per_chunk = self._steal_chunk_size(total)
        ranges = [(start, min(start + per_chunk, total))
                  for start in range(0, total, per_chunk)]
        sweep = ((first.sweep_start, first.sweep_stop,
                  first.sweep_points_per_decade) if stability else None)
        return _ShmGroupPlan(
            indices=list(group), mode=first.mode, backend=first.backend,
            fingerprint=fingerprint, structure=structure_name,
            names=list(compiled.variable_names), frequencies=frequencies,
            failures=dict(batch.failures), planes=planes, output=output,
            ranges=ranges,
            node=first.node if first.mode == "single-node" else None,
            sweep=sweep,
            details=([requests[i].detail for i in group] if stability
                     else None))

    def _finish_chunk_task(self, requests: Sequence[AnalysisRequest],
                           chunk: Sequence[int], outcome, emit,
                           report: Optional[EngineReport] = None) -> None:
        """Emit one pickled chunk's responses (or correlatable failures)."""
        if outcome.status == "done":
            if report is not None and outcome.delta is not None:
                chunk_hist = outcome.delta.get("histograms", {}).get(
                    "engine.chunk_seconds")
                if chunk_hist and chunk_hist.get("count") == 1:
                    report.chunk_seconds.append(chunk_hist["sum"])
            for index, response in zip(chunk, outcome.payload):
                emit(index, response)
            return
        # Worker crash ("lost") or an in-worker transport error: isolate
        # it to this chunk's requests, fingerprints computed guardedly.
        for index in chunk:
            request = requests[index]
            emit(index, AnalysisResponse(
                fingerprint=_safe_fingerprint(request), mode=request.mode,
                status="failed", label=request.label,
                error=f"worker failure: {outcome.error}",
                traceback=outcome.traceback))

    def _finalize_shm_plan(self, requests: Sequence[AnalysisRequest],
                           plan: _ShmGroupPlan, emit) -> None:
        """Turn one plan's output block into per-request responses.

        Per-row triage: rows whose solve task came back ``done`` are
        materialised straight from the output block; rows that failed to
        restamp or solve — and rows whose task hit a clean in-worker
        error — are recomputed locally by :func:`execute_request`, which
        reproduces (or recovers from) the failure with full per-request
        diagnostics.  Rows whose task was *lost* (the worker died twice)
        become correlatable ``worker failure`` responses instead: re-
        running a row that killed two workers in-process could take the
        parent down with it.
        """
        total = len(plan.indices)
        elapsed = (time.time() - plan.started) / max(total, 1)
        stability = plan.mode in STABILITY_MODES
        row_payloads: List[Optional[list]] = [None] * total
        # None = solve locally; "" = use the block; str = lost (message).
        triage: List[Optional[str]] = [""] * total
        for slot, (start, stop) in enumerate(plan.ranges):
            outcome = plan.outcomes[slot]
            if outcome is None or outcome.status == "lost":
                message = outcome.error if outcome is not None else \
                    "task was never dispatched"
                for row in range(start, stop):
                    triage[row] = f"worker failure: {message}"
            elif outcome.status == "error":
                for row in range(start, stop):
                    triage[row] = None
            else:
                for row in outcome.payload.get("failed", ()):
                    if start <= int(row) < stop:
                        triage[int(row)] = None
                if stability:
                    for offset, entry in enumerate(
                            outcome.payload.get("results", ())):
                        if start + offset < total:
                            row_payloads[start + offset] = entry
        for row in plan.failures:
            if triage[row] == "":
                triage[row] = None
        x = plan.output.arrays.get("x") if plan.output is not None else None
        ac = plan.output.arrays.get("ac") if plan.output is not None else None
        demotions = 0
        for row, index in enumerate(plan.indices):
            request = requests[index]
            state = triage[row]
            if state == "":
                try:
                    if stability:
                        entry = row_payloads[row]
                        if entry is None:
                            raise AnalysisError(
                                "solve task returned no stability payload")
                        payload, text = entry[0], entry[1]
                    else:
                        op = OPResult(plan.names, np.array(x[row]),
                                      iterations=0, strategy="linear",
                                      temperature=request.temperature)
                        if plan.mode == "ac":
                            result = ACResult(plan.names, plan.frequencies,
                                              np.array(ac[row]), op=op)
                            payload = result.to_dict()
                            text = format_ac_report(result,
                                                    node=request.node)
                        else:
                            result = op
                            payload = result.to_dict()
                            text = format_op_report(result)
                    emit(index, AnalysisResponse(
                        fingerprint=request.fingerprint(), mode=request.mode,
                        status="done", label=request.label, result=payload,
                        report=text, elapsed_seconds=elapsed))
                    continue
                except Exception:
                    state = None
            if state is None:
                demotions += 1
                emit(index, execute_request(request))
            else:
                emit(index, AnalysisResponse(
                    fingerprint=_safe_fingerprint(request),
                    mode=request.mode, status="failed", label=request.label,
                    error=state))
        if stability:
            _STABILITY_GROUPS.inc()
            _STABILITY_SAMPLES.inc(total)
            if demotions:
                _STABILITY_DEMOTIONS.inc(demotions)
