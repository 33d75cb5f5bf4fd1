"""Outside-in layer timing for the traced benchmark run.

Nothing here changes the program: :func:`install` replaces the public
entry point of each layer with a thin timing wrapper at every place a
caller looks the name up (the defining module, every ``repro`` module
that imported the name, or the class that owns the method).  Each
wrapper keeps a per-thread stack, so a layer's *self* time excludes the
wrapped layers it calls, and records that self time as one observation
of a ``perfbench.layer.<name>`` histogram in the program's own metrics
registry.  Pool workers fork from a process that already holds the
wrappers and record under ``perfbench.worker.<name>``; their registry
deltas travel home with every pool task, so the gateway's ``/metrics``
carries the workers' layer times too.

The program's existing spans (``request.execute``, ``engine.run``,
``newton.batch``, ``job.run``, ...) are captured by an aggregating
tracer that folds every finished span into ``perfbench.span.<name>``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import threading
import time
import types

PREFIX = "perfbench."

#: Layer -> the entry points timed for it: (module, attribute), with a
#: dotted attribute for methods.
ENTRY_POINTS = {
    "circuit.parse": [("repro.circuit.parser", "parse_netlist")],
    "circuit.fingerprint": [("repro.circuit.canonical",
                             "circuit_fingerprint")],
    # The structural passes behind CompiledCircuit: run once per topology
    # per process, on the first restamp / Newton solve.
    "analysis.compile": [("repro.analysis.compiled",
                          "CompiledCircuit._record"),
                         ("repro.analysis.compiled",
                          "CompiledCircuit._record_newton")],
    "analysis.op": [("repro.analysis.op", "operating_point")],
    "analysis.newton_batch": [("repro.analysis.op",
                               "solve_nonlinear_dc_batch")],
    "analysis.restamp": [("repro.analysis.compiled",
                          "CompiledCircuit.restamp"),
                         ("repro.analysis.compiled",
                          "CompiledCircuit.restamp_batch")],
    "analysis.linearize": [("repro.analysis.compiled", "linearize_batch"),
                           ("repro.analysis.mna",
                            "MNASystem.small_signal_matrices")],
    "analysis.ac_solve": [("repro.analysis.ac", "solve_ac_stacked"),
                          ("repro.analysis.ac", "solve_ac_stacked_batch")],
    "analysis.dc_sweep": [("repro.analysis.dcsweep", "dc_sweep"),
                          ("repro.analysis.dcsweep", "dc_sweep_batch")],
    "core.impedance": [("repro.core.impedance", "ImpedanceSweeper.__init__"),
                       ("repro.core.impedance",
                        "ImpedanceSweeper.impedance_waveforms"),
                       ("repro.core.impedance", "ImpedanceSweeper.impedances"),
                       ("repro.core.impedance",
                        "BatchImpedanceSweeper.impedance_cube"),
                       ("repro.core.impedance",
                        "BatchImpedanceSweeper.sample_impedances")],
    "core.peaks": [("repro.core.stability_plot", "stability_plot"),
                   ("repro.core.stability_plot", "stability_plot_grid"),
                   ("repro.core.peaks", "find_peaks"),
                   ("repro.core.peaks", "find_peaks_grid")],
    "core.report": [("repro.core.report", name) for name in (
        "format_all_nodes_report", "format_single_node_report",
        "format_op_report", "format_dc_sweep_report", "format_ac_report")],
    "service.cache": [("repro.service.cache", "ResultCache.get"),
                      ("repro.service.cache", "ResultCache.put")],
    "service.serialize": [("repro.service.requests",
                           "AnalysisResponse.to_dict"),
                          ("repro.core.all_nodes", "AllNodesResult.to_dict"),
                          ("repro.core.single_node",
                           "NodeStabilityResult.to_dict"),
                          ("repro.analysis.results", "OPResult.to_dict"),
                          ("repro.analysis.results", "DCSweepResult.to_dict"),
                          ("repro.analysis.results", "ACResult.to_dict")],
    "service.engine": [("repro.service.engine", "execute_request"),
                       ("repro.service.engine", "execute_linear_batch"),
                       ("repro.service.engine", "BatchEngine.run"),
                       ("repro.service.service", "StabilityService.submit"),
                       ("repro.service.service",
                        "StabilityService.submit_batch"),
                       ("repro.service.service", "StabilityService.screen")],
}


class _State:
    """Process-wide switch and per-thread self-time stacks."""

    def __init__(self):
        self.enabled = True
        self.local = threading.local()
        self.main_pid = os.getpid()
        self.tracer = None
        self.tracer_var = None
        #: Sweeps narrower than this many decades are refinement windows.
        self.refinement_decades = 0.0

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack


STATE = _State()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- work counted at the wrapped calls ---------------------------------

def _ac_points(args, kwargs, result, registry) -> None:
    """solve_ac_stacked(G, C, rhs, frequencies): one system per frequency."""
    freqs = _arg(args, kwargs, 3, "frequencies")
    registry.counter(PREFIX + "count.ac_points").inc(len(freqs))


def _ac_batch_points(args, kwargs, result, registry) -> None:
    """solve_ac_stacked_batch(lin, rhs, frequencies): samples x freqs."""
    data = result[0]
    registry.counter(PREFIX + "count.ac_points").inc(
        int(data.shape[0]) * len(_arg(args, kwargs, 2, "frequencies")))


def _dc_points(args, kwargs, result, registry) -> None:
    """dc_sweep(circuit, sweep, values): one operating point per value."""
    registry.counter(PREFIX + "count.dc_sweep_points").inc(
        len(_arg(args, kwargs, 2, "values")))


def _dc_batch_points(args, kwargs, result, registry) -> None:
    """dc_sweep_batch(batch, sweep, values): samples x values."""
    registry.counter(PREFIX + "count.dc_sweep_points").inc(
        int(args[0].n_samples) * len(_arg(args, kwargs, 2, "values")))


def _impedance_call(args, kwargs, result, registry) -> None:
    """One impedance sweep (self, nodes, frequencies); a narrow one is a
    refinement window around a coarse peak."""
    freqs = _arg(args, kwargs, 2, "frequencies")
    registry.counter(PREFIX + "count.impedance_calls").inc()
    low, high = min(freqs), max(freqs)
    if low > 0 and math.log10(high / low) < STATE.refinement_decades:
        registry.counter(PREFIX + "count.refinement_windows").inc()


def _engine_run(args, kwargs, result, registry) -> None:
    """Dispatch counts and pool timing from the run's EngineReport."""
    report = args[0].last_report
    registry.counter(PREFIX + "count.fastpath_requests").inc(
        report.fastpath_requests)
    registry.counter(PREFIX + "count.pool_requests").inc(
        report.pool_requests)
    if report.chunk_seconds:
        # Chunks run side by side on the workers: the run waited on the
        # pool for its wall time minus its longest chunk.
        registry.histogram(PREFIX + "pool.chunk").observe(
            sum(report.chunk_seconds))
        registry.histogram(PREFIX + "pool.wait").observe(
            max(0.0, report.elapsed_seconds - max(report.chunk_seconds)))


def _cache_get(args, kwargs, result, registry) -> None:
    """ResultCache.get: a lookup, and a hit when it returned a payload."""
    registry.counter(PREFIX + "count.cache_lookups").inc()
    if result is not None:
        registry.counter(PREFIX + "count.cache_hits").inc()


_AFTER = {
    "repro.analysis.ac.solve_ac_stacked": _ac_points,
    "repro.analysis.ac.solve_ac_stacked_batch": _ac_batch_points,
    "repro.analysis.dcsweep.dc_sweep": _dc_points,
    "repro.analysis.dcsweep.dc_sweep_batch": _dc_batch_points,
    "repro.core.impedance.ImpedanceSweeper.impedance_waveforms":
        _impedance_call,
    "repro.core.impedance.BatchImpedanceSweeper.impedance_cube":
        _impedance_call,
    "repro.service.engine.BatchEngine.run": _engine_run,
    "repro.service.cache.ResultCache.get": _cache_get,
}


def _timed(layer: str, key: str, fn, registry):
    layer_hist = registry.histogram(PREFIX + "layer." + layer)
    worker_hist = registry.histogram(PREFIX + "worker." + layer)
    after = _AFTER.get(key)
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not STATE.enabled:
            return fn(*args, **kwargs)
        stack = STATE.stack()
        frame = [0.0]
        stack.append(frame)
        started = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            hist = layer_hist if os.getpid() == STATE.main_pid \
                else worker_hist
            hist.observe(elapsed - frame[0])
        if after is not None:
            after(args, kwargs, result, registry)
        return result

    return wrapper


def install() -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` and capture the
    program's spans (idempotent)."""
    if STATE.tracer is not None:
        return
    for module_name in ("repro.service", "repro.service.gateway",
                        "repro.service.__main__", "repro.core",
                        "repro.analysis", "repro.circuits"):
        importlib.import_module(module_name)
    from repro.analysis.sweeps import FrequencySweep
    from repro.obs.metrics import global_registry

    STATE.refinement_decades = 0.5 * math.log10(
        FrequencySweep.DEFAULT_STOP / FrequencySweep.DEFAULT_START)
    registry = global_registry()
    loaded = [module for name, module in list(sys.modules.items())
              if name.startswith("repro") and module is not None]
    for layer, points in ENTRY_POINTS.items():
        for module_name, attribute in points:
            owner = sys.modules[module_name]
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            wrapper = _timed(layer, f"{module_name}.{attribute}", original,
                             registry)
            setattr(owner, name, wrapper)
            if not path:
                # ``from module import name`` callers hold their own
                # reference: patch it where they look it up.
                for module in loaded:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, wrapper)
    # The gateway encodes every HTTP body with its module's ``json``, on
    # the handler thread: part of serialisation, and of the HTTP layer.
    gateway = sys.modules["repro.service.gateway"]
    gateway.json = types.SimpleNamespace(
        dumps=_timed("gateway.encode", "json.dumps", json.dumps, registry),
        loads=json.loads)
    _install_tracer(registry)


def _install_tracer(registry) -> None:
    """Make an aggregating program tracer the default in every thread.

    The program scopes its tracer to a context variable, which new
    threads (gateway handlers, job dispatchers) do not inherit; a
    context variable whose *default* is the tracer covers them all.
    """
    from contextvars import ContextVar

    from repro.obs import trace

    class AggregatingTracer(trace.Tracer):
        """Folds each finished span into registry histograms instead of
        a bounded ring: nothing is dropped, and pool workers ship the
        figures home with their metric deltas."""

        def _record(self, span) -> None:
            registry.histogram(PREFIX + "span." + span.name).observe(
                span.duration)

    STATE.tracer = AggregatingTracer(capacity=1)
    STATE.tracer_var = ContextVar("repro_obs_tracer", default=STATE.tracer)
    trace._TRACER = STATE.tracer_var


def set_enabled(enabled: bool) -> None:
    """Switch layer timing and span capture on or off in this process."""
    STATE.enabled = enabled
    if STATE.tracer_var is not None:
        STATE.tracer_var.set(STATE.tracer if enabled else None)


# ----------------------------------------------------------------------
# Reduction of registry snapshot deltas into the per-layer metrics
# ----------------------------------------------------------------------

#: Layers reported as self time per operation (compiles are whole-run
#: totals, see :func:`layer_metrics`).
TIMED_LAYERS = tuple(layer for layer in ENTRY_POINTS
                     if layer != "analysis.compile")


def _hist(snapshot: dict, name: str, field: str) -> float:
    data = snapshot.get("histograms", {}).get(PREFIX + name)
    return float(data[field]) if data else 0.0


def _count(snapshot: dict, name: str) -> int:
    return int(snapshot.get("counters", {}).get(name, 0))


def layer_seconds(delta: dict, layer: str, workers: bool = True) -> float:
    """Self time of ``layer`` in the delta (pool workers included)."""
    total = _hist(delta, "layer." + layer, "sum")
    if workers:
        total += _hist(delta, "worker." + layer, "sum")
    return total


def span_table(delta: dict) -> dict:
    """``{span: (count, total seconds)}`` of the captured program spans."""
    out = {}
    for name, data in sorted(delta.get("histograms", {}).items()):
        if name.startswith(PREFIX + "span.") and data["count"]:
            out[name[len(PREFIX + "span."):]] = (int(data["count"]),
                                                 float(data["sum"]))
    return out


def layer_metrics(delta: dict, run_delta: dict, operations: int) -> dict:
    """Per-layer metrics of one traced run.

    ``delta`` covers the timed phase and ``run_delta`` set-up plus the
    timed phase.  Times are milliseconds of self time per timed
    operation and counts are per operation, except the compile figures,
    which are totals over the whole run because compiles belong to
    set-up.
    """
    ops = max(1, operations)
    out = {f"{layer}_ms": 1e3 * layer_seconds(delta, layer) / ops
           for layer in TIMED_LAYERS}
    out["service.serialize_ms"] += 1e3 * layer_seconds(
        delta, "gateway.encode") / ops
    out["analysis.compile_ms"] = 1e3 * layer_seconds(run_delta,
                                                     "analysis.compile")
    out["analysis.compiles"] = int(
        _hist(run_delta, "layer.analysis.compile", "count")
        + _hist(run_delta, "worker.analysis.compile", "count"))
    per_op = {
        "analysis.newton_iterations": "newton.iterations",
        "analysis.newton_batch_iterations": "newton.batch_iterations",
        "analysis.newton_batch_demotions": "newton.batch_demotions",
        "analysis.ac_points": PREFIX + "count.ac_points",
        "analysis.dc_sweep_points": PREFIX + "count.dc_sweep_points",
        "core.impedance_calls": PREFIX + "count.impedance_calls",
        "core.refinement_windows": PREFIX + "count.refinement_windows",
        "service.fastpath_requests": PREFIX + "count.fastpath_requests",
        "service.pool_requests": PREFIX + "count.pool_requests",
    }
    for metric, counter in per_op.items():
        out[metric] = _count(delta, counter) / ops
    for name in ("factorizations", "solves", "batched_systems"):
        out[f"linalg.{name}"] = sum(
            _count(delta, f"linalg.{backend}.{name}")
            for backend in ("dense", "sparse")) / ops
    lookups = _count(delta, PREFIX + "count.cache_lookups")
    out["service.cache_hit_ratio"] = (
        _count(delta, PREFIX + "count.cache_hits") / lookups
        if lookups else 0.0)
    out["service.pool_chunk_ms"] = 1e3 * _hist(delta, "pool.chunk",
                                               "sum") / ops
    out["service.pool_wait_ms"] = 1e3 * _hist(delta, "pool.wait",
                                              "sum") / ops
    return out
