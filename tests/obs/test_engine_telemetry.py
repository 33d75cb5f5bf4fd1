"""End-to-end telemetry: worker deltas, engine reports, traces, the CLI.

These tests pin the acceptance contract of the observability subsystem:
pool workers ship metric deltas home (their solver counters used to die
with the chunk), the merged :class:`~repro.obs.report.EngineReport`
matches the sum of those deltas, and a traced Monte Carlo OP run
produces a Chrome trace whose spans nest service -> engine -> solve.
"""

import json

import pytest

from repro.analysis import NewtonOptions, operating_point
from repro.circuit import CircuitBuilder
from repro.circuit.elements import DiodeModel
from repro.exceptions import ConvergenceError
from repro.obs.metrics import (
    assert_snapshot_schema,
    empty_snapshot,
    global_registry,
    merge_snapshots,
    subtract_snapshots,
)
from repro.obs.report import REPORT_SCHEMA_VERSION, EngineReport
from repro.obs.trace import Tracer, use_tracer
from repro.service.cache import CacheStats, ResultCache
from repro.service.engine import (
    BatchEngine,
    execute_request,
    execute_request_chunk,
)
from repro.service.requests import AnalysisRequest, AnalysisResponse
from repro.service.scenarios import Distribution, ScenarioSpec
from repro.service.service import StabilityService

RLC_NETLIST = """tank standard
.param rval=1k
R1 tank 0 {rval}
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""


def _nonzero_factorizations(snapshot):
    return any(name.endswith(".factorizations") and value > 0
               for name, value in snapshot.get("counters", {}).items())


class TestChunkDeltas:
    def test_chunk_ships_its_metric_delta(self):
        # A pool worker ships home exactly this registry delta: what the
        # chunk added, chunk wall time included.
        requests = [AnalysisRequest(netlist=RLC_NETLIST, label="a"),
                    AnalysisRequest(netlist=RLC_NETLIST, temperature=85.0,
                                    label="b")]
        registry = global_registry()
        before = registry.snapshot()
        responses = execute_request_chunk(requests)
        delta = subtract_snapshots(registry.snapshot(), before)
        assert [r.ok for r in responses] == [True, True]
        assert_snapshot_schema(delta)
        assert delta["counters"]["engine.requests"] == 2
        assert _nonzero_factorizations(delta)
        chunk_hist = delta["histograms"]["engine.chunk_seconds"]
        assert chunk_hist["count"] == 1
        assert chunk_hist["sum"] > 0.0


class TestEngineReport:
    def test_worker_metrics_is_the_sum_of_deltas(self):
        # add_worker_delta must fold deltas exactly as merge_snapshots
        # does — that is the "merged counters match the sum of worker
        # deltas" contract the process pool relies on.
        d1 = empty_snapshot()
        d1["counters"] = {"engine.requests": 2,
                          "linalg.dense.factorizations": 5}
        d2 = empty_snapshot()
        d2["counters"] = {"engine.requests": 3,
                          "linalg.dense.factorizations": 7,
                          "cache.hits": 1}
        report = EngineReport()
        report.add_worker_delta(d1)
        report.add_worker_delta(d2)
        assert report.worker_metrics == merge_snapshots(d1, d2)
        assert report.worker_metrics["counters"]["engine.requests"] == 5
        assert (report.worker_metrics["counters"]
                ["linalg.dense.factorizations"]) == 12

    def test_json_round_trip(self):
        report = EngineReport(requests=4, fastpath_requests=2,
                              pool_requests=2, chunks=2,
                              elapsed_seconds=0.5, backend="process",
                              chunk_seconds=[0.1, 0.2])
        report.run_metrics["counters"]["engine.requests"] = 4
        data = json.loads(json.dumps(report.to_dict()))
        assert data["schema"] == REPORT_SCHEMA_VERSION
        back = EngineReport.from_dict(data)
        assert back == report

    def test_format_lists_counters(self):
        report = EngineReport(requests=3, backend="serial")
        report.run_metrics["counters"]["engine.requests"] = 3
        text = report.format()
        assert "engine report (serial backend" in text
        assert "engine.requests: 3" in text


class TestEngineRunTelemetry:
    def test_process_pool_preserves_worker_counters(self):
        # Regression: process-pool workers used to drop their solver
        # counters on the floor; the engine-level report must now see
        # nonzero factorizations from pool-executed requests.  dc-sweep
        # requests are used because they are the mode that still always
        # dispatches per-request to the pool — every batchable mode
        # (op/ac/all-nodes/single-node) now runs the in-process kernel.
        engine = BatchEngine(max_workers=2, backend="process")
        requests = [AnalysisRequest(netlist=RLC_NETLIST, mode="dc-sweep",
                                    node="tank", dc_variable="rval",
                                    dc_start=500.0, dc_stop=2000.0,
                                    dc_points=4,
                                    temperature=float(t), label=f"t{t}")
                    for t in (0, 27, 85)]
        responses = engine.run(requests)
        assert all(r.ok for r in responses)
        report = engine.last_report
        assert report is not None and report.backend == "process"
        assert report.requests == 3 and report.pool_requests == 3
        assert report.chunks >= 1
        # The workers' merged deltas carry the solver work...
        assert report.worker_metrics["counters"]["engine.requests"] == 3
        assert _nonzero_factorizations(report.worker_metrics)
        # ...and the run-total metrics include everything the workers
        # shipped home (the whole point of delta folding).
        assert report.counter("engine.requests") >= 3
        assert _nonzero_factorizations(report.run_metrics)
        for name, value in report.worker_metrics["counters"].items():
            assert report.run_metrics["counters"].get(name, 0) >= value
        assert report.chunk_seconds
        assert all(s > 0.0 for s in report.chunk_seconds)

    def test_pool_deltas_are_counted_once(self):
        # Every pool task ships exactly one registry delta and the parent
        # merges it once: the run totals equal what the workers did.
        # dc-sweep mode keeps the requests on the pickled-chunk path.
        requests = [AnalysisRequest(netlist=RLC_NETLIST, mode="dc-sweep",
                                    node="tank", dc_variable="rval",
                                    dc_start=500.0, dc_stop=2000.0,
                                    dc_points=4, temperature=float(t),
                                    label=f"t{t}")
                    for t in (0, 85)]
        registry = global_registry()
        with BatchEngine(max_workers=2, backend="process") as engine:
            before = registry.snapshot()
            responses = engine.run(requests)
            delta = subtract_snapshots(registry.snapshot(), before)
        assert all(r.ok for r in responses)
        report = engine.last_report
        assert report.worker_metrics["counters"]["engine.requests"] == 2
        assert report.counter("engine.requests") == 2
        assert delta["counters"]["engine.requests"] == 2
        chunk_hist = report.worker_metrics["histograms"]["engine.chunk_seconds"]
        assert chunk_hist["count"] == report.chunks == len(report.chunk_seconds)
        assert _nonzero_factorizations(report.worker_metrics)

    def test_serial_fastpath_report(self):
        engine = BatchEngine(backend="serial")
        requests = [AnalysisRequest(mode="op", netlist=RLC_NETLIST,
                                    variables={"rval": 500.0 * (k + 1)},
                                    label=f"s{k}") for k in range(4)]
        responses = engine.run(requests)
        assert all(r.ok for r in responses)
        report = engine.last_report
        assert report.fastpath_requests == 4
        assert report.pool_requests == 0 and report.chunks == 0
        assert report.counter("engine.runs") == 1
        assert report.counter("engine.fastpath_requests") == 4
        batch_solves = sum(
            value for name, value in
            report.run_metrics["counters"].items()
            if name.endswith(".batch_solves"))
        assert batch_solves >= 1

    def test_empty_run_still_reports(self):
        engine = BatchEngine(backend="serial")
        assert engine.run([]) == []
        assert engine.last_report.requests == 0


class TestResponseTelemetry:
    def test_no_tracer_no_telemetry(self):
        response = execute_request(AnalysisRequest(netlist=RLC_NETLIST))
        assert response.telemetry is None

    def test_traced_request_attaches_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            response = execute_request(
                AnalysisRequest(mode="op", netlist=RLC_NETLIST))
        assert response.ok
        telemetry = response.telemetry
        assert telemetry is not None and telemetry["spans"]
        names = [s["name"] for s in telemetry["spans"]]
        assert "request.execute" in names
        request_span = next(s for s in telemetry["spans"]
                            if s["name"] == "request.execute")
        assert request_span["attrs"]["status"] == "done"

    def test_telemetry_json_round_trip(self):
        tracer = Tracer()
        with use_tracer(tracer):
            response = execute_request(
                AnalysisRequest(mode="op", netlist=RLC_NETLIST))
        back = AnalysisResponse.from_dict(
            json.loads(json.dumps(response.to_dict())))
        assert back.telemetry == response.telemetry
        # Telemetry never enters the cacheable identity of a response.
        assert back.fingerprint == response.fingerprint


class TestServiceTrace:
    def _ancestor_names(self, spans, span):
        by_id = {s.span_id: s for s in spans}
        names = []
        current = span
        while current.parent_id is not None:
            current = by_id[current.parent_id]
            names.append(current.name)
        return names

    def test_screen_op_trace_nests_service_engine_solve(self):
        tracer = Tracer()
        service = StabilityService(cache=ResultCache(None),
                                   backend="serial")
        spec = ScenarioSpec(
            variables={"rval": Distribution.uniform(500.0, 2000.0)},
            samples=4, seed=7)
        base = AnalysisRequest(mode="op", netlist=RLC_NETLIST)
        with use_tracer(tracer):
            report = service.screen_op(spec, base=base, node="tank")
        assert report.spread.errors == 0
        spans = tracer.spans()
        solve = next(s for s in spans if s.name == "linalg.solve_batch")
        ancestors = self._ancestor_names(spans, solve)
        # The acceptance chain: solve nests under the engine which nests
        # under the service entry points.
        for name in ("engine.fastpath", "engine.run",
                     "service.submit_batch", "service.screen_op"):
            assert name in ancestors, (name, ancestors)
        # And the export carries the same nesting for chrome://tracing.
        chrome = tracer.to_chrome_trace()
        events = {e["args"]["span_id"]: e for e in chrome["traceEvents"]
                  if e["ph"] == "X"}
        child = events[solve.span_id]
        parent = events[child["args"]["parent_id"]]
        assert parent["name"] == "engine.fastpath"
        assert parent["ts"] <= child["ts"]

    def test_engine_report_payload(self):
        service = StabilityService(cache=ResultCache(None),
                                   backend="serial")
        service.submit_batch([
            AnalysisRequest(netlist=RLC_NETLIST, label="a"),
            AnalysisRequest(netlist=RLC_NETLIST, temperature=85.0,
                            label="b")])
        payload = service.engine_report()
        payload = json.loads(json.dumps(payload))    # JSON-able as a whole
        assert set(payload) == {"engine", "cache", "metrics"}
        assert payload["engine"]["requests"] == 2
        assert payload["cache"]["misses"] == 2
        assert_snapshot_schema(payload["metrics"])

    def test_engine_report_before_any_run(self):
        service = StabilityService(cache=ResultCache(None),
                                   backend="serial")
        payload = service.engine_report()
        assert payload["engine"] is None
        assert_snapshot_schema(payload["metrics"])


class TestNewtonTelemetry:
    def _stiff_circuit(self):
        builder = CircuitBuilder("hard")
        builder.voltage_source("vcc", "0", dc=5.0)
        builder.resistor("vcc", "a", 1e3)
        builder.diode("a", "0", DiodeModel(IS=1e-14))
        return builder.build()

    def test_convergence_error_carries_history(self):
        options = NewtonOptions(max_iterations=1, gmin_steps=1,
                                source_steps=1)
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(self._stiff_circuit(), options=options)
        history = excinfo.value.history
        assert history, "ConvergenceError.history must be diagnosable"
        for entry in history:
            assert {"iteration", "delta_norm",
                    "delta_converged"} <= set(entry)
        assert history[-1]["iteration"] == 1

    def test_traced_solve_records_newton_spans(self):
        tracer = Tracer()
        with use_tracer(tracer):
            op = operating_point(self._stiff_circuit())
        assert op.iterations > 0
        spans = {s.name: s for s in tracer.spans()}
        loop = spans["newton.loop"]
        assert loop.attrs["converged"] is True
        assert loop.attrs["iterations"] == op.iterations
        iteration_events = [e for e in loop.events
                            if e["name"] == "newton.iteration"]
        # The accepting iteration only re-checks the residual (no solve),
        # so it records no event of its own.
        assert len(iteration_events) == op.iterations - 1
        strategy = spans["newton.strategy"]
        assert strategy.attrs["strategy"] == "newton"


class TestCacheStatsSerialization:
    def test_as_dict_and_snapshot_share_values(self):
        stats = CacheStats()
        stats.inc("hits")
        stats.inc("misses", 2)
        stats.inc("stores", 2)
        data = stats.as_dict()
        snapshot = stats.snapshot()
        assert_snapshot_schema(snapshot)
        # One serialization path: as_dict is derived from the snapshot.
        for field in CacheStats.FIELDS:
            assert data[field] == snapshot["counters"][f"cache.{field}"]
        assert data["hit_rate"] == pytest.approx(1.0 / 3.0)

    def test_two_caches_do_not_share_counters(self):
        a, b = CacheStats(), CacheStats()
        a.inc("hits")
        assert a.hits == 1 and b.hits == 0
