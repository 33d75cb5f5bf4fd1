"""The BatchEngine's in-process batched fast path for request groups.

Same-structure groups of ``op``/``ac`` requests must run through the
sample-axis batch kernel (observable via ``SolveStats`` batch counters),
produce results identical to the scalar per-request path, and isolate
poisoned samples by falling back to scalar execution.  Linear groups
solve directly; nonlinear groups ride the masked batched Newton engine,
then — for the frequency-domain modes — linearize per sample and solve
the whole group in stacked AC sweeps.  Stability-screening groups
(``all-nodes``/``single-node``) are covered in
``test_stability_batch.py``.
"""

import numpy as np
import pytest

from repro import circuits
from repro.circuit.builder import CircuitBuilder
from repro.linalg import DenseBackend, SparseBackend, resolve_backend
from repro.service import (
    AnalysisRequest,
    BatchEngine,
    Distribution,
    ScenarioSpec,
    StabilityService,
    op_spread,
    scenario_requests,
)
from repro.service.cache import ResultCache
from repro.service.engine import execute_linear_batch, execute_request


def _variable_divider():
    builder = CircuitBuilder("variable divider")
    builder.voltage_source("in", "0", dc=1.0, ac=1.0, name="Vin")
    builder.resistor("in", "out", "rtop", name="R1")
    builder.resistor("out", "0", 1e3, name="R2")
    builder.capacitor("out", "0", 1e-12, name="C1")
    builder.variable("rtop", 1e3)
    return builder.build()


@pytest.fixture()
def engine():
    return BatchEngine(backend="serial")


@pytest.fixture()
def stats():
    """Counters of whichever backend the environment resolves to (the CI
    matrix runs this suite under REPRO_BACKEND=dense and =sparse).  Both
    kernels' counters reset: small nonlinear batches solve on the dense
    kernel whatever the resolved backend (the NewtonState policy)."""
    DenseBackend.stats.reset()
    SparseBackend.stats.reset()
    return type(resolve_backend(None)).stats


class TestBatchedOpGroups:
    def test_op_group_runs_batched_and_matches_scalar(self, engine, stats):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="op", circuit=circuit,
                                    variables={"rtop": r}, label=f"s{k}")
                    for k, r in enumerate((1e3, 2e3, 4e3, 8e3))]
        responses = engine.run(requests)
        assert stats.batch_solves == 1
        assert stats.batched_systems == len(requests)
        assert [r.label for r in responses] == ["s0", "s1", "s2", "s3"]
        for request, response in zip(requests, responses):
            assert response.ok
            scalar = execute_request(request)
            assert response.fingerprint == scalar.fingerprint
            assert np.allclose(response.op_result().x, scalar.op_result().x,
                               rtol=1e-12, atol=1e-15)

    def test_ac_group_runs_batched_and_matches_scalar(self, engine, stats):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="ac", circuit=circuit, node="out",
                                    variables={"rtop": r},
                                    sweep_start=1e3, sweep_stop=1e9,
                                    sweep_points_per_decade=3)
                    for r in (1e3, 3e3, 9e3)]
        responses = engine.run(requests)
        assert stats.batch_solves >= 1
        for request, response in zip(requests, responses):
            assert response.ok
            scalar = execute_request(request)
            assert np.allclose(response.ac_result().data,
                               scalar.ac_result().data,
                               rtol=1e-9, atol=1e-15)
            # The embedded operating point survives the JSON round-trip.
            assert np.allclose(response.ac_result().op.x,
                               scalar.ac_result().op.x, rtol=1e-12)

    def test_poisoned_sample_falls_back_to_scalar(self, engine, stats):
        """One zero-resistance sample fails alone with the scalar path's
        diagnostics; its batchmates still come back batched."""
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="op", circuit=circuit,
                                    variables={"rtop": r}, label=f"s{k}")
                    for k, r in enumerate((1e3, 0.0, 2e3, 4e3))]
        responses = engine.run(requests)
        assert stats.batch_solves == 1                # the batch still ran
        assert not responses[1].ok
        assert "zero resistance" in responses[1].error
        assert responses[1].traceback                 # scalar-path details
        for index in (0, 2, 3):
            assert responses[index].ok
            scalar = execute_request(requests[index])
            assert np.allclose(responses[index].op_result().x,
                               scalar.op_result().x, rtol=1e-12)

    def test_nonlinear_op_groups_ride_the_batch_fastpath(self, engine, stats):
        """Nonlinear same-structure op groups batch in-process now (they
        used to fall back to pool chunks) and match the scalar path."""
        circuit = circuits.opamp_with_bias().circuit
        requests = [AnalysisRequest(mode="op", circuit=circuit,
                                    variables={"vcm": v}, label=f"s{k}")
                    for k, v in enumerate((2.45, 2.50, 2.55))]
        responses = engine.run(requests)
        assert engine.last_report.fastpath_requests == len(requests)
        # The op-amp is far below the auto-sparse threshold, so the
        # batched Newton steps solve on the dense kernel on both
        # resolved backends (the scalar NewtonState policy).
        assert DenseBackend.stats.batch_solves >= 1
        assert engine.last_report.counter("newton.batch_iterations") > 0
        for request, response in zip(requests, responses):
            assert response.ok
            scalar = execute_request(request)
            assert response.fingerprint == scalar.fingerprint
            batched_op = response.op_result()
            scalar_op = scalar.op_result()
            xb = np.asarray(batched_op.x)
            xs = np.asarray(scalar_op.x)
            scale = max(float(np.max(np.abs(xs))), 1.0)
            assert float(np.max(np.abs(xb - xs))) <= 1e-9 * scale
            # Result payload parity with the pool path: the per-device
            # diagnostics block is attached on the fast path too.
            assert set(batched_op.device_info) == set(scalar_op.device_info)

    def test_nonlinear_fastpath_matches_pool_path_counters_and_cache(self):
        """The fast path produces the same fingerprints (so cache keys),
        the same statuses, and the same merged EngineReport totals the
        pool path would record for the group."""
        circuit = circuits.opamp_with_bias().circuit
        requests = [AnalysisRequest(mode="op", circuit=circuit,
                                    variables={"vcm": v})
                    for v in (2.48, 2.52)]
        # Reference: the per-request (pool-chunk) path, primed into a
        # cache keyed exactly as the service would key it.
        cache = ResultCache(None)
        scalar = [execute_request(request) for request in requests]
        for response in scalar:
            cache.put(response.fingerprint, response.to_dict())
        batched = execute_linear_batch(requests)
        assert batched is not None
        for response, reference in zip(batched, scalar):
            assert response.status == reference.status == "done"
            assert response.fingerprint == reference.fingerprint
            assert cache.contains(response.fingerprint)
        # Engine-report parity: both dispatch styles account the same
        # number of engine requests for this workload.
        fast_engine = BatchEngine(backend="serial")
        fast_engine.run(requests)
        lone = [AnalysisRequest(mode="op", circuit=circuit,
                                variables={"vcm": 2.48})]
        with BatchEngine(backend="process", max_workers=2) as pool_engine:
            pool_engine.run(lone)   # single request -> per-request path
        assert fast_engine.last_report.fastpath_requests == len(requests)
        assert pool_engine.last_report.fastpath_requests == 0
        assert pool_engine.last_report.counter("engine.requests") == 1

    def test_mixed_linear_and_nonlinear_batches_split_correctly(
            self, engine, stats):
        """Interleaved linear and nonlinear requests group by structure:
        each group batches on its own kernel, order is preserved."""
        linear = _variable_divider()
        nonlinear = circuits.opamp_with_bias().circuit
        requests = []
        for k in range(3):
            requests.append(AnalysisRequest(mode="op", circuit=linear,
                                            variables={"rtop": 1e3 * (k + 1)},
                                            label=f"lin{k}"))
            requests.append(AnalysisRequest(mode="op", circuit=nonlinear,
                                            variables={"vcm": 2.5 + 0.02 * k},
                                            label=f"nl{k}"))
        responses = engine.run(requests)
        assert engine.last_report.fastpath_requests == len(requests)
        # One batched solve per structure group; the nonlinear group's
        # Newton steps land on the dense kernel under either backend.
        assert stats.batch_solves + DenseBackend.stats.batch_solves >= 2
        assert [r.label for r in responses] == [r.label for r in requests]
        for request, response in zip(requests, responses):
            assert response.ok
            scalar = execute_request(request)
            xb = np.asarray(response.op_result().x)
            xs = np.asarray(scalar.op_result().x)
            scale = max(float(np.max(np.abs(xs))), 1.0)
            assert float(np.max(np.abs(xb - xs))) <= 1e-9 * scale

    def test_nonlinear_ac_groups_ride_the_batch_fastpath(self, engine, stats):
        """Nonlinear same-structure ac groups batch in-process now (they
        used to fall off the fast path entirely): one batched Newton
        solve, per-sample linearization, one stacked AC sweep — and the
        responses match the scalar per-request path."""
        circuit = circuits.opamp_with_bias().circuit
        requests = [AnalysisRequest(mode="ac", circuit=circuit, node="output",
                                    variables={"vcm": v},
                                    sweep_start=1e3, sweep_stop=1e6,
                                    sweep_points_per_decade=2)
                    for v in (2.48, 2.52)]
        assert execute_linear_batch(requests) is not None
        responses = engine.run(requests)
        assert engine.last_report.fastpath_requests == len(requests)
        for request, response in zip(requests, responses):
            assert response.ok
            scalar = execute_request(request)
            assert response.fingerprint == scalar.fingerprint
            db = response.ac_result().data
            ds = scalar.ac_result().data
            scale = max(float(np.max(np.abs(ds))), 1.0)
            # The batched and scalar Newton solutions agree to ~1e-9;
            # exponential device conductances amplify that by ~1/Vt when
            # linearizing, so the AC responses agree to ~1e-7.
            assert float(np.max(np.abs(db - ds))) <= 1e-6 * scale

    def test_single_requests_and_dc_sweeps_stay_scalar(self, engine, stats):
        circuit = _variable_divider()
        lone = engine.run([AnalysisRequest(mode="op", circuit=circuit)])
        assert lone[0].ok and stats.batch_solves == 0
        mixed = engine.run([
            AnalysisRequest(mode="dc-sweep", circuit=circuit, node="out",
                            dc_variable="rtop", dc_start=1e3, dc_stop=2e3,
                            dc_points=3),
            AnalysisRequest(mode="dc-sweep", circuit=circuit, node="out",
                            dc_variable="rtop", dc_start=1e3, dc_stop=2e3,
                            dc_points=5),
        ])
        assert all(r.ok for r in mixed)
        assert stats.batch_solves == 0
        assert engine.last_report.fastpath_requests == 0

    def test_backend_split_groups_separately(self, engine):
        """Requests pinning different solver backends never share a batch
        (the fingerprint treats them as different numerical paths)."""
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="op", circuit=circuit,
                                    variables={"rtop": r}, backend=backend)
                    for r in (1e3, 2e3) for backend in ("dense", "sparse")]
        responses = engine.run(requests)
        assert all(r.ok for r in responses)
        values = [r.op_result().voltage("out") for r in responses]
        assert values[0] == pytest.approx(values[1], rel=1e-9)


class TestOpScreening:
    def test_screen_op_spread_and_cache(self):
        circuit = _variable_divider()
        spec = ScenarioSpec(
            variables={"rtop": Distribution.uniform(1e3, 4e3)},
            samples=8, seed=11)
        service = StabilityService(cache=ResultCache(None),
                                   engine=BatchEngine(backend="serial"))
        base = AnalysisRequest(mode="op", circuit=circuit)
        report = service.screen_op(spec, base=base, node="out")
        assert report.spread.errors == 0
        assert report.spread.analysed == 8
        stats = report.spread.stats()
        assert 0.0 < stats["min"] <= stats["max"] < 1.0
        again = service.screen_op(spec, base=base, node="out")
        assert again.cached_count == 8

    def test_screen_op_rejects_unknown_node_before_running_the_batch(self):
        from repro.exceptions import ToolError

        service = StabilityService(cache=ResultCache(None),
                                   engine=BatchEngine(backend="serial"))
        spec = ScenarioSpec(samples=4, seed=1)
        base = AnalysisRequest(mode="op", circuit=_variable_divider())
        with pytest.raises(ToolError, match="unknown node 'typo'"):
            service.screen_op(spec, base=base, node="typo")

    def test_op_spread_reducer_flags_wrong_modes(self):
        circuit = _variable_divider()
        spec = ScenarioSpec(samples=2, seed=1)
        scenarios, requests = scenario_requests(
            spec, base=AnalysisRequest(mode="op", circuit=circuit))
        responses = BatchEngine(backend="serial").run(requests)
        spread = op_spread(scenarios, responses, "out")
        assert spread.errors == 0
        with pytest.raises(Exception, match="counts differ"):
            op_spread(scenarios[:1], responses, "out")
