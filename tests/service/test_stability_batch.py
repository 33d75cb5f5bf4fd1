"""The BatchEngine's batched stability-screening pipeline.

Same-structure groups of ``all-nodes``/``single-node`` requests must run
through the sample-axis screening kernel — one restamp, one batched DC
solve, one per-sample linearization, one stacked impedance-cube solve and
one vectorized peak-extraction pass — and produce responses equivalent to
the scalar per-request path: same fingerprints (so same cache keys), same
stability verdicts, same per-sample failure diagnostics.  The suite
covers the in-process fast path (serial engine), the shared-memory pool
transport (persistent process engine, sparse groups), poisoned-sample
demotion, and the ``engine.stability_batch.*`` telemetry counters.
"""

import numpy as np
import pytest

from repro import circuits
from repro.circuit.builder import CircuitBuilder
from repro.service import AnalysisRequest, BatchEngine
from repro.service.cache import ResultCache
from repro.service.engine import execute_linear_batch, execute_request

#: Linear groups share exact small-signal planes with the scalar path.
TOL = 1e-9
#: Nonlinear groups linearize at the batched Newton solution; the ~1e-9
#: solution agreement is amplified by ~1/Vt through exponential device
#: conductances, so derived stability quantities agree to ~1e-7.
NONLINEAR_TOL = 1e-7

STABILITY_FIELDS = ("performance_index", "natural_frequency_hz",
                    "damping_ratio", "phase_margin_deg",
                    "overshoot_percent", "peak_type")


def _variable_divider():
    builder = CircuitBuilder("variable divider")
    builder.voltage_source("in", "0", dc=1.0, ac=1.0, name="Vin")
    builder.resistor("in", "out", "rtop", name="R1")
    builder.resistor("out", "0", 1e3, name="R2")
    builder.capacitor("out", "0", 1e-12, name="C1")
    builder.variable("rtop", 1e3)
    return builder.build()


def assert_field_close(scalar, batched, context, tol):
    if scalar is None or isinstance(scalar, str):
        assert scalar == batched, (context, scalar, batched)
    else:
        scale = max(abs(scalar), 1.0)
        assert abs(scalar - batched) <= tol * scale, (context, scalar, batched)


def assert_stability_responses_equivalent(scalar, batched, tol=TOL):
    """Response-level equivalence of one scalar/batched request pair."""
    assert batched.status == scalar.status, (batched.error, batched.traceback)
    assert batched.fingerprint == scalar.fingerprint
    if not scalar.ok:
        assert batched.error == scalar.error
        return
    s, b = scalar.result, batched.result
    if "results" in s:          # all-nodes payload
        s_by = {entry["node"]: entry for entry in s["results"]}
        b_by = {entry["node"]: entry for entry in b["results"]}
        assert set(s_by) == set(b_by)
        assert s["skipped_nodes"] == b["skipped_nodes"]
        assert sorted(s["failed_nodes"]) == sorted(b["failed_nodes"])
        for node, entry in s_by.items():
            for field in STABILITY_FIELDS:
                assert_field_close(entry[field], b_by[node][field],
                                   (node, field), tol)
            assert len(entry["peaks"]) == len(b_by[node]["peaks"])
    else:                       # single-node payload
        for field in STABILITY_FIELDS:
            assert_field_close(s[field], b[field], field, tol)
        assert len(s["peaks"]) == len(b["peaks"])
    assert bool(s.get("report") or scalar.report) == \
        bool(b.get("report") or batched.report)


@pytest.fixture()
def engine():
    return BatchEngine(backend="serial")


class TestAllNodesFastpath:
    def test_linear_group_batches_and_matches_scalar(self, engine):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    variables={"rtop": r}, label=f"s{k}")
                    for k, r in enumerate((1e3, 2e3, 4e3, 8e3))]
        responses = engine.run(requests)
        report = engine.last_report
        assert report.fastpath_requests == len(requests)
        assert report.counter("engine.stability_batch.groups") == 1
        assert report.counter("engine.stability_batch.samples") == 4
        assert report.counter("engine.stability_batch.demotions") == 0
        assert [r.label for r in responses] == ["s0", "s1", "s2", "s3"]
        for request, response in zip(requests, responses):
            assert_stability_responses_equivalent(
                execute_request(request), response)

    def test_nonlinear_group_batches_and_matches_scalar(self, engine):
        circuit = circuits.opamp_buffer().circuit
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    temperature=t)
                    for t in (27.0, 45.0, 65.0)]
        responses = engine.run(requests)
        report = engine.last_report
        assert report.fastpath_requests == len(requests)
        assert report.counter("engine.stability_batch.groups") == 1
        assert report.counter("engine.stability_batch.samples") == 3
        for request, response in zip(requests, responses):
            assert_stability_responses_equivalent(
                execute_request(request), response, tol=NONLINEAR_TOL)

    def test_monte_carlo_buffer_screen_matches_per_request(self):
        # The 64-sample screen that benchmarks/bench_stability_batch.py
        # times: input common mode and load scatter at one temperature,
        # so the batched Newton refill runs vectorized.  Both paths solve
        # under STABILITY_NEWTON and land on one fixpoint, so the
        # verdicts agree to the linear gate, not just NONLINEAR_TOL.
        # Dense, as the benchmark's auto backend resolves at this size
        # (the per-request sparse sweeps would take ~30 s here).
        import math

        circuit = circuits.opamp_buffer().circuit
        requests = [
            AnalysisRequest(mode="all-nodes", circuit=circuit,
                            variables={"vcm": 2.45 + 0.10 * k / 63,
                                       "cload": 1e-9 * (1.0 + 0.10
                                                        * math.cos(0.9 * k))},
                            backend="dense", label=f"s{k}")
            for k in range(64)]
        batched = execute_linear_batch(requests)
        assert batched is not None, "stability group fell off the fast path"
        for request, response in zip(requests, batched):
            assert response.status == "done", (response.error,
                                               response.traceback)
            assert_stability_responses_equivalent(
                execute_request(request), response, tol=TOL)

    def test_backends_group_separately_and_agree(self, engine):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    variables={"rtop": r}, backend=backend)
                    for backend in ("dense", "sparse") for r in (1e3, 3e3)]
        responses = engine.run(requests)
        report = engine.last_report
        assert report.fastpath_requests == len(requests)
        assert report.counter("engine.stability_batch.groups") == 2
        dense, sparse = responses[:2], responses[2:]
        for rd, rs in zip(dense, sparse):
            assert rd.ok and rs.ok
            sd = {e["node"]: e for e in rd.result["results"]}
            ss = {e["node"]: e for e in rs.result["results"]}
            for node in sd:
                assert_field_close(sd[node]["performance_index"],
                                   ss[node]["performance_index"],
                                   node, TOL)

    def test_different_sweeps_do_not_share_a_group(self, engine):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    sweep_start=10.0, sweep_stop=stop,
                                    sweep_points_per_decade=10,
                                    variables={"rtop": r})
                    for stop in (1e8, 1e9) for r in (1e3, 2e3)]
        engine.run(requests)
        assert engine.last_report.counter(
            "engine.stability_batch.groups") == 2


class TestSingleNodeFastpath:
    def test_group_batches_and_matches_scalar(self, engine):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="single-node", circuit=circuit,
                                    node="out", variables={"rtop": r})
                    for r in (1e3, 2e3, 4e3)]
        responses = engine.run(requests)
        report = engine.last_report
        assert report.fastpath_requests == len(requests)
        assert report.counter("engine.stability_batch.groups") == 1
        assert report.counter("engine.stability_batch.samples") == 3
        for request, response in zip(requests, responses):
            assert_stability_responses_equivalent(
                execute_request(request), response)

    def test_different_probe_nodes_split_groups(self, engine):
        """The probe node shapes the excitation, so it is part of the
        group key — same structure, different node, different batches."""
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="single-node", circuit=circuit,
                                    node=node, variables={"rtop": r})
                    for node in ("out", "in") for r in (1e3, 2e3)]
        responses = engine.run(requests)
        assert engine.last_report.counter(
            "engine.stability_batch.groups") == 2
        for request, response in zip(requests, responses):
            assert_stability_responses_equivalent(
                execute_request(request), response)


class TestPoisonedSamples:
    def test_bad_sample_demotes_alone_with_scalar_diagnostics(self, engine):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    variables={"rtop": r}, label=f"s{k}")
                    for k, r in enumerate((1e3, 0.0, 2e3))]
        responses = engine.run(requests)
        report = engine.last_report
        assert report.fastpath_requests == len(requests)
        assert report.counter("engine.stability_batch.demotions") == 1
        scalar_bad = execute_request(requests[1])
        assert responses[1].status == scalar_bad.status
        if not scalar_bad.ok:
            assert responses[1].error == scalar_bad.error
        for index in (0, 2):
            assert_stability_responses_equivalent(
                execute_request(requests[index]), responses[index])

    def test_all_samples_failing_still_come_back_individually(self, engine):
        """A group whose every sample fails DC demotes each one to the
        scalar path and reproduces the per-request diagnostics."""
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    variables={"rtop": 0.0}, label=f"s{k}")
                    for k in range(2)]
        responses = engine.run(requests)
        report = engine.last_report
        assert report.counter("engine.stability_batch.demotions") == \
            report.counter("engine.stability_batch.samples")
        for request, response in zip(requests, responses):
            scalar = execute_request(request)
            assert response.status == scalar.status
            if not scalar.ok:
                assert response.error == scalar.error


class TestPoolTransportParity:
    def test_shm_pool_path_matches_in_process(self):
        """Sparse linear stability groups ride the shared-memory pool
        transport under a persistent process engine; the responses must
        be byte-equivalent in fingerprint and stability verdicts to the
        in-process fast path."""
        circuit = _variable_divider()
        for mode, node in (("all-nodes", None), ("single-node", "out")):
            requests = [AnalysisRequest(mode=mode, circuit=circuit,
                                        node=node, backend="sparse",
                                        variables={"rtop": r})
                        for r in (1e3, 2e3, 4e3)]
            serial_engine = BatchEngine(backend="serial")
            reference = serial_engine.run(requests)
            assert serial_engine.last_report.fastpath_requests == \
                len(requests)
            with BatchEngine(backend="process", persistent=True,
                             max_workers=2) as pool_engine:
                pooled = pool_engine.run(requests)
                report = pool_engine.last_report
            # Sparse groups defer to the pool under a process engine.
            assert report.fastpath_requests == 0
            assert report.pool_requests == len(requests)
            assert report.counter("engine.stability_batch.groups") == 1
            assert report.counter("engine.stability_batch.samples") == \
                len(requests)
            for ref, pool in zip(reference, pooled):
                assert_stability_responses_equivalent(ref, pool)

    def test_pool_path_demotes_poisoned_samples(self):
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    backend="sparse", variables={"rtop": r})
                    for r in (1e3, 0.0, 4e3)]
        with BatchEngine(backend="process", persistent=True,
                         max_workers=2) as pool_engine:
            responses = pool_engine.run(requests)
            report = pool_engine.last_report
        assert report.counter("engine.stability_batch.demotions") >= 1
        scalar_bad = execute_request(requests[1])
        assert responses[1].status == scalar_bad.status
        for index in (0, 2):
            assert_stability_responses_equivalent(
                execute_request(requests[index]), responses[index])


class TestCacheAndFingerprintParity:
    def test_fastpath_fingerprints_hit_a_scalar_primed_cache(self):
        """The fast path produces the same fingerprints the scalar path
        would, so a cache primed by per-request execution serves batched
        runs (and vice versa)."""
        circuit = _variable_divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    variables={"rtop": r})
                    for r in (1e3, 2e3)]
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
