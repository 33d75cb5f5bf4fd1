"""Tests for the request/response schema and the batch engine."""

import json

import pytest

from repro.circuits import parallel_rlc
from repro.exceptions import ToolError
from repro.service.engine import BatchEngine, execute_request
from repro.service.requests import AnalysisRequest, AnalysisResponse, expand_corners
from repro.tool.corners import Corner

RLC_NETLIST = """tank standard
.param rval=1k
R1 tank 0 {rval}
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""

BROKEN_NETLIST = """broken
R1 a 0 {undefined_variable}
C1 a 0 1n
I1 0 a DC 1u
.end
"""


class TestAnalysisRequest:
    def test_requires_circuit_or_netlist(self):
        with pytest.raises(ToolError):
            AnalysisRequest(mode="all-nodes")

    def test_single_node_requires_node(self):
        with pytest.raises(ToolError):
            AnalysisRequest(mode="single-node", netlist=RLC_NETLIST)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ToolError):
            AnalysisRequest(mode="sideways", netlist=RLC_NETLIST)

    def test_json_round_trip(self):
        request = AnalysisRequest(mode="single-node", netlist=RLC_NETLIST,
                                  node="tank", temperature=85.0,
                                  variables={"rval": 2e3}, label="x")
        back = AnalysisRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert back.mode == "single-node" and back.node == "tank"
        assert back.temperature == 85.0 and back.variables == {"rval": 2e3}
        assert back.fingerprint() == request.fingerprint()

    def test_circuit_backed_request_has_no_json_form(self):
        request = AnalysisRequest(circuit=parallel_rlc().circuit)
        with pytest.raises(ToolError):
            request.to_dict()

    def test_unknown_solver_backend_rejected(self):
        with pytest.raises(ToolError):
            AnalysisRequest(netlist=RLC_NETLIST, backend="cuda")

    def test_solver_backend_enters_fingerprint(self, monkeypatch):
        from repro.linalg import BACKEND_ENV_VAR

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        auto = AnalysisRequest(netlist=RLC_NETLIST)
        dense = AnalysisRequest(netlist=RLC_NETLIST, backend="dense")
        sparse = AnalysisRequest(netlist=RLC_NETLIST, backend="sparse")
        assert len({auto.fingerprint(), dense.fingerprint(),
                    sparse.fingerprint()}) == 3
        back = AnalysisRequest.from_dict(sparse.to_dict())
        assert back.backend == "sparse"
        assert back.fingerprint() == sparse.fingerprint()

    def test_env_backend_override_enters_fingerprint(self, monkeypatch):
        """REPRO_BACKEND redirects every 'auto' resolution, so two workers
        with different env settings must never share a cache entry."""
        from repro.linalg import BACKEND_ENV_VAR

        request = AnalysisRequest(netlist=RLC_NETLIST)
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        key_auto = request.fingerprint()
        monkeypatch.setenv(BACKEND_ENV_VAR, "sparse")
        key_sparse_env = request.fingerprint()
        monkeypatch.setenv(BACKEND_ENV_VAR, "dense")
        key_dense_env = request.fingerprint()
        assert len({key_auto, key_sparse_env, key_dense_env}) == 3
        # The env matches what an explicit request would compute.
        assert key_dense_env == AnalysisRequest(
            netlist=RLC_NETLIST, backend="dense").fingerprint()
        # An explicit backend is immune to the env override.
        monkeypatch.setenv(BACKEND_ENV_VAR, "sparse")
        assert AnalysisRequest(netlist=RLC_NETLIST,
                               backend="dense").fingerprint() == key_dense_env

    def test_fingerprint_is_content_addressed(self):
        a = AnalysisRequest(netlist=RLC_NETLIST)
        b = AnalysisRequest(netlist=RLC_NETLIST, label="different label")
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_conditions(self):
        base = AnalysisRequest(netlist=RLC_NETLIST)
        assert (base.fingerprint()
                != AnalysisRequest(netlist=RLC_NETLIST,
                                   temperature=85.0).fingerprint())
        assert (base.fingerprint()
                != AnalysisRequest(netlist=RLC_NETLIST,
                                   variables={"rval": 5e3}).fingerprint())
        assert (base.fingerprint()
                != AnalysisRequest(netlist=RLC_NETLIST,
                                   sweep_points_per_decade=10).fingerprint())
        assert (base.fingerprint()
                != AnalysisRequest(netlist=RLC_NETLIST, mode="single-node",
                                   node="tank").fingerprint())
        assert (base.fingerprint()
                != AnalysisRequest(netlist=RLC_NETLIST,
                                   gmin=1e-10).fingerprint())

    def test_fingerprint_resolves_node_aliases(self):
        design = parallel_rlc()
        aliased = design.circuit.copy()
        aliased.add_alias("ring", "tank")
        direct = AnalysisRequest(mode="single-node", circuit=design.circuit,
                                 node="tank")
        via_alias = AnalysisRequest(mode="single-node", circuit=aliased,
                                    node="ring")
        assert direct.fingerprint() == via_alias.fingerprint()


class TestExecuteRequest:
    def test_all_nodes_success(self):
        response = execute_request(AnalysisRequest(netlist=RLC_NETLIST))
        assert response.ok and response.mode == "all-nodes"
        assert "tank" in response.report
        result = response.all_nodes_result()
        assert result.loops and result.loops[0].damping_ratio == pytest.approx(0.5, rel=0.05)

    def test_single_node_success(self):
        response = execute_request(AnalysisRequest(
            mode="single-node", netlist=RLC_NETLIST, node="tank"))
        assert response.ok
        assert response.node_result().node == "tank"

    def test_failure_is_a_response_not_an_exception(self):
        response = execute_request(AnalysisRequest(netlist=BROKEN_NETLIST))
        assert not response.ok
        assert "undefined_variable" in response.error
        assert response.traceback and "Traceback" in response.traceback

    def test_overflowing_capacitor_fails_with_strict_json(self):
        # The compensation capacitor at 1e308 F overflows the small-signal
        # matrices: a failed response with no result, never a verdict.
        from repro.circuits import opamp_buffer_netlist

        netlist = opamp_buffer_netlist()
        assert "C1 zx first {c1}" in netlist
        response = execute_request(AnalysisRequest(
            mode="all-nodes",
            netlist=netlist.replace("C1 zx first {c1}", "C1 zx first 1e308")))
        assert response.status == "failed"
        assert response.result is None and response.error
        json.dumps(response.to_dict(), allow_nan=False)

    def test_variable_override_changes_result(self):
        nominal = execute_request(AnalysisRequest(netlist=RLC_NETLIST))
        damped = execute_request(AnalysisRequest(netlist=RLC_NETLIST,
                                                 variables={"rval": 100.0}))
        zeta_nominal = nominal.all_nodes_result().loops[0].damping_ratio
        # rval=100 gives zeta=5: overdamped, no complex-pole loop reported.
        assert not damped.all_nodes_result().loops or \
            damped.all_nodes_result().loops[0].damping_ratio > zeta_nominal

    def test_response_json_round_trip(self):
        response = execute_request(AnalysisRequest(netlist=RLC_NETLIST))
        back = AnalysisResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert back.ok and back.fingerprint == response.fingerprint
        assert back.report == response.report
        assert (back.all_nodes_result().loops[0].performance_index
                == pytest.approx(response.all_nodes_result().loops[0].performance_index))

    def test_convergence_history_round_trips_through_the_response(self):
        """A non-convergence keeps its structured diagnostics — the
        per-iteration ``history`` trail — through the JSON form of the
        response, not just the flattened error text."""
        from tests.analysis.test_newton_batch import _TogglingElement
        from repro.circuit.elements import Resistor, VoltageSource
        from repro.circuit.netlist import Circuit
        from repro.exceptions import ConvergenceError

        circuit = Circuit("never converges")
        circuit.add(VoltageSource("V1", "in", "0", dc=5.0))
        circuit.add(Resistor("R1", "in", "a", 1e3))
        circuit.add(_TogglingElement("NL1", "a"))
        circuit.variables["poison"] = 1.0
        response = execute_request(AnalysisRequest(mode="op", circuit=circuit))
        assert not response.ok
        assert response.error_details["type"] == "ConvergenceError"
        back = AnalysisResponse.from_dict(
            json.loads(json.dumps(response.to_dict())))
        error = back.convergence_error()
        assert isinstance(error, ConvergenceError)
        assert isinstance(error.history, list) and error.history
        assert {"iteration", "delta_norm", "delta_converged"} <= \
            set(error.history[0])
        # Successful responses carry no details and no rebuilt error.
        healthy = execute_request(AnalysisRequest(netlist=RLC_NETLIST))
        assert healthy.error_details is None
        assert healthy.convergence_error() is None


class TestBatchEngine:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ToolError):
            BatchEngine(backend="quantum")
        with pytest.raises(ToolError):
            BatchEngine(max_workers=0)

    def test_empty_batch(self):
        assert BatchEngine(backend="serial").run([]) == []

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_order_and_isolation(self, backend):
        requests = [
            AnalysisRequest(netlist=RLC_NETLIST, label="good-1"),
            AnalysisRequest(netlist=BROKEN_NETLIST, label="bad"),
            AnalysisRequest(netlist=RLC_NETLIST, label="good-2",
                            temperature=85.0),
        ]
        with BatchEngine(max_workers=2, backend=backend) as engine:
            responses = engine.run(requests)
        assert [r.label for r in responses] == ["good-1", "bad", "good-2"]
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].traceback is not None

    def test_progress_callback(self):
        engine = BatchEngine(backend="serial")
        seen = []
        engine.run([AnalysisRequest(netlist=RLC_NETLIST),
                    AnalysisRequest(netlist=RLC_NETLIST, temperature=0.0)],
                   progress=lambda done, total, r: seen.append((done, total, r.ok)))
        assert seen == [(1, 2, True), (2, 2, True)]

    def test_process_pool_runs_circuit_backed_requests(self):
        # Circuit objects must pickle onto the pool workers.
        engine = BatchEngine(max_workers=2, backend="process")
        design = parallel_rlc()
        responses = engine.run([
            AnalysisRequest(circuit=design.circuit, label="a"),
            AnalysisRequest(circuit=design.circuit, temperature=100.0, label="b"),
        ])
        assert [r.ok for r in responses] == [True, True]
        assert responses[0].all_nodes_result().loops


class TestStructureGrouping:
    def test_structure_fingerprint_ignores_conditions(self):
        base = AnalysisRequest(netlist=RLC_NETLIST)
        hot = AnalysisRequest(netlist=RLC_NETLIST, temperature=125.0,
                              variables={"rval": 2e3})
        assert base.structure_fingerprint() == hot.structure_fingerprint()
        assert base.fingerprint() != hot.fingerprint()

    def test_structure_fingerprint_tracks_topology(self):
        a = AnalysisRequest(netlist=RLC_NETLIST)
        b = AnalysisRequest(netlist=RLC_NETLIST.replace("1n", "2n"))
        assert a.structure_fingerprint() != b.structure_fingerprint()

    def test_scenario_requests_share_one_circuit_object(self):
        from repro.service.scenarios import Distribution, ScenarioSpec, scenario_requests

        spec = ScenarioSpec(variables={"rval": Distribution.uniform(500, 2000)},
                            samples=5)
        _, requests = scenario_requests(spec, netlist=RLC_NETLIST)
        assert len({id(r.circuit) for r in requests}) == 1
        assert len({r.structure_fingerprint() for r in requests}) == 1
        # JSON round-trips still work: the netlist rides along.
        assert requests[0].to_dict()["netlist"] == RLC_NETLIST

    def test_chunking_groups_by_structure_and_splits_for_workers(self, monkeypatch):
        import dataclasses

        import repro.service.engine as engine_module

        real_chunk = engine_module.execute_request_chunk

        def tagging_chunk(chunk):
            # Each response comes home tagged with its chunk's labels.
            members = "+".join(request.label for request in chunk)
            return [dataclasses.replace(response, label=f"{response.label}@{members}")
                    for response in real_chunk(chunk)]

        # One task per worker per group; patched before the pool starts,
        # so the forked workers inherit it.
        monkeypatch.setattr(BatchEngine, "STEAL_FACTOR", 1)
        monkeypatch.setattr(engine_module, "execute_request_chunk", tagging_chunk)

        def dc_sweep(netlist, temperature, label):
            # dc-sweep keeps the requests on the pickled-chunk path.
            return AnalysisRequest(netlist=netlist, mode="dc-sweep", node="tank",
                                   dc_variable="rval", dc_start=500.0,
                                   dc_stop=2000.0, dc_points=4,
                                   temperature=temperature, label=label)

        same = [dc_sweep(RLC_NETLIST, float(t), f"s{t}") for t in range(6)]
        other = [dc_sweep(RLC_NETLIST.replace("1n", "2n"), 27.0, "other")]
        with BatchEngine(max_workers=2, backend="process") as engine:
            responses = engine.run(same + other)
            assert engine.last_report.chunks == 3
        assert all(r.ok for r in responses)
        # The 6-sample topology splits over both workers; the lone
        # other-topology request gets its own chunk.
        assert [r.label for r in responses] == [
            "s0@s0+s1+s2", "s1@s0+s1+s2", "s2@s0+s1+s2",
            "s3@s3+s4+s5", "s4@s3+s4+s5", "s5@s3+s4+s5",
            "other@other"]

    def test_grouped_pool_results_match_serial(self, monkeypatch):
        # Keep the same-structure group off the in-process batch kernel,
        # so it reaches the warm pool as request chunks.
        monkeypatch.setattr(BatchEngine, "BATCH_FASTPATH_MIN", 10 ** 9)
        serial = BatchEngine(backend="serial")
        requests = [AnalysisRequest(netlist=RLC_NETLIST, temperature=float(t),
                                    label=f"t{t}") for t in (0, 27, 85)]
        a = serial.run(requests)
        with BatchEngine(max_workers=2, backend="process") as pooled:
            b = pooled.run(requests)
            assert pooled.last_report.pool_requests == 3
            assert pooled.last_report.chunks >= 2
        assert [r.label for r in b] == ["t0", "t27", "t85"]
        for ra, rb in zip(a, b):
            assert ra.ok and rb.ok
            assert ra.fingerprint == rb.fingerprint
            loops_a = ra.all_nodes_result().loops
            loops_b = rb.all_nodes_result().loops
            assert [l.performance_index for l in loops_a] == \
                pytest.approx([l.performance_index for l in loops_b])

    def test_transport_failure_keeps_fingerprint(self, monkeypatch):
        """A worker crash yields failed responses that still carry the
        request fingerprint, so they stay correlatable with the cache."""
        import repro.service.engine as engine_module

        # dc-sweep mode pins the requests to the chunked pool path — the
        # batchable modes (op/ac/all-nodes/single-node) would be served
        # by the in-process kernel and never reach the exploding chunk.
        requests = [AnalysisRequest(netlist=RLC_NETLIST, mode="dc-sweep",
                                    node="tank", dc_variable="rval",
                                    dc_start=500.0, dc_stop=2000.0,
                                    dc_points=4, label="a"),
                    AnalysisRequest(netlist=RLC_NETLIST, mode="dc-sweep",
                                    node="tank", dc_variable="rval",
                                    dc_start=500.0, dc_stop=2000.0,
                                    dc_points=4, temperature=85.0,
                                    label="b")]
        expected = [r.fingerprint() for r in requests]

        def explode(chunk):
            raise RuntimeError("worker died")

        # Patched before the pool starts, so the forked workers inherit it.
        monkeypatch.setattr(engine_module, "execute_request_chunk", explode)
        with BatchEngine(max_workers=2, backend="process") as engine:
            responses = engine.run(requests)
        assert [r.ok for r in responses] == [False, False]
        assert [r.fingerprint for r in responses] == expected
        assert all("worker failure" in r.error for r in responses)

    def test_transport_failure_with_unfingerprintable_request(self, monkeypatch):
        """Guarded fingerprinting: an unparsable netlist still produces a
        failed response (empty fingerprint) instead of a crash."""
        import repro.service.engine as engine_module

        requests = [AnalysisRequest(netlist=RLC_NETLIST),
                    AnalysisRequest(netlist="broken\nR1\n.end\n")]

        def explode(chunk):
            raise RuntimeError("worker died")

        monkeypatch.setattr(engine_module, "execute_request_chunk", explode)
        with BatchEngine(max_workers=2, backend="process") as engine:
            responses = engine.run(requests)
        assert [r.ok for r in responses] == [False, False]
        assert responses[0].fingerprint
        assert responses[1].fingerprint == ""

    def test_worker_compiled_cache_is_bounded(self):
        from repro.service.engine import (_COMPILED_CACHE,
                                          _COMPILED_CACHE_SIZE, _compiled_for)

        _COMPILED_CACHE.clear()
        for scale in range(_COMPILED_CACHE_SIZE + 3):
            netlist = RLC_NETLIST.replace("1n", f"{scale + 1}n")
            _compiled_for(AnalysisRequest(netlist=netlist))
        assert len(_COMPILED_CACHE) == _COMPILED_CACHE_SIZE

    def test_compiled_path_matches_uncompiled_results(self):
        from repro.service.engine import _COMPILED_CACHE

        _COMPILED_CACHE.clear()
        first = execute_request(AnalysisRequest(netlist=RLC_NETLIST,
                                                variables={"rval": 800.0}))
        assert len(_COMPILED_CACHE) == 1          # compiled on first use
        second = execute_request(AnalysisRequest(netlist=RLC_NETLIST,
                                                 variables={"rval": 800.0}))
        assert first.ok and second.ok
        a = first.all_nodes_result().loops[0]
        b = second.all_nodes_result().loops[0]
        assert a.performance_index == pytest.approx(b.performance_index,
                                                    rel=1e-12)


class TestExpandCorners:
    def test_one_request_per_corner(self):
        base = AnalysisRequest(netlist=RLC_NETLIST, variables={"rval": 1e3})
        corners = [Corner("cold", temperature=-40.0),
                   Corner("hot", temperature=125.0,
                          variables={"rval": 2e3})]
        requests = expand_corners(base, corners)
        assert [r.label for r in requests] == ["cold", "hot"]
        assert requests[0].temperature == -40.0
        assert requests[0].variables == {"rval": 1e3}
        assert requests[1].variables == {"rval": 2e3}
        assert requests[0].fingerprint() != requests[1].fingerprint()
