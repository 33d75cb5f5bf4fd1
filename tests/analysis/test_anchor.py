"""Anchored bias points: solves on a compiled structure start from its
deterministic 27 degC nominal bias point.

The anchor (``CompiledCircuit.anchor``) is the cold ladder's solution at
27 degC with the circuit's nominal variables; ``operating_point`` with a
reusable ``compiled=`` and the tight stability options runs plain Newton
from it before the cold ladder, and on the default options keeps the
cold ladder.
These tests hold the anchored solves to the cold reference
(``operating_point(circuit)``) on every bundled nonlinear circuit, pin
that a request's result does not depend on what ran before it, and force
each fallback to show that it reproduces the cold ladder bit for bit.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from repro import circuits
from repro.analysis import CompiledCircuit, operating_point
from repro.analysis import op as op_module
from repro.analysis.dcsweep import dc_sweep
from repro.analysis.op import (
    STABILITY_NEWTON,
    BiasAnchor,
    conduction_states,
    solve_nonlinear_dc_batch,
)
from repro.circuit import CircuitBuilder
from repro.circuit.elements import DiodeModel
from repro.exceptions import ConvergenceError, SingularMatrixError
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, use_tracer

#: The bundled nonlinear circuits and their agreement temperatures: the
#: Fig. 1 buffer every 15 degC over -40..125, the others at the corners.
CORNERS = [-40.0, 27.0, 85.0, 125.0]
AGREEMENT = {
    "opamp_buffer": [float(t) for t in range(-40, 126, 15)],
    "opamp_open_loop": CORNERS,
    "opamp_with_bias": CORNERS,
    "bias_circuit": CORNERS,
    "emitter_follower": CORNERS,
    "source_follower": CORNERS,
    "simple_mirror": CORNERS,
    "buffered_mirror": CORNERS,
}


def _counter(name):
    return global_registry().counter(name).value


def _fallbacks():
    return {reason: _counter(f"newton.anchor.fallbacks.{reason}")
            for reason in ("diverged", "singular", "nonphysical", "region")}


def _relative_gap(x, reference):
    scale = max(float(np.max(np.abs(reference))), 1.0)
    return float(np.max(np.abs(x - reference))) / scale


def _diode_circuit():
    builder = CircuitBuilder("diode")
    builder.voltage_source("in", "0", dc="vsup", name="V1")
    builder.resistor("in", "a", 1e3, name="R1")
    builder.diode("a", "0", DiodeModel(IS=1e-14))
    builder.variable("vsup", 1.0)
    return builder.build()


class TestAgreement:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", sorted(AGREEMENT))
    def test_anchored_bias_matches_the_cold_ladder(self, name, backend):
        circuit = getattr(circuits, name)().circuit
        compiled = CompiledCircuit(circuit)
        before_fallbacks = _fallbacks()
        before_hits = _counter("newton.anchor.hits")
        for temperature in AGREEMENT[name]:
            cold = operating_point(circuit, temperature=temperature,
                                   options=STABILITY_NEWTON, backend=backend)
            anchored = operating_point(
                circuit, temperature=temperature, options=STABILITY_NEWTON,
                backend=backend, compiled=compiled)
            assert _relative_gap(anchored.x, cold.x) <= 1e-9, temperature
            assert anchored.strategy == "newton"
        # Every anchored solve was accepted; no guard or rung fell back.
        assert _fallbacks() == before_fallbacks
        assert _counter("newton.anchor.hits") - before_hits \
            == len(AGREEMENT[name])

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", sorted(AGREEMENT))
    def test_default_options_keep_the_cold_ladder(self, name, backend):
        """At the default reltol 1e-4 an anchored solve would stop up to
        ~3e-8 away from the cold one, so the compiled path stays cold and
        reproduces ``operating_point(circuit)`` to 1e-9."""
        circuit = getattr(circuits, name)().circuit
        compiled = CompiledCircuit(circuit)
        solves = _counter("newton.anchor.solves")
        for temperature in AGREEMENT[name]:
            cold = operating_point(circuit, temperature=temperature,
                                   backend=backend)
            via_compiled = operating_point(
                circuit, temperature=temperature, backend=backend,
                compiled=compiled)
            assert _relative_gap(via_compiled.x, cold.x) <= 1e-9, temperature
            assert via_compiled.iterations == cold.iterations
            assert via_compiled.strategy == cold.strategy
        assert _counter("newton.anchor.solves") == solves
        assert not compiled._anchors

    def test_anchor_is_the_nominal_cold_solve(self):
        circuit = circuits.opamp_buffer().circuit
        compiled = CompiledCircuit(circuit)
        compiled.restamp()
        anchor = compiled.anchor("dense")
        cold = operating_point(circuit, options=STABILITY_NEWTON,
                               backend="dense")
        assert isinstance(anchor, BiasAnchor)
        assert np.array_equal(anchor.x, cold.x)
        assert not anchor.x.flags.writeable
        # Every transistor of the biased buffer conducts.
        assert anchor.conducting and all(anchor.conducting)
        # Memoised per resolved backend.
        assert compiled.anchor("dense") is anchor

    def test_anchor_is_solved_once_per_structure(self):
        compiled = CompiledCircuit(circuits.emitter_follower().circuit)
        solves = _counter("newton.anchor.solves")
        hits = _counter("newton.anchor.hits")
        for temperature in (0.0, 50.0, 100.0):
            operating_point(None, temperature=temperature, compiled=compiled,
                            backend="dense", options=STABILITY_NEWTON)
        assert _counter("newton.anchor.solves") - solves == 1
        assert _counter("newton.anchor.hits") - hits == 3

    def test_an_explicit_guess_stays_cold(self):
        circuit = circuits.emitter_follower().circuit
        compiled = CompiledCircuit(circuit)
        cold = operating_point(circuit, temperature=85.0,
                               options=STABILITY_NEWTON)
        guessed = operating_point(circuit, temperature=85.0,
                                  compiled=compiled, options=STABILITY_NEWTON,
                                  initial_guess=np.zeros(compiled.size))
        assert np.array_equal(guessed.x, cold.x)
        assert guessed.iterations == cold.iterations
        assert not compiled._anchors

    def test_strategy_spans_carry_the_anchored_attribute(self):
        circuit = circuits.opamp_buffer().circuit
        compiled = CompiledCircuit(circuit)
        tracer = Tracer()
        with use_tracer(tracer):
            operating_point(None, temperature=85.0, compiled=compiled,
                            options=STABILITY_NEWTON)
        spans = tracer.spans()
        anchor_span = next(s for s in spans if s.name == "newton.anchor")
        assert anchor_span.attrs["converged"] is True
        anchored = [s.attrs["anchored"] for s in spans
                    if s.name == "newton.strategy"]
        # The anchor's own cold ladder, then the request's anchored rung.
        assert anchored[-1] is True and not any(anchored[:-1])

    def test_dc_sweep_first_point_starts_from_the_anchor(self):
        circuit = circuits.emitter_follower().circuit
        compiled = CompiledCircuit(circuit)
        grid = [1.4, 1.5, 1.6]
        cold = dc_sweep(circuit, "VB", grid, options=STABILITY_NEWTON)
        hits = _counter("newton.anchor.hits")
        anchored = dc_sweep(None, "VB", grid, options=STABILITY_NEWTON,
                            compiled=compiled)
        assert _counter("newton.anchor.hits") - hits == 1
        assert anchored.iterations[0] < cold.iterations[0]
        assert _relative_gap(anchored.data, cold.data) <= 1e-9


class TestFallback:
    """Each fallback runs today's cold ladder: the cold ``x``,
    ``iterations`` and ``strategy`` bit for bit."""

    def _assert_cold(self, result, cold):
        assert np.array_equal(result.x, cold.x)
        assert result.iterations == cold.iterations
        assert result.strategy == cold.strategy

    def test_a_bad_anchor_trips_the_region_guard(self, monkeypatch):
        circuit = circuits.opamp_buffer().circuit
        compiled = CompiledCircuit(circuit)
        compiled.restamp()
        real = compiled.anchor("dense")
        all_off = BiasAnchor(np.zeros(compiled.size),
                             (False,) * len(real.conducting))
        monkeypatch.setattr(compiled, "anchor", lambda backend=None: all_off)
        # At 27 degC plain Newton from zeros converges (to the conducting
        # bias point), so only the guard can reject the rung.
        cold = operating_point(circuit, options=STABILITY_NEWTON)
        assert cold.strategy == "newton"
        before = _fallbacks()
        result = operating_point(None, compiled=compiled,
                                 options=STABILITY_NEWTON)
        self._assert_cold(result, cold)
        after = _fallbacks()
        assert after["region"] - before["region"] == 1
        assert {k: after[k] - before[k] for k in after
                if k != "region"} == {"diverged": 0, "singular": 0,
                                      "nonphysical": 0}

    @pytest.mark.parametrize("error, reason", [
        (ConvergenceError("forced", iterations=150), "diverged"),
        (SingularMatrixError("forced"), "singular"),
        (op_module._NonPhysicalPoint("forced"), "nonphysical"),
    ])
    def test_a_failing_anchored_rung_runs_the_cold_ladder(
            self, monkeypatch, error, reason):
        circuit = circuits.bias_circuit().circuit
        compiled = CompiledCircuit(circuit)
        compiled.restamp()
        anchor = compiled.anchor()
        cold = operating_point(circuit, temperature=125.0,
                               options=STABILITY_NEWTON)
        real = op_module._newton_loop

        def failing_from_the_anchor(system, x0, options, **kwargs):
            if x0 is anchor.x:
                raise error
            return real(system, x0, options, **kwargs)

        monkeypatch.setattr(op_module, "_newton_loop", failing_from_the_anchor)
        before = _counter(f"newton.anchor.fallbacks.{reason}")
        result = operating_point(None, temperature=125.0, compiled=compiled,
                                 options=STABILITY_NEWTON)
        self._assert_cold(result, cold)
        assert _counter(f"newton.anchor.fallbacks.{reason}") - before == 1

    def test_other_errors_on_the_anchored_rung_propagate(self, monkeypatch):
        """Only the cold ladder's failures hand over; a programming error
        on the rung is not filed as a divergence."""
        compiled = CompiledCircuit(circuits.bias_circuit().circuit)
        compiled.restamp()
        anchor = compiled.anchor()
        real = op_module._newton_loop

        def broken_from_the_anchor(system, x0, options, **kwargs):
            if x0 is anchor.x:
                raise ValueError("device code bug")
            return real(system, x0, options, **kwargs)

        monkeypatch.setattr(op_module, "_newton_loop", broken_from_the_anchor)
        with pytest.raises(ValueError, match="device code bug"):
            operating_point(None, temperature=125.0, compiled=compiled,
                            options=STABILITY_NEWTON)

    def test_a_real_region_change_falls_back(self):
        """Reverse-biasing the diode turns it off: Newton from the
        (conducting) anchor still converges, and the guard hands the
        solve to the cold ladder."""
        circuit = _diode_circuit()
        compiled = CompiledCircuit(circuit)
        cold = operating_point(circuit, variables={"vsup": -1.0},
                               options=STABILITY_NEWTON)
        before = _counter("newton.anchor.fallbacks.region")
        result = operating_point(None, variables={"vsup": -1.0},
                                 compiled=compiled, options=STABILITY_NEWTON)
        self._assert_cold(result, cold)
        assert _counter("newton.anchor.fallbacks.region") - before == 1

    def test_conduction_states(self):
        circuit = _diode_circuit()
        system = CompiledCircuit(circuit).system()
        on = operating_point(circuit)
        off = operating_point(circuit, variables={"vsup": -1.0})
        assert conduction_states(system, on.x, system.ctx) == (True,)
        assert conduction_states(system, off.x, system.ctx) == (False,)


class TestBatch:
    def test_demoted_rows_equal_the_scalar_path(self, monkeypatch):
        """Rows the batched loop cannot finish rerun the scalar path: the
        anchored rung, then the cold ladder."""
        circuit = circuits.opamp_with_bias().circuit
        compiled = CompiledCircuit(circuit)
        temperatures = [-40.0, 27.0, 125.0]
        batch = compiled.restamp_batch(temperature=temperatures)
        real = op_module._newton_rows

        def failing_batches(state, rows, x, *args, **kwargs):
            if rows.size < 2:
                return real(state, rows, x, *args, **kwargs)
            return {}, {int(k): ConvergenceError("forced") for k in rows}, \
                [int(rows.size)], False

        monkeypatch.setattr(op_module, "_newton_rows", failing_batches)
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=STABILITY_NEWTON)
        assert not failures
        for k, temperature in enumerate(temperatures):
            op = operating_point(None, temperature=temperature,
                                 compiled=compiled, options=STABILITY_NEWTON)
            assert np.array_equal(x[k], op.x)
            assert int(iterations[k]) == op.iterations
            assert strategies[k] == op.strategy == "newton"

    def test_guard_demotes_a_row_to_the_cold_ladder(self):
        compiled = CompiledCircuit(_diode_circuit())
        batch = compiled.restamp_batch(
            variables={"vsup": np.array([0.8, -1.0, 1.2])})
        before = _counter("newton.anchor.fallbacks.region")
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=STABILITY_NEWTON)
        assert not failures
        assert strategies == ["newton-batch", "newton", "newton-batch"]
        cold = operating_point(_diode_circuit(), variables={"vsup": -1.0},
                               options=STABILITY_NEWTON)
        assert np.array_equal(x[1], cold.x)
        assert int(iterations[1]) == cold.iterations
        assert _counter("newton.anchor.fallbacks.region") - before == 1

    def test_pilot_starts_from_the_anchor(self):
        circuit = circuits.opamp_buffer().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(
            variables={"vcm": np.array([2.45, 2.5, 2.55])}, temperature=85.0)
        tracer = Tracer()
        with use_tracer(tracer):
            x, iterations, strategies, failures = solve_nonlinear_dc_batch(
                batch, options=STABILITY_NEWTON, pilot=True)
        assert not failures
        pilot = operating_point(None, temperature=85.0,
                                variables={"vcm": 2.45}, compiled=compiled,
                                options=STABILITY_NEWTON)
        assert np.array_equal(x[0], pilot.x)
        assert int(iterations[0]) == pilot.iterations
        batch_span = next(s for s in tracer.spans()
                          if s.name == "newton.batch")
        # The other rows start from the pilot, not the anchor.
        assert batch_span.attrs["anchored"] is False
        assert strategies[1:] == ["newton-batch", "newton-batch"]


#: The request of the history test (a stability screen, which solves its
#: bias point from the anchor), and the script that runs it in a fresh
#: interpreter and prints its response.
_REQUEST = {"mode": "all-nodes", "temperature": 85.0,
            "variables": {"vcm": 2.52}}
_RUN_FRESH = """
import json, sys
from repro.circuits import opamp_buffer_netlist
from repro.service.engine import execute_request
from repro.service.requests import AnalysisRequest
request = AnalysisRequest(netlist=opamp_buffer_netlist(),
                          **json.loads(sys.argv[1]))
data = execute_request(request).to_dict()
assert data["status"] == "done", data["error"]
print(json.dumps(data))
"""
_ELAPSED = re.compile(r"Elapsed: [0-9.]+ s")


def _canonical(data):
    """A response's JSON text without its timing fields."""
    data = dict(data)
    del data["elapsed_seconds"], data["created"]
    data["report"] = _ELAPSED.sub("Elapsed: - s", data["report"])
    data["result"] = {k: v for k, v in data["result"].items()
                      if k != "elapsed_seconds"}
    return json.dumps(data, sort_keys=True)


class TestHistoryIndependence:
    """A request's result is a pure function of the request: the anchor
    depends on the structure alone, never on what ran before."""

    def _fresh(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", _RUN_FRESH, json.dumps(_REQUEST)],
            env=env, capture_output=True, text=True, check=True).stdout

    def test_result_does_not_depend_on_earlier_requests(self):
        from repro.service import engine
        from repro.service.requests import AnalysisRequest

        def run():
            response = engine.execute_request(AnalysisRequest(
                netlist=circuits.opamp_buffer_netlist(), **_REQUEST))
            assert response.status == "done", response.error
            return _canonical(response.to_dict())

        engine._COMPILED_CACHE.clear()
        first = run()
        for k in range(5):
            engine.execute_request(AnalysisRequest(
                mode="all-nodes", netlist=circuits.opamp_buffer_netlist(),
                temperature=-40.0 + 30.0 * k,
                variables={"vcm": 2.4 + 0.05 * k, "itail": 3e-5 + 5e-6 * k}))
        assert run() == first

        # Evict the structure, so the next request compiles it (and
        # solves its anchor) again.
        saved = engine._COMPILED_CACHE_SIZE
        engine.set_compiled_cache_size(1)
        try:
            engine.execute_request(AnalysisRequest(
                mode="op", circuit=circuits.simple_mirror().circuit))
            solves = _counter("newton.anchor.solves")
            assert run() == first
            assert _counter("newton.anchor.solves") - solves == 1
        finally:
            engine.set_compiled_cache_size(saved)

        assert _canonical(json.loads(self._fresh())) == first
