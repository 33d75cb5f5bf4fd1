"""Batched Newton: the sample axis through the nonlinear layer.

``solve_nonlinear_dc_batch`` must reproduce the scalar ``solve_dc``
ladder to 1e-9 on every bundled nonlinear circuit, on both solver
backends and both linear kernels (dense auto-selection below the sparse
threshold, cached-symbolic sparse above it), including samples that
only converge through the gmin/source-stepping homotopies — those
demote to the exact scalar ladder, so they match bit for bit.  The
per-sample convergence mask must freeze samples at their own
convergence iteration so they stop paying, and one deliberately
poisoned sample must fail alone — with its iteration ``history``
attached — while its batchmates ride the fast path.
"""

import numpy as np
import pytest

from repro import circuits
from repro.analysis import CompiledCircuit, NewtonOptions, operating_point
from repro.analysis.dcsweep import dc_sweep, dc_sweep_batch
from repro.analysis import op as op_module
from repro.analysis.op import (
    STABILITY_NEWTON,
    solve_dc,
    solve_nonlinear_dc_batch,
)
from repro.circuit import CircuitBuilder
from repro.circuit.elements import DiodeModel
from repro.circuit.elements.base import Element
from repro.circuit.netlist import Circuit
from repro.exceptions import AnalysisError, ConvergenceError
from repro.linalg import SparseBackend
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, use_tracer

TOLERANCE = 1e-9

#: Every bundled nonlinear design (the linear macromodels are covered by
#: the solve_linear_dc_batch suite).
NONLINEAR_FACTORIES = [
    "opamp_buffer",
    "opamp_open_loop",
    "bias_circuit",
    "opamp_with_bias",
    "simple_mirror",
    "buffered_mirror",
    "emitter_follower",
    "source_follower",
]


def _tight(**overrides):
    """Options tight enough that a 1e-9 cross-path comparison is fair."""
    overrides.setdefault("reltol", 1e-7)
    overrides.setdefault("vntol", 1e-10)
    return NewtonOptions(**overrides)


def _assert_matches_scalar(batch, x, options, backend=None):
    """Every sample row equals its scalar ``solve_dc`` solution to 1e-9."""
    compiled = batch.compiled
    for k in range(len(batch)):
        system = compiled.system(ctx=batch.sample_context(k),
                                 backend=backend)
        reference, _, _ = solve_dc(system, np.zeros(compiled.size), options)
        scale = max(float(np.max(np.abs(reference))), 1.0)
        assert float(np.max(np.abs(x[k] - reference))) <= TOLERANCE * scale


def _batch_span(batch, **kwargs):
    """Solve ``batch`` under a tracer; returns the results and the
    ``newton.batch`` span."""
    tracer = Tracer()
    with use_tracer(tracer):
        results = solve_nonlinear_dc_batch(batch, **kwargs)
    span = next(s for s in tracer.spans() if s.name == "newton.batch")
    return results, span


class TestOneIteration:
    """The scalar ladder and the batched solve run one Newton iteration,
    so a batch of one row is the scalar path bit for bit."""

    @pytest.mark.parametrize("temperature", [27.0, -40.0])
    @pytest.mark.parametrize("name", NONLINEAR_FACTORIES)
    def test_one_row_batch_is_the_scalar_path(self, name, temperature):
        circuit = getattr(circuits, name)().circuit
        batch = CompiledCircuit(circuit).restamp_batch(
            temperature=[temperature])
        (x, iterations, strategies, failures), span = _batch_span(batch)
        op = operating_point(circuit, temperature=temperature)
        assert not failures
        assert np.array_equal(x[0], op.x)
        assert int(iterations[0]) == op.iterations
        assert strategies[0] == ("newton-batch" if op.strategy == "newton"
                                 else op.strategy)
        # One row takes the exact row refill, not the vector pass.
        assert span.attrs["vectorized"] is False

    @pytest.mark.parametrize("temperature", [27.0, -40.0])
    @pytest.mark.parametrize("name", NONLINEAR_FACTORIES)
    def test_one_anchored_row_is_the_anchored_scalar_path(self, name,
                                                          temperature):
        """On the stability options both start from the structure's
        anchor, and still agree bit for bit."""
        circuit = getattr(circuits, name)().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(temperature=[temperature])
        (x, iterations, strategies, failures), span = _batch_span(
            batch, options=STABILITY_NEWTON)
        op = operating_point(circuit, temperature=temperature,
                             compiled=compiled, options=STABILITY_NEWTON)
        assert not failures
        assert np.array_equal(x[0], op.x)
        assert int(iterations[0]) == op.iterations
        assert strategies[0] == ("newton-batch" if op.strategy == "newton"
                                 else op.strategy)
        assert span.attrs["anchored"] is True

    @pytest.mark.parametrize("rows", [2, 5])
    def test_uniform_batch_of_two_or_more_vectorizes(self, rows):
        batch = CompiledCircuit(circuits.opamp_buffer().circuit) \
            .restamp_batch(temperature=[27.0] * rows)
        (_, _, strategies, failures), span = _batch_span(batch)
        assert not failures
        assert strategies == ["newton-batch"] * rows
        assert span.attrs["vectorized"] is True


class TestBatchedScalarEquivalence:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", NONLINEAR_FACTORIES)
    def test_matches_scalar_on_every_bundled_circuit(self, name, backend):
        """Temperature-scattered batch (the per-row refill) vs. scalar."""
        circuit = getattr(circuits, name)().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(temperature=[27.0, 27.0, 45.0, 10.0])
        options = _tight()
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, backend=backend, options=options)
        assert not failures
        assert all(strategies)
        _assert_matches_scalar(batch, x, options, backend=backend)

    def test_vector_refill_on_a_uniform_batch_matches_scalar(self):
        """Temperature-uniform batches take the one-pass vectorized
        refill; per-sample design variables still resolve per sample."""
        circuit = circuits.opamp_with_bias().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(
            variables={"vcm": np.array([2.40, 2.45, 2.50, 2.55, 2.60])})
        options = _tight()
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=options)
        assert not failures
        assert strategies == ["newton-batch"] * len(batch)
        assert all(int(k) > 0 for k in iterations)
        _assert_matches_scalar(batch, x, options)

    def test_warm_start_plane_cuts_iterations(self):
        circuit = circuits.emitter_follower().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(temperature=[27.0, 27.0, 27.0])
        options = _tight()
        x, cold, _, _ = solve_nonlinear_dc_batch(
            batch, options=options, x0=np.zeros(compiled.size))
        _, warm, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=options, x0=x)
        assert not failures
        assert strategies == ["newton-batch"] * len(batch)
        assert int(np.max(warm)) < int(np.min(cold))

    def test_linear_circuits_are_rejected(self):
        builder = CircuitBuilder("lin")
        builder.voltage_source("in", "0", dc=1.0)
        builder.resistor("in", "out", 1e3)
        builder.resistor("out", "0", 1e3)
        compiled = CompiledCircuit(builder.build())
        batch = compiled.restamp_batch(temperature=[27.0, 27.0])
        with pytest.raises(AnalysisError, match="nonlinear circuit"):
            solve_nonlinear_dc_batch(batch)


class TestHomotopyPaths:
    """Samples the plain batched loop cannot finish demote to the scalar
    ladder, so gmin/source-stepping results are exactly the scalar ones.
    The batch starts cold (an explicit zero guess): from the anchor these
    samples converge by plain Newton."""

    def _run(self, factory, options):
        compiled = CompiledCircuit(getattr(circuits, factory)().circuit)
        batch = compiled.restamp_batch(temperature=[27.0, 27.0, 32.0])
        demotions = global_registry().counter("newton.batch_demotions")
        before = demotions.value
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=options, x0=np.zeros(compiled.size))
        assert not failures
        assert demotions.value > before
        _assert_matches_scalar(batch, x, options)
        return strategies

    def test_gmin_stepping_demotion_matches_scalar(self):
        strategies = self._run("simple_mirror", _tight(max_iterations=8))
        assert "gmin-stepping" in strategies

    def test_source_stepping_demotion_matches_scalar(self):
        strategies = self._run("emitter_follower", _tight(max_iterations=8))
        assert "source-stepping" in strategies


def _staggered_diode_batch(supplies):
    """One diode circuit, supply voltage per sample: convergence effort
    rises with the supply, so the batch converges staggered."""
    builder = CircuitBuilder("staggered")
    builder.voltage_source("in", "0", dc="vsup", name="V1")
    builder.resistor("in", "a", 1e3, name="R1")
    builder.diode("a", "0", DiodeModel(IS=1e-14))
    builder.variable("vsup", 1.0)
    circuit = builder.build()
    compiled = CompiledCircuit(circuit)
    return compiled, compiled.restamp_batch(
        variables={"vsup": np.asarray(supplies, dtype=float)})


class _TogglingElement(Element):
    """Companion current that flips sign every evaluation once the
    per-sample ``poison`` amplitude is nonzero: the Newton iteration has
    no fixed point at any gmin or source step, so that sample can never
    converge — while amplitude-zero batchmates converge immediately."""

    is_nonlinear = True

    def __init__(self, name, node, amplitude="poison"):
        super().__init__(name, (node,))
        self._amplitude = amplitude

    def stamp_linear(self, stamper, ctx):
        pass

    def stamp_nonlinear(self, stamper, x, ctx):
        amplitude = ctx.eval_param(self._amplitude)
        state = ctx.device_state(self.name)
        sign = state.get("sign", 1.0)
        state["sign"] = -sign
        stamper.add_G_iter(self.nodes[0], self.nodes[0], 1e-3)
        stamper.add_rhs_iter(self.nodes[0], sign * amplitude)


class TestConvergenceMask:
    def test_converged_samples_freeze_and_stop_paying(self):
        supplies = [0.2, 0.7, 2.0, 5.0]
        compiled, batch = _staggered_diode_batch(supplies)
        options = _tight()
        counter = global_registry().counter("newton.batch_iterations")
        before = counter.value
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=options)
        paid = counter.value - before
        assert not failures
        assert strategies == ["newton-batch"] * len(batch)
        # Convergence is staggered, and the counter pays per *active*
        # sample per iteration: strictly less than everyone riding to
        # the last iteration proves early converged samples were frozen.
        assert int(np.min(iterations)) < int(np.max(iterations))
        assert int(np.sum(iterations)) <= paid
        assert paid < len(batch) * int(np.max(iterations))
        _assert_matches_scalar(batch, x, options)

    def test_frozen_samples_are_not_perturbed_by_later_iterations(self):
        """A sample that converges at iteration k keeps exactly the
        solution it converged to, however long its batchmates iterate:
        its row equals the same sample solved alone."""
        compiled, batch = _staggered_diode_batch([0.2, 5.0])
        options = _tight()
        cold = np.zeros(compiled.size)
        x, iterations, _, _ = solve_nonlinear_dc_batch(
            batch, options=options, x0=cold)
        assert int(iterations[0]) < int(iterations[1])
        _, alone = _staggered_diode_batch([0.2])
        x_alone, iters_alone, _, _ = solve_nonlinear_dc_batch(
            alone, options=options, x0=cold)
        assert int(iters_alone[0]) == int(iterations[0])
        assert np.array_equal(x[0], x_alone[0])

    def test_poisoned_sample_fails_alone_with_history(self):
        circuit = Circuit("poisoned")
        from repro.circuit.elements import Resistor, VoltageSource

        circuit.add(VoltageSource("V1", "in", "0", dc=5.0))
        circuit.add(Resistor("R1", "in", "a", 1e3))
        circuit.add(_TogglingElement("NL1", "a"))
        circuit.variables["poison"] = 0.0
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(
            variables={"poison": np.array([0.0, 0.0, 1.0, 0.0])})
        options = _tight(max_iterations=40, gmin_steps=4, source_steps=4)
        x, iterations, strategies, failures = solve_nonlinear_dc_batch(
            batch, options=options)
        # The poisoned sample fails by itself, with the scalar ladder's
        # full diagnostics: a ConvergenceError carrying the
        # per-iteration history of the failed loop.
        assert set(failures) == {2}
        error = failures[2]
        assert isinstance(error, ConvergenceError)
        assert isinstance(error.history, list) and error.history
        assert {"iteration", "delta_norm", "delta_converged"} <= \
            set(error.history[0])
        assert strategies[2] == "" and bool(np.all(np.isnan(x[2])))
        # ... while its batchmates converge on the fast path, matching
        # the scalar ladder.
        for k in (0, 1, 3):
            assert strategies[k] == "newton-batch"
            system = compiled.system(ctx=batch.sample_context(k))
            reference, _, _ = solve_dc(system, np.zeros(compiled.size),
                                       options)
            scale = max(float(np.max(np.abs(reference))), 1.0)
            assert float(np.max(np.abs(x[k] - reference))) \
                <= TOLERANCE * scale


def _diode_ladder(sections=250):
    builder = CircuitBuilder(f"diode ladder ({sections})")
    builder.voltage_source("n0", "0", dc=5.0, name="V1")
    for k in range(1, sections + 1):
        builder.resistor(f"n{k-1}", f"n{k}", 100.0, name=f"R{k}")
    builder.diode(f"n{sections}", "0", DiodeModel(IS=1e-14))
    return builder.build()


class TestKernelSelection:
    def test_small_systems_stay_on_the_dense_kernel_under_sparse(self):
        """Below the auto-sparse threshold the batch solves on the dense
        kernel even when the resolved backend is sparse — the same
        policy as the scalar NewtonState."""
        circuit = circuits.simple_mirror().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(temperature=[27.0, 27.0, 27.0])
        options = _tight()
        SparseBackend.stats.reset()
        x, _, strategies, failures = solve_nonlinear_dc_batch(
            batch, backend="sparse", options=options)
        assert not failures
        assert strategies == ["newton-batch"] * len(batch)
        assert SparseBackend.stats.factorizations == 0
        _assert_matches_scalar(batch, x, options, backend="dense")

    def test_large_systems_reuse_the_symbolic_sparse_ordering(self):
        circuit = _diode_ladder()
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(temperature=[27.0, 27.0, 40.0])
        options = _tight()
        SparseBackend.clear_symbolic_cache()
        SparseBackend.stats.reset()
        x, iterations, _, failures = solve_nonlinear_dc_batch(
            batch, backend="sparse", options=options)
        assert not failures
        stats = SparseBackend.stats
        # Every per-sample refactorization after the very first shares
        # the one cached symbolic analysis of the Newton pattern.
        assert stats.factorizations >= int(np.max(iterations))
        assert stats.symbolic_reuses == stats.factorizations - 1
        _assert_matches_scalar(batch, x, options, backend="dense")

    def test_forced_sparse_kernel_matches_dense(self, monkeypatch):
        """Dropping the auto-selection threshold pushes a small batch
        onto the sparse kernel; results must not move."""
        from repro.analysis import compiled as compiled_module

        monkeypatch.setattr(compiled_module, "AUTO_SPARSE_MIN_SIZE", 1)
        circuit = circuits.opamp_buffer().circuit
        compiled = CompiledCircuit(circuit)
        batch = compiled.restamp_batch(temperature=[27.0, 27.0])
        options = _tight()
        SparseBackend.stats.reset()
        x, _, _, failures = solve_nonlinear_dc_batch(
            batch, backend="sparse", options=options)
        assert not failures
        assert SparseBackend.stats.factorizations > 0
        _assert_matches_scalar(batch, x, options, backend="dense")


class TestDCSweepBatch:
    def _diode_with_rtop(self):
        builder = CircuitBuilder("sweepable")
        builder.voltage_source("in", "0", dc=3.0, name="V1")
        builder.resistor("in", "a", "rtop", name="R1")
        builder.diode("a", "0", DiodeModel(IS=1e-14))
        builder.variable("rtop", 1e3)
        return builder.build()

    def test_variable_sweep_matches_scalar_curves(self):
        circuit = self._diode_with_rtop()
        compiled = CompiledCircuit(circuit)
        temperatures = [27.0, 40.0, 10.0]
        batch = compiled.restamp_batch(temperature=temperatures)
        grid = [500.0, 1e3, 2e3, 4e3]
        options = _tight()
        results, failures = dc_sweep_batch(batch, "rtop", grid,
                                           options=options)
        assert not failures
        for temperature, result in zip(temperatures, results):
            reference = dc_sweep(circuit, "rtop", grid,
                                 temperature=temperature, options=options)
            scale = max(float(np.max(np.abs(reference.data))), 1.0)
            assert float(np.max(np.abs(result.data - reference.data))) \
                <= TOLERANCE * scale
            assert result.strategies[0] in ("newton", "newton-batch")

    def test_source_sweep_matches_scalar_curves(self):
        circuit = self._diode_with_rtop()
        compiled = CompiledCircuit(circuit)
        rtops = np.array([500.0, 1e3, 2e3])
        batch = compiled.restamp_batch(variables={"rtop": rtops})
        grid = np.linspace(0.0, 3.0, 7)
        options = _tight()
        results, failures = dc_sweep_batch(batch, "V1", grid,
                                           options=options)
        assert not failures
        for rtop, result in zip(rtops, results):
            reference = dc_sweep(circuit, "V1", grid,
                                 variables={"rtop": float(rtop)},
                                 options=options)
            scale = max(float(np.max(np.abs(reference.data))), 1.0)
            assert float(np.max(np.abs(result.data - reference.data))) \
                <= TOLERANCE * scale

    def test_demoted_rows_of_a_source_sweep_solve_the_swept_value(
            self, monkeypatch):
        """A sample the batched loop hands to the scalar path is solved at
        the grid point's source value, not the source's nominal one."""
        circuit = self._diode_with_rtop()
        batch = CompiledCircuit(circuit).restamp_batch(
            temperature=[27.0, 27.0])
        grid = [0.5, 3.0]
        options = _tight()
        reference = dc_sweep(circuit, "V1", grid, options=options)
        real = op_module._newton_rows

        def failing_batches(state, rows, x, *args, **kwargs):
            if rows.size < 2:
                return real(state, rows, x, *args, **kwargs)
            return {}, {int(k): ConvergenceError("forced") for k in rows}, \
                [int(rows.size)], False

        monkeypatch.setattr(op_module, "_newton_rows", failing_batches)
        results, failures = dc_sweep_batch(batch, "V1", grid,
                                           options=options)
        assert not failures
        for result in results:
            assert result.strategies == ["newton", "newton"]
            scale = max(float(np.max(np.abs(reference.data))), 1.0)
            assert float(np.max(np.abs(result.data - reference.data))) \
                <= TOLERANCE * scale
