"""Compiled Newton layer: fixed companion slots, kernel selection and the
structure-change fallback.

The Newton loop must produce the same operating points as the classic
per-entry companion assembly (kept in the code as the fallback path),
reuse the sparse backend's symbolic ordering across iterations on large
systems, and degrade gracefully — not wrongly — when an element's stamp
structure turns out to depend on the candidate solution.
"""

import numpy as np
import pytest

from repro import circuits
from repro.analysis import (
    AnalysisContext,
    CompiledCircuit,
    MNASystem,
    NewtonOptions,
    operating_point,
    transient_analysis,
)
from repro.circuit import CircuitBuilder
from repro.circuit.elements import DiodeModel, Step, VoltageSource
from repro.circuit.elements.base import Element
from repro.exceptions import AnalysisError, NetlistError
from repro.linalg import SparseBackend

TOLERANCE = 1e-9

#: name -> circuit factory: every circuit family shipped in repro.circuits.
CIRCUIT_FACTORIES = {
    "parallel_rlc": lambda: circuits.parallel_rlc().circuit,
    "series_rlc_divider": lambda: circuits.series_rlc_divider().circuit,
    "two_pole_opamp_buffer": lambda: circuits.two_pole_opamp_buffer().circuit,
    "two_pole_open_loop": lambda: circuits.two_pole_open_loop().circuit,
    "opamp_buffer": lambda: circuits.opamp_buffer().circuit,
    "opamp_open_loop": lambda: circuits.opamp_open_loop().circuit,
    "opamp_with_bias": lambda: circuits.opamp_with_bias().circuit,
    "bias_circuit": lambda: circuits.bias_circuit().circuit,
    "simple_mirror": lambda: circuits.simple_mirror().circuit,
    "buffered_mirror": lambda: circuits.buffered_mirror().circuit,
    "emitter_follower": lambda: circuits.emitter_follower().circuit,
    "source_follower": lambda: circuits.source_follower().circuit,
    "rc_ladder": lambda: circuits.rc_ladder(25).circuit,
    "rlc_ladder": lambda: circuits.rlc_ladder(10).circuit,
    "amplifier_chain": lambda: circuits.amplifier_chain(
        5, feedback_resistance=100e3).circuit,
}


def _diode_resistor():
    builder = CircuitBuilder("d")
    builder.voltage_source("vcc", "0", dc=5.0, name="V1")
    builder.resistor("vcc", "a", 1e3)
    builder.diode("a", "0", DiodeModel(IS=1e-14))
    return builder.build()


def _fallback_op(circuit, options=None, backend=None):
    """Operating point through the uncompiled (per-entry) Newton path."""
    system = MNASystem(circuit, AnalysisContext(
        variables=dict(circuit.variables)), backend=backend)
    system.newton_fallback = True
    return operating_point(None, system=system, options=options)


class TestCompiledEquivalence:
    @pytest.mark.parametrize("name", sorted(CIRCUIT_FACTORIES))
    @pytest.mark.parametrize("backend", ("dense", "sparse"))
    def test_matches_fallback_on_every_bundled_circuit(self, name, backend):
        circuit = CIRCUIT_FACTORIES[name]()
        compiled = operating_point(circuit, backend=backend)
        fallback = _fallback_op(circuit, backend=backend)
        scale = max(float(np.max(np.abs(fallback.x))), 1.0)
        assert np.max(np.abs(compiled.x - fallback.x)) <= TOLERANCE * scale
        assert compiled.strategy == fallback.strategy

    def test_gshunt_fills_prebuilt_diagonal_slots(self):
        options = NewtonOptions(gshunt=1e-9)
        circuit = _diode_resistor()
        compiled = operating_point(circuit, options=options)
        fallback = _fallback_op(circuit, options=options)
        scale = max(float(np.max(np.abs(fallback.x))), 1.0)
        assert np.max(np.abs(compiled.x - fallback.x)) <= TOLERANCE * scale

    def test_newton_state_before_stamp_does_not_deadlock(self):
        # newton_program compiles the linear structure itself; calling it
        # first (no prior stamp()) must not re-enter the compile lock.
        system = MNASystem(_diode_resistor(), AnalysisContext())
        state = system.newton_state()
        assert state is system.newton_state()

    def test_repeated_solves_reuse_one_newton_state(self):
        system = MNASystem(_diode_resistor(), AnalysisContext())
        first = operating_point(None, system=system)
        state = system.newton_state()
        second = operating_point(None, system=system,
                                 initial_guess=first.x)
        assert system.newton_state() is state
        assert second.iterations <= first.iterations

    def test_restamp_rebinds_the_newton_state(self):
        builder = CircuitBuilder("vload")
        builder.voltage_source("vcc", "0", dc=5.0)
        builder.resistor("vcc", "a", "rsrc")
        builder.diode("a", "0", DiodeModel(IS=1e-14))
        builder.variable("rsrc", 1e3)
        circuit = builder.build()
        system = MNASystem(circuit, AnalysisContext(
            variables=dict(circuit.variables)))
        operating_point(None, system=system)        # builds the stepper
        system.ctx.set_variable("rsrc", 10e3)
        system.restamp()
        warm = operating_point(None, system=system)
        fresh = operating_point(circuit, variables={"rsrc": 10e3})
        scale = max(float(np.max(np.abs(fresh.x))), 1.0)
        assert np.max(np.abs(warm.x - fresh.x)) <= TOLERANCE * scale


class TestTransientEquivalence:
    @pytest.mark.parametrize("name", ["emitter_follower", "source_follower",
                                      "opamp_buffer"])
    def test_nonlinear_transient_matches_fallback(self, name, monkeypatch):
        """The full-nonlinear integrator on the compiled Newton row equals
        the per-entry companion assembly to 1e-9 through a step."""
        circuit = CIRCUIT_FACTORIES[name]()
        source = next(e for e in circuit
                      if isinstance(e, VoltageSource) and e.has_ac)
        level = source.dc_value(AnalysisContext(
            variables=dict(circuit.variables)))
        source.waveform = Step(level, level + 0.1, time=20e-9, rise=2e-9)
        compiled = transient_analysis(circuit, stop_time=200e-9,
                                      time_step=1e-9)
        monkeypatch.setattr(MNASystem, "newton_fallback", property(
            lambda self: True, lambda self, value: None))
        fallback = transient_analysis(circuit, stop_time=200e-9,
                                      time_step=1e-9)
        assert np.array_equal(compiled.times, fallback.times)
        # The step moves the circuit: the comparison is not of constants.
        assert np.ptp(compiled.data, axis=0).max() > 1e-3
        scale = max(float(np.max(np.abs(fallback.data))), 1.0)
        assert np.max(np.abs(compiled.data - fallback.data)) \
            <= TOLERANCE * scale


class TestSparseNewtonKernel:
    def _diode_ladder(self, sections=250):
        builder = CircuitBuilder(f"diode ladder ({sections})")
        builder.voltage_source("n0", "0", dc=5.0, name="V1")
        for k in range(1, sections + 1):
            builder.resistor(f"n{k-1}", f"n{k}", 100.0, name=f"R{k}")
        builder.diode(f"n{sections}", "0", DiodeModel(IS=1e-14))
        return builder.build()

    def test_large_sparse_newton_reuses_symbolic_ordering(self):
        circuit = self._diode_ladder()
        SparseBackend.clear_symbolic_cache()
        SparseBackend.stats.reset()
        sparse = operating_point(circuit, backend="sparse")
        stats = SparseBackend.stats
        assert sparse.iterations >= 2
        assert stats.factorizations >= 2
        # Every same-pattern refactorization after the first skips the
        # symbolic analysis (the whole point of the compiled pattern).
        assert stats.symbolic_reuses == stats.factorizations - 1
        dense = operating_point(circuit, backend="dense")
        scale = max(float(np.max(np.abs(dense.x))), 1.0)
        assert np.max(np.abs(sparse.x - dense.x)) <= TOLERANCE * scale


class _FlickeringElement(Element):
    """Nonlinear element whose stamp-call count changes after the first
    evaluation — illegal for the compiled path, legal for the fallback."""

    is_nonlinear = True

    def __init__(self, name, node, g=1e-3):
        super().__init__(name, (node,))
        self._g = g
        self.evaluations = 0

    def stamp_linear(self, stamper, ctx):
        pass

    def stamp_nonlinear(self, stamper, x, ctx):
        self.evaluations += 1
        stamper.add_G_iter(self.nodes[0], self.nodes[0], self._g)
        if self.evaluations > 1:
            stamper.add_rhs_iter(self.nodes[0], 0.0)


class _BrokenInfoDiode(Element):
    """Converging companion with a defective operating_point_info."""

    is_nonlinear = True

    def __init__(self, name, node, error):
        super().__init__(name, (node,))
        self._error = error

    def stamp_linear(self, stamper, ctx):
        pass

    def stamp_nonlinear(self, stamper, x, ctx):
        stamper.add_G_iter(self.nodes[0], self.nodes[0], 1e-3)

    def operating_point_info(self, x, ctx):
        raise self._error


class TestStructureFallback:
    def _circuit(self, extra):
        from repro.circuit.netlist import Circuit
        from repro.circuit.elements import Resistor, VoltageSource

        circuit = Circuit("flicker")
        circuit.add(VoltageSource("V1", "in", "0", dc=5.0))
        circuit.add(Resistor("R1", "in", "a", 1e3))
        circuit.add(extra)
        return circuit

    def test_value_dependent_structure_falls_back_and_stays_correct(self):
        circuit = self._circuit(_FlickeringElement("NL1", "a"))
        system = MNASystem(circuit, AnalysisContext())
        op = operating_point(None, system=system)
        assert system.newton_fallback is True
        # The verdict lives on the topology: a second system over the same
        # compiled structure skips the compiled attempt entirely.
        assert system.compiled.newton_fallback is True
        # 5 V through 1k into a 1 mS companion conductance: 2.5 V.
        assert op.voltage("a") == pytest.approx(2.5, rel=1e-6)

    def test_unsupported_stamper_method_falls_back_not_crashes(self):
        class _LateCapacitanceElement(_FlickeringElement):
            def stamp_nonlinear(self, stamper, x, ctx):
                self.evaluations += 1
                stamper.add_G_iter(self.nodes[0], self.nodes[0], self._g)
                if self.evaluations > 1:
                    # Legal against MNASystem, unknown to the compiled
                    # capture adapter: must trigger the fallback.
                    stamper.capacitance_op(self.nodes[0], "0", 1e-12)

        circuit = self._circuit(_LateCapacitanceElement("NL1", "a"))
        system = MNASystem(circuit, AnalysisContext())
        op = operating_point(None, system=system)
        assert system.newton_fallback is True
        assert op.voltage("a") == pytest.approx(2.5, rel=1e-6)

    def test_unexpected_info_failure_surfaces(self):
        circuit = self._circuit(_BrokenInfoDiode("NL1", "a",
                                                 TypeError("model bug")))
        with pytest.raises(AnalysisError, match="NL1.*failed unexpectedly"):
            operating_point(circuit)

    def test_numeric_info_failure_is_recorded_not_raised(self):
        circuit = self._circuit(_BrokenInfoDiode("NL1", "a",
                                                 OverflowError("too hot")))
        op = operating_point(circuit)
        assert op.voltage("a") == pytest.approx(2.5, rel=1e-6)
        assert "NL1" in op.info_failures
        assert "OverflowError" in op.info_failures["NL1"]
        # The failure survives the JSON round trip of the service cache.
        from repro.analysis.results import OPResult

        assert OPResult.from_dict(op.to_dict()).info_failures == op.info_failures


class TestDcRhsSlots:
    def test_unknown_element_raises(self):
        compiled = CompiledCircuit(_diode_resistor())
        compiled.restamp()
        with pytest.raises(NetlistError, match="no element named"):
            compiled.dc_rhs_slots("Vnope")
