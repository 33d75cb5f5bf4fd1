"""Tests for the AC small-signal analysis."""

import numpy as np
import pytest

from repro.analysis import FrequencySweep, ac_analysis, operating_point
from repro.circuit import CircuitBuilder
from repro.circuits.models import NPN
from repro.circuit.units import thermal_voltage
from repro.exceptions import AnalysisError


def rc_lowpass(r=1e3, c=100e-9):
    builder = CircuitBuilder("rc")
    builder.voltage_source("in", "0", dc=1.0, ac=1.0, name="Vin")
    builder.resistor("in", "out", r)
    builder.capacitor("out", "0", c)
    return builder.build()


class TestLinearAC:
    def test_rc_corner_frequency(self):
        circuit = rc_lowpass()
        fc = 1.0 / (2 * np.pi * 1e3 * 100e-9)
        ac = ac_analysis(circuit, FrequencySweep(fc / 1e3, fc * 1e3, 20))
        out = ac.waveform("out")
        assert abs(out.at(fc)) == pytest.approx(1 / np.sqrt(2), rel=1e-3)
        # -20 dB/decade well above the corner.
        assert abs(out.at(100 * fc)) == pytest.approx(0.01, rel=0.02)

    def test_phase_at_corner(self):
        circuit = rc_lowpass()
        fc = 1.0 / (2 * np.pi * 1e3 * 100e-9)
        ac = ac_analysis(circuit, FrequencySweep(fc / 100, fc * 100, 40))
        phase = ac.phase_deg("out")
        index = int(np.argmin(np.abs(ac.frequencies - fc)))
        assert phase[index] == pytest.approx(-45.0, abs=2.0)

    def test_requires_ac_source(self):
        builder = CircuitBuilder("noac")
        builder.voltage_source("in", "0", dc=1.0)
        builder.resistor("in", "0", 1e3)
        with pytest.raises(AnalysisError):
            ac_analysis(builder.build(), FrequencySweep(1, 1e3, 5))

    def test_response_scales_linearly_with_stimulus(self):
        c1 = rc_lowpass()
        c2 = rc_lowpass()
        c2["Vin"].ac_mag = 3.0
        sweep = FrequencySweep(10, 1e6, 10)
        a1 = ac_analysis(c1, sweep).voltage("out")
        a2 = ac_analysis(c2, sweep).voltage("out")
        assert np.allclose(a2, 3.0 * a1)

    def test_inductor_ac(self):
        builder = CircuitBuilder("rl")
        builder.voltage_source("in", "0", ac=1.0)
        builder.resistor("in", "out", 1e3)
        builder.inductor("out", "0", 1e-3)
        fc = 1e3 / (2 * np.pi * 1e-3)    # R/(2 pi L)
        ac = ac_analysis(builder.build(), FrequencySweep(fc / 100, fc * 100, 20))
        out = ac.waveform("out")
        assert abs(out.at(fc)) == pytest.approx(1 / np.sqrt(2), rel=1e-2)
        assert abs(out.y[0]) < 0.02           # shorted at low frequency

    def test_current_accessor_and_magnitude(self):
        circuit = rc_lowpass()
        from repro.circuit.elements import branch_key

        ac = ac_analysis(circuit, FrequencySweep(1, 1e6, 5))
        assert ac.current(branch_key("Vin")).shape == ac.frequencies.shape
        assert np.all(ac.magnitude("out") <= 1.0 + 1e-9)

    def test_waveform_ground_is_zero(self):
        ac = ac_analysis(rc_lowpass(), FrequencySweep(1, 1e3, 5))
        assert np.all(ac.voltage("0") == 0)


class TestSmallSignalLinearisation:
    def test_common_emitter_gain(self):
        builder = CircuitBuilder("ce")
        builder.voltage_source("vcc", "0", dc=5.0)
        builder.voltage_source("vb", "0", dc=0.65, ac=1.0)
        builder.resistor("vcc", "c", 10e3, name="RL")
        builder.bjt("c", "vb", "0", NPN, name="Q1")
        circuit = builder.build()
        op = operating_point(circuit)
        gm = op.device_info["Q1"]["gm"]
        ro = op.device_info["Q1"]["ro"]
        expected_gain = gm * (10e3 * ro / (10e3 + ro))
        ac = ac_analysis(circuit, FrequencySweep(10, 1e4, 10), op=op)
        gain = abs(ac.voltage("c")[0])
        assert gain == pytest.approx(expected_gain, rel=0.02)

    def test_reusing_op_from_unmodified_circuit(self):
        circuit = rc_lowpass()
        op = operating_point(circuit)
        sweep = FrequencySweep(10, 1e6, 10)
        direct = ac_analysis(circuit, sweep).voltage("out")
        reused = ac_analysis(circuit, sweep, op=op).voltage("out")
        assert np.allclose(direct, reused)

    def test_emitter_degeneration_reduces_gain(self):
        def build(re):
            builder = CircuitBuilder("ce-degen")
            builder.voltage_source("vcc", "0", dc=5.0)
            builder.voltage_source("vb", "0", dc=0.70, ac=1.0)
            builder.resistor("vcc", "c", 3.3e3)
            builder.bjt("c", "vb", "e", NPN, name="Q1")
            builder.resistor("e", "0", re)
            return builder.build()

        sweep = FrequencySweep(10, 1e3, 5)

        def gain_and_prediction(re):
            circuit = build(re)
            op = operating_point(circuit)
            gm = op.device_info["Q1"]["gm"]
            gain = abs(ac_analysis(circuit, sweep, op=op).voltage("c")[0])
            return gain, 3.3e3 / (re + 1.0 / gm)

        gain_lo, predicted_lo = gain_and_prediction(100.0)
        gain_hi, predicted_hi = gain_and_prediction(1e3)
        assert gain_hi < gain_lo
        # Both match the degenerated common-emitter gain RL/(RE + 1/gm).
        assert gain_lo == pytest.approx(predicted_lo, rel=0.1)
        assert gain_hi == pytest.approx(predicted_hi, rel=0.1)


class TestSolveAcStacked:
    def test_matches_per_frequency_solve(self):
        from repro.analysis.ac import solve_ac_stacked

        rng = np.random.default_rng(3)
        n = 5
        G = rng.standard_normal((n, n)) + n * np.eye(n)
        C = rng.standard_normal((n, n)) * 1e-9
        b = rng.standard_normal(n)
        freqs = np.logspace(0, 9, 37)
        stacked = solve_ac_stacked(G, C, b, freqs)
        for k, f in enumerate(freqs):
            direct = np.linalg.solve(G + 2j * np.pi * f * C, b)
            assert np.allclose(stacked[k], direct)

    def test_matrix_rhs_shape(self):
        from repro.analysis.ac import solve_ac_stacked

        G, C = 2.0 * np.eye(3), 1e-9 * np.eye(3)
        rhs = np.eye(3)[:, :2]
        out = solve_ac_stacked(G, C, rhs, [1.0, 10.0])
        assert out.shape == (2, 3, 2)

    def test_singular_frequency_is_named(self):
        from repro.analysis.ac import solve_ac_stacked
        from repro.exceptions import SingularMatrixError

        # Pure LC at resonance: G singular, G + jwC singular at w where
        # det(G + jwC) = 0.  A zero G makes f -> 0 produce a singular
        # matrix while other frequencies are fine.
        G = np.zeros((2, 2))
        C = np.eye(2)
        with pytest.raises(SingularMatrixError, match="singular at 0"):
            solve_ac_stacked(G, C, np.ones(2), [0.0, 1.0])

    def test_non_finite_matrices_rejected(self):
        from repro.analysis.ac import solve_ac_stacked
        from repro.exceptions import SingularMatrixError

        G = np.eye(2)
        G[0, 0] = np.nan
        with pytest.raises(SingularMatrixError, match="non-finite"):
            solve_ac_stacked(G, np.eye(2), np.ones(2), [1.0])
