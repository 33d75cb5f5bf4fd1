"""Tests for the single-node stability analysis."""

import numpy as np
import pytest

from repro.analysis import FrequencySweep, operating_point, pole_analysis
from repro.circuit import CircuitBuilder
from repro.circuits import parallel_rlc, parallel_rlc_for, series_rlc_divider
from repro.core import PeakType, SingleNodeOptions, analyze_node
from repro.core.single_node import build_node_result
from repro.waveform import Waveform


class TestOnRLCStandards:
    @pytest.mark.parametrize("zeta", [0.15, 0.3, 0.5])
    def test_damping_recovered_from_driving_point_impedance(self, zeta):
        design = parallel_rlc_for(1e6, zeta)
        options = SingleNodeOptions(sweep=FrequencySweep(1e4, 1e8, 40))
        result = analyze_node(design.circuit, design.node, options)
        assert result.has_complex_pole
        assert result.damping_ratio == pytest.approx(zeta, rel=0.05)
        assert result.natural_frequency_hz == pytest.approx(1e6, rel=0.03)

    def test_agrees_with_pole_analysis_ground_truth(self):
        design = parallel_rlc(resistance=2.2e3, inductance=2e-3, capacitance=470e-12)
        options = SingleNodeOptions(sweep=FrequencySweep(1e3, 1e8, 40))
        result = analyze_node(design.circuit, design.node, options)
        pz = pole_analysis(design.circuit)
        pair = pz.dominant_complex_pair()
        assert result.natural_frequency_hz == pytest.approx(pz.natural_frequency(pair), rel=0.02)
        assert result.damping_ratio == pytest.approx(pz.damping_ratio(pair), rel=0.05)

    def test_series_rlc_observed_from_output_node(self):
        design = series_rlc_divider(resistance=200.0)
        options = SingleNodeOptions(sweep=FrequencySweep(1e3, 1e8, 40))
        result = analyze_node(design.circuit, design.node, options)
        assert result.damping_ratio == pytest.approx(design.damping_ratio, rel=0.1)

    def test_summary_and_report_fields(self):
        design = parallel_rlc_for(1e6, 0.2)
        result = analyze_node(design.circuit, design.node,
                              SingleNodeOptions(sweep=FrequencySweep(1e4, 1e8, 40)))
        assert result.stability_peak_magnitude == pytest.approx(25.0, rel=0.1)
        assert result.phase_margin_deg == pytest.approx(22.6, abs=1.5)
        assert result.overshoot_percent == pytest.approx(52.7, abs=3.0)
        assert design.node in result.summary()
        assert result.peak_type is PeakType.NORMAL


class TestRefinement:
    def test_refinement_improves_peak_accuracy(self):
        zeta = 0.12
        design = parallel_rlc_for(3.3e6, zeta)
        coarse_sweep = FrequencySweep(1e4, 1e9, 15)   # deliberately coarse
        no_refine = analyze_node(design.circuit, design.node,
                                 SingleNodeOptions(sweep=coarse_sweep, refine=False))
        refined = analyze_node(design.circuit, design.node,
                               SingleNodeOptions(sweep=coarse_sweep, refine=True))
        true_peak = -1.0 / zeta ** 2
        assert abs(refined.performance_index - true_peak) < abs(
            no_refine.performance_index - true_peak)
        assert refined.performance_index == pytest.approx(true_peak, rel=0.05)
        assert refined.refined_plot is not None
        assert no_refine.refined_plot is None


class TestEdgeCases:
    def test_node_without_complex_pole(self):
        builder = CircuitBuilder("rc only")
        builder.voltage_source("in", "0", dc=1.0, name="Vin")
        builder.resistor("in", "a", 1e3)
        builder.capacitor("a", "0", 1e-9)
        result = analyze_node(builder.build(), "a",
                              SingleNodeOptions(sweep=FrequencySweep(1e2, 1e8, 30)))
        # A single real pole produces at most a shallow curvature feature
        # (|P| <= ~0.5); the damping estimate clamps to 1.0, i.e. the node
        # is reported as unconditionally stable.
        if result.has_complex_pole:
            assert result.stability_peak_magnitude < 0.6
            assert result.damping_ratio == pytest.approx(1.0)
            assert result.overshoot_percent == pytest.approx(0.0, abs=0.1)
        else:
            assert result.performance_index is None

    def test_zero_impedance_node_reports_no_pole(self):
        builder = CircuitBuilder("driven")
        builder.voltage_source("in", "0", dc=1.0, name="Vin")
        builder.resistor("in", "a", 1e3)
        builder.capacitor("a", "0", 1e-9)
        result = analyze_node(builder.build(), "in",
                              SingleNodeOptions(sweep=FrequencySweep(1e2, 1e6, 20)))
        assert not result.has_complex_pole

    def test_operating_point_reuse_gives_same_answer(self):
        design = parallel_rlc_for(1e6, 0.25)
        options = SingleNodeOptions(sweep=FrequencySweep(1e4, 1e8, 30))
        op = operating_point(design.circuit)
        with_op = analyze_node(design.circuit, design.node, options, op=op)
        without = analyze_node(design.circuit, design.node, options)
        assert with_op.performance_index == pytest.approx(without.performance_index, rel=1e-9)

    def test_build_node_result_without_refiner(self):
        design = parallel_rlc_for(1e6, 0.3)
        from repro.core.impedance import ImpedanceSweeper

        sweep = FrequencySweep(1e4, 1e8, 40)
        sweeper = ImpedanceSweeper(design.circuit)
        response = sweeper.impedance_waveforms([design.node], sweep.frequencies)[design.node]
        result = build_node_result(design.node, response.magnitude(),
                                   SingleNodeOptions(sweep=sweep))
        assert result.damping_ratio == pytest.approx(0.3, rel=0.1)
        assert result.refined_plot is None
