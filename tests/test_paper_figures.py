"""The paper's tables and figures, asserted in the tier-1 suite.

Each test carries the assertions of one ``benchmarks/bench_*.py`` table
regenerator (Tables 1-2, Figs. 2-5, the section-3 method agreement and
the numerical ablations), without timing and without writing the
regenerated tables: the benches stay the way to print them, this module
is what keeps the paper's numbers from drifting.
"""

import math

import numpy as np
import pytest

from repro.analysis import FrequencySweep, log_sweep, operating_point
from repro.circuits import (
    bias_circuit,
    opamp_buffer,
    opamp_open_loop,
    opamp_with_bias,
    parallel_rlc_for,
)
from repro.core import (
    PAPER_TABLE_1,
    AllNodesOptions,
    SecondOrderSystem,
    SingleNodeOptions,
    analyze_all_nodes,
    analyze_node,
    compare_methods,
    dominant_negative_peak,
    find_peaks,
    node_annotations,
    open_loop_response,
    report_rows,
    stability_plot,
    step_overshoot,
    table_1_rows,
)

#: The sweep of every stability run in the benches: wide enough for the
#: ~2 MHz main loop and the tens-of-MHz local loops.
SWEEP = FrequencySweep(1e3, 1e10, 30)
#: The broken-loop Bode sweep of Fig. 3.
BODE_SWEEP = FrequencySweep(10, 1e9, 30)


@pytest.fixture(scope="module")
def opamp_design():
    return opamp_buffer()


@pytest.fixture(scope="module")
def opamp_op(opamp_design):
    return operating_point(opamp_design.circuit)


@pytest.fixture(scope="module")
def opamp_stability(opamp_design, opamp_op):
    """Fig. 4's single-node result, shared by Figs. 2-4 and section 3."""
    return analyze_node(opamp_design.circuit, opamp_design.output_node,
                        SingleNodeOptions(sweep=SWEEP), op=opamp_op)


@pytest.fixture(scope="module")
def opamp_step(opamp_design, opamp_op, opamp_stability):
    """Fig. 2's transient step measurement (linearised, as in the bench)."""
    return step_overshoot(opamp_design.circuit, opamp_design.input_source,
                          opamp_design.output_node,
                          expected_frequency_hz=opamp_stability.natural_frequency_hz,
                          op=opamp_op)


@pytest.fixture(scope="module")
def open_loop():
    """Fig. 3's broken-loop gain/phase measurement."""
    design = opamp_open_loop()
    return open_loop_response(design.circuit, design.output_node,
                              sweep=BODE_SWEEP, invert=True)


@pytest.fixture(scope="module")
def table2_design():
    return opamp_with_bias()


@pytest.fixture(scope="module")
def table2_result(table2_design):
    return analyze_all_nodes(table2_design.circuit,
                             AllNodesOptions(sweep=SWEEP))


class TestTable1:
    def test_regenerated_rows_match_paper(self):
        by_damping = {row.damping: row for row in table_1_rows()}
        for paper in PAPER_TABLE_1:
            generated = by_damping[paper.damping]
            if math.isfinite(paper.performance_index):
                assert generated.performance_index == pytest.approx(
                    paper.performance_index, rel=0.05, abs=0.06)
            assert generated.overshoot_percent == pytest.approx(
                paper.overshoot_percent, abs=2.0)
            if paper.max_magnitude is not None \
                    and math.isfinite(paper.max_magnitude):
                assert generated.max_magnitude == pytest.approx(
                    paper.max_magnitude, rel=0.03)
            if paper.phase_margin_deg is not None:
                # The paper's PM column follows the 100*zeta rule of thumb.
                assert generated.phase_margin_deg == pytest.approx(
                    paper.phase_margin_deg, abs=6.5)

    def test_measured_peak_matches_analytic_index(self):
        """The performance index measured by running the stability plot
        on the analytic prototype's response, not the closed form."""
        for zeta in (0.7, 0.5, 0.4, 0.3, 0.2, 0.1):
            response = SecondOrderSystem(zeta, 1e6).response(
                log_sweep(1e4, 1e8, 400))
            peak = dominant_negative_peak(find_peaks(stability_plot(response)))
            assert peak.value == pytest.approx(-1.0 / zeta ** 2, rel=0.03)


class TestTable2:
    def test_loops_grouped_as_in_paper(self, table2_result):
        result = table2_result
        rows = report_rows(result)
        assert rows, "the report must contain at least one node row"
        # A main loop in the low MHz over the output/compensation nodes,
        main = result.loops[0]
        assert 1e6 < main.natural_frequency_hz < 4e6
        for node in ("output", "first", "zx"):
            assert node in main.node_names
        # deeply under-damped (~20 deg PM);
        assert main.worst_node.stability_peak_magnitude > 10.0
        # a local loop well above it made of bias-cell nodes only;
        local = [loop for loop in result.loops[1:]
                 if any(n.startswith("bias_") for n in loop.node_names)]
        assert local
        assert local[0].natural_frequency_hz > 3 * main.natural_frequency_hz
        assert all(n.startswith("bias_") for n in local[0].node_names)
        # rows grouped by loop and sorted by natural frequency;
        loop_freqs = [row["loop_frequency_hz"] for row in rows]
        assert loop_freqs == sorted(loop_freqs)
        # and the main loop is the least damped one.
        assert result.worst_loop() is main

    def test_every_node_is_covered(self, table2_design, table2_result):
        flat_nodes = set(table2_design.circuit.flattened().nodes())
        analysed = {r.node for r in table2_result.results}
        skipped = set(table2_result.skipped_nodes)
        assert analysed | skipped >= flat_nodes
        assert not table2_result.failed_nodes


class TestFig2:
    def test_step_overshoot(self, opamp_step, opamp_stability):
        # Paper band: ~50-55 % overshoot.
        assert opamp_step.overshoot_percent == pytest.approx(53.0, abs=8.0)
        # Consistent with the stability-plot prediction.
        assert opamp_step.overshoot_percent == pytest.approx(
            opamp_stability.overshoot_percent, abs=6.0)
        assert opamp_step.equivalent_damping == pytest.approx(
            opamp_stability.damping_ratio, abs=0.04)

    def test_full_nonlinear_step_reads_the_same_overshoot(
            self, opamp_design, opamp_op, opamp_stability, opamp_step):
        """The bench measures Fig. 2 on the linearised circuit; a Newton
        solve per time point must read the same overshoot, since a 1 mV
        step stays small-signal."""
        nonlinear = step_overshoot(
            opamp_design.circuit, opamp_design.input_source,
            opamp_design.output_node,
            expected_frequency_hz=opamp_stability.natural_frequency_hz,
            op=opamp_op, linearize=False)
        assert nonlinear.overshoot_percent == pytest.approx(
            opamp_step.overshoot_percent, abs=2.0)
        assert nonlinear.equivalent_damping == pytest.approx(
            opamp_step.equivalent_damping, abs=0.01)

    def test_overshoot_grows_with_load(self, opamp_design):
        overshoots = []
        for cload in (0.5e-9, 1.0e-9, 2.0e-9):
            result = analyze_node(
                opamp_design.circuit, opamp_design.output_node,
                SingleNodeOptions(sweep=SWEEP, variables={"cload": cload}))
            overshoots.append(result.overshoot_percent)
        assert overshoots[0] < overshoots[1] < overshoots[2]


class TestFig3:
    def test_open_loop_margins(self, open_loop, opamp_stability):
        margins = open_loop.margins
        assert margins.phase_margin_deg == pytest.approx(20.0, abs=6.0)
        assert 1.5e6 < margins.unity_gain_frequency_hz < 3.0e6
        assert margins.phase_crossover_frequency_hz \
            > margins.unity_gain_frequency_hz
        assert margins.dc_gain_db > 80.0
        # Section 3: fn lies between the 0 dB and 180-degree frequencies.
        assert (margins.unity_gain_frequency_hz * 0.9
                <= opamp_stability.natural_frequency_hz
                <= margins.phase_crossover_frequency_hz * 1.1)


class TestFig4:
    def test_stability_peak(self, opamp_stability):
        result = opamp_stability
        assert result.performance_index == pytest.approx(-28.3, abs=6.0)
        assert 1.5e6 < result.natural_frequency_hz < 3.5e6
        assert result.damping_ratio == pytest.approx(0.19, abs=0.04)
        assert 14.0 < result.phase_margin_deg < 27.0
        assert result.overshoot_percent == pytest.approx(53.0, abs=8.0)

    def test_peak_matches_pole_analysis(self, opamp_design, opamp_op,
                                        opamp_stability):
        from repro.analysis import pole_analysis

        poles = pole_analysis(opamp_design.circuit, op=opamp_op)
        pair = poles.dominant_complex_pair()
        assert pair is not None
        assert opamp_stability.natural_frequency_hz == pytest.approx(
            poles.natural_frequency(pair), rel=0.05)
        assert opamp_stability.damping_ratio == pytest.approx(
            poles.damping_ratio(pair), abs=0.03)


class TestFig5:
    def test_bias_circuit_annotation(self):
        design = bias_circuit()
        result = analyze_all_nodes(design.circuit,
                                   AllNodesOptions(sweep=SWEEP))
        assert node_annotations(result)
        worst = result.worst_loop()
        assert worst is not None
        # The local loop lives in the follower / bias-line block, well
        # above the low-MHz range, and needs a fix.
        assert design.bias_line_node in worst.node_names
        assert design.follower_base_node in worst.node_names
        assert worst.natural_frequency_hz > 5e6
        assert 0.3 < worst.damping_ratio < 0.55
        assert 12.0 < worst.overshoot_percent < 30.0
        assert worst.phase_margin_deg < 52.0
        assert worst.is_problematic

    def test_compensation_capacitor_damps_local_loop(self):
        dampings = []
        for ccomp in (0.0, 0.5e-12, 1e-12, 2e-12):
            result = analyze_all_nodes(bias_circuit(ccomp=ccomp).circuit,
                                       AllNodesOptions(sweep=SWEEP))
            local = [loop for loop in result.loops
                     if loop.natural_frequency_hz > 5e6]
            dampings.append(min(loop.damping_ratio for loop in local)
                            if local else 1.0)
        # Damping improves monotonically with the capacitor and ~1 pF
        # lifts the loop out of the problematic region.
        assert dampings[0] < 0.55
        assert all(b >= a - 0.02 for a, b in zip(dampings, dampings[1:]))
        assert dampings[2] > 0.6


class TestMethodAgreement:
    def test_three_methods_agree(self, opamp_stability, opamp_step,
                                 open_loop):
        agreement = compare_methods(opamp_stability.performance_index,
                                    opamp_stability.natural_frequency_hz,
                                    step_measurement=opamp_step,
                                    open_loop_measurement=open_loop)
        assert agreement.damping_spread() < 0.06
        assert agreement.natural_frequency_bracketed()


ZETA = 0.2
FN = 3.3e6


class TestAblations:
    def test_derivative_scheme(self):
        """Gradient vs. smoothing-spline differentiation, clean and noisy."""
        system = SecondOrderSystem(ZETA, FN)
        freqs = log_sweep(1e5, 1e8, 200)
        rng = np.random.default_rng(7)
        clean = np.abs(system.transfer(1j * 2 * np.pi * freqs))
        noisy = clean * (1.0 + rng.normal(scale=2e-3, size=len(freqs)))
        truth = -1.0 / ZETA ** 2

        def peak(magnitude, method):
            plot = stability_plot(magnitude, frequencies=freqs, method=method)
            return dominant_negative_peak(find_peaks(plot))

        for method in ("gradient", "smoothed"):
            clean_peak = peak(clean, method)
            assert clean_peak.value == pytest.approx(truth, rel=0.15)
            assert clean_peak.frequency_hz == pytest.approx(FN, rel=0.05)
        # Under 0.2 % noise the depth is unreliable, but the default
        # scheme still locates the resonance.
        assert peak(noisy, "gradient").frequency_hz == pytest.approx(
            FN, rel=0.10)

    def test_grid_density_and_refinement(self):
        design = parallel_rlc_for(FN, ZETA)
        truth = -1.0 / ZETA ** 2
        peaks = {}
        for ppd in (10, 80):
            for refine in (False, True):
                options = SingleNodeOptions(
                    sweep=FrequencySweep(1e5, 1e8, ppd), refine=refine)
                peaks[ppd, refine] = analyze_node(
                    design.circuit, design.node, options).performance_index
        # Refinement recovers the peak from a 10-points-per-decade scan;
        # denser coarse grids converge towards the analytic value.
        assert peaks[10, True] == pytest.approx(truth, rel=0.05)
        assert abs(peaks[10, False] - truth) >= abs(peaks[10, True] - truth)
        assert abs(peaks[80, False] - truth) <= abs(peaks[10, False] - truth)
