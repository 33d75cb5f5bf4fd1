"""Tests for the all-nodes run, loop identification, reports and annotation."""

import numpy as np
import pytest

from repro.analysis import FrequencySweep
from repro.circuit import CircuitBuilder
from repro.circuit.elements import (Capacitor, Inductor, Resistor,
                                    VoltageSource)
from repro.circuit.elements.base import Element
from repro.circuit.netlist import Circuit
from repro.circuits import bias_circuit, parallel_rlc_for
from repro.core import (
    AllNodesOptions,
    analyze_all_nodes,
    analyze_node,
    annotate_netlist,
    element_annotations,
    format_all_nodes_report,
    format_loop_summary,
    format_node_table,
    format_special_cases,
    identify_loops,
    node_annotations,
    report_rows,
)
from repro.exceptions import StabilityAnalysisError

SWEEP = FrequencySweep(1e4, 1e10, 30)


@pytest.fixture(scope="module")
def bias_result():
    design = bias_circuit()
    return design, analyze_all_nodes(design.circuit, AllNodesOptions(sweep=SWEEP))


def two_tank_circuit():
    """Two well-separated RLC tanks sharing one circuit: two loops."""
    builder = CircuitBuilder("two tanks")
    builder.voltage_source("vdd", "0", dc=1.0, name="Vdd")
    builder.resistor("vdd", "tank1", 1e9)
    builder.resistor("tank1", "0", 833.0)
    builder.inductor("tank1", "0", 1e-3)
    builder.capacitor("tank1", "0", 1e-9)     # ~159 kHz, zeta=0.6
    builder.resistor("vdd", "tank2", 1e9)
    builder.resistor("tank2", "0", 1e3)
    builder.inductor("tank2", "0", 1e-6)
    builder.capacitor("tank2", "0", 100e-12)  # ~15.9 MHz, zeta=0.05
    return builder.build()


class _LateCapacitanceElement(Element):
    """Nonlinear element that adds a capacitance stamp only from its
    second evaluation on: its companion structure depends on values."""

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
            stamper.capacitance_op(self.nodes[0], "0", 1e-12)


def _late_capacitance_circuit():
    """The element on node ``a`` behind ``R1``, with an L-C-R tank hung
    off ``a`` (C to ground, L to ``b``, R from ``b`` to ground)."""
    circuit = Circuit("late capacitance")
    circuit.add(VoltageSource("V1", "in", "0", dc=5.0))
    circuit.add(Resistor("R1", "in", "a", 1e3))
    circuit.add(_LateCapacitanceElement("NL1", "a"))
    circuit.add(Capacitor("C1", "a", "0", 1e-9))
    circuit.add(Inductor("L1", "a", "b", 1e-3))
    circuit.add(Resistor("R2", "b", "0", 1e3))
    return circuit


class TestAllNodesRun:
    def test_bias_circuit_finds_the_local_loop(self, bias_result):
        design, result = bias_result
        assert result.loops, "expected at least one loop"
        worst = result.worst_loop()
        assert worst.natural_frequency_hz == pytest.approx(
            design.expected_local_loop_hz, rel=0.35)
        assert worst.damping_ratio == pytest.approx(design.expected_local_damping, abs=0.1)
        assert design.bias_line_node in worst.node_names
        assert design.follower_base_node in worst.node_names

    def test_supply_node_skipped(self, bias_result):
        _, result = bias_result
        assert "vcc" in result.skipped_nodes
        assert all(r.node != "vcc" for r in result.results)

    def test_node_result_lookup(self, bias_result):
        design, result = bias_result
        node_result = result.node_result(design.bias_line_node)
        assert node_result.has_complex_pole
        with pytest.raises(StabilityAnalysisError):
            result.node_result("not-a-node")

    def test_fast_and_reference_paths_agree(self):
        # The screen against the paper's reference definition: an AC
        # analysis of the circuit excited at each node in turn.
        design = parallel_rlc_for(1e6, 0.25)
        options = AllNodesOptions(sweep=FrequencySweep(1e4, 1e8, 30))
        screen = analyze_all_nodes(design.circuit, options)
        assert design.node in [r.node for r in screen.results]
        for fast in screen.results:
            slow = analyze_node(design.circuit, fast.node, options=options,
                                op=screen.op)
            if slow.performance_index is None:
                assert fast.performance_index is None
            else:
                assert fast.performance_index == pytest.approx(
                    slow.performance_index, rel=1e-6)

    def test_two_loops_separated(self):
        result = analyze_all_nodes(two_tank_circuit(),
                                   AllNodesOptions(sweep=FrequencySweep(1e3, 1e9, 30)))
        assert len(result.loops) == 2
        freqs = [loop.natural_frequency_hz for loop in result.loops]
        assert freqs[0] == pytest.approx(159e3, rel=0.05)
        assert freqs[1] == pytest.approx(15.9e6, rel=0.05)
        assert result.loops[1].is_problematic          # zeta = 0.05
        assert not result.loops[0].is_problematic      # zeta = 0.6

    def test_value_dependent_companion_structure_is_screened(self):
        # The element's companion stamps change after the first
        # evaluation, which the batched linearization rejects; the
        # scalar screen linearizes through the MNA system instead.
        result = analyze_all_nodes(_late_capacitance_circuit(),
                                   AllNodesOptions())
        assert [r.node for r in result.results] == ["a", "b"]
        assert result.skipped_nodes == ["in"]
        assert result.failed_nodes == {}
        assert len(result.loops) == 1
        assert result.node_result("a").performance_index == pytest.approx(
            -0.972164794, rel=1e-9)
        assert result.node_result("b").performance_index == pytest.approx(
            -0.6403886172, rel=1e-9)

    def test_summary_text(self, bias_result):
        _, result = bias_result
        text = result.summary()
        assert "loop" in text.lower()
        assert str(len(result.results)) in text


class TestLoopIdentification:
    def test_clustering_tolerance(self, bias_result):
        _, result = bias_result
        tight = identify_loops(result.results, frequency_tolerance=0.01)
        loose = identify_loops(result.results, frequency_tolerance=2.0)
        assert len(tight) >= len(result.loops) >= len(loose)

    def test_min_peak_filter(self, bias_result):
        _, result = bias_result
        all_nodes = identify_loops(result.results, min_peak_magnitude=0.0)
        strong_only = identify_loops(result.results, min_peak_magnitude=2.0)
        assert sum(len(l.nodes) for l in strong_only) < sum(len(l.nodes) for l in all_nodes)

    def test_loop_members_sorted_by_peak(self, bias_result):
        _, result = bias_result
        for loop in result.loops:
            peaks = [r.performance_index for r in loop.nodes]
            assert peaks == sorted(peaks)

    def test_empty_input(self):
        assert identify_loops([]) == []

    def test_loop_summary_mentions_attention_flag(self):
        result = analyze_all_nodes(two_tank_circuit(),
                                   AllNodesOptions(sweep=FrequencySweep(1e3, 1e9, 30)))
        text = format_loop_summary(result.loops)
        assert "needs attention" in text


class TestReportsAndAnnotation:
    def test_node_table_contains_loops_and_nodes(self, bias_result):
        design, result = bias_result
        table = format_node_table(result)
        assert "Loop at" in table
        assert design.bias_line_node in table
        assert "Natural Frequency" in table

    def test_full_report_sections(self, bias_result):
        _, result = bias_result
        report = format_all_nodes_report(result)
        for fragment in ("AC-stability analysis report", "Per-node stability peaks",
                         "Loop interpretation", "Skipped nodes"):
            assert fragment in report

    def test_special_cases_section(self, bias_result):
        _, result = bias_result
        text = format_special_cases(result)
        assert isinstance(text, str) and text.strip()

    def test_report_rows_structure(self, bias_result):
        design, result = bias_result
        rows = report_rows(result)
        assert rows, "expected at least one row"
        assert {"loop", "node", "stability_peak", "natural_frequency_hz"} <= set(rows[0])
        assert any(row["node"] == design.bias_line_node for row in rows)
        # Rows are grouped by loop in ascending frequency order.
        loop_freqs = [row["loop_frequency_hz"] for row in rows]
        assert loop_freqs == sorted(loop_freqs)

    def test_node_annotations(self, bias_result):
        design, result = bias_result
        annotations = node_annotations(result)
        assert design.bias_line_node in annotations
        assert "peak=" in annotations[design.bias_line_node]

    def test_annotated_netlist(self, bias_result):
        design, result = bias_result
        text = annotate_netlist(design.circuit, result)
        assert "annotated with AC-stability results" in text
        assert "Loop summary" in text
        assert design.bias_line_node in text

    def test_element_annotations_map_devices_to_loops(self, bias_result):
        design, result = bias_result
        annotations = element_annotations(design.circuit, result)
        # The follower transistor sits inside the flagged local loop.
        assert annotations["QF"] is not None and "loop at" in annotations["QF"]
        # The supply source touches only vcc/ground and carries no loop info.
        assert annotations["VCC"] is None or "loop" in annotations["VCC"]
