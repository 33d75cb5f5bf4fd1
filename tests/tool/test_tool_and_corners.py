"""Tests for the push-button tool and the corner/temperature sweeps."""

import os

import pytest

from repro.analysis import FrequencySweep
from repro.circuit.parser import parse_netlist
from repro.circuits import bias_circuit, opamp_buffer, parallel_rlc_for
from repro.core import AllNodesOptions
from repro.exceptions import ToolError
from repro.tool import (
    Corner,
    SimulationEnvironment,
    StabilityAnalysisTool,
    default_corners,
    format_corner_table,
    run_corners,
    temperature_sweep,
)

SWEEP = FrequencySweep(1e4, 1e10, 25)

TANK_NETLIST = """tank standard
.param rval=1k
R1 tank 0 {rval}
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""


@pytest.fixture()
def tool(tmp_path):
    environment = SimulationEnvironment(name="test", sweep=SWEEP,
                                        result_root=str(tmp_path))
    return StabilityAnalysisTool(environment)


class TestSingleNodeMode:
    def test_push_button_single_node(self, tool):
        design = parallel_rlc_for(1e6, 0.25)
        run = tool.run_single_node(design.circuit, design.node)
        assert run.ok and run.mode == "single-node"
        assert run.single_node_result.damping_ratio == pytest.approx(0.25, rel=0.1)
        assert "Estimated phase margin" in run.report
        assert run.report_path and os.path.exists(run.report_path)

    def test_option_override(self, tool):
        design = parallel_rlc_for(1e6, 0.25)
        run = tool.run_single_node(design.circuit, design.node, refine=False)
        assert run.single_node_result.refined_plot is None

    def test_unknown_option_rejected(self, tool):
        design = parallel_rlc_for(1e6, 0.25)
        with pytest.raises(ToolError):
            tool.run_single_node(design.circuit, design.node, bogus=True)

    def test_failure_is_captured_not_raised(self, tool):
        design = parallel_rlc_for(1e6, 0.25)
        run = tool.run_single_node(design.circuit, "no-such-node")
        assert not run.ok
        assert "failed" in run.report
        assert tool.diagnostics.has_errors


class TestAllNodesMode:
    def test_push_button_all_nodes(self, tool):
        design = bias_circuit()
        run = tool.run_all_nodes(design.circuit)
        assert run.ok and run.all_nodes_result is not None
        assert run.all_nodes_result.loops
        assert design.bias_line_node in run.annotations
        # Result files are written to the session's result directory.
        files = os.listdir(run.result_directory)
        assert "all_nodes_report.txt" in files
        assert "all_nodes_rows.csv" in files
        assert "annotated_netlist.txt" in files
        assert "diagnostics.json" in files

    def test_reports_can_be_disabled(self, tmp_path):
        environment = SimulationEnvironment(name="noreports", sweep=SWEEP,
                                            result_root=str(tmp_path))
        tool = StabilityAnalysisTool(environment, write_reports=False)
        run = tool.run_all_nodes(parallel_rlc_for(1e6, 0.3).circuit)
        assert run.ok and run.report_path is None

    def test_environment_variables_flow_into_analysis(self, tmp_path):
        environment = SimulationEnvironment(name="vars", sweep=SWEEP,
                                            result_root=str(tmp_path),
                                            design_variables={"cload": 3e-9})
        tool = StabilityAnalysisTool(environment)
        design = opamp_buffer()
        run = tool.run_single_node(design.circuit, design.output_node)
        heavier = run.single_node_result
        nominal = StabilityAnalysisTool(
            SimulationEnvironment(name="nom", sweep=SWEEP, result_root=str(tmp_path))
        ).run_single_node(design.circuit, design.output_node).single_node_result
        assert heavier.natural_frequency_hz < nominal.natural_frequency_hz


class TestCorners:
    def test_default_corner_set(self):
        corners = default_corners()
        assert [c.name for c in corners] == ["nominal", "cold", "hot"]

    def test_run_corners_on_bias_cell(self):
        design = bias_circuit()
        corners = [Corner("nominal", 27.0), Corner("hot", 125.0),
                   Corner("compensated", 27.0, variables={"ccomp": 1e-12})]
        results = run_corners(design.circuit, corners,
                              options=AllNodesOptions(sweep=SWEEP))
        assert all(r.ok for r in results)
        by_name = {r.corner.name: r for r in results}
        nominal_loops = by_name["nominal"].loop_summary()
        comp_loops = by_name["compensated"].loop_summary()
        nominal_worst = min(row["damping_ratio"] for row in nominal_loops)
        comp_worst = min(row["damping_ratio"] for row in comp_loops) if comp_loops else 1.0
        assert comp_worst > nominal_worst
        table = format_corner_table(results)
        assert "nominal" in table and "compensated" in table

    def test_temperature_sweep_via_tool(self, tool):
        design = bias_circuit()
        run = tool.run_temperature_sweep(design.circuit, [0.0, 85.0])
        assert run.mode == "temperature-sweep"
        assert len(run.corner_results) == 2
        assert all(r.ok for r in run.corner_results)
        assert "T=0C" in run.report and "T=85C" in run.report

    def test_corner_run_via_tool_with_failure(self, tool):
        design = bias_circuit()
        # A corner with an impossible supply makes the operating point fail;
        # the tool must report it and keep the other corner.
        corners = [Corner("ok", 27.0),
                   Corner("broken", 27.0, variables={"vsupply": -5.0})]
        run = tool.run_corners(design.circuit, corners)
        by_name = {r.corner.name: r for r in run.corner_results}
        assert by_name["ok"].ok
        # Either the corner fails outright or it completes with no loops;
        # both are acceptable, but a failure must be recorded as such.
        if not by_name["broken"].ok:
            assert tool.diagnostics.has_errors

    def test_duplicate_corner_names_rejected(self):
        circuit = parse_netlist(TANK_NETLIST, first_line_title=True)
        with pytest.raises(ToolError):
            run_corners(circuit, [Corner("a", 0.0), Corner("a", 85.0)])

    def test_failing_corner_is_isolated_and_recorded(self, tool):
        circuit = parse_netlist(TANK_NETLIST, first_line_title=True)
        corners = [Corner("nominal", 27.0),
                   Corner("shorted", 27.0, variables={"rval": 0.0}),
                   Corner("hot", 125.0)]
        run = tool.run_corners(circuit, corners)
        results = run.corner_results
        assert [r.corner.name for r in results] == ["nominal", "shorted", "hot"]
        assert [r.ok for r in results] == [True, False, True]
        assert results[1].result is None
        assert "zero resistance" in results[1].error
        assert results[0].loop_summary() and results[2].loop_summary()
        assert tool.diagnostics.has_errors
        assert not run.ok
        assert "shorted" in run.report and "FAILED" in run.report


class _RecordingAnalysis:
    """Stands in for ``analyze_all_nodes``: records each call's options
    and fails for the temperatures it is told to."""

    def __init__(self, failing_temperatures=(), exception=RuntimeError):
        self.failing = set(failing_temperatures)
        self.exception = exception
        self.calls = []

    def __call__(self, circuit, options):
        self.calls.append(options)
        if options.temperature in self.failing:
            raise self.exception(f"boom {options.temperature:g}")
        return ("result", options.temperature)


@pytest.fixture()
def analysis(monkeypatch):
    import repro.tool.corners as corners_module

    def install(**kwargs):
        fake = _RecordingAnalysis(**kwargs)
        monkeypatch.setattr(corners_module, "analyze_all_nodes", fake)
        return fake

    return install


class TestRunCornersLoop:
    CORNERS = [Corner(f"c{i}", float(i)) for i in range(4)]

    def test_empty_corner_list(self, analysis):
        fake = analysis()
        assert run_corners(parallel_rlc_for(1e6, 0.3).circuit, []) == []
        assert fake.calls == []

    def test_corners_run_once_each_in_order(self, analysis):
        fake = analysis()
        results = run_corners(parallel_rlc_for(1e6, 0.3).circuit, self.CORNERS)
        assert [options.temperature for options in fake.calls] == [0.0, 1.0, 2.0, 3.0]
        assert [r.corner for r in results] == self.CORNERS
        assert [r.result for r in results] == [("result", float(i)) for i in range(4)]
        assert all(r.ok and r.error is None for r in results)

    @pytest.mark.parametrize("failing", [{0.0}, {1.0, 3.0}, {0.0, 1.0, 2.0, 3.0}],
                             ids=["first", "alternate", "all"])
    def test_failures_are_isolated(self, analysis, failing):
        fake = analysis(failing_temperatures=failing)
        results = run_corners(parallel_rlc_for(1e6, 0.3).circuit, self.CORNERS)
        # A failure never stops the corners after it.
        assert len(fake.calls) == len(self.CORNERS)
        assert [r.ok for r in results] == [c.temperature not in failing
                                           for c in self.CORNERS]
        for result in results:
            if result.ok:
                assert result.error is None
            else:
                assert result.result is None
                assert result.error == f"boom {result.corner.temperature:g}"

    @pytest.mark.parametrize("exception", [ValueError, ToolError])
    def test_corner_error_keeps_the_message(self, analysis, exception):
        analysis(failing_temperatures={0.0}, exception=exception)
        failed, passed = run_corners(parallel_rlc_for(1e6, 0.3).circuit,
                                     [Corner("cold", 0.0), Corner("warm", 27.0)])
        assert not failed.ok and failed.error == "boom 0"
        assert failed.loop_summary() == []
        assert passed.ok and passed.error is None

    def test_interrupt_is_not_swallowed(self, analysis):
        fake = analysis(failing_temperatures={1.0}, exception=KeyboardInterrupt)
        with pytest.raises(KeyboardInterrupt):
            run_corners(parallel_rlc_for(1e6, 0.3).circuit, self.CORNERS)
        assert [options.temperature for options in fake.calls] == [0.0, 1.0]

    def test_corner_overrides_merge_over_base_options(self, analysis):
        fake = analysis()
        base = AllNodesOptions(sweep=SWEEP, temperature=27.0,
                               variables={"a": 1.0, "b": 2.0})
        run_corners(parallel_rlc_for(1e6, 0.3).circuit,
                    [Corner("hot", 85.0, variables={"b": 5.0})], options=base)
        (options,) = fake.calls
        assert options.temperature == 85.0
        assert options.variables == {"a": 1.0, "b": 5.0}
        assert options.sweep is SWEEP
        # The caller's options are left as they were.
        assert base.temperature == 27.0
        assert base.variables == {"a": 1.0, "b": 2.0}

    def test_temperature_sweep_builds_one_corner_per_temperature(self, analysis):
        fake = analysis()
        results = temperature_sweep(parallel_rlc_for(1e6, 0.3).circuit,
                                    [-40, 27, 125.5])
        assert [r.corner.name for r in results] == ["T=-40C", "T=27C", "T=125.5C"]
        assert [r.corner.temperature for r in results] == [-40.0, 27.0, 125.5]
        assert [options.temperature for options in fake.calls] == [-40.0, 27.0, 125.5]
