"""The push-button stability analysis tool (paper sections 4-6).

:class:`StabilityAnalysisTool` ties every layer together the way the
original DFII tool's procedural flow does (Fig. 6): it takes a circuit and
a :class:`~repro.tool.session.SimulationEnvironment`, runs the requested
mode ("single node" or "all nodes"), writes the reports and annotations
into the session's result directory, records diagnostics, and exposes the
corner/temperature-sweep features.

A typical "push-button" run::

    from repro.circuits import opamp_with_bias
    from repro.tool import StabilityAnalysisTool

    design = opamp_with_bias()
    tool = StabilityAnalysisTool()
    run = tool.run_all_nodes(design.circuit)
    print(run.report)
    print("reports in", run.result_directory)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.sweeps import FrequencySweep
from repro.circuit.netlist import Circuit
from repro.core.all_nodes import AllNodesOptions, AllNodesResult, analyze_all_nodes
from repro.core.annotate import annotate_netlist, node_annotations
from repro.core.report import (
    format_all_nodes_report,
    format_single_node_report,
    report_rows,
)
from repro.core.single_node import NodeStabilityResult, SingleNodeOptions, analyze_node
from repro.exceptions import ReproError, ToolError
from repro.tool.corners import Corner, CornerResult, format_corner_table, run_corners, temperature_sweep
from repro.tool.diagnostics import DiagnosticLog
from repro.tool.session import SimulationEnvironment

__all__ = ["ToolRun", "StabilityAnalysisTool"]


@dataclass
class ToolRun:
    """Everything a tool invocation produced."""

    mode: str
    report: str
    result_directory: Optional[str] = None
    report_path: Optional[str] = None
    single_node_result: Optional[NodeStabilityResult] = None
    all_nodes_result: Optional[AllNodesResult] = None
    annotations: Dict[str, str] = field(default_factory=dict)
    corner_results: List[CornerResult] = field(default_factory=list)
    diagnostics: Optional[DiagnosticLog] = None

    @property
    def ok(self) -> bool:
        return self.diagnostics is None or not self.diagnostics.has_errors


class StabilityAnalysisTool:
    """Push-button front end for the stability analyses.

    Parameters
    ----------
    environment:
        Simulation environment (temperature, sweep, design variables,
        result directory).  A default one is created when omitted.
    write_reports:
        When True (default) each run writes its text report, the raw rows
        and the annotated netlist into the session's result directory.
    """

    def __init__(self, environment: Optional[SimulationEnvironment] = None,
                 write_reports: bool = True):
        self.environment = environment or SimulationEnvironment()
        self.write_reports = write_reports
        self.diagnostics = DiagnosticLog()

    # ------------------------------------------------------------------
    # Option plumbing
    # ------------------------------------------------------------------
    def _single_node_options(self, **overrides) -> SingleNodeOptions:
        options = SingleNodeOptions(
            sweep=self.environment.sweep,
            temperature=self.environment.temperature,
            gmin=self.environment.gmin,
            variables=dict(self.environment.design_variables) or None,
            backend=self.environment.backend,
        )
        for key, value in overrides.items():
            if not hasattr(options, key):
                raise ToolError(f"unknown single-node option {key!r}")
            setattr(options, key, value)
        return options

    def _all_nodes_options(self, **overrides) -> AllNodesOptions:
        options = AllNodesOptions(
            sweep=self.environment.sweep,
            temperature=self.environment.temperature,
            gmin=self.environment.gmin,
            variables=dict(self.environment.design_variables) or None,
            backend=self.environment.backend,
        )
        for key, value in overrides.items():
            if not hasattr(options, key):
                raise ToolError(f"unknown all-nodes option {key!r}")
            setattr(options, key, value)
        return options

    # ------------------------------------------------------------------
    # Run modes
    # ------------------------------------------------------------------
    def run_single_node(self, circuit: Circuit, node: str, **options) -> ToolRun:
        """"Single Node" run mode: analyse one selected node."""
        self.environment.import_variables_from(circuit)
        run_options = self._single_node_options(**options)
        self.diagnostics.info("setup", f"single-node run on {node!r}",
                              circuit=circuit.title,
                              temperature=self.environment.temperature)
        try:
            result = analyze_node(circuit, node, options=run_options)
        except ReproError as exc:
            self.diagnostics.error("simulation", f"single-node run failed on {node!r}",
                                   exception=exc)
            return ToolRun(mode="single-node", report=f"run failed: {exc}",
                           diagnostics=self.diagnostics)
        report = format_single_node_report(result)
        run = ToolRun(mode="single-node", report=report, single_node_result=result,
                      diagnostics=self.diagnostics)
        self._write_outputs(run, circuit, filename=f"single_node_{_safe(node)}.txt")
        return run

    def run_all_nodes(self, circuit: Circuit, **options) -> ToolRun:
        """"All Nodes" run mode: analyse every node and identify the loops."""
        self.environment.import_variables_from(circuit)
        run_options = self._all_nodes_options(**options)
        self.diagnostics.info("setup", "all-nodes run",
                              circuit=circuit.title,
                              temperature=self.environment.temperature)
        try:
            result = analyze_all_nodes(circuit, options=run_options)
        except ReproError as exc:
            self.diagnostics.error("simulation", "all-nodes run failed", exception=exc)
            return ToolRun(mode="all-nodes", report=f"run failed: {exc}",
                           diagnostics=self.diagnostics)
        for node, reason in result.failed_nodes.items():
            self.diagnostics.warning("simulation", f"node {node!r} failed", reason=reason)
        report = format_all_nodes_report(result)
        annotations = node_annotations(result)
        run = ToolRun(mode="all-nodes", report=report, all_nodes_result=result,
                      annotations=annotations, diagnostics=self.diagnostics)
        self._write_outputs(run, circuit, filename="all_nodes_report.txt",
                            all_nodes=result)
        return run

    # ------------------------------------------------------------------
    # Corners and sweeps ("features in development" in the paper)
    # ------------------------------------------------------------------
    def run_corners(self, circuit: Circuit, corners: Sequence[Corner],
                    **options) -> ToolRun:
        """Run the all-nodes analysis across a set of corners."""
        self.environment.import_variables_from(circuit)
        run_options = self._all_nodes_options(**options)
        results = run_corners(circuit, corners, options=run_options)
        for outcome in results:
            if not outcome.ok:
                self.diagnostics.error("corners", f"corner {outcome.corner.name!r} failed",
                                       reason=outcome.error or "unknown")
        report = format_corner_table(results)
        run = ToolRun(mode="corners", report=report, corner_results=list(results),
                      diagnostics=self.diagnostics)
        self._write_outputs(run, circuit, filename="corners_report.txt")
        return run

    def run_temperature_sweep(self, circuit: Circuit, temperatures: Sequence[float],
                              **options) -> ToolRun:
        """Run the all-nodes analysis across a list of temperatures."""
        self.environment.import_variables_from(circuit)
        run_options = self._all_nodes_options(**options)
        results = temperature_sweep(circuit, temperatures, options=run_options)
        report = format_corner_table(results)
        run = ToolRun(mode="temperature-sweep", report=report,
                      corner_results=list(results), diagnostics=self.diagnostics)
        self._write_outputs(run, circuit, filename="temperature_sweep_report.txt")
        return run

    # ------------------------------------------------------------------
    # Output handling
    # ------------------------------------------------------------------
    def _write_outputs(self, run: ToolRun, circuit: Circuit, filename: str,
                       all_nodes: Optional[AllNodesResult] = None) -> None:
        if not self.write_reports:
            return
        try:
            directory = self.environment.result_directory(create=True)
            run.result_directory = directory
            report_path = os.path.join(directory, filename)
            with open(report_path, "w", encoding="utf-8") as handle:
                handle.write(run.report)
            run.report_path = report_path
            if all_nodes is not None:
                rows_path = os.path.join(directory, "all_nodes_rows.csv")
                _write_rows_csv(rows_path, report_rows(all_nodes))
                annotated_path = os.path.join(directory, "annotated_netlist.txt")
                with open(annotated_path, "w", encoding="utf-8") as handle:
                    handle.write(annotate_netlist(circuit, all_nodes))
            self.diagnostics.write(directory)
        except OSError as exc:
            self.diagnostics.error("report", "could not write result files",
                                   exception=exc)


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _write_rows_csv(path: str, rows) -> None:
    import csv

    if not rows:
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
