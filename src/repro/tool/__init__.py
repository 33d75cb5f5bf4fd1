"""Push-button tool layer: sessions, corners, diagnostics.

This package mirrors the architecture blocks of the paper's Fig. 6 that
sit around the core method: GUI/procedural flow control (here the
:class:`StabilityAnalysisTool` API), simulation-environment setup
(:class:`SimulationEnvironment`), report generation (delegated to
:mod:`repro.core.report`), error handling and remote notification
(:class:`DiagnosticLog`), plus the corner and temperature sweeps listed
as features in development.  Job control for batches lives in the
service layer (:class:`~repro.service.BatchEngine`).
"""

from repro.tool.corners import (
    Corner,
    CornerResult,
    default_corners,
    format_corner_table,
    run_corners,
    temperature_sweep,
)
from repro.tool.diagnostics import DiagnosticLog, DiagnosticRecord
from repro.tool.session import SessionState, SimulationEnvironment
from repro.tool.tool import StabilityAnalysisTool, ToolRun

__all__ = [
    "StabilityAnalysisTool",
    "ToolRun",
    "SimulationEnvironment",
    "SessionState",
    "Corner",
    "CornerResult",
    "default_corners",
    "run_corners",
    "temperature_sweep",
    "format_corner_table",
    "DiagnosticLog",
    "DiagnosticRecord",
]
