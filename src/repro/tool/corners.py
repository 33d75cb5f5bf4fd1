"""In-tool corners and sweeps (the paper's "features in development").

Two facilities:

* :class:`Corner` / :func:`run_corners` — run the all-nodes stability
  analysis over a set of named corners, where a corner is a combination of
  temperature and design-variable overrides (supply, load, compensation
  values, process-like scale factors expressed as design variables);
* :func:`temperature_sweep` — the in-tool DC/TEMP sweep: the same analysis
  repeated over a list of temperatures.

Both return per-corner summaries keyed by loop so that a user can see at a
glance how each loop's natural frequency, damping ratio and phase margin
move across conditions — the question corner runs exist to answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.circuit.netlist import Circuit
from repro.core.all_nodes import AllNodesOptions, AllNodesResult, analyze_all_nodes
from repro.exceptions import ToolError

__all__ = ["Corner", "CornerResult", "run_corners", "temperature_sweep",
           "default_corners"]


@dataclass
class Corner:
    """A named simulation condition."""

    name: str
    temperature: float = 27.0
    variables: Dict[str, float] = field(default_factory=dict)


@dataclass
class CornerResult:
    """All-nodes result of one corner plus a compact per-loop summary."""

    corner: Corner
    result: Optional[AllNodesResult]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def loop_summary(self) -> List[Dict[str, float]]:
        """One dict per loop: frequency, peak, zeta, phase margin."""
        if self.result is None:
            return []
        return [{
            "natural_frequency_hz": loop.natural_frequency_hz,
            "performance_index": loop.performance_index,
            "damping_ratio": loop.damping_ratio,
            "phase_margin_deg": loop.phase_margin_deg,
            "overshoot_percent": loop.overshoot_percent,
        } for loop in self.result.loops]


def default_corners(nominal_temperature: float = 27.0) -> List[Corner]:
    """A minimal industrial corner set: nominal, cold and hot."""
    return [
        Corner("nominal", temperature=nominal_temperature),
        Corner("cold", temperature=-40.0),
        Corner("hot", temperature=125.0),
    ]


def _run_one(circuit: Circuit, corner: Corner,
             options: Optional[AllNodesOptions]) -> AllNodesResult:
    base = options or AllNodesOptions()
    merged_variables = dict(base.variables or {})
    merged_variables.update(corner.variables)
    corner_options = AllNodesOptions(**{**base.__dict__,
                                        "temperature": corner.temperature,
                                        "variables": merged_variables})
    return analyze_all_nodes(circuit, corner_options)


def run_corners(circuit: Circuit, corners: Sequence[Corner],
                options: Optional[AllNodesOptions] = None
                ) -> List[CornerResult]:
    """Run the all-nodes analysis for every corner, in order.

    A corner that fails yields a :class:`CornerResult` carrying the error
    instead of aborting the rest.  Corner names key the results, so
    they must be unique.
    """
    names = [corner.name for corner in corners]
    if len(set(names)) != len(names):
        raise ToolError("corner names must be unique within a run")
    results: List[CornerResult] = []
    for corner in corners:
        try:
            result = _run_one(circuit, corner, options)
        except Exception as exc:
            results.append(CornerResult(corner=corner, result=None,
                                        error=str(exc)))
        else:
            results.append(CornerResult(corner=corner, result=result))
    return results


def temperature_sweep(circuit: Circuit, temperatures: Sequence[float],
                      options: Optional[AllNodesOptions] = None
                      ) -> List[CornerResult]:
    """The in-tool TEMP sweep: one corner per temperature."""
    corners = [Corner(name=f"T={temp:g}C", temperature=float(temp))
               for temp in temperatures]
    return run_corners(circuit, corners, options=options)


def format_corner_table(results: Sequence[CornerResult]) -> str:
    """Text table: per corner, each loop's frequency / zeta / phase margin."""
    lines = [f"{'Corner':<14}{'Loop [Hz]':>14}{'Peak':>10}{'zeta':>8}{'PM [deg]':>10}"]
    lines.append("-" * len(lines[0]))
    for corner_result in results:
        if not corner_result.ok:
            lines.append(f"{corner_result.corner.name:<14}  FAILED: {corner_result.error}")
            continue
        summary = corner_result.loop_summary()
        if not summary:
            lines.append(f"{corner_result.corner.name:<14}  (no under-damped loops)")
            continue
        for row in summary:
            lines.append(f"{corner_result.corner.name:<14}"
                         f"{row['natural_frequency_hz']:>14.3e}"
                         f"{row['performance_index']:>10.2f}"
                         f"{row['damping_ratio']:>8.3f}"
                         f"{row['phase_margin_deg']:>10.1f}")
    return "\n".join(lines) + "\n"
