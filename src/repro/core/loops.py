"""Loop identification: cluster per-node results by natural frequency.

All nodes that participate in the same feedback loop see the same complex
pole pair, so their stability-plot peaks line up at (nearly) the same
natural frequency (paper Table 2 groups "Loop at 3.3 MHz", "Loop at
47.9 MHz", ...).  Clustering the per-node natural frequencies therefore
recovers the circuit's feedback loops and maps each loop onto the physical
nodes it involves — the key diagnostic advantage over black-box methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.second_order import (
    overshoot_from_damping,
    phase_margin_from_damping,
)
from repro.core.single_node import NodeStabilityResult

__all__ = ["Loop", "identify_loops"]


@dataclass
class Loop:
    """A feedback loop recovered from the all-nodes stability run."""

    #: Representative natural frequency of the loop [Hz] (peak-weighted).
    natural_frequency_hz: float
    #: Per-node results belonging to this loop, deepest peak first.
    nodes: List[NodeStabilityResult] = field(default_factory=list)

    @property
    def node_names(self) -> List[str]:
        return [r.node for r in self.nodes]

    @property
    def worst_node(self) -> NodeStabilityResult:
        """The node with the deepest (most negative) peak — the loop's most
        sensitive observation point and its performance index."""
        return self.nodes[0]

    @property
    def performance_index(self) -> float:
        return self.worst_node.performance_index

    @property
    def damping_ratio(self) -> float:
        return self.worst_node.damping_ratio

    @property
    def phase_margin_deg(self) -> float:
        return phase_margin_from_damping(self.damping_ratio)

    @property
    def overshoot_percent(self) -> float:
        return overshoot_from_damping(self.damping_ratio)

    @property
    def is_problematic(self) -> bool:
        """Flag loops with less than ~50 degrees of equivalent phase margin
        (zeta < 0.5, |peak| > 4): the paper treats its bias-cell loop, whose
        estimated phase margin was below 50 degrees, as needing
        compensation, and 45-60 degrees is the usual design floor."""
        return self.damping_ratio < 0.5

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip for the result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation: members are stored by node name and
        re-linked against the per-node results on :meth:`from_dict`."""
        return {"natural_frequency_hz": self.natural_frequency_hz,
                "nodes": [r.node for r in self.nodes]}

    @classmethod
    def from_dict(cls, data: dict,
                  results_by_node: dict) -> "Loop":
        """Inverse of :meth:`to_dict`; ``results_by_node`` maps node name ->
        :class:`NodeStabilityResult` (member order is preserved)."""
        return cls(natural_frequency_hz=float(data["natural_frequency_hz"]),
                   nodes=[results_by_node[name] for name in data["nodes"]])

    def summary(self) -> str:
        from repro.circuit.units import format_si

        flag = "  << needs attention" if self.is_problematic else ""
        return (f"Loop at {format_si(self.natural_frequency_hz, 'Hz')}: "
                f"{len(self.nodes)} node(s), peak {self.performance_index:.2f}, "
                f"zeta={self.damping_ratio:.2f}, PM~{self.phase_margin_deg:.0f} deg, "
                f"overshoot~{self.overshoot_percent:.0f}%{flag}")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Loop {self.natural_frequency_hz:.4g} Hz, "
                f"{len(self.nodes)} nodes, peak {self.performance_index:.2f}>")


def identify_loops(results: Sequence[NodeStabilityResult],
                   frequency_tolerance: float = 0.25,
                   min_peak_magnitude: float = 0.05) -> List[Loop]:
    """Group per-node results into loops by natural-frequency proximity.

    Parameters
    ----------
    results:
        Per-node analysis results (nodes without a complex pole are ignored).
    frequency_tolerance:
        Two natural frequencies belong to the same loop when they differ by
        less than this relative amount (0.25 = 25 %), applied in log space
        so chains of nearby frequencies cluster sensibly.
    min_peak_magnitude:
        Nodes with |performance index| below this are treated as not
        participating in any under-damped loop.

    Returns
    -------
    Loops sorted by ascending natural frequency; within each loop the nodes
    are sorted by descending peak magnitude.
    """
    candidates = [r for r in results
                  if r.has_complex_pole
                  and abs(r.performance_index) >= min_peak_magnitude]
    if not candidates:
        return []

    candidates.sort(key=lambda r: r.natural_frequency_hz)
    log_tol = math.log10(1.0 + frequency_tolerance)

    clusters: List[List[NodeStabilityResult]] = []
    for result in candidates:
        if clusters:
            previous = clusters[-1][-1]
            gap = abs(math.log10(result.natural_frequency_hz)
                      - math.log10(previous.natural_frequency_hz))
            if gap <= log_tol:
                clusters[-1].append(result)
                continue
        clusters.append([result])

    loops: List[Loop] = []
    for members in clusters:
        members_sorted = sorted(members, key=lambda r: r.performance_index)
        # Peak-magnitude-weighted representative frequency: the deepest
        # peaks localise the resonance best.  Peaks the closed-form search
        # left at their coarse value count only when no member was refined.
        weighted = [m for m in members_sorted
                    if m.refine_fallback is None] or members_sorted
        weight_sum = sum(abs(m.performance_index) for m in weighted)
        representative = sum(m.natural_frequency_hz * abs(m.performance_index)
                             for m in weighted) / weight_sum
        loops.append(Loop(natural_frequency_hz=representative, nodes=members_sorted))

    loops.sort(key=lambda loop: loop.natural_frequency_hz)
    return loops
