"""All-nodes stability analysis (the tool's "All Nodes" run mode).

Screens the driving-point impedance of every node of the circuit (the
operating point is computed once and reused — injecting a zero-DC
current source does not move the bias point), clusters the results into
feedback loops and carries everything needed to print the Table-2 style
report, annotate the circuit and compare against the black-box baselines.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.compiled import BatchLinearization, CompiledCircuit
from repro.analysis.op import operating_point
from repro.analysis.results import OPResult
from repro.analysis.sweeps import FrequencySweep, log_sweep
from repro.circuit.netlist import Circuit
from repro.core.excitation import excitable_nodes
from repro.core.impedance import BatchImpedanceSweeper, ImpedanceSweeper
from repro.core.loops import Loop, identify_loops
from repro.core.peaks import PeakType, dominant_negative_peak, find_peaks_grid
from repro.core.single_node import (
    NodeStabilityResult,
    SingleNodeOptions,
    _pick_refined_peak,
    build_node_result,
)
from repro.core.stability_plot import stability_plot, stability_plot_grid
from repro.exceptions import StabilityAnalysisError
from repro.obs.metrics import global_registry
from repro.waveform.waveform import Waveform

__all__ = ["AllNodesOptions", "AllNodesResult", "analyze_all_nodes",
           "analyze_all_nodes_batch", "pole_mismatches"]

#: Bounds of the in-program pole cross-check: a loop's natural frequency
#: and damping ratio against the nearest complex pole pair of its pencil.
POLE_FREQ_RTOL = 0.03
POLE_ZETA_RTOL = 0.05


@dataclass
class AllNodesOptions(SingleNodeOptions):
    """Options of the all-nodes run (extends the single-node options)."""

    #: Nodes to skip (ideal supply rails etc.).  Nodes driven directly by
    #: ideal voltage sources have zero driving-point impedance and produce
    #: no useful plot; they are skipped automatically unless listed here.
    skip_nodes: Sequence[str] = field(default_factory=tuple)
    #: Include nodes created by subcircuit flattening ("X1.net5").
    include_internal_nodes: bool = True
    #: Automatically skip nodes that an ideal voltage source ties to a
    #: fixed potential (their response is identically zero).
    skip_source_driven_nodes: bool = True
    #: Relative natural-frequency tolerance used for loop clustering.
    loop_frequency_tolerance: float = 0.25
    #: Minimum |performance index| for a node to join a loop.
    loop_min_peak: float = 0.05


@dataclass
class AllNodesResult:
    """Outcome of an all-nodes stability run."""

    circuit_title: str
    results: List[NodeStabilityResult]
    loops: List[Loop]
    skipped_nodes: List[str]
    failed_nodes: Dict[str, str]
    op: Optional[OPResult]
    elapsed_seconds: float = 0.0
    temperature: float = 27.0

    # ------------------------------------------------------------------
    def node_result(self, node: str) -> NodeStabilityResult:
        for result in self.results:
            if result.node == node:
                return result
        raise StabilityAnalysisError(f"no analysis result for node {node!r}")

    def nodes_with_peaks(self) -> List[NodeStabilityResult]:
        return [r for r in self.results if r.has_complex_pole]

    def special_cases(self) -> List[NodeStabilityResult]:
        """Nodes whose dominant peak carries a special-case classification."""
        return [r for r in self.results
                if r.peak_type in (PeakType.END_OF_RANGE, PeakType.MIN_MAX)]

    def problematic_loops(self) -> List[Loop]:
        return [loop for loop in self.loops if loop.is_problematic]

    def worst_loop(self) -> Optional[Loop]:
        """The loop with the deepest performance index (least damped)."""
        if not self.loops:
            return None
        return min(self.loops, key=lambda loop: loop.performance_index)

    def sorted_by_frequency(self) -> List[NodeStabilityResult]:
        """Per-node results sorted by natural frequency (the report order)."""
        with_peaks = self.nodes_with_peaks()
        return sorted(with_peaks, key=lambda r: r.natural_frequency_hz)

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip for the result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Complete JSON-able representation.

        The operating point (shared by every per-node result) is stored
        once; loops are stored as lists of member node names.
        """
        return {
            "circuit_title": self.circuit_title,
            "results": [r.to_dict(include_op=False) for r in self.results],
            "loops": [loop.to_dict() for loop in self.loops],
            "skipped_nodes": list(self.skipped_nodes),
            "failed_nodes": dict(self.failed_nodes),
            "op": self.op.to_dict() if self.op is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "temperature": self.temperature,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllNodesResult":
        """Inverse of :meth:`to_dict` (loop members keep their identity with
        the entries of ``results``)."""
        op = OPResult.from_dict(data["op"]) if data.get("op") is not None else None
        results = [NodeStabilityResult.from_dict(entry, op=op)
                   for entry in data["results"]]
        by_node = {result.node: result for result in results}
        loops = [Loop.from_dict(entry, by_node) for entry in data["loops"]]
        return cls(
            circuit_title=data["circuit_title"],
            results=results,
            loops=loops,
            skipped_nodes=list(data.get("skipped_nodes", [])),
            failed_nodes=dict(data.get("failed_nodes", {})),
            op=op,
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            temperature=float(data.get("temperature", 27.0)),
        )

    def summary(self) -> str:
        lines = [f"All-nodes stability analysis of {self.circuit_title!r}:",
                 f"  {len(self.results)} nodes analysed, "
                 f"{len(self.skipped_nodes)} skipped, {len(self.failed_nodes)} failed",
                 f"  {len(self.loops)} loop(s) identified"]
        for loop in self.loops:
            lines.append("  " + loop.summary())
        return "\n".join(lines)


def analyze_all_nodes(circuit: Circuit,
                      options: Optional[AllNodesOptions] = None,
                      op: Optional[OPResult] = None,
                      compiled: Optional[CompiledCircuit] = None) -> AllNodesResult:
    """Run the stability analysis on every (eligible) node of ``circuit``.

    The bias point is solved once (or ``op`` is used) and the circuit is
    linearized there by an :class:`ImpedanceSweeper`; the screen is then
    :func:`analyze_all_nodes_batch`'s, over that batch of one.  Per-node
    failures land in ``failed_nodes``.

    ``compiled`` (a :class:`~repro.analysis.compiled.CompiledCircuit` of
    the flattened circuit) is the scenario-sweep fast path: the operating
    point and the impedance sweeper reuse the compiled structure and
    only restamp values — the batch service passes one per topology so
    Monte Carlo samples skip every structural rebuild.
    """
    options = options or AllNodesOptions()
    start = time.time()

    if op is None:
        op = operating_point(circuit, temperature=options.temperature,
                             gmin=options.gmin, variables=options.variables,
                             options=options.newton_options(),
                             backend=options.backend,
                             compiled=compiled)
    sweeper = ImpedanceSweeper(circuit, temperature=options.temperature,
                               gmin=options.gmin, variables=options.variables,
                               op=op, newton=options.newton_options(),
                               backend=options.backend, compiled=compiled)
    (result,) = _screen(circuit, [options], [op], sweeper, start)
    if isinstance(result, Exception):
        raise result
    return result


def analyze_all_nodes_batch(circuit: Circuit,
                            options_rows: Sequence[AllNodesOptions],
                            ops: Sequence[Optional[OPResult]],
                            lin: BatchLinearization
                            ) -> List[Union[AllNodesResult, Exception]]:
    """Batched :func:`analyze_all_nodes` over one same-structure sample group.

    ``lin`` carries every sample's small-signal G/C planes over one shared
    pattern (:func:`repro.analysis.compiled.linearize_batch`);
    ``options_rows`` and ``ops`` hold one entry per sample.  The coarse
    sweep of every node of every sample is ONE ``(N, nodes, F)``
    impedance-cube solve, peaks come from one :func:`find_peaks_grid`
    pass per sample, and refinement windows are solved once for every
    sample that asks for them (:func:`_prewarm_refinements`).

    Returns one :class:`AllNodesResult` per sample; samples whose
    linearization or AC solve failed yield their ``Exception`` instead
    (callers re-run those through the scalar path).  Structural options
    (node selection, sweep, refinement, backend) are taken from the first
    row — batch groups share them by construction; per-sample fields
    (temperature, gmin, variables) are honoured per row.
    """
    start = time.time()
    backend = options_rows[0].backend if options_rows else None
    return _screen(circuit, options_rows, ops,
                   BatchImpedanceSweeper(lin, backend=backend), start)


def _screen(circuit: Circuit, options_rows: Sequence[AllNodesOptions],
            ops: Sequence[Optional[OPResult]],
            sweeper: BatchImpedanceSweeper,
            start: float) -> List[Union[AllNodesResult, Exception]]:
    """The all-nodes screen of every sample of ``sweeper``'s batch;
    ``start`` (a ``time.time()``) is where ``elapsed_seconds`` begins."""
    n_samples = sweeper.n_samples
    if len(options_rows) != n_samples or len(ops) != n_samples:
        raise StabilityAnalysisError(
            "options_rows and ops must have one entry per batch sample")
    if not options_rows:
        return []
    options0 = options_rows[0]

    flat = sweeper.compiled.circuit
    skipped: List[str] = []
    if options0.skip_source_driven_nodes:
        skipped.extend(_source_driven_nodes(flat))
    skipped.extend(circuit.resolve_node(n) for n in options0.skip_nodes)
    nodes = excitable_nodes(flat, include_internal=options0.include_internal_nodes,
                            skip_nodes=skipped)
    if not nodes:
        raise StabilityAnalysisError("no nodes eligible for stability analysis")
    skipped_sorted = sorted(set(skipped))

    sweep = FrequencySweep.coerce(options0.sweep)
    freq = np.array(sweep.frequencies, dtype=float)
    cube, sample_failures = sweeper.impedance_cube(nodes, freq)

    # Coarse scan: stability plots and one vectorized peak pass per
    # sample.  Kept separate from result assembly so the refinement
    # windows — whose centres fall out of the coarse peaks — can be
    # solved as batched cubes across samples below.
    outputs: List[Union[AllNodesResult, Exception]] = [None] * n_samples
    scans: Dict[int, tuple] = {}
    for k in range(n_samples):
        if k in sample_failures:
            outputs[k] = sample_failures[k]
            continue
        try:
            scans[k] = _scan_sample(nodes, freq, cube[k], options_rows[k])
        except Exception as exc:
            outputs[k] = exc

    prewarmed, refined = _prewarm_refinements(nodes, scans, options_rows,
                                              sweeper)

    for k, scan in scans.items():
        try:
            outputs[k] = _build_sample_result(circuit, nodes, skipped_sorted,
                                              options_rows[k], ops[k],
                                              sweeper, freq, scan,
                                              prewarmed.get(k) or {},
                                              refined.get(k) or {}, k,
                                              start)
        except Exception as exc:
            outputs[k] = exc

    # The sweep's QZ reduction holds every sample's poles for free: hold
    # each reported loop against them (the dense path only).
    reduction = sweeper.reduction()
    if reduction is not None:
        registry = global_registry()
        for k, output in enumerate(outputs):
            if isinstance(output, AllNodesResult):
                for node in pole_mismatches(output, reduction.poles(k)):
                    registry.counter(f"verdict.pole_mismatch.{node}").inc()
    return outputs


def pole_mismatches(result: AllNodesResult, poles: np.ndarray) -> List[str]:
    """Worst nodes of the loops of ``result`` that miss their pole pair.

    Each loop that claims an under-damped complex pair (a normal peak
    with ``zeta < 1``) is compared with the complex pole pair of
    ``poles`` (rad/s) nearest to it in natural frequency; it misses when
    its natural frequency is off by more than :data:`POLE_FREQ_RTOL` or
    its damping ratio by more than :data:`POLE_ZETA_RTOL`, or when there
    is no complex pole pair at all.
    """
    pairs = poles[poles.imag > 0]
    pole_hz = np.abs(pairs) / (2.0 * np.pi)
    pole_zeta = -pairs.real / np.abs(pairs)
    missed: List[str] = []
    for loop in result.loops:
        worst = loop.worst_node
        if worst.peak_type is not PeakType.NORMAL \
                or not loop.damping_ratio < 1.0:
            continue
        frequency = loop.natural_frequency_hz
        if len(pairs):
            j = int(np.argmin(np.abs(np.log(pole_hz / frequency))))
            if abs(frequency / pole_hz[j] - 1.0) <= POLE_FREQ_RTOL and \
                    abs(loop.damping_ratio / pole_zeta[j] - 1.0) \
                    <= POLE_ZETA_RTOL:
                continue
        missed.append(worst.node)
    return missed


def _scan_sample(nodes: List[str], freq: np.ndarray, slab: np.ndarray,
                 options: AllNodesOptions) -> tuple:
    """One sample's coarse responses, stability plots and peak scan.

    The plots of every plottable node come from one vectorized
    :func:`stability_plot_grid` pass (bit-identical to per-node
    :func:`stability_plot` under ``method="gradient"``); rows the grid
    rejects re-run the scalar function so the per-node diagnostics are
    exactly the scalar path's.  Peaks of all rows come from one
    :func:`find_peaks_grid` call.
    """
    responses: List[Waveform] = []
    plots: List[Optional[Waveform]] = []
    deferred: Dict[str, Exception] = {}
    rows: List[np.ndarray] = []
    row_of: Dict[int, int] = {}
    mags = np.abs(slab)
    grid_values = None
    grid_ok = None
    if options.plot_method == "gradient":
        grid_values, grid_ok = stability_plot_grid(freq, mags)
    for column, node in enumerate(nodes):
        response = Waveform(freq, mags[column], name=f"|Z({node})|",
                            x_unit="Hz", y_unit="Ohm")
        responses.append(response)
        plot = None
        if float(np.max(mags[column])) >= 1e-30:
            # Zero responses take build_node_result's short-circuit branch
            # and never reach the plot, exactly like the scalar path.
            try:
                if grid_values is not None and grid_ok[column]:
                    plot = Waveform(freq, grid_values[column],
                                    name=f"stability({response.name})",
                                    x_unit="Hz", y_unit="")
                else:
                    plot = stability_plot(response,
                                          method=options.plot_method)
            except Exception as exc:
                deferred[node] = exc
            else:
                row_of[column] = len(rows)
                rows.append(plot.y)
        plots.append(plot)
    peak_rows = (find_peaks_grid(freq, np.array(rows),
                                 threshold=options.peak_threshold)
                 if rows else [])
    return responses, plots, deferred, row_of, peak_rows


def _prewarm_refinements(nodes: List[str], scans: Dict[int, tuple],
                         options_rows: Sequence[AllNodesOptions],
                         sweeper: BatchImpedanceSweeper) -> tuple:
    """Solve and re-scan shared refinement windows batch-wide.

    Each sample's refinement centres are its dominant coarse peaks, which
    land on shared coarse-grid frequencies — so in a Monte Carlo screen
    most samples request identical windows.  Each distinct window is
    solved as one member-subset impedance cube instead of one scalar
    sweep per sample, and its dense-window stability plots and peaks are
    extracted in one vectorized grid pass over every member row.

    Returns ``(prewarmed, refined)``: per-sample window caches keyed
    exactly like the scalar refiner (rounded log-centre), and per-sample
    ``{node: (refined_plot, refined_peak)}`` precomputed refinements.
    Anything missing — a failed window solve, a row the grid kernel
    rejects — falls back to the per-sample scalar path inside the
    refiner, which reproduces the scalar diagnostics.
    """
    window_groups: Dict[tuple, List[tuple]] = {}
    wants: Dict[tuple, List[tuple]] = {}
    for k, scan in scans.items():
        options = options_rows[k]
        if not options.refine:
            continue
        _, _, _, row_of, peak_rows = scan
        seen: Dict[float, float] = {}
        for column in row_of:
            dominant = dominant_negative_peak(peak_rows[row_of[column]])
            if dominant is None:
                continue
            key = round(math.log10(dominant.frequency_hz), 3)
            seen.setdefault(key, dominant.frequency_hz)
            if options.plot_method == "gradient":
                # The grid kernel implements the gradient method only;
                # other methods refine through the scalar path.
                wants.setdefault((k, key), []).append((column, dominant))
        for key, center in seen.items():
            window_groups.setdefault(
                (center, options.refine_span_decades,
                 options.refine_points_per_decade), []).append((k, key))

    prewarmed: Dict[int, Dict[float, Dict[str, Waveform]]] = {}
    refined: Dict[int, Dict[str, tuple]] = {}
    for (center, span_decades, points_per_decade), members \
            in window_groups.items():
        half_span = 10.0 ** (span_decades / 2.0)
        window = log_sweep(center / half_span, center * half_span,
                           points_per_decade)
        member_samples = [k for k, _ in members]
        try:
            # Solve only the members: the sub-batch costs exactly its
            # sample count, so even a single-member window matches the
            # scalar refiner solve it replaces.
            wcube, wfails = sweeper.impedance_cube(nodes, window,
                                                   samples=member_samples)
        except Exception:
            continue    # per-sample refiners reproduce any diagnostics
        rows: List[np.ndarray] = []
        meta: List[tuple] = []
        for position, (k, key) in enumerate(members):
            if k in wfails:
                continue
            prewarmed.setdefault(k, {})[key] = {
                node: Waveform(window, wcube[position][column],
                               name=f"Z({node})", x_unit="Hz", y_unit="Ohm")
                for column, node in enumerate(nodes)}
            for column, dominant in wants.get((k, key), ()):
                rows.append(np.abs(wcube[position][column]))
                meta.append((k, nodes[column], dominant,
                             options_rows[k].peak_threshold))
        if not rows:
            continue
        grid_values, grid_ok = stability_plot_grid(window, np.array(rows))
        if grid_values is None:
            continue
        # One peak pass per distinct threshold (one pass in practice:
        # batch groups share their analysis options by construction).
        by_threshold: Dict[float, List[int]] = {}
        for row, (_, _, _, threshold) in enumerate(meta):
            if grid_ok[row]:
                by_threshold.setdefault(threshold, []).append(row)
        for threshold, ok_rows in by_threshold.items():
            peak_rows = find_peaks_grid(window, grid_values[ok_rows],
                                        threshold=threshold)
            for row, peaks in zip(ok_rows, peak_rows):
                k, node, dominant, _ = meta[row]
                plot = Waveform(window, grid_values[row],
                                name=f"stability(mag(Z({node})))",
                                x_unit="Hz", y_unit="")
                refined.setdefault(k, {})[node] = (
                    plot, _pick_refined_peak(peaks, dominant))
    return prewarmed, refined


def _build_sample_result(circuit: Circuit, nodes: List[str],
                         skipped: List[str], options: AllNodesOptions,
                         op: Optional[OPResult],
                         sweeper: BatchImpedanceSweeper, freq: np.ndarray,
                         scan: tuple,
                         prewarmed: Dict[float, Dict[str, Waveform]],
                         refined: Dict[str, tuple],
                         sample_index: int,
                         start: float) -> AllNodesResult:
    """One sample's :class:`AllNodesResult` from its precomputed scan.

    The coarse plots and peaks arrive precomputed from
    :func:`_scan_sample`, per-node dense-window refinements arrive
    precomputed in ``refined``, and the refinement cache (keyed on the
    rounded log-centre frequency) starts seeded with the windows
    :func:`_prewarm_refinements` solved batch-wide.  Anything else
    refines through this sample's own sweep; a node that fails is
    recorded in ``failed_nodes``.
    """
    responses, plots, deferred, row_of, peak_rows = scan

    refine_cache: Dict[float, Dict[str, Waveform]] = dict(prewarmed)

    def refiner(node: str, center_hz: float, span_decades: float,
                points_per_decade: int) -> Waveform:
        key = round(math.log10(center_hz), 3)
        if key not in refine_cache:
            half_span = 10.0 ** (span_decades / 2.0)
            window = log_sweep(center_hz / half_span, center_hz * half_span,
                               points_per_decade)
            raw = sweeper.sample_impedances(sample_index, nodes, window)
            refine_cache[key] = {
                name: Waveform(window, values, name=f"Z({name})",
                               x_unit="Hz", y_unit="Ohm")
                for name, values in raw.items()}
        return refine_cache[key][node].magnitude()

    results: List[NodeStabilityResult] = []
    failures: Dict[str, str] = {}
    for column, node in enumerate(nodes):
        try:
            if node in deferred:
                raise deferred[node]
            peaks = peak_rows[row_of[column]] if column in row_of else None
            results.append(build_node_result(node, responses[column], options,
                                             op=op, refiner=refiner,
                                             plot=plots[column], peaks=peaks,
                                             refined=refined.get(node)))
        except Exception as exc:
            failures[node] = str(exc)

    loops = identify_loops(results,
                           frequency_tolerance=options.loop_frequency_tolerance,
                           min_peak_magnitude=options.loop_min_peak)
    return AllNodesResult(
        circuit_title=circuit.title,
        results=results,
        loops=loops,
        skipped_nodes=list(skipped),
        failed_nodes=failures,
        op=op,
        elapsed_seconds=time.time() - start,
        temperature=options.temperature,
    )


def _source_driven_nodes(circuit: Circuit) -> List[str]:
    """Nodes held at a fixed potential by an ideal voltage source connected
    to ground (supply rails, references): their driving-point impedance is
    identically zero and the stability plot is undefined there."""
    from repro.circuit.elements import VoltageSource
    from repro.circuit.elements.base import is_ground

    driven = []
    for source in circuit.elements_of_type(VoltageSource):
        pos, neg = source.node_pos, source.node_neg
        if is_ground(neg) and not is_ground(pos):
            driven.append(pos)
        elif is_ground(pos) and not is_ground(neg):
            driven.append(neg)
    return driven
