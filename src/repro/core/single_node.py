"""Single-node stability analysis (the tool's "Single Node" run mode).

For one selected node the analysis:

1. attaches the AC current stimulus to the node (closed loop untouched),
2. runs an AC sweep and takes the magnitude of the node's own response,
3. computes the stability plot (eq. 1.3),
4. finds the dominant negative peak and, optionally, refines it to the
   minimum of eq. 1.3 in closed form near it (:func:`refine_dominant_peaks`),
5. converts the peak value (the node's **performance index**) into the
   damping ratio, estimated phase margin and equivalent step overshoot of
   the loop the node participates in (eq. 1.4 + Table 1 relations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.ac import ac_analysis
from repro.analysis.compiled import BatchLinearization
from repro.analysis.op import STABILITY_NEWTON, NewtonOptions, operating_point
from repro.analysis.results import OPResult
from repro.analysis.sweeps import FrequencySweep
from repro.circuit.netlist import Circuit
from repro.core.excitation import DEFAULT_STIMULUS_AMPLITUDE, prepare_excited_circuit
from repro.core.peaks import PeakType, StabilityPeak, dominant_negative_peak, find_peaks
from repro.core.second_order import (
    damping_from_performance_index,
    overshoot_from_damping,
    phase_margin_from_damping,
)
from repro.core.stability_plot import (
    BRACKET_STEPS,
    bracketed_minima,
    closed_form_plot,
    stability_plot,
)
from repro.exceptions import StabilityAnalysisError
from repro.obs.metrics import global_registry
from repro.obs.trace import span as _span
from repro.waveform.waveform import Waveform

__all__ = ["NodeStabilityResult", "STABILITY_NEWTON", "SingleNodeOptions",
           "analyze_node", "analyze_node_batch", "build_node_result",
           "build_node_results", "refine_dominant_peaks"]


@dataclass
class SingleNodeOptions:
    """Options for :func:`analyze_node` (and, per node, the all-nodes run)."""

    #: Frequency sweep for the initial (coarse) pass.
    sweep: Optional[FrequencySweep] = None
    #: Simulation temperature in Celsius.
    temperature: float = 27.0
    #: Junction convergence conductance of the underlying analyses.
    gmin: float = 1e-12
    #: AC magnitude of the injected current.
    stimulus_amplitude: float = DEFAULT_STIMULUS_AMPLITUDE
    #: Zero all pre-existing AC stimuli before the run (tool default).
    zero_existing_ac: bool = True
    #: Refine the dominant peak to the closed-form minimum of eq. 1.3.
    refine: bool = True
    #: Differentiation method for the stability plot.
    plot_method: str = "gradient"
    #: Minimum |peak| to report at all.
    peak_threshold: float = 0.05
    #: Design-variable overrides.
    variables: Optional[Dict[str, float]] = None
    #: Newton solver options for the operating point
    #: (:data:`STABILITY_NEWTON` when left unset).
    newton: Optional[NewtonOptions] = None
    #: Linear-solver backend: "dense", "sparse" or None/"auto" (size/density
    #: heuristic; the REPRO_BACKEND environment variable overrides auto).
    backend: Optional[str] = None

    def newton_options(self) -> NewtonOptions:
        """The Newton options to solve the bias point with.

        :data:`STABILITY_NEWTON` unless the caller overrode ``newton``.
        """
        return self.newton if self.newton is not None else STABILITY_NEWTON


@dataclass
class NodeStabilityResult:
    """Outcome of the stability analysis of a single node."""

    node: str
    #: The stability plot over the full (coarse) sweep (None when rebuilt
    #: from a compact payload).
    plot: Optional[Waveform]
    #: The node's AC response magnitude (driving-point impedance
    #: magnitude; None when rebuilt from a compact payload).
    response: Optional[Waveform]
    #: All detected peaks (poles, zeros, special cases).
    peaks: List[StabilityPeak]
    #: The dominant negative peak (None when the node shows no complex pole).
    dominant_peak: Optional[StabilityPeak]
    #: Stability plot value at the dominant peak, i.e. the performance index.
    performance_index: Optional[float]
    #: Natural frequency of the loop seen from this node [Hz].
    natural_frequency_hz: Optional[float]
    #: Damping ratio estimated from the performance index (eq. 1.4).
    damping_ratio: Optional[float]
    #: Estimated phase margin [degrees].
    phase_margin_deg: Optional[float]
    #: Equivalent step-response overshoot [%].
    overshoot_percent: Optional[float]
    #: Peak special-case classification.
    peak_type: Optional[PeakType]
    #: Closed-form stability plot at the frequencies the peak search
    #: evaluated (None when refine=False or without a dominant peak).
    refined_plot: Optional[Waveform] = None
    #: Why the peak search kept the coarse peak (``"edge_minimum"``,
    #: ``"non_finite"`` or ``"singular"``); None when it did not.
    refine_fallback: Optional[str] = None
    #: Operating point used for the small-signal analysis.
    op: Optional[OPResult] = None

    @property
    def has_complex_pole(self) -> bool:
        return self.dominant_peak is not None

    @property
    def stability_peak_magnitude(self) -> Optional[float]:
        """|performance index| — the value listed in the paper's Table 2."""
        if self.performance_index is None:
            return None
        return abs(self.performance_index)

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip for the result cache)
    # ------------------------------------------------------------------
    def to_dict(self, include_op: bool = True, plots: bool = True) -> dict:
        """JSON-able representation of the per-node result.

        The all-nodes container passes ``include_op=False`` and stores the
        (shared) operating point once at its own level.  ``plots=False``
        leaves out the ``plot``, ``response`` and ``refined_plot`` arrays
        (the compact, verdict-sized form); the default is lossless.
        """
        data = {
            "node": self.node,
            "peaks": [peak.to_dict() for peak in self.peaks],
            "dominant_peak": (self.dominant_peak.to_dict()
                              if self.dominant_peak is not None else None),
            "performance_index": self.performance_index,
            "natural_frequency_hz": self.natural_frequency_hz,
            "damping_ratio": self.damping_ratio,
            "phase_margin_deg": self.phase_margin_deg,
            "overshoot_percent": self.overshoot_percent,
            "peak_type": self.peak_type.value if self.peak_type is not None else None,
            "refine_fallback": self.refine_fallback,
            "op": (self.op.to_dict()
                   if include_op and self.op is not None else None),
        }
        if plots:
            data["plot"] = self.plot.to_dict()
            data["response"] = self.response.to_dict()
            data["refined_plot"] = (self.refined_plot.to_dict()
                                    if self.refined_plot is not None else None)
        return data

    @classmethod
    def from_dict(cls, data: dict, op: Optional[OPResult] = None) -> "NodeStabilityResult":
        """Inverse of :meth:`to_dict`; ``op`` re-attaches a shared OP.

        A compact payload (no plot arrays) rebuilds ``plot``,
        ``response`` and ``refined_plot`` as ``None``.
        """
        if op is None and data.get("op") is not None:
            op = OPResult.from_dict(data["op"])
        return cls(
            node=data["node"],
            plot=_waveform_or_none(data.get("plot")),
            response=_waveform_or_none(data.get("response")),
            peaks=[StabilityPeak.from_dict(peak) for peak in data["peaks"]],
            dominant_peak=(StabilityPeak.from_dict(data["dominant_peak"])
                           if data.get("dominant_peak") is not None else None),
            performance_index=data.get("performance_index"),
            natural_frequency_hz=data.get("natural_frequency_hz"),
            damping_ratio=data.get("damping_ratio"),
            phase_margin_deg=data.get("phase_margin_deg"),
            overshoot_percent=data.get("overshoot_percent"),
            peak_type=(PeakType(data["peak_type"])
                       if data.get("peak_type") is not None else None),
            refined_plot=_waveform_or_none(data.get("refined_plot")),
            refine_fallback=data.get("refine_fallback"),
            op=op,
        )

    def summary(self) -> str:
        """One-line human-readable summary (used by reports and examples)."""
        from repro.circuit.units import format_si

        if not self.has_complex_pole:
            return f"{self.node}: no complex pole detected (node looks unconditionally stable)"
        return (f"{self.node}: peak {self.performance_index:.2f} at "
                f"{format_si(self.natural_frequency_hz, 'Hz')} -> zeta={self.damping_ratio:.3f}, "
                f"phase margin ~{self.phase_margin_deg:.1f} deg, "
                f"overshoot ~{self.overshoot_percent:.0f}% [{self.peak_type}]")


def _waveform_or_none(data: Optional[dict]) -> Optional[Waveform]:
    return Waveform.from_dict(data) if data is not None else None


def build_node_result(node: str, response: Waveform,
                      options: SingleNodeOptions,
                      op: Optional[OPResult] = None) -> NodeStabilityResult:
    """One node's :class:`NodeStabilityResult` from its AC response
    magnitude, with the coarse peak unrefined (:func:`build_node_results`
    of one row without a pencil)."""
    (result,) = build_node_results(None, response.x, [
        (0, node, options, op, response, None, None)])
    if isinstance(result, Exception):
        raise result
    return result


def build_node_results(sweeper, frequencies: Sequence[float],
                       rows: Sequence[tuple]
                       ) -> List[Union[NodeStabilityResult, Exception]]:
    """Turn node responses into :class:`NodeStabilityResult` objects,
    every dominant peak refined in one lockstep
    :func:`refine_dominant_peaks` call.

    This is the post-processing shared by the reference single-node path
    and the batched paths: stability plot, peak detection, refinement and
    conversion of the performance index into damping / phase margin /
    overshoot estimates.  A row is ``(sample, node, options, op,
    response, plot, peaks)``; ``plot`` and ``peaks`` are ``None`` unless
    the caller holds them (the batched all-nodes path runs one vectorized
    extraction over every node), and must then equal what
    :func:`stability_plot` / :func:`find_peaks` return for ``response``
    under ``options``.  ``sweeper`` (``None``: no refinement) holds each
    row's pencil.  Returns each row's result, or the exception it raised.
    """
    outputs: List = [None] * len(rows)
    scans: Dict[int, tuple] = {}
    wants: List[tuple] = []
    for index, (sample, node, options, _, response, plot, peaks) \
            in enumerate(rows):
        try:
            dominant = None
            if float(np.max(np.abs(response.y))) < 1e-30:
                # The node is held by an ideal (zero-impedance) source: the
                # injected current produces no response and the node
                # carries no stability information.  Report "no complex
                # pole" rather than failing.
                plot, peaks = response.copy(name=f"stability({node})"), []
            else:
                if plot is None:
                    plot = stability_plot(response, method=options.plot_method)
                if peaks is None:
                    peaks = find_peaks(plot, threshold=options.peak_threshold)
                dominant = dominant_negative_peak(peaks)
            if dominant is not None and options.refine and sweeper is not None:
                wants.append((sample, node, dominant, index))
        except Exception as exc:
            outputs[index] = exc
            continue
        scans[index] = (plot, peaks, (None, dominant, None))
    refined = dict(zip((want[3] for want in wants),
                       refine_dominant_peaks(sweeper, frequencies,
                                             [want[:3] for want in wants])))
    for index, (plot, peaks, unrefined) in scans.items():
        _, node, _, op, response, _, _ = rows[index]
        refined_plot, dominant, fallback = refined.get(index, unrefined)
        verdict = dict.fromkeys(("performance_index", "natural_frequency_hz",
                                 "damping_ratio", "phase_margin_deg",
                                 "overshoot_percent", "peak_type"))
        try:
            if dominant is not None:
                damping = damping_from_performance_index(dominant.value)
                verdict.update(performance_index=dominant.value,
                               natural_frequency_hz=dominant.frequency_hz,
                               damping_ratio=damping,
                               phase_margin_deg=phase_margin_from_damping(damping),
                               overshoot_percent=overshoot_from_damping(damping),
                               peak_type=dominant.peak_type)
        except Exception as exc:
            outputs[index] = exc
            continue
        outputs[index] = NodeStabilityResult(
            node=node, plot=plot, response=response, peaks=peaks,
            dominant_peak=dominant, refined_plot=refined_plot,
            refine_fallback=fallback, op=op, **verdict)
    return outputs


def analyze_node(circuit: Circuit, node: str,
                 options: Optional[SingleNodeOptions] = None,
                 op: Optional[OPResult] = None,
                 compiled=None) -> NodeStabilityResult:
    """Run the single-node stability analysis on ``node`` of ``circuit``.

    ``op`` may carry a previously computed operating point of the *original*
    circuit; the injected stimulus has zero DC value so the bias point is
    identical and can be reused (this is what the all-nodes run does).
    ``compiled`` (a :class:`~repro.analysis.compiled.CompiledCircuit` of
    the original circuit) speeds up that operating-point computation in
    scenario sweeps; the excited copy is per-node by construction and is
    always assembled fresh.  The dominant peak is refined on the pencil
    of an :class:`~repro.core.impedance.ImpedanceSweeper` at the same
    bias point — the all-nodes run's, so both runs refine alike.  With
    ``zero_existing_ac=False`` the response is not the driving-point
    impedance, and the coarse peak stands.
    """
    from repro.core.impedance import ImpedanceSweeper

    options = options or SingleNodeOptions()
    sweep = FrequencySweep.coerce(options.sweep)

    excited, _ = prepare_excited_circuit(
        circuit, node, amplitude=options.stimulus_amplitude,
        zero_existing_ac=options.zero_existing_ac)

    if op is None:
        op = operating_point(circuit, temperature=options.temperature,
                             gmin=options.gmin, variables=options.variables,
                             options=options.newton_options(),
                             backend=options.backend,
                             compiled=compiled)

    node_name = circuit.resolve_node(node)
    ac = ac_analysis(excited, sweep, temperature=options.temperature,
                     gmin=options.gmin, variables=options.variables, op=op,
                     backend=options.backend)
    response = ac.waveform(node_name).magnitude()
    response.name = f"|Z({node_name})|"
    sweeper = None
    if options.refine and options.zero_existing_ac:
        sweeper = ImpedanceSweeper(circuit, temperature=options.temperature,
                                   gmin=options.gmin,
                                   variables=options.variables, op=op,
                                   backend=options.backend, compiled=compiled)
    (result,) = build_node_results(sweeper, sweep.frequencies, [
        (0, node_name, options, op, response, None, None)])
    if isinstance(result, Exception):
        raise result
    return result


def analyze_node_batch(circuit: Circuit, node: str,
                       options_rows: Sequence[SingleNodeOptions],
                       ops: Sequence[Optional[OPResult]],
                       lin: BatchLinearization
                       ) -> List[Union[NodeStabilityResult, Exception]]:
    """Batched :func:`analyze_node` over one same-structure sample group.

    ``lin`` carries the whole group's small-signal planes
    (:func:`repro.analysis.compiled.linearize_batch`), ``options_rows`` and
    ``ops`` one entry per sample.  The coarse sweep becomes a single
    ``(N, 1, F)`` impedance-cube solve and every sample's dominant peak is
    refined in one lockstep search (:func:`build_node_results`).  The
    response is reconstructed as ``|Z| * amplitude`` — the node voltage
    under the injected current — which matches the scalar path's AC
    analysis of the excited circuit to solver tolerance.

    Returns one :class:`NodeStabilityResult` per sample; samples whose
    linearization or AC solve failed yield their ``Exception`` instead
    (callers re-run those through the scalar path).
    """
    n_samples = len(lin)
    if len(options_rows) != n_samples or len(ops) != n_samples:
        raise StabilityAnalysisError(
            "options_rows and ops must have one entry per batch sample")
    if not options_rows:
        return []
    for options in options_rows:
        if not options.zero_existing_ac:
            # The injection sweep never reads the stamped AC stimuli, so it
            # can only reproduce the scalar analysis when that analysis
            # auto-zeroes them (the tool default).
            raise StabilityAnalysisError(
                "the batched single-node path requires zero_existing_ac=True")
    from repro.core.impedance import BatchImpedanceSweeper

    options0 = options_rows[0]
    node_name = circuit.resolve_node(node)
    freq = np.array(FrequencySweep.coerce(options0.sweep).frequencies)
    sweeper = BatchImpedanceSweeper(lin, backend=options0.backend)
    cube, failures = sweeper.impedance_cube([node_name], freq)
    rows = [(k, node_name, options_rows[k], ops[k],
             Waveform(freq,
                      np.abs(cube[k, 0]) * options_rows[k].stimulus_amplitude,
                      name=f"|Z({node_name})|", x_unit="Hz", y_unit="V"),
             None, None)
            for k in range(n_samples) if k not in failures]
    built = iter(build_node_results(sweeper, freq, rows))
    return [failures[k] if k in failures else next(built)
            for k in range(n_samples)]


def refine_dominant_peaks(sweeper, frequencies: Sequence[float],
                          wants: Sequence[tuple]) -> List[tuple]:
    """The exact eq. 1.3 minimum near each ``(sample, node, coarse_peak)``
    of ``wants`` — a dominant peak over ``frequencies`` of a node of a
    sample of ``sweeper`` — searched in lockstep
    (:func:`~repro.core.stability_plot.bracketed_minima`).

    Returns ``(refined_plot, refined_peak, fallback)`` per entry: P at
    the evaluated frequencies, sorted (``None`` below two points), a
    ``NORMAL`` peak — ``MIN_MAX`` with its companion if the coarse peak
    was one — and ``None``.  A fallback keeps the coarse peak, names its
    reason and counts ``core.refine.fallbacks.<reason>``.
    """
    if not wants:
        return []
    grid = np.log(np.asarray(frequencies, dtype=float))
    steps = np.gradient(grid) if len(grid) > 1 else np.ones(1)
    samples = np.array([want[0] for want in wants], dtype=np.intp)
    unknowns = np.array([sweeper.compiled.index_of(want[1]) for want in wants],
                        dtype=np.intp)
    indices = np.array([want[2].index for want in wants], dtype=np.intp)

    def evaluate(subset: np.ndarray, u: np.ndarray) -> tuple:
        s = (2j * np.pi) * np.exp(u)
        T, dT, d2T, singular = sweeper.driving_point_derivatives(
            samples[subset], unknowns[subset], s)
        with np.errstate(all="ignore"):
            return closed_form_plot(s, T, dT, d2T), singular

    # The pole pairs of every peak's sample, as (peak, ln f_n, zeta).
    pairs = {}
    for sample in set(samples.tolist()):
        poles = sweeper.poles(sample)
        pairs[sample] = poles[poles.imag > 0]
    seeds = [pairs[sample] for sample in samples.tolist()]
    poles = np.concatenate(seeds)
    resonances = np.column_stack([
        np.repeat(np.arange(len(wants)), [len(seed) for seed in seeds]),
        np.log(np.abs(poles) / (2 * np.pi)), -poles.real / np.abs(poles)])
    with _span("core.refine", peaks=len(wants)) as span:
        u_min, p_min, points, values, reasons = bracketed_minima(
            evaluate, grid[indices], BRACKET_STEPS * steps[indices],
            resonances)
        evaluations = int(np.count_nonzero(~np.isnan(points)))
        span.set(evaluations=evaluations)
    registry = global_registry()
    registry.counter("core.refine.evaluations").inc(evaluations)

    # Each bracket's evaluations in frequency order, without the NaN
    # padding (sorted last) and repeated points.
    order = np.argsort(points, axis=1)
    points = np.take_along_axis(points, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    keep = (np.diff(points, axis=1, prepend=-np.inf) > 0) & np.isfinite(values)
    counts = np.count_nonzero(keep, axis=1)
    splits = np.cumsum(counts)[:-1]
    plot_x = np.split(np.exp(points[keep]), splits)
    plot_y = np.split(values[keep], splits)
    positions = np.count_nonzero(keep & (points < u_min[:, None]), axis=1)
    refined: List[tuple] = []
    for p, ((_, node, coarse), reason) in enumerate(zip(wants, reasons)):
        plot = (Waveform(plot_x[p], plot_y[p], name=f"stability(|Z({node})|)",
                         x_unit="Hz", y_unit="") if counts[p] > 1 else None)
        if reason is not None:
            registry.counter(f"core.refine.fallbacks.{reason}").inc()
            refined.append((plot, coarse, reason))
            continue
        min_max = coarse.peak_type is PeakType.MIN_MAX
        refined.append((plot, StabilityPeak(
            frequency_hz=float(np.exp(u_min[p])), value=float(p_min[p]),
            peak_type=PeakType.MIN_MAX if min_max else PeakType.NORMAL,
            index=int(positions[p]),
            prominence=coarse.prominence + coarse.value - float(p_min[p]),
            companion_frequency_hz=(coarse.companion_frequency_hz
                                    if min_max else None)), None))
    return refined
