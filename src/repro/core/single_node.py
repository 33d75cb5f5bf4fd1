"""Single-node stability analysis (the tool's "Single Node" run mode).

For one selected node the analysis:

1. attaches the AC current stimulus to the node (closed loop untouched),
2. runs an AC sweep and takes the magnitude of the node's own response,
3. computes the stability plot (eq. 1.3),
4. finds the dominant negative peak, optionally refining the frequency
   grid around it for an accurate peak value,
5. converts the peak value (the node's **performance index**) into the
   damping ratio, estimated phase margin and equivalent step overshoot of
   the loop the node participates in (eq. 1.4 + Table 1 relations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.analysis.ac import ac_analysis
from repro.analysis.compiled import BatchLinearization
from repro.analysis.op import STABILITY_NEWTON, NewtonOptions, operating_point
from repro.analysis.results import ACResult, OPResult
from repro.analysis.sweeps import FrequencySweep, log_sweep
from repro.circuit.netlist import Circuit
from repro.core.excitation import DEFAULT_STIMULUS_AMPLITUDE, prepare_excited_circuit
from repro.core.peaks import PeakType, StabilityPeak, dominant_negative_peak, find_peaks
from repro.core.second_order import (
    damping_from_performance_index,
    overshoot_from_damping,
    phase_margin_from_damping,
)
from repro.core.stability_plot import stability_plot
from repro.exceptions import StabilityAnalysisError
from repro.waveform.waveform import Waveform

__all__ = ["NodeStabilityResult", "STABILITY_NEWTON", "SingleNodeOptions",
           "analyze_node", "analyze_node_batch", "build_node_result"]


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
    #: Refine the sweep around the dominant peak for an accurate value.
    refine: bool = True
    #: Points per decade of the refinement sweep.
    refine_points_per_decade: int = 400
    #: Width of the refinement window in decades (centred on the peak).
    refine_span_decades: float = 0.6
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
    #: Refined stability plot around the peak (None when refine=False).
    refined_plot: Optional[Waveform] = None
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
                      op: Optional[OPResult] = None,
                      refiner: Optional[Callable[[str, float, float, int], Waveform]] = None,
                      plot: Optional[Waveform] = None,
                      peaks: Optional[List[StabilityPeak]] = None,
                      refined: Optional[tuple] = None
                      ) -> NodeStabilityResult:
    """Turn a node's AC response magnitude into a :class:`NodeStabilityResult`.

    This is the post-processing shared by the reference single-node path
    and the fast multi-node path: stability plot, peak detection, optional
    refinement around the dominant peak and conversion of the performance
    index into damping / phase margin / overshoot estimates.

    ``refiner(node, center_hz, span_decades, points_per_decade)`` must
    return the response magnitude over the dense refinement window; when it
    is ``None`` no refinement is performed.

    ``plot`` and ``peaks`` let callers that already hold the stability plot
    and its peaks (the batched all-nodes path runs one vectorized
    extraction over every node at once) skip the recomputation; they must
    equal what :func:`stability_plot` / :func:`find_peaks` would return for
    ``response`` under ``options``.  ``refined`` similarly carries a
    precomputed ``(refined_plot, refined_peak)`` pair — what the
    ``refiner`` + dense-window re-scan would produce for this node's
    dominant peak — and takes precedence over calling ``refiner``.
    """
    if float(np.max(np.abs(response.y))) < 1e-30:
        # The node is held by an ideal (zero-impedance) source: the injected
        # current produces no response and the node carries no stability
        # information.  Report "no complex pole" rather than failing.
        return NodeStabilityResult(
            node=node, plot=response.copy(name=f"stability({node})"),
            response=response, peaks=[], dominant_peak=None,
            performance_index=None, natural_frequency_hz=None,
            damping_ratio=None, phase_margin_deg=None, overshoot_percent=None,
            peak_type=None, refined_plot=None, op=op)

    if plot is None:
        plot = stability_plot(response, method=options.plot_method)
    if peaks is None:
        peaks = find_peaks(plot, threshold=options.peak_threshold)
    dominant = dominant_negative_peak(peaks)

    refined_plot = None
    if dominant is not None and options.refine:
        if refined is not None:
            refined_plot, dominant = refined
        elif refiner is not None:
            fine_response = refiner(node, dominant.frequency_hz,
                                    options.refine_span_decades,
                                    options.refine_points_per_decade)
            refined_plot, dominant = _refine_peak(fine_response, dominant,
                                                  options)

    if dominant is None:
        return NodeStabilityResult(
            node=node, plot=plot, response=response, peaks=peaks,
            dominant_peak=None, performance_index=None, natural_frequency_hz=None,
            damping_ratio=None, phase_margin_deg=None, overshoot_percent=None,
            peak_type=None, refined_plot=refined_plot, op=op)

    performance_index = dominant.value
    damping = damping_from_performance_index(performance_index)
    return NodeStabilityResult(
        node=node,
        plot=plot,
        response=response,
        peaks=peaks,
        dominant_peak=dominant,
        performance_index=performance_index,
        natural_frequency_hz=dominant.frequency_hz,
        damping_ratio=damping,
        phase_margin_deg=phase_margin_from_damping(damping),
        overshoot_percent=overshoot_from_damping(damping),
        peak_type=dominant.peak_type,
        refined_plot=refined_plot,
        op=op,
    )


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
    always assembled fresh.
    """
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

    def sweep_response(frequencies) -> Waveform:
        ac = ac_analysis(excited, frequencies, temperature=options.temperature,
                         gmin=options.gmin, variables=options.variables, op=op,
                         backend=options.backend)
        response = ac.waveform(node_name).magnitude()
        response.name = f"|Z({node_name})|"
        return response

    def refiner(_node: str, center_hz: float, span_decades: float,
                points_per_decade: int) -> Waveform:
        half_span = 10.0 ** (span_decades / 2.0)
        fine = FrequencySweep(frequencies=log_sweep(center_hz / half_span,
                                                    center_hz * half_span,
                                                    points_per_decade))
        return sweep_response(fine)

    response = sweep_response(sweep)
    return build_node_result(node_name, response, options, op=op, refiner=refiner)


def analyze_node_batch(circuit: Circuit, node: str,
                       options_rows: Sequence[SingleNodeOptions],
                       ops: Sequence[Optional[OPResult]],
                       lin: BatchLinearization
                       ) -> List[Union[NodeStabilityResult, Exception]]:
    """Batched :func:`analyze_node` over one same-structure sample group.

    ``lin`` carries the whole group's small-signal planes
    (:func:`repro.analysis.compiled.linearize_batch`), ``options_rows`` and
    ``ops`` one entry per sample.  The coarse sweep becomes a single
    ``(N, 1, F)`` impedance-cube solve; only the per-sample refinement
    windows (whose frequencies depend on each sample's own dominant peak)
    run scalar.  The response is reconstructed as ``|Z| * amplitude`` —
    the node voltage under the injected current — which matches the scalar
    path's AC analysis of the excited circuit to solver tolerance.

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
    sweep = FrequencySweep.coerce(options0.sweep)
    freq = sweep.frequencies
    sweeper = BatchImpedanceSweeper(lin, backend=options0.backend)
    cube, failures = sweeper.impedance_cube([node_name], freq)

    outputs: List[Union[NodeStabilityResult, Exception]] = []
    for k in range(n_samples):
        if k in failures:
            outputs.append(failures[k])
            continue
        options = options_rows[k]
        amplitude = options.stimulus_amplitude

        def refiner(_node: str, center_hz: float, span_decades: float,
                    points_per_decade: int, _k: int = k,
                    _amplitude: float = amplitude) -> Waveform:
            half_span = 10.0 ** (span_decades / 2.0)
            window = log_sweep(center_hz / half_span, center_hz * half_span,
                               points_per_decade)
            raw = sweeper.sample_impedances(_k, [node_name], window)
            return Waveform(window, np.abs(raw[node_name]) * _amplitude,
                            name=f"|Z({node_name})|", x_unit="Hz", y_unit="V")

        response = Waveform(np.array(freq, dtype=float),
                            np.abs(cube[k, 0]) * amplitude,
                            name=f"|Z({node_name})|", x_unit="Hz", y_unit="V")
        try:
            outputs.append(build_node_result(node_name, response, options,
                                             op=ops[k], refiner=refiner))
        except Exception as exc:
            outputs.append(exc)
    return outputs


def _refine_peak(fine_response: Waveform, coarse_peak: StabilityPeak,
                 options: SingleNodeOptions):
    """Re-compute the stability plot on the dense window and re-locate the peak.

    Returns (refined_plot, refined_peak); falls back to the coarse peak if
    the refined sweep fails to show a negative peak (which can happen for
    very shallow features at the detection threshold).
    """
    plot = stability_plot(fine_response, method=options.plot_method)
    peaks = find_peaks(plot, threshold=options.peak_threshold)
    return plot, _pick_refined_peak(peaks, coarse_peak)


def _pick_refined_peak(peaks: List[StabilityPeak],
                       coarse_peak: StabilityPeak) -> StabilityPeak:
    """Select the refined peak among a dense window's ``peaks``.

    The selection shared by the scalar refiner and the batched grid
    refinement: falls back to the coarse peak if the window shows no
    negative peak (very shallow features at the detection threshold).
    """
    center = coarse_peak.frequency_hz
    negative = [p for p in peaks if p.is_negative]
    if not negative:
        return coarse_peak
    # Keep the refined peak closest (in log frequency) to the coarse one;
    # the dense window may reveal additional nearby structure.
    refined = min(negative, key=lambda p: abs(math.log10(p.frequency_hz / center)))
    # Preserve the special-case classification of the coarse scan when the
    # refined peak looks NORMAL only because the window is narrow.
    if coarse_peak.peak_type is PeakType.MIN_MAX and refined.peak_type is PeakType.NORMAL:
        refined = StabilityPeak(frequency_hz=refined.frequency_hz, value=refined.value,
                                peak_type=PeakType.MIN_MAX, index=refined.index,
                                prominence=refined.prominence,
                                companion_frequency_hz=coarse_peak.companion_frequency_hz)
    return refined
