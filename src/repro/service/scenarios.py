"""Monte Carlo scenario generation and stability-yield statistics.

The paper's tool answers "is this one schematic stable?"; a screening
service must answer "what fraction of the plausible design/condition space
is stable?".  This module samples design-variable and temperature
distributions into batches of :class:`~repro.service.requests.AnalysisRequest`
objects and reduces the batch results into a :class:`YieldSummary` — the
stability yield (fraction of samples whose every identified loop meets the
phase-margin/damping criteria) plus worst-case statistics.

Sampling is deterministic: a :class:`ScenarioSpec` carries its own seed,
variables are drawn in sorted-name order, and one ``random.Random`` stream
drives the whole batch, so a spec reproduces the same scenarios on every
machine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.all_nodes import AllNodesResult
from repro.core.second_order import phase_margin_from_damping
from repro.exceptions import ToolError
from repro.service.requests import AnalysisRequest, AnalysisResponse

__all__ = [
    "Distribution",
    "OpSpread",
    "ScenarioSpec",
    "Scenario",
    "StabilityCriteria",
    "SampleOutcome",
    "SweepEnvelope",
    "YieldSummary",
    "dc_sweep_envelope",
    "generate_scenarios",
    "op_spread",
    "scenario_requests",
    "stability_yield",
]


@dataclass(frozen=True)
class Distribution:
    """A one-dimensional sampling distribution for a scenario quantity."""

    kind: str                    #: "normal", "uniform", "loguniform", "choice"
    params: Tuple[float, ...]

    @classmethod
    def normal(cls, mean: float, sigma: float) -> "Distribution":
        """Gaussian spread, e.g. a process-like tolerance on a component."""
        return cls("normal", (float(mean), float(sigma)))

    @classmethod
    def uniform(cls, low: float, high: float) -> "Distribution":
        """Flat spread between bounds, e.g. an operating-temperature range."""
        return cls("uniform", (float(low), float(high)))

    @classmethod
    def loguniform(cls, low: float, high: float) -> "Distribution":
        """Log-flat spread for quantities that vary over decades (loads)."""
        if low <= 0 or high <= low:
            raise ToolError("loguniform needs 0 < low < high")
        return cls("loguniform", (float(low), float(high)))

    @classmethod
    def choice(cls, *values: float) -> "Distribution":
        """Discrete pick from explicit values (supply corners etc.)."""
        if not values:
            raise ToolError("choice needs at least one value")
        return cls("choice", tuple(float(v) for v in values))

    def sample(self, rng: random.Random) -> float:
        if self.kind == "normal":
            mean, sigma = self.params
            return rng.gauss(mean, sigma)
        if self.kind == "uniform":
            low, high = self.params
            return rng.uniform(low, high)
        if self.kind == "loguniform":
            low, high = self.params
            return math.exp(rng.uniform(math.log(low), math.log(high)))
        if self.kind == "choice":
            return rng.choice(self.params)
        raise ToolError(f"unknown distribution kind {self.kind!r}")


@dataclass
class ScenarioSpec:
    """What to vary and how many samples to draw."""

    #: Design-variable name -> sampling distribution.
    variables: Dict[str, Distribution] = field(default_factory=dict)
    #: Temperature distribution; None keeps ``base_temperature`` fixed.
    temperature: Optional[Distribution] = None
    base_temperature: float = 27.0
    #: gmin distribution (stability-vs-gmin robustness screening);
    #: None keeps ``base_gmin`` fixed.
    gmin: Optional[Distribution] = None
    base_gmin: float = 1e-12
    samples: int = 32
    seed: int = 2005

    def __post_init__(self):
        if self.samples < 1:
            raise ToolError("a scenario spec needs at least one sample")


@dataclass
class Scenario:
    """One sampled condition: a named (temperature, variables) point."""

    index: int
    name: str
    temperature: float
    variables: Dict[str, float]
    gmin: float = 1e-12


def generate_scenarios(spec: ScenarioSpec) -> List[Scenario]:
    """Draw ``spec.samples`` scenarios from one deterministic RNG stream."""
    rng = random.Random(spec.seed)
    names = sorted(spec.variables)
    scenarios = []
    for index in range(spec.samples):
        variables = {name: spec.variables[name].sample(rng) for name in names}
        temperature = (spec.temperature.sample(rng)
                       if spec.temperature is not None
                       else spec.base_temperature)
        gmin = (spec.gmin.sample(rng) if spec.gmin is not None
                else spec.base_gmin)
        scenarios.append(Scenario(index=index, name=f"mc{index:04d}",
                                  temperature=temperature, variables=variables,
                                  gmin=gmin))
    return scenarios


def scenario_requests(spec: ScenarioSpec,
                      netlist: Optional[str] = None,
                      circuit=None,
                      base: Optional[AnalysisRequest] = None
                      ) -> Tuple[List[Scenario], List[AnalysisRequest]]:
    """Sample the spec and build one request per scenario.

    ``base`` (optional) supplies the analysis mode (all-nodes by default;
    single-node, dc-sweep, op and ac scenarios are first-class too), the
    sweep settings and baseline variable overrides; scenario values
    override base values of the same name.  Linear ``op``/``ac`` batches
    additionally qualify for the engine's in-process batched fast path
    (one vectorized restamp + one batched solve for the whole sweep).

    Every generated request shares one parsed ``Circuit`` object (the
    netlist, when given, is parsed here exactly once and kept alongside
    for JSON round-trips).  Sharing the object is what lets the batch
    engine group the whole sweep under one structure fingerprint — the
    canonical circuit is hashed once, each worker compiles the topology
    once and restamps per sample.
    """
    if base is None:
        base = AnalysisRequest(mode="all-nodes", netlist=netlist, circuit=circuit)
    shared_circuit = base.resolved_circuit()
    scenarios = generate_scenarios(spec)
    requests = []
    for scenario in scenarios:
        variables = dict(base.variables)
        variables.update(scenario.variables)
        requests.append(AnalysisRequest(
            mode=base.mode,
            netlist=base.netlist,
            circuit=shared_circuit,
            node=base.node,
            temperature=scenario.temperature,
            gmin=scenario.gmin,
            variables=variables,
            sweep_start=base.sweep_start,
            sweep_stop=base.sweep_stop,
            sweep_points_per_decade=base.sweep_points_per_decade,
            backend=base.backend,
            dc_variable=base.dc_variable,
            dc_start=base.dc_start,
            dc_stop=base.dc_stop,
            dc_points=base.dc_points,
            dc_values=base.dc_values,
            detail=base.detail,
            label=scenario.name,
        ))
    return scenarios, requests


# ----------------------------------------------------------------------
# Yield statistics
# ----------------------------------------------------------------------
@dataclass
class StabilityCriteria:
    """Pass/fail rule applied to every identified loop of a sample."""

    min_phase_margin_deg: float = 45.0
    min_damping_ratio: Optional[float] = None

    def passes(self, result: AllNodesResult) -> bool:
        return all(self.accepts(loop.phase_margin_deg, loop.damping_ratio)
                   for loop in result.loops)

    def accepts(self, phase_margin_deg: float, damping_ratio: float) -> bool:
        """Whether one loop with this verdict meets the criteria."""
        if phase_margin_deg < self.min_phase_margin_deg:
            return False
        return not (self.min_damping_ratio is not None
                    and damping_ratio < self.min_damping_ratio)


@dataclass
class SampleOutcome:
    """Verdict for one scenario."""

    scenario: Scenario
    status: str                        #: "pass", "fail" or "error"
    min_phase_margin_deg: Optional[float] = None
    worst_loop_frequency_hz: Optional[float] = None
    error: Optional[str] = None


@dataclass
class YieldSummary:
    """Stability yield of a Monte Carlo batch."""

    outcomes: List[SampleOutcome]
    criteria: StabilityCriteria

    @property
    def samples(self) -> int:
        return len(self.outcomes)

    @property
    def errors(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "error")

    @property
    def analysed(self) -> int:
        return self.samples - self.errors

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "pass")

    @property
    def yield_fraction(self) -> float:
        """Passing fraction of the *analysed* samples (0.0 when none ran)."""
        if not self.analysed:
            return 0.0
        return self.passed / self.analysed

    def phase_margin_stats(self) -> Optional[Dict[str, float]]:
        """mean/std/min/max of the per-sample worst phase margin."""
        margins = [o.min_phase_margin_deg for o in self.outcomes
                   if o.min_phase_margin_deg is not None]
        if not margins:
            return None
        mean = sum(margins) / len(margins)
        variance = sum((m - mean) ** 2 for m in margins) / len(margins)
        return {"mean": mean, "std": math.sqrt(variance),
                "min": min(margins), "max": max(margins)}

    def worst_sample(self) -> Optional[SampleOutcome]:
        scored = [o for o in self.outcomes if o.min_phase_margin_deg is not None]
        if not scored:
            return None
        return min(scored, key=lambda o: o.min_phase_margin_deg)

    def format(self) -> str:
        """Human-readable yield report."""
        lines = [
            f"Monte Carlo stability screening: {self.samples} samples",
            f"  analysed: {self.analysed}   analysis errors: {self.errors}",
            f"  passing (PM >= {self.criteria.min_phase_margin_deg:g} deg"
            + (f", zeta >= {self.criteria.min_damping_ratio:g}"
               if self.criteria.min_damping_ratio is not None else "")
            + f"): {self.passed}",
            f"  stability yield: {100.0 * self.yield_fraction:.1f}%",
        ]
        stats = self.phase_margin_stats()
        if stats is not None:
            lines.append(
                f"  worst-loop phase margin: mean {stats['mean']:.1f} deg, "
                f"std {stats['std']:.1f}, min {stats['min']:.1f}, "
                f"max {stats['max']:.1f}")
        worst = self.worst_sample()
        if worst is not None:
            conditions = ", ".join(f"{k}={v:.4g}"
                                   for k, v in worst.scenario.variables.items())
            lines.append(
                f"  worst sample: {worst.scenario.name} "
                f"(T={worst.scenario.temperature:.1f}C"
                + (f", {conditions}" if conditions else "")
                + f") -> PM {worst.min_phase_margin_deg:.1f} deg")
        for outcome in self.outcomes:
            if outcome.status == "error":
                lines.append(f"  {outcome.scenario.name}: "
                             f"analysis failed: {outcome.error}")
        return "\n".join(lines) + "\n"


def stability_yield(scenarios: Sequence[Scenario],
                    responses: Sequence[AnalysisResponse],
                    criteria: Optional[StabilityCriteria] = None) -> YieldSummary:
    """Reduce per-sample responses into a :class:`YieldSummary`."""
    if len(scenarios) != len(responses):
        raise ToolError("scenario and response counts differ")
    criteria = criteria or StabilityCriteria()
    outcomes = []
    for scenario, response in zip(scenarios, responses):
        if not response.ok:
            outcomes.append(SampleOutcome(scenario=scenario, status="error",
                                          error=response.error))
            continue
        if response.mode != "all-nodes":
            outcomes.append(SampleOutcome(
                scenario=scenario, status="error",
                error=f"stability yield needs all-nodes responses, got "
                      f"{response.mode!r} (use dc_sweep_envelope for "
                      "transfer-curve batches, op_spread for "
                      "operating-point batches)"))
            continue
        result = response.result
        if result["failed_nodes"]:
            # Zero identified loops on a sample where nodes *failed* is
            # not evidence of stability; counting such samples as passing
            # would silently inflate the yield.
            failed = ", ".join(sorted(result["failed_nodes"]))
            outcomes.append(SampleOutcome(
                scenario=scenario, status="error",
                error=f"{len(result['failed_nodes'])} node analyses "
                      f"failed: {failed}"))
            continue
        loops = _loop_verdicts(result)
        worst = min(loops, key=lambda v: v[0]) if loops else None
        outcomes.append(SampleOutcome(
            scenario=scenario,
            status="pass" if all(criteria.accepts(pm, zeta)
                                 for pm, zeta, _ in loops) else "fail",
            min_phase_margin_deg=worst[0] if worst else None,
            worst_loop_frequency_hz=worst[2] if worst else None,
        ))
    return YieldSummary(outcomes=outcomes, criteria=criteria)


def _loop_verdicts(result: dict) -> List[Tuple[float, float, float]]:
    """``(phase margin, damping ratio, natural frequency)`` of every loop
    of an all-nodes payload, read from the dict (compact or full) without
    rebuilding the typed result.  As in :class:`~repro.core.loops.Loop`,
    a loop's verdict is its first (deepest) member's damping ratio."""
    by_node = {entry["node"]: entry for entry in result["results"]}
    verdicts = []
    for loop in result["loops"]:
        zeta = by_node[loop["nodes"][0]]["damping_ratio"]
        verdicts.append((phase_margin_from_damping(zeta), zeta,
                         loop["natural_frequency_hz"]))
    return verdicts


# ----------------------------------------------------------------------
# DC transfer-curve statistics (Monte Carlo over dc-sweep requests)
# ----------------------------------------------------------------------
@dataclass
class SweepEnvelope:
    """Per-point min/max envelope of one node's transfer curve across a
    Monte Carlo batch of dc-sweep responses."""

    node: str
    sweep_name: str
    sweep_values: List[float]
    low: List[float]
    high: List[float]
    samples: int
    errors: int
    error_messages: List[str] = field(default_factory=list)

    @property
    def analysed(self) -> int:
        return self.samples - self.errors

    def max_spread(self) -> float:
        """Largest high-low gap over the sweep (worst-case sensitivity)."""
        if not self.low:
            return 0.0
        return max(h - l for l, h in zip(self.low, self.high))

    def format(self) -> str:
        """Human-readable envelope report."""
        lines = [
            f"Monte Carlo DC transfer screening: {self.samples} samples",
            f"  analysed: {self.analysed}   analysis errors: {self.errors}",
        ]
        if self.low:
            lines.append(
                f"  V({self.node}) vs {self.sweep_name} "
                f"({self.sweep_values[0]:g} .. {self.sweep_values[-1]:g}, "
                f"{len(self.sweep_values)} points)")
            lines.append(
                f"  envelope: [{min(self.low):+.6g}, {max(self.high):+.6g}] V, "
                f"max spread {self.max_spread():.4g} V")
        for message in self.error_messages:
            lines.append(f"  {message}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Operating-point statistics (Monte Carlo over "op" requests)
# ----------------------------------------------------------------------
@dataclass
class OpSpread:
    """Distribution of one node's DC voltage across a Monte Carlo batch
    of "op" responses — the reducer of the batched operating-point fast
    path (see ``docs/compiled-engine.md``)."""

    node: str
    values: List[float]                #: per analysed sample, in order
    samples: int
    errors: int
    error_messages: List[str] = field(default_factory=list)

    @property
    def analysed(self) -> int:
        return self.samples - self.errors

    def stats(self) -> Optional[Dict[str, float]]:
        """mean/std/min/max of the node voltage (None when nothing ran)."""
        if not self.values:
            return None
        mean = sum(self.values) / len(self.values)
        variance = sum((v - mean) ** 2 for v in self.values) / len(self.values)
        return {"mean": mean, "std": math.sqrt(variance),
                "min": min(self.values), "max": max(self.values)}

    def format(self) -> str:
        """Human-readable operating-point spread report."""
        lines = [
            f"Monte Carlo operating-point screening: {self.samples} samples",
            f"  analysed: {self.analysed}   analysis errors: {self.errors}",
        ]
        stats = self.stats()
        if stats is not None:
            lines.append(
                f"  V({self.node}): mean {stats['mean']:+.6g} V, "
                f"std {stats['std']:.4g}, range [{stats['min']:+.6g}, "
                f"{stats['max']:+.6g}] V")
        for message in self.error_messages:
            lines.append(f"  {message}")
        return "\n".join(lines) + "\n"


def op_spread(scenarios: Sequence[Scenario],
              responses: Sequence[AnalysisResponse],
              node: str) -> OpSpread:
    """Reduce "op" responses to the voltage spread of ``node``."""
    if len(scenarios) != len(responses):
        raise ToolError("scenario and response counts differ")
    values: List[float] = []
    errors = 0
    messages: List[str] = []
    for scenario, response in zip(scenarios, responses):
        if not response.ok or response.mode != "op":
            errors += 1
            reason = (response.error if not response.ok
                      else f"unexpected mode {response.mode!r}")
            messages.append(f"{scenario.name}: analysis failed: {reason}")
            continue
        values.append(float(response.op_result().voltage(node)))
    return OpSpread(node=node, values=values, samples=len(responses),
                    errors=errors, error_messages=messages)


def dc_sweep_envelope(scenarios: Sequence[Scenario],
                      responses: Sequence[AnalysisResponse],
                      node: str) -> SweepEnvelope:
    """Reduce dc-sweep responses to the per-point envelope of ``node``."""
    if len(scenarios) != len(responses):
        raise ToolError("scenario and response counts differ")
    sweep_name = ""
    values: List[float] = []
    low: List[float] = []
    high: List[float] = []
    errors = 0
    messages: List[str] = []
    for scenario, response in zip(scenarios, responses):
        if not response.ok or response.mode != "dc-sweep":
            errors += 1
            reason = (response.error if not response.ok
                      else f"unexpected mode {response.mode!r}")
            messages.append(f"{scenario.name}: analysis failed: {reason}")
            continue
        result = response.dc_sweep_result()
        curve = result.voltage(node)
        if not values:
            sweep_name = result.sweep_name
            values = [float(v) for v in result.sweep_values]
            low = [float(v) for v in curve]
            high = [float(v) for v in curve]
            continue
        if len(curve) != len(values):
            errors += 1
            messages.append(f"{scenario.name}: sweep grid mismatch "
                            f"({len(curve)} points vs {len(values)})")
            continue
        low = [min(l, float(v)) for l, v in zip(low, curve)]
        high = [max(h, float(v)) for h, v in zip(high, curve)]
    return SweepEnvelope(node=node, sweep_name=sweep_name,
                         sweep_values=values, low=low, high=high,
                         samples=len(responses), errors=errors,
                         error_messages=messages)
