"""JSON request/response schema of the batch screening service.

An :class:`AnalysisRequest` describes one unit of work — "run this
analysis mode on this circuit under these conditions" — in a form that is

* **content-addressable**: :meth:`AnalysisRequest.fingerprint` hashes the
  canonical circuit plus every behaviour-affecting option (mode, node,
  temperature, variable overrides, sweep), so identical requests map to
  the same cache key regardless of how they were constructed;
* **transportable**: requests round-trip through JSON (netlist-backed
  requests) and pickle cleanly onto a process pool (both netlist- and
  Circuit-backed requests).

An :class:`AnalysisResponse` carries the outcome: the serialized result
payload (see ``AllNodesResult.to_dict``; the stability modes leave the
plot arrays out unless ``detail="plots"``), the formatted text report,
failure details (message + full traceback) and timing, plus a ``cached``
flag set by the service when the response was served from the result
cache instead of being recomputed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.results import ACResult, DCSweepResult, OPResult
from repro.analysis.sweeps import FrequencySweep
from repro.circuit.canonical import circuit_fingerprint
from repro.circuit.netlist import Circuit
from repro.circuit.parser import parse_netlist
from repro.core.all_nodes import AllNodesOptions, AllNodesResult
from repro.core.single_node import NodeStabilityResult, SingleNodeOptions
from repro.exceptions import NonFiniteResultError, ToolError
from repro.linalg import BACKEND_ENV_VAR, available_backends
from repro.obs.metrics import global_registry
from repro.obs.trace import span as _span

__all__ = ["AnalysisRequest", "AnalysisResponse", "STABILITY_MODES",
           "expand_corners", "REQUEST_SCHEMA_VERSION"]

#: Bumping this invalidates every existing cache entry (fingerprints change).
#: v2: the linear-solver backend joined the fingerprint.
#: v3: the "dc-sweep" mode and its sweep-definition fields joined the schema.
#: v4: the bare "op" and "ac" modes joined the schema (the batchable
#:     building blocks the engine's in-process fast path groups on).
#: v5: the payload ``detail`` joined the fingerprint; stability results
#:     are compact (no plot arrays) unless ``detail="plots"``.
REQUEST_SCHEMA_VERSION = 5

_MODES = ("all-nodes", "single-node", "dc-sweep", "op", "ac")
#: Payload detail of stability results: "verdict" (peaks, verdicts,
#: loops, operating point) or "plots" (additionally every node's stability
#: plot, response and refined plot arrays).
_DETAILS = ("verdict", "plots")
#: Modes whose payload is a stability verdict (the paper's per-node
#: screening product, served by the batched stability pipeline).
STABILITY_MODES = ("all-nodes", "single-node")
_SOLVER_BACKENDS = (None, "auto") + available_backends()

#: Bytes of every response encoding (``AnalysisResponse.to_json``): one
#: locked increment per encoding.
_RESPONSE_BYTES = global_registry().counter("service.response_bytes")
_NON_FINITE_RESULTS = global_registry().counter("service.non_finite_results")

#: Circuit object -> structure fingerprint.  Requests of one batch share
#: the circuit object (scenario generation and chunked pool submission
#: both preserve identity), so one canonical hash serves the whole batch.
_STRUCTURE_FP_BY_CIRCUIT: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class AnalysisRequest:
    """One analysis to run: circuit + mode + conditions.

    Exactly one of ``netlist`` (SPICE text) or ``circuit`` (a
    :class:`Circuit` object) must be provided; netlist-backed requests can
    additionally round-trip through JSON.  ``label`` is cosmetic (batch
    display, Monte Carlo sample names) and never enters the fingerprint.
    """

    mode: str = "all-nodes"
    netlist: Optional[str] = None
    circuit: Optional[Circuit] = None
    node: Optional[str] = None
    temperature: float = 27.0
    gmin: float = 1e-12
    variables: Dict[str, float] = field(default_factory=dict)
    sweep_start: float = FrequencySweep.DEFAULT_START
    sweep_stop: float = FrequencySweep.DEFAULT_STOP
    sweep_points_per_decade: int = FrequencySweep.DEFAULT_POINTS_PER_DECADE
    #: Linear-solver backend ("dense"/"sparse"/"auto"/None).  Part of the
    #: fingerprint: backends agree only to ~1e-9, and a content-addressed
    #: cache must not conflate results computed along different numerical
    #: paths.
    backend: Optional[str] = None
    #: DC transfer sweep definition ("dc-sweep" mode): what to ramp — an
    #: independent source name or a design variable — and the grid, either
    #: start/stop/points (descending allowed) or an explicit value list.
    dc_variable: Optional[str] = None
    dc_start: float = 0.0
    dc_stop: float = 1.0
    dc_points: int = 51
    dc_values: Optional[List[float]] = None
    #: Payload detail of ``all-nodes``/``single-node`` results: "verdict"
    #: or "plots".  Part of their fingerprint: the two payloads differ.
    detail: str = "verdict"
    label: Optional[str] = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ToolError(f"unknown analysis mode {self.mode!r}; "
                            f"expected one of {_MODES}")
        if self.backend not in _SOLVER_BACKENDS:
            raise ToolError(f"unknown solver backend {self.backend!r}; "
                            f"expected one of {_SOLVER_BACKENDS}")
        if self.detail not in _DETAILS:
            raise ToolError(f"unknown payload detail {self.detail!r}; "
                            f"expected one of {_DETAILS}")
        if self.netlist is None and self.circuit is None:
            raise ToolError("request needs either netlist text or a Circuit")
        if self.mode == "single-node" and not self.node:
            raise ToolError("single-node requests must name the node")
        if self.mode == "dc-sweep":
            if not self.dc_variable:
                raise ToolError("dc-sweep requests must name the swept "
                                "source or design variable (dc_variable)")
            if self.dc_values is not None:
                self.dc_values = [float(v) for v in self.dc_values]
                if len(self.dc_values) < 2:
                    raise ToolError("dc-sweep needs at least two values")
            elif self.dc_points < 2 or self.dc_stop == self.dc_start:
                raise ToolError("dc-sweep needs at least two points and "
                                "distinct start/stop values")
        self.variables = {str(k): float(v) for k, v in self.variables.items()}

    # ------------------------------------------------------------------
    def resolved_circuit(self) -> Circuit:
        """The circuit to analyse (netlist text is parsed once, lazily)."""
        if self.circuit is None:
            self.circuit = parse_netlist(self.netlist, first_line_title=True)
        return self.circuit

    def sweep(self) -> FrequencySweep:
        return FrequencySweep(self.sweep_start, self.sweep_stop,
                              self.sweep_points_per_decade)

    def dc_sweep_grid(self):
        """The DC sweep grid as an array ("dc-sweep" mode only)."""
        import numpy as np

        from repro.analysis.sweeps import lin_sweep

        if self.mode != "dc-sweep":
            raise ToolError("only dc-sweep requests carry a DC sweep grid")
        if self.dc_values is not None:
            return np.asarray(self.dc_values, dtype=float)
        return lin_sweep(self.dc_start, self.dc_stop, self.dc_points)

    def analysis_options(self):
        """Build the per-mode options object for the core analyses."""
        if self.mode not in ("single-node", "all-nodes"):
            raise ToolError(f"{self.mode!r} requests have no frequency-domain "
                            "options (dc-sweep carries its own grid, op/ac "
                            "run the bare analysis engines)")
        common = dict(sweep=self.sweep(), temperature=self.temperature,
                      gmin=self.gmin, variables=dict(self.variables) or None,
                      backend=self.backend)
        if self.mode == "single-node":
            return SingleNodeOptions(**common)
        return AllNodesOptions(**common)

    # ------------------------------------------------------------------
    def structure_fingerprint(self) -> str:
        """Content hash of the circuit alone (no analysis conditions).

        Requests that share this key describe the same topology and
        element values and differ only in analysis conditions (variable
        overrides, temperature, sweep, mode...) — exactly the set over
        which one compiled circuit structure can be reused.  The batch
        engine groups requests by this key so each worker compiles once
        per topology and restamps per sample; the hash is memoised per
        request instance (Monte Carlo batches share one circuit, hashed
        once per worker chunk).
        """
        cached = getattr(self, "_structure_fp", None)
        if cached is None:
            circuit = self.resolved_circuit()
            try:
                cached = _STRUCTURE_FP_BY_CIRCUIT.get(circuit)
            except TypeError:  # unhashable/unweakrefable circuit stand-in
                cached = None
            if cached is None:
                cached = circuit_fingerprint(circuit)
                try:
                    _STRUCTURE_FP_BY_CIRCUIT[circuit] = cached
                except TypeError:
                    pass
            self._structure_fp = cached
        return cached

    def netlist_text_hash(self) -> Optional[str]:
        """SHA-256 of the raw netlist text (``None`` for Circuit-backed
        requests), memoised per instance.

        The engine's grouping key for unparsed requests: fastpath
        grouping and pool chunking both key the same batch, so without
        the memo every run hashed the full netlist twice per request.
        """
        if self.netlist is None:
            return None
        cached = getattr(self, "_netlist_hash", None)
        if cached is None:
            cached = hashlib.sha256(
                self.netlist.encode("utf-8")).hexdigest()
            self._netlist_hash = cached
        return cached

    # ------------------------------------------------------------------
    def effective_backend(self) -> str:
        """The backend value that determines the numerical path.

        An explicit request wins; otherwise the ``REPRO_BACKEND``
        environment override (which redirects every "auto" resolution)
        must enter the fingerprint, or a shared cache would conflate
        dense- and sparse-computed results across differently-configured
        workers.  Plain "auto" is safe to record as such: the heuristic
        is a pure function of the circuit, which is already hashed.
        """
        if self.backend not in (None, "auto"):
            return self.backend
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        return env if env not in ("", "auto") else "auto"

    def fingerprint(self) -> str:
        """Content hash identifying this request (the cache key).

        Memoised per instance (requests are treated as immutable once
        built, like the structure fingerprint): the service looks a
        request up in the cache and the batch executor stamps the same
        key onto the response — one canonicalisation, not two.  The memo
        is keyed on the effective backend, which can legitimately change
        under the ``REPRO_BACKEND`` environment override.
        """
        effective = self.effective_backend()
        cached = getattr(self, "_fingerprint", None)
        if cached is not None and cached[0] == effective:
            return cached[1]
        circuit = self.resolved_circuit()
        extra = {
            "schema": REQUEST_SCHEMA_VERSION,
            "mode": self.mode,
            # Alias-resolved so two spellings of the same electrical node
            # share a cache entry, matching the canonical circuit form.
            "node": circuit.resolve_node(self.node) if self.node else None,
            "temperature": self.temperature,
            "gmin": self.gmin,
            "variables": self.variables,
            # A bare operating point has no frequency axis: leaving the
            # sweep out lets op requests share cache entries regardless
            # of the (irrelevant) sweep settings they were built with.
            "sweep": None if self.mode == "op" else self.sweep().canonical_data(),
            "backend": self.effective_backend(),
            # Only stability payloads depend on it: op, ac and dc-sweep
            # requests share entries whatever detail they were built with.
            "detail": (self.detail if self.mode in STABILITY_MODES
                       else None),
        }
        if self.mode == "dc-sweep":
            extra["dc_sweep"] = {
                "variable": self.dc_variable,
                "values": ([float(v) for v in self.dc_values]
                           if self.dc_values is not None else None),
                "start": self.dc_start,
                "stop": self.dc_stop,
                "points": self.dc_points,
            }
        self._fingerprint = (effective, circuit_fingerprint(circuit,
                                                            extra=extra))
        return self._fingerprint[1]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation (netlist-backed requests only)."""
        if self.netlist is None:
            raise ToolError("request built from a Circuit object cannot be "
                            "exported to JSON; provide netlist text instead")
        return {
            "schema": REQUEST_SCHEMA_VERSION,
            "mode": self.mode,
            "netlist": self.netlist,
            "node": self.node,
            "temperature": self.temperature,
            "gmin": self.gmin,
            "variables": dict(self.variables),
            "sweep_start": self.sweep_start,
            "sweep_stop": self.sweep_stop,
            "sweep_points_per_decade": self.sweep_points_per_decade,
            "backend": self.backend,
            "dc_variable": self.dc_variable,
            "dc_start": self.dc_start,
            "dc_stop": self.dc_stop,
            "dc_points": self.dc_points,
            "dc_values": (list(self.dc_values)
                          if self.dc_values is not None else None),
            "detail": self.detail,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisRequest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            mode=data.get("mode", "all-nodes"),
            netlist=data["netlist"],
            node=data.get("node"),
            temperature=float(data.get("temperature", 27.0)),
            gmin=float(data.get("gmin", 1e-12)),
            variables=data.get("variables") or {},
            sweep_start=float(data.get("sweep_start", FrequencySweep.DEFAULT_START)),
            sweep_stop=float(data.get("sweep_stop", FrequencySweep.DEFAULT_STOP)),
            sweep_points_per_decade=int(data.get(
                "sweep_points_per_decade", FrequencySweep.DEFAULT_POINTS_PER_DECADE)),
            backend=data.get("backend"),
            dc_variable=data.get("dc_variable"),
            dc_start=float(data.get("dc_start", 0.0)),
            dc_stop=float(data.get("dc_stop", 1.0)),
            dc_points=int(data.get("dc_points", 51)),
            dc_values=data.get("dc_values"),
            detail=data.get("detail", "verdict"),
            label=data.get("label"),
        )


@dataclass
class AnalysisResponse:
    """Outcome of one request: result payload, report, failure details."""

    fingerprint: str
    mode: str
    status: str                        #: "done" or "failed"
    label: Optional[str] = None
    result: Optional[dict] = None      #: serialized analysis result
    report: Optional[str] = None       #: formatted text report
    error: Optional[str] = None
    traceback: Optional[str] = None
    #: Structured failure payload (JSON-able) for errors that carry more
    #: than text — a ``ConvergenceError`` ships its per-iteration
    #: ``history`` here so pool workers do not flatten it to a string
    #: (see :meth:`convergence_error`).
    error_details: Optional[dict] = None
    elapsed_seconds: float = 0.0
    cached: bool = False               #: served from the result cache
    created: float = field(default_factory=time.time)
    #: Span records captured while executing this request (present only
    #: when a tracer was installed — see :mod:`repro.obs.trace`).  Shaped
    #: ``{"schema": int, "spans": [Span.to_dict(), ...]}``; carried
    #: through JSON but never part of any fingerprint or cache key.
    telemetry: Optional[dict] = None
    #: Memo of :meth:`to_json`.  ``init=False`` keeps it out of
    #: ``dataclasses.replace``: a clone with another label encodes anew.
    _json: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "done"

    # ------------------------------------------------------------------
    def all_nodes_result(self) -> AllNodesResult:
        """Rehydrate the :class:`AllNodesResult` from the payload (each
        node's plots are ``None`` unless it was sent with ``detail="plots"``)."""
        if not self.ok or self.result is None or self.mode != "all-nodes":
            raise ToolError("response carries no all-nodes result")
        return AllNodesResult.from_dict(self.result)

    def node_result(self) -> NodeStabilityResult:
        """Rehydrate the :class:`NodeStabilityResult` from the payload
        (plots ``None`` unless it was sent with ``detail="plots"``)."""
        if not self.ok or self.result is None or self.mode != "single-node":
            raise ToolError("response carries no single-node result")
        return NodeStabilityResult.from_dict(self.result)

    def dc_sweep_result(self) -> DCSweepResult:
        """Rehydrate the :class:`DCSweepResult` from the payload."""
        if not self.ok or self.result is None or self.mode != "dc-sweep":
            raise ToolError("response carries no dc-sweep result")
        return DCSweepResult.from_dict(self.result)

    def op_result(self) -> OPResult:
        """Rehydrate the :class:`~repro.analysis.OPResult` ("op" mode)."""
        if not self.ok or self.result is None or self.mode != "op":
            raise ToolError("response carries no operating-point result")
        return OPResult.from_dict(self.result)

    def ac_result(self) -> ACResult:
        """Rehydrate the :class:`~repro.analysis.ACResult` ("ac" mode)."""
        if not self.ok or self.result is None or self.mode != "ac":
            raise ToolError("response carries no AC result")
        return ACResult.from_dict(self.result)

    def convergence_error(self):
        """Rehydrate the :class:`~repro.exceptions.ConvergenceError` of a
        failed solve — with its per-iteration ``history`` intact — or
        ``None`` when the failure was not a convergence failure."""
        if self.error_details is None or \
                self.error_details.get("type") != "ConvergenceError":
            return None
        from repro.exceptions import ConvergenceError

        return ConvergenceError.from_details(self.error_details)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able representation (what the disk cache stores)."""
        return {
            "schema": REQUEST_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "mode": self.mode,
            "status": self.status,
            "label": self.label,
            "result": self.result,
            "report": self.report,
            "error": self.error,
            "traceback": self.traceback,
            "error_details": self.error_details,
            "elapsed_seconds": self.elapsed_seconds,
            "created": self.created,
            "telemetry": self.telemetry,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, encoded once.

        The service's disk cache and the gateway's stream share this one
        encoding of a result.  The encoding is strict JSON: a ``done``
        result holding a NaN or an infinity turns this response into a
        ``failed`` one carrying a :class:`NonFiniteResultError` that names
        the first such value, and that failure is what gets encoded.  The
        memo assumes the response is not mutated after the first call;
        :meth:`release_json` drops it.
        """
        text = self._json
        if text is None:
            with _span("service.encode", mode=self.mode) as encode_span:
                try:
                    text = json.dumps(self.to_dict(), sort_keys=True,
                                      allow_nan=False)
                except ValueError:
                    if not self._fail_non_finite():
                        raise
                    text = json.dumps(self.to_dict(), sort_keys=True,
                                      allow_nan=False)
                encode_span.set(bytes=len(text))
            _RESPONSE_BYTES.inc(len(text))
            self._json = text
        return text

    def _fail_non_finite(self) -> bool:
        """Replace a result strict JSON cannot carry by a typed failure;
        False when the offending value is not in the result."""
        path = first_non_finite(self.result, "/result")
        if path is None:
            return False
        error = NonFiniteResultError(path)
        _NON_FINITE_RESULTS.inc()
        self.status = "failed"
        self.result = None
        self.report = None
        self.error = str(error)
        self.error_details = error.to_details()
        return True

    def release_json(self) -> None:
        """Drop the memoized encoding once its last reader has used it,
        so a retained response does not also hold its text."""
        self._json = None

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisResponse":
        """Inverse of :meth:`to_dict`."""
        return cls(
            fingerprint=data["fingerprint"],
            mode=data["mode"],
            status=data["status"],
            label=data.get("label"),
            result=data.get("result"),
            report=data.get("report"),
            error=data.get("error"),
            traceback=data.get("traceback"),
            error_details=data.get("error_details"),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            created=float(data.get("created", 0.0)),
            telemetry=data.get("telemetry"),
        )


def first_non_finite(payload, path: str = "") -> Optional[str]:
    """Path of the first NaN or infinity in a JSON-able payload
    (``"/results/3/damping_ratio"``), or ``None`` when it is finite."""
    if isinstance(payload, float):
        return None if math.isfinite(payload) else (path or "/")
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, (list, tuple)):
        try:
            # Numeric lists (the bulk of a payload) in one C-level pass: a
            # NaN or an infinity makes the sum non-finite.
            if math.isfinite(sum(payload)):
                return None
        except TypeError:
            pass
        items = enumerate(payload)
    else:
        return None
    for key, value in items:
        found = first_non_finite(value, f"{path}/{key}")
        if found is not None:
            return found
    return None


def expand_corners(request: AnalysisRequest, corners: Sequence) -> List[AnalysisRequest]:
    """One request per corner: temperature and variable overrides applied.

    ``corners`` is a sequence of :class:`repro.tool.corners.Corner` (or any
    object with ``name``/``temperature``/``variables``); each derived
    request is labelled with the corner name.
    """
    requests = []
    for corner in corners:
        variables = dict(request.variables)
        variables.update(corner.variables)
        requests.append(AnalysisRequest(
            mode=request.mode,
            netlist=request.netlist,
            circuit=request.circuit,
            node=request.node,
            temperature=float(corner.temperature),
            gmin=request.gmin,
            variables=variables,
            backend=request.backend,
            sweep_start=request.sweep_start,
            sweep_stop=request.sweep_stop,
            sweep_points_per_decade=request.sweep_points_per_decade,
            dc_variable=request.dc_variable,
            dc_start=request.dc_start,
            dc_stop=request.dc_stop,
            dc_points=request.dc_points,
            dc_values=request.dc_values,
            detail=request.detail,
            label=corner.name,
        ))
    return requests
