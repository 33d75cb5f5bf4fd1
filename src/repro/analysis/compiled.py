"""Compiled-circuit parametric assembly: structure once, values per scenario.

Every Monte Carlo sample, corner or temperature point of one circuit
shares the same matrix *structure* — flattening, the unknown index and
the (row, col) position of every linear stamp are invariants of the
topology.  Only the stamped *values* move between scenarios.  This module
splits the two apart:

* :class:`CompiledCircuit` runs the structural pass once per topology:
  flatten, build the unknown index, and replay every element's
  ``stamp_linear`` into a recording adapter that captures each stamp as a
  **pattern slot** (fixed positions in a
  :class:`~repro.linalg.triplets.CompiledPattern`) paired with the
  element that provides its value.  Elements whose stamped values never
  read the analysis context (plain-number resistors at tnom, ideal
  sources, controlled sources with numeric gains — in practice most of a
  circuit) are classified *static* and evaluated exactly once.

* :meth:`CompiledCircuit.restamp` is the per-scenario pass: copy the
  static base arrays and re-evaluate only the context-dependent elements
  (their ``stamp_linear`` runs against a value-capture adapter — no name
  resolution, no index lookups, no list building).  The result is a
  :class:`StampState`: fresh ``G``/``C`` value arrays plus DC/AC
  right-hand sides for one ``(variables, temperature)`` point, sharing
  the compiled pattern.  Patterns carry a stable
  :meth:`~repro.linalg.triplets.CompiledPattern.pattern_key`, which the
  sparse backend uses to cache the symbolic factorization ordering, so
  same-structure solves across scenarios pay only the numeric LU.

* :meth:`CompiledCircuit.restamp_batch` extends the value pass along a
  **sample axis**: one call refills the value arrays for N scenarios at
  once.  Each dynamic element's ``stamp_linear`` runs once — against an
  array-valued context (:class:`_VectorContext`) whose temperature, gmin
  and design variables are ``(N,)`` vectors — and one scatter per target
  routes the captured ``(stamps, N)`` value matrix into ``(N, nnz)``
  blocks for ``G``/``C`` and ``(N, n)`` right-hand sides
  (:class:`BatchStampState`).  Paired with
  :meth:`~repro.linalg.LinearSystem.solve_batch` this is the Monte Carlo
  fast path: assembly cost per element, not per element x sample, and
  one batched LAPACK call (or one symbolic ordering) for all samples.

**The probe protocol** (how compile decides what is static): during the
recording pass each element's ``stamp_linear`` receives a
:class:`_ProbeContext` — a proxy that forwards every read to the real
:class:`~repro.analysis.context.AnalysisContext` while flagging the
element *dynamic* on any context-dependent access (``temperature``,
``gmin``, ``variables``, a non-literal ``eval_param``, or any attribute
the proxy does not recognise, conservatively).  Elements that never
trip the flag are static: their compile-time values are final.  The
:class:`_RecordingStamper` running alongside resolves every stamped
node/branch name to its unknown index exactly once and freezes each
stamp call as a pattern slot; from then on neither names nor indices are
touched again — restamp and restamp_batch only move values.

Element ``stamp_linear`` implementations are untouched: during compile
they stamp into the recording adapter, during restamp into the capture
adapter, and both expose the exact stamper interface
:class:`~repro.analysis.mna.MNASystem` always provided.
"""

from __future__ import annotations

import threading
from functools import reduce
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.context import (
    _SAFE_FUNCTIONS,
    AnalysisContext,
    parse_literal,
)
from repro.circuit.elements.base import Element, is_ground
from repro.circuit.netlist import Circuit, SubcircuitInstance
from repro.exceptions import AnalysisError, CompanionStructureError, NetlistError
from repro.linalg import (
    AUTO_SPARSE_MIN_SIZE,
    DenseBackend,
    LinearSystem,
    resolve_backend,
)
from repro.linalg.triplets import CompiledPattern
from repro.obs.trace import span as _span

__all__ = ["BatchLinearization", "BatchNewtonState", "BatchStampState",
           "CompiledCircuit", "StampState", "compile_circuit",
           "linearize_batch"]

# Stamp-op targets.
_G, _C, _BDC, _BAC = 0, 1, 2, 3


class _StampOp:
    """One recorded value-carrying stamp call: target array, fixed slots,
    per-slot sign multipliers (e.g. the +g/+g/-g/-g fan of a two-terminal
    conductance collapses to one op with four slots)."""

    __slots__ = ("target", "slots", "signs")

    def __init__(self, target: int, slots: Sequence[int], signs: Sequence[float]):
        self.target = target
        self.slots = np.asarray(slots, dtype=np.int64)
        self.signs = np.asarray(signs, dtype=float)


class _ElementProgram:
    """The recorded stamp sequence of one element (+ its base values)."""

    __slots__ = ("element", "ops", "values", "dynamic")

    def __init__(self, element: Element):
        self.element = element
        self.ops: List[_StampOp] = []
        self.values: List[complex] = []
        self.dynamic = False


class _ProbeContext:
    """Context wrapper that records whether an element *read* the context.

    An element whose ``stamp_linear`` never touches temperature, gmin or
    a design variable cannot produce different values under a different
    context — it is *static* and its compile-time values are reused by
    every restamp.  Any context read (including any attribute this proxy
    does not recognise, conservatively) marks the element *dynamic*.
    """

    __slots__ = ("_ctx", "touched")

    def __init__(self, ctx: AnalysisContext):
        self._ctx = ctx
        self.touched = False

    @property
    def temperature(self) -> float:
        self.touched = True
        return self._ctx.temperature

    @property
    def gmin(self) -> float:
        self.touched = True
        return self._ctx.gmin

    @property
    def variables(self) -> Dict[str, float]:
        self.touched = True
        return self._ctx.variables

    def eval_param(self, value) -> float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        # Plain SPICE literals ("2.2u") resolve without the context; only
        # variable references and expressions make the element dynamic.
        literal = parse_literal(value)
        if literal is not None:
            return literal
        self.touched = True
        return self._ctx.eval_param(value)

    def __getattr__(self, name):
        self.touched = True
        return getattr(self._ctx, name)


#: numpy stand-ins for the scalar expression functions that cannot take
#: arrays.  The full vector namespace is derived from the scalar one
#: (same key set by construction, so the two cannot drift): names
#: without an override keep their scalar function, which simply fails on
#: arrays and demotes that expression to the exact per-sample fallback.
_VECTOR_OVERRIDES = {
    "abs": np.abs,
    "min": lambda *xs: reduce(np.minimum, xs),
    "max": lambda *xs: reduce(np.maximum, xs),
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "log10": np.log10,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
}

_VECTOR_FUNCTIONS = {name: _VECTOR_OVERRIDES.get(name, value)
                     for name, value in _SAFE_FUNCTIONS.items()}


class _VectorContext:
    """Array-valued :class:`AnalysisContext` stand-in: one context, N samples.

    ``temperature`` and ``gmin`` are ``(N,)`` arrays, every design
    variable maps to an ``(N,)`` column, and :meth:`eval_param` returns
    arrays for anything that depends on them — so one ``stamp_linear``
    call against this context produces the stamp values of *all* N
    scenarios at once.  Element code that cannot take arrays (a truth
    test on a batched value, a scalar-only library call) raises, and
    :meth:`CompiledCircuit.restamp_batch` falls back to the per-sample
    scalar loop: vectorization is an optimization, never a behaviour
    change.
    """

    __slots__ = ("n_samples", "temperature", "gmin", "variables",
                 "_device_states", "_expr_cache")

    def __init__(self, n_samples: int, temperature: np.ndarray,
                 gmin: np.ndarray, variables: Dict[str, np.ndarray]):
        self.n_samples = int(n_samples)
        self.temperature = temperature
        self.gmin = gmin
        self.variables = variables
        self._device_states: Dict[str, Dict] = {}
        self._expr_cache: Dict[str, object] = {}

    def device_state(self, name: str) -> Dict:
        """Mutable per-device scratch dict (API parity with the scalar ctx)."""
        return self._device_states.setdefault(name, {})

    def reset_device_states(self) -> None:
        """Forget all device scratch state (API parity with the scalar ctx)."""
        self._device_states.clear()

    def eval_param(self, value):
        """Resolve a parameter to a float or an ``(N,)`` array.

        Numbers and plain SPICE literals stay scalar (they are the same
        for every sample); variable references return their column, and
        expressions evaluate with numpy elementwise semantics.
        """
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        text = str(value).strip()
        if text in self._expr_cache:
            return self._expr_cache[text]
        result = parse_literal(text)
        if result is None:
            if text in self.variables:
                result = self.variables[text]
            else:
                result = self._eval_expression(text)
        self._expr_cache[text] = result
        return result

    def _eval_expression(self, text: str):
        namespace = dict(_VECTOR_FUNCTIONS)
        namespace.update(self.variables)
        result = eval(compile(text, "<param>", "eval"),  # noqa: S307 - same
                      {"__builtins__": {}}, namespace)   # sandbox as scalar ctx
        return np.asarray(result, dtype=float)


class _RecordingStamper:
    """Compile-time stamper: resolves names once, records pattern slots."""

    def __init__(self, compiled: "CompiledCircuit"):
        self._compiled = compiled
        self.g_rows: List[int] = []
        self.g_cols: List[int] = []
        self.c_rows: List[int] = []
        self.c_cols: List[int] = []
        self.initial_voltage_conditions: List[Tuple[str, str, float]] = []
        self.initial_current_conditions: List[Tuple[str, float]] = []
        self.time_sources: List[Element] = []
        self._program: Optional[_ElementProgram] = None

    def begin_element(self, program: _ElementProgram) -> None:
        self._program = program

    # -- matrix stamps --------------------------------------------------
    def _record_matrix(self, target: int, entries, value) -> None:
        """``entries`` = [(row, col, sign), ...] with grounds dropped."""
        rows = self.g_rows if target == _G else self.c_rows
        cols = self.g_cols if target == _G else self.c_cols
        slots, signs = [], []
        for row, col, sign in entries:
            slots.append(len(rows))
            rows.append(row)
            cols.append(col)
            signs.append(sign)
        self._program.ops.append(_StampOp(target, slots, signs))
        self._program.values.append(value)

    def _add(self, target: int, vi: str, vj: str, value: float) -> None:
        i, j = self._index_of(vi), self._index_of(vj)
        entries = [(i, j, 1.0)] if i is not None and j is not None else []
        self._record_matrix(target, entries, value)

    def _two_terminal(self, target: int, node_a: str, node_b: str,
                      value: float) -> None:
        i, j = self._index_of(node_a), self._index_of(node_b)
        entries = []
        if i is not None:
            entries.append((i, i, 1.0))
        if j is not None:
            entries.append((j, j, 1.0))
        if i is not None and j is not None:
            entries.append((i, j, -1.0))
            entries.append((j, i, -1.0))
        self._record_matrix(target, entries, value)

    def add_G(self, vi: str, vj: str, value: float) -> None:
        self._add(_G, vi, vj, value)

    def add_C(self, vi: str, vj: str, value: float) -> None:
        self._add(_C, vi, vj, value)

    def conductance(self, node_a: str, node_b: str, g: float) -> None:
        self._two_terminal(_G, node_a, node_b, g)

    def capacitance(self, node_a: str, node_b: str, c: float) -> None:
        self._two_terminal(_C, node_a, node_b, c)

    # -- right-hand sides -----------------------------------------------
    def _add_rhs(self, target: int, variable: str, value) -> None:
        index = self._index_of(variable)
        slots = [index] if index is not None else []
        signs = [1.0] if index is not None else []
        self._program.ops.append(_StampOp(target, slots, signs))
        self._program.values.append(value)

    def add_rhs_dc(self, variable: str, value: float) -> None:
        self._add_rhs(_BDC, variable, value)

    def add_rhs_ac(self, variable: str, value: complex) -> None:
        self._add_rhs(_BAC, variable, value)

    # -- structural side effects ----------------------------------------
    def initial_condition_voltage(self, node_a: str, node_b: str, value: float) -> None:
        self.initial_voltage_conditions.append((node_a, node_b, value))

    def initial_condition_current(self, branch: str, value: float) -> None:
        self.initial_current_conditions.append((branch, value))

    def register_time_source(self, element: Element) -> None:
        self.time_sources.append(element)

    def require_variable(self, variable: str, owner: str = "") -> None:
        if not self._compiled.has_variable(variable):
            raise NetlistError(
                f"element {owner!r} references missing branch {variable!r} "
                "(is the controlling voltage source present?)")

    # -- helpers ---------------------------------------------------------
    def _index_of(self, variable: str) -> Optional[int]:
        return self._compiled.index_of(variable)


class _CaptureStamper:
    """Restamp-time stamper: captures the value of each stamp call, in
    order, and nothing else — names are never resolved again."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: List[complex] = []

    def add_G(self, vi, vj, value):
        self.values.append(value)

    def add_C(self, vi, vj, value):
        self.values.append(value)

    def conductance(self, node_a, node_b, g):
        self.values.append(g)

    def capacitance(self, node_a, node_b, c):
        self.values.append(c)

    def add_rhs_dc(self, variable, value):
        self.values.append(value)

    def add_rhs_ac(self, variable, value):
        self.values.append(value)

    def initial_condition_voltage(self, node_a, node_b, value):
        pass

    def initial_condition_current(self, branch, value):
        pass

    def register_time_source(self, element):
        pass

    def require_variable(self, variable, owner=""):
        pass


def _capture(counts: Sequence[Tuple[Element, int]], stamp, capture,
             error: type, when: str) -> list:
    """Replay ``stamp(element, capture)`` for every compiled element and
    return the captured values in call order.

    ``counts`` pairs each element with the number of stamp calls recorded
    for it at compile time.  An element making a different number of
    calls now raises ``error``: its stamp structure moved ``when`` (say,
    "between iterations"), which fixed pattern slots cannot represent.
    This is the one capture loop behind every restamp, Newton refill and
    linearization of a compiled circuit.
    """
    captured = capture.values
    for element, expected in counts:
        before = len(captured)
        stamp(element, capture)
        if len(captured) - before != expected:
            raise error(
                f"element {element.name!r} changed its stamp structure "
                f"{when}: {expected} stamps recorded, "
                f"{len(captured) - before} now")
    return captured


def _stack(captured: list, width: int, dtype) -> np.ndarray:
    """Values captured against an array-valued context as one ``(stamps,
    width)`` array: ``(width,)`` columns fill their row, scalars (values
    shared by every sample) broadcast across it."""
    values = np.empty((len(captured), width), dtype=dtype)
    for index, value in enumerate(captured):
        values[index] = value
    return values


#: ``when`` of a linear restamp whose stamp count moved.
_BETWEEN_SCENARIOS = ("between scenarios (compiled circuits require "
                      "context-independent stamp structure)")


class _DynamicScatter:
    """Vectorised routing of captured dynamic values into the value arrays.

    One restamp captures all dynamic elements' stamp values into a single
    flat vector (in compile order); these arrays then scatter that vector
    into the G/C slot arrays (assignment — each matrix slot belongs to
    exactly one stamp) and accumulate it into the right-hand sides
    (``np.add.at`` — sources may share an index) in one numpy call per
    target instead of one Python iteration per stamp.
    """

    __slots__ = ("g_slots", "g_vidx", "g_signs", "c_slots", "c_vidx",
                 "c_signs", "bdc_slots", "bdc_vidx", "bdc_signs",
                 "bac_slots", "bac_vidx", "bac_signs", "counts")

    def __init__(self, programs: Sequence["_ElementProgram"]):
        routes = {_G: ([], [], []), _C: ([], [], []),
                  _BDC: ([], [], []), _BAC: ([], [], [])}
        position = 0
        self.counts: List[Tuple[Element, int]] = []
        for program in programs:
            self.counts.append((program.element, len(program.ops)))
            for op in program.ops:
                slots, vidx, signs = routes[op.target]
                for slot, sign in zip(op.slots, op.signs):
                    slots.append(int(slot))
                    vidx.append(position)
                    signs.append(float(sign))
                position += 1
        (self.g_slots, self.g_vidx, self.g_signs) = _as_route(routes[_G])
        (self.c_slots, self.c_vidx, self.c_signs) = _as_route(routes[_C])
        (self.bdc_slots, self.bdc_vidx, self.bdc_signs) = _as_route(routes[_BDC])
        (self.bac_slots, self.bac_vidx, self.bac_signs) = _as_route(routes[_BAC])

    def apply(self, values: np.ndarray, g: np.ndarray, c: np.ndarray,
              b_dc: np.ndarray, b_ac: np.ndarray) -> None:
        """Route one scenario's captured ``values`` into its value arrays."""
        if len(self.g_slots):
            g[self.g_slots] = (values[self.g_vidx] * self.g_signs).real
        if len(self.c_slots):
            c[self.c_slots] = (values[self.c_vidx] * self.c_signs).real
        if len(self.bdc_slots):
            np.add.at(b_dc, self.bdc_slots,
                      (values[self.bdc_vidx] * self.bdc_signs).real)
        if len(self.bac_slots):
            np.add.at(b_ac, self.bac_slots,
                      values[self.bac_vidx] * self.bac_signs)

    def apply_batch(self, values: np.ndarray, g: np.ndarray, c: np.ndarray,
                    b_dc: np.ndarray, b_ac: np.ndarray) -> None:
        """Route a ``(stamps, N)`` value matrix into ``(N, ...)`` blocks.

        The sample axis rides along unchanged: matrix slots are assigned
        (each slot belongs to exactly one stamp, as in :meth:`apply`) and
        right-hand sides accumulate through ``np.add.at`` on transposed
        views, so duplicate source indices sum per sample exactly as the
        scalar path does — one numpy call per target for the whole batch.
        """
        if len(self.g_slots):
            g[:, self.g_slots] = (values[self.g_vidx]
                                  * self.g_signs[:, None]).real.T
        if len(self.c_slots):
            c[:, self.c_slots] = (values[self.c_vidx]
                                  * self.c_signs[:, None]).real.T
        if len(self.bdc_slots):
            np.add.at(b_dc.T, self.bdc_slots,
                      (values[self.bdc_vidx] * self.bdc_signs[:, None]).real)
        if len(self.bac_slots):
            np.add.at(b_ac.T, self.bac_slots,
                      values[self.bac_vidx] * self.bac_signs[:, None])


def _as_route(route: Tuple[List[int], List[int], List[float]]):
    slots, vidx, signs = route
    return (np.asarray(slots, dtype=np.int64),
            np.asarray(vidx, dtype=np.int64),
            np.asarray(signs, dtype=float))


class _LinearProgram:
    """The full compiled linear pass: patterns, base values, dynamic set."""

    __slots__ = ("pattern_G", "pattern_C", "base_g", "base_c", "base_bdc",
                 "base_bac", "dynamic", "scatter", "initial_voltage_conditions",
                 "initial_current_conditions", "time_sources", "programs")


class StampState:
    """The value side of one scenario: fresh arrays over a shared pattern.

    ``g_values``/``c_values`` hold one entry per recorded stamp slot (in
    stamp order) of the compiled ``G``/``C`` patterns; ``b_dc``/``b_ac``
    are fully assembled right-hand sides.  The structural artifacts
    (patterns, initial conditions, time sources) are shared, immutable
    references into the owning :class:`CompiledCircuit`.
    """

    __slots__ = ("compiled", "g_values", "c_values", "b_dc", "b_ac")

    def __init__(self, compiled: "CompiledCircuit", g_values: np.ndarray,
                 c_values: np.ndarray, b_dc: np.ndarray, b_ac: np.ndarray):
        self.compiled = compiled
        self.g_values = g_values
        self.c_values = c_values
        self.b_dc = b_dc
        self.b_ac = b_ac

    # Structural views (shared with the compiled circuit).
    @property
    def pattern_G(self) -> CompiledPattern:
        """The shared ``G`` pattern (immutable, owned by the circuit)."""
        return self.compiled.pattern_G

    @property
    def pattern_C(self) -> CompiledPattern:
        """The shared ``C`` pattern (immutable, owned by the circuit)."""
        return self.compiled.pattern_C

    @property
    def initial_voltage_conditions(self) -> List[Tuple[str, str, float]]:
        """``(node_a, node_b, volts)`` initial conditions (transient)."""
        return self.compiled.program.initial_voltage_conditions

    @property
    def initial_current_conditions(self) -> List[Tuple[str, float]]:
        """``(branch, amps)`` initial conditions (transient)."""
        return self.compiled.program.initial_current_conditions

    @property
    def time_sources(self) -> List[Element]:
        """Sources with time-dependent waveforms (transient stimulus)."""
        return self.compiled.program.time_sources

    def G_dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``G`` of this scenario (``out`` reuses a buffer)."""
        return self.pattern_G.to_dense(self.g_values, out=out)

    def C_dense(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense ``C`` of this scenario (``out`` reuses a buffer)."""
        return self.pattern_C.to_dense(self.c_values, out=out)

    def G_csc(self, dtype=float):
        """CSC ``G`` scattered into the compiled pattern's skeleton."""
        return self.pattern_G.to_csc(self.g_values, dtype=dtype)

    def C_csc(self, dtype=float):
        """CSC ``C`` scattered into the compiled pattern's skeleton."""
        return self.pattern_C.to_csc(self.c_values, dtype=dtype)


class BatchStampState:
    """The value side of N scenarios at once, over one shared structure.

    The sample-axis sibling of :class:`StampState`:
    ``g_values``/``c_values`` are ``(N, nnz)`` blocks (row ``k`` is
    scenario ``k``'s stamp-order value array) and ``b_dc``/``b_ac`` are
    ``(N, n)`` right-hand sides.  ``temperatures``/``gmins`` record the
    per-sample conditions the batch was stamped for, ``failures`` maps
    any sample whose restamp failed (a poisoned scenario value) to its
    exception — those rows are NaN and every other sample is unaffected.
    """

    __slots__ = ("compiled", "g_values", "c_values", "b_dc", "b_ac",
                 "temperatures", "gmins", "failures", "vectorized",
                 "variable_rows", "rhs_patched")

    def __init__(self, compiled: "CompiledCircuit", g_values: np.ndarray,
                 c_values: np.ndarray, b_dc: np.ndarray, b_ac: np.ndarray,
                 temperatures: np.ndarray, gmins: np.ndarray,
                 failures: Optional[Dict[int, Exception]] = None,
                 vectorized: bool = True,
                 variable_rows: Optional[Sequence[Dict[str, float]]] = None,
                 rhs_patched: bool = False):
        self.compiled = compiled
        self.g_values = g_values
        self.c_values = c_values
        self.b_dc = b_dc
        self.b_ac = b_ac
        self.temperatures = temperatures
        self.gmins = gmins
        #: sample index -> exception, for samples whose restamp failed.
        self.failures = failures or {}
        #: Whether the fast vectorized pass produced the values (False:
        #: the per-sample scalar fallback ran, results are identical).
        self.vectorized = vectorized
        #: Per-sample design-variable override dicts (the stamp inputs),
        #: kept so downstream consumers (the batched Newton loop and its
        #: scalar demotion path) can rebuild any sample's exact context.
        self.variable_rows = (list(variable_rows) if variable_rows is not None
                              else [{} for _ in range(b_dc.shape[0])])
        #: Whether ``b_dc`` was patched past what the contexts restamp (a
        #: DC source sweep point); :meth:`sample_system` then carries it.
        #: Otherwise the scalar restamp stands: a vectorized restamp
        #: evaluates expressions elementwise, so its bits may differ.
        self.rhs_patched = rhs_patched

    def sample_context(self, index: int) -> AnalysisContext:
        """The exact scalar :class:`AnalysisContext` of sample ``index``
        (circuit defaults + this sample's overrides/temperature/gmin)."""
        ctx_vars = dict(self.compiled.circuit.variables)
        ctx_vars.update(self.variable_rows[index])
        return AnalysisContext(temperature=float(self.temperatures[index]),
                               gmin=float(self.gmins[index]),
                               variables=ctx_vars)

    def sample_system(self, index: int, backend=None):
        """An :class:`~repro.analysis.mna.MNASystem` of sample ``index``:
        the scalar restamp of its context, with the batch's DC
        right-hand side when that was patched (see ``rhs_patched``)."""
        system = self.compiled.system(ctx=self.sample_context(index),
                                      backend=backend)
        if self.rhs_patched:
            system.state.b_dc[:] = self.b_dc[index]
        return system

    def __len__(self) -> int:
        return self.b_dc.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of scenarios in the batch."""
        return self.b_dc.shape[0]

    @property
    def pattern_G(self) -> CompiledPattern:
        """The shared ``G`` pattern (structural view into the circuit)."""
        return self.compiled.pattern_G

    @property
    def pattern_C(self) -> CompiledPattern:
        """The shared ``C`` pattern (structural view into the circuit)."""
        return self.compiled.pattern_C

    #: The value planes that fully describe the batch's numeric side, in
    #: a fixed transportable order (see :meth:`export_planes`).
    PLANE_FIELDS = ("g_values", "c_values", "b_dc", "b_ac",
                    "temperatures", "gmins")

    def export_planes(self) -> Dict[str, np.ndarray]:
        """The batch's value planes as ``{field: array}`` — zero-copy.

        The returned arrays *are* the batch's own (``(N, nnz)`` stamp
        planes, ``(N, n)`` right-hand sides, ``(N,)`` conditions), not
        copies: this is the export half of the engine's shared-memory
        transport, which writes them into one block and rebuilds the
        batch on the worker with :meth:`from_planes`.  Restamp failures
        and per-sample variable rows are *not* part of the planes — they
        travel in the task descriptor (failures) or stay parent-side
        (variable rows drive only the scalar fallback path).
        """
        return {name: getattr(self, name) for name in self.PLANE_FIELDS}

    @classmethod
    def from_planes(cls, compiled: "CompiledCircuit",
                    planes: Dict[str, np.ndarray],
                    failures: Optional[Dict[int, Exception]] = None
                    ) -> "BatchStampState":
        """Rebuild a batch over externally supplied value planes.

        The inverse of :meth:`export_planes`: ``planes`` maps each
        :attr:`PLANE_FIELDS` name to an array (typically a view into a
        mapped shared-memory block — no copies are made, so a row slice
        of a bigger batch works directly).  The reconstructed batch is
        marked ``vectorized`` and carries empty variable rows: consumers
        that need the scalar per-sample context (the batched Newton
        demotion ladder) must run where the original batch lives.
        """
        return cls(compiled,
                   planes["g_values"], planes["c_values"],
                   planes["b_dc"], planes["b_ac"],
                   planes["temperatures"], planes["gmins"],
                   failures=failures)

    def sample(self, index: int) -> StampState:
        """Scenario ``index`` as a scalar :class:`StampState` (views, no
        copies) — the bridge back into every single-scenario analysis."""
        if index in self.failures:
            raise self.failures[index]
        return StampState(self.compiled, self.g_values[index],
                          self.c_values[index], self.b_dc[index],
                          self.b_ac[index])

    # -- batched assembly views -----------------------------------------
    def G_dense_batch(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        """All scenarios' dense ``G`` as one ``(N, n, n)`` stack."""
        return self.pattern_G.to_dense_batch(self.g_values, out=out)

    def G_csc_data_batch(self, dtype=float) -> np.ndarray:
        """All scenarios' CSC data arrays, ``(N, structural_nnz)`` — rows
        feed :meth:`~repro.linalg.LinearSystem.solve_batch` on sparse."""
        return self.pattern_G.csc_data_batch(self.g_values, dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "vectorized" if self.vectorized else "scalar-fallback"
        return (f"<BatchStampState {self.n_samples} samples, "
                f"{len(self.failures)} failed, {mode}>")


# ----------------------------------------------------------------------
# Nonlinear (Newton companion) compilation
# ----------------------------------------------------------------------

class _ZeroSolution:
    """All-zero solution view used to probe nonlinear stamp structure."""

    __slots__ = ()

    def voltage(self, node) -> float:
        return 0.0

    def current(self, branch) -> float:
        return 0.0


class _NewtonRecorder:
    """Compile-time companion stamper.

    Resolves every ``add_G_iter``/``add_rhs_iter`` target to its unknown
    index exactly once and records it as a fixed pattern slot (ground
    targets are recorded as drops).  The per-iteration capture adapter
    then only supplies values, in the same call order.
    """

    def __init__(self, compiled: "CompiledCircuit"):
        self._compiled = compiled
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.g_slots: List[int] = []
        self.g_vidx: List[int] = []
        self.b_rows: List[int] = []
        self.b_vidx: List[int] = []
        self.calls = 0

    def add_G_iter(self, vi: str, vj: str, value) -> None:
        i = self._compiled.index_of(vi)
        j = self._compiled.index_of(vj)
        if i is not None and j is not None:
            self.g_slots.append(len(self.rows))
            self.g_vidx.append(self.calls)
            self.rows.append(i)
            self.cols.append(j)
        self.calls += 1

    def add_rhs_iter(self, variable: str, value) -> None:
        index = self._compiled.index_of(variable)
        if index is not None:
            self.b_rows.append(index)
            self.b_vidx.append(self.calls)
        self.calls += 1

    def __getattr__(self, name):
        raise CompanionStructureError(
            f"stamp_nonlinear used stamper method {name!r}, which the "
            "compiled Newton recorder does not support (companion stamps "
            "are add_G_iter/add_rhs_iter; incremental capacitances belong "
            "in stamp_dynamic_nonlinear)")


class _IterCapture:
    """Per-iteration companion stamper: captures values in call order."""

    __slots__ = ("values",)

    def __init__(self):
        self.values: List[float] = []

    def add_G_iter(self, vi, vj, value):
        self.values.append(value)

    def add_rhs_iter(self, variable, value):
        self.values.append(value)

    def __getattr__(self, name):
        # An element reaching for any other stamper method mid-iteration
        # (it passed the probe, so this is value-dependent behaviour) must
        # trigger the uncompiled fallback, not crash the solve.
        raise CompanionStructureError(
            f"stamp_nonlinear used stamper method {name!r} after probing "
            "recorded only add_G_iter/add_rhs_iter calls; the companion "
            "stamp structure is value-dependent")


class _CapSlotAdapter:
    """Index-resolved adapter for ``stamp_dynamic_nonlinear``.

    ``slots`` maps the active element's terminal-name pairs (resolved at
    compile time) to absolute positions in the compiled C value array;
    pairs involving ground map to ``None`` and are dropped, exactly as
    :meth:`~repro.analysis.mna.MNASystem.capacitance_op` always did.
    """

    __slots__ = ("values", "slots")

    def __init__(self, values: np.ndarray):
        self.values = values
        self.slots: Dict[Tuple[str, str], Optional[int]] = {}

    def add_C_op(self, vi: str, vj: str, value: float) -> None:
        try:
            slot = self.slots[(vi, vj)]
        except KeyError:
            raise CompanionStructureError(
                f"stamp_dynamic_nonlinear stamped ({vi!r}, {vj!r}), which "
                "is not a terminal pair of the element recorded at compile "
                "time") from None
        if slot is not None:
            self.values[slot] += value

    def capacitance_op(self, node_a: str, node_b: str, c: float) -> None:
        self.add_C_op(node_a, node_a, c)
        self.add_C_op(node_b, node_b, c)
        self.add_C_op(node_a, node_b, -c)
        self.add_C_op(node_b, node_a, -c)

    def __getattr__(self, name):
        raise CompanionStructureError(
            f"stamp_dynamic_nonlinear used stamper method {name!r}, which "
            "the compiled incremental-capacitance adapter does not support "
            "(expected add_C_op/capacitance_op)")


class _NewtonProgram:
    """Compiled nonlinear layer of one topology.

    The Newton matrix pattern is the union of the static linear ``G``
    slots, one slot per (non-ground) companion stamp of every nonlinear
    device, and one diagonal slot per unknown for the ``gshunt``
    convergence aid.  The value array mirrors that layout, so a Newton
    iteration is "refill the companion segment, set the shunt segment,
    hand the array to the solver" — no name resolution, no dict lookups,
    no triplet rebuilds in the loop.  A parallel union of the linear
    ``C`` slots plus per-device k x k terminal blocks compiles the
    incremental-capacitance (``stamp_dynamic_nonlinear``) layer the same
    way.
    """

    __slots__ = ("n", "pattern", "linear_nnz", "nnz", "shunt_slice",
                 "g_slots", "g_vidx", "b_rows", "b_vidx", "counts",
                 "cap_pattern", "cap_linear_nnz", "cap_nnz", "cap_slots")


def _companion_values(program: _NewtonProgram, view, ctx, when: str,
                      width: Optional[int] = None) -> np.ndarray:
    """Every companion stamp value of ``program`` at ``view``.

    Returns ``(stamps,)`` for a scalar solution view, or ``(stamps,
    width)`` for an array-valued :class:`_BatchSolutionView` over
    ``width`` samples (scalar stamp values broadcast across the row).
    """
    captured = _capture(
        program.counts,
        lambda element, capture: element.stamp_nonlinear(capture, view, ctx),
        _IterCapture(), CompanionStructureError, when)
    if width is None:
        return np.asarray(captured, dtype=float)
    return _stack(captured, width, float)


def _stamp_capacitances(program: _NewtonProgram, values: np.ndarray,
                        view, ctx) -> None:
    """Add every nonlinear device's incremental capacitances at ``view``
    into ``values``: one row over ``program.cap_pattern`` whose linear
    segment is already filled."""
    adapter = _CapSlotAdapter(values)
    for element, slots in program.cap_slots:
        adapter.slots = slots
        element.stamp_dynamic_nonlinear(adapter, view, ctx)


class _CompiledSolutionView:
    """Scalar solution view over a compiled circuit (no MNASystem needed).

    Matches the :class:`~repro.analysis.mna.SolutionView` read API the
    device models consume (``voltage``/``current``), resolving names
    through the compiled index.
    """

    __slots__ = ("_compiled", "_values")

    def __init__(self, compiled: "CompiledCircuit", x: np.ndarray):
        self._compiled = compiled
        # Python floats: the scalar device evaluation reads a handful of
        # them per device and stays off numpy scalars.
        self._values = np.real(x).tolist()

    def voltage(self, node: str) -> float:
        index = self._compiled.index_of(node)
        if index is None:
            return 0.0
        return self._values[index]

    def current(self, branch: str) -> float:
        index = self._compiled.index_of(branch)
        if index is None:
            return 0.0
        return self._values[index]


class _BatchSolutionView:
    """Array-valued solution view: ``voltage(node)`` is an ``(A,)`` column.

    ``x`` is the ``(A, n)`` candidate-solution plane of the active
    samples; ground reads stay scalar ``0.0`` (device code mixes them
    freely with the sample columns via broadcasting).
    """

    __slots__ = ("_compiled", "_x")

    def __init__(self, compiled: "CompiledCircuit", x: np.ndarray):
        self._compiled = compiled
        self._x = x

    def voltage(self, node: str):
        index = self._compiled.index_of(node)
        if index is None:
            return 0.0
        return self._x[:, index]

    def current(self, branch: str):
        index = self._compiled.index_of(branch)
        if index is None:
            return 0.0
        return self._x[:, index]


class _BatchNewtonContext:
    """Minimal array-valued context for the batched companion refill.

    Temperature is a *scalar* (the vectorized refill requires a
    temperature-uniform batch: each device evaluates every lane on one
    set of per-temperature parameters, cached per model value and
    temperature); ``gmin`` may be a scalar or an ``(A,)`` column.
    Device limiting state holds ``(A,)`` arrays sized to the current
    active set.  Anything else an element reaches for raises
    ``AttributeError``, demoting the refill to the exact per-sample
    path instead of silently misbehaving.
    """

    __slots__ = ("temperature", "gmin", "_device_states")

    def __init__(self, temperature: float, gmin):
        self.temperature = temperature
        self.gmin = gmin
        self._device_states: Dict[str, Dict] = {}

    def device_state(self, name: str) -> Dict:
        return self._device_states.setdefault(name, {})

    def reset_device_states(self) -> None:
        self._device_states.clear()

    def compact(self, keep: np.ndarray, old_size: int) -> None:
        """Shrink every ``(old_size,)`` state array to the kept lanes
        (called when samples leave the active set between iterations)."""
        for state in self._device_states.values():
            for key, value in list(state.items()):
                if isinstance(value, np.ndarray) and value.shape == (old_size,):
                    state[key] = value[keep]


class BatchNewtonState:
    """Newton assembly over the compiled union pattern, one row per sample.

    Owns one ``(N, nnz)`` value plane over the compiled union Newton
    pattern — row ``k`` is sample ``k``'s linear base + companion slots +
    gshunt diagonal.  The one DC Newton iteration
    (:func:`repro.analysis.op._newton_rows`) drives it with *row index
    arrays* (the convergence mask): only the still-active rows are
    refilled, solved and residual-checked, so converged samples stop
    paying.  The batched solve runs it over many rows, the scalar ladder
    over row 0 of a one-row state
    (:meth:`~repro.analysis.mna.MNASystem.newton_state`), which the
    full-nonlinear transient integrator steps too: one assembly serves N
    rows and one row.

    Two refill paths exist, mirroring ``restamp_batch``:

    * :meth:`refill_vector` evaluates every device **once for all active
      samples** through array-valued voltages (:class:`_BatchSolutionView`)
      and the array-aware device helpers.  It raises on array-shy device
      code or non-finite results — vectorization is an optimization,
      never a behaviour change.
    * :meth:`refill_row` is the exact scalar refill of one sample, used
      for single rows, temperature-mixed batches and when the vector
      pass is unavailable.

    Residuals (:meth:`matvec_rows`) and steps (:meth:`solve_rows`) read
    the same assembled matrices: one batched LAPACK call on the dense
    kernel (whose per-row results are bit for bit the 2-D calls'), a
    cached-symbolic refactor loop on the sparse kernel (same pattern key
    every iteration).
    """

    def __init__(self, program: _NewtonProgram, batch: BatchStampState,
                 backend=None, names: Optional[Sequence[str]] = None):
        self._program = program
        self._compiled = batch.compiled
        self.values = np.zeros((len(batch), program.nnz))
        self._names = list(names) if names is not None else None
        self._backend = backend
        self._use_sparse = (backend is not None
                            and getattr(backend, "name", None) == "sparse"
                            and program.n >= AUTO_SPARSE_MIN_SIZE)
        self._system: Optional[LinearSystem] = None
        self.rebind(batch)

    def rebind(self, batch: BatchStampState) -> "BatchNewtonState":
        """Swap in a freshly restamped linear base (same structure, same
        number of rows); the solver skeleton is kept."""
        self._batch = batch
        self.values[:, :self._program.linear_nnz] = batch.g_values
        self.b_dc = np.real(batch.b_dc) if np.iscomplexobj(batch.b_dc) \
            else batch.b_dc
        temps = batch.temperatures
        gmins = batch.gmins
        self._temps_uniform = bool(np.all(temps == temps[0]))
        self._gmin_uniform = bool(np.all(gmins == gmins[0]))
        self.discard_vector_state()
        self._assembly = None
        return self

    # ------------------------------------------------------------------
    @property
    def vector_ready(self) -> bool:
        """Whether the vectorized refill may run: each device evaluates
        every lane on one set of per-temperature parameters, so the batch
        must be temperature-uniform."""
        return self._temps_uniform

    def set_gshunt(self, gshunt: float) -> None:
        """Fill the diagonal shunt slots of every sample's row."""
        self.values[:, self._program.shunt_slice] = gshunt
        self._assembly = None

    def discard_vector_state(self) -> None:
        """Drop the vector limiting state (after a failed vector refill
        the caller redoes the iteration per sample from clean state)."""
        self._vctx = None
        self._vector_rows = None

    # ------------------------------------------------------------------
    def refill_vector(self, rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
        """Vectorized companion refill of the active sample ``rows``.

        ``x_rows`` is the ``(A, n)`` candidate plane aligned with
        ``rows`` (ascending sample indices; the active set may only
        shrink between calls).  Returns the ``(A, n)`` Newton right-hand
        sides.  Raises when any device cannot take arrays — the caller
        falls back to :meth:`refill_row`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if self._vctx is None:
            self._vctx = _BatchNewtonContext(
                float(self._batch.temperatures[0]),
                float(self._batch.gmins[0]))
        elif self._vector_rows is not None and \
                len(rows) != len(self._vector_rows):
            keep = np.searchsorted(self._vector_rows, rows)
            self._vctx.compact(keep, len(self._vector_rows))
        ctx = self._vctx
        if not self._gmin_uniform:
            ctx.gmin = self._batch.gmins[rows]
        self._vector_rows = rows
        view = _BatchSolutionView(self._compiled, x_rows)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = _companion_values(self._program, view, ctx,
                                       "between iterations", len(rows))
        if not np.all(np.isfinite(values)):
            raise AnalysisError(
                "non-finite companion values in the batched Newton refill")
        program = self._program
        if len(program.g_slots):
            self.values[np.ix_(rows, program.g_slots)] = \
                values[program.g_vidx].T
        b_iter = np.zeros((len(rows), program.n))
        if len(program.b_rows):
            np.add.at(b_iter.T, program.b_rows, values[program.b_vidx])
        self._assembly = None
        return self.b_dc[rows] + b_iter

    def refill_row(self, row: int, x: np.ndarray, ctx) -> np.ndarray:
        """Exact scalar companion refill of one sample at ``x`` under the
        scalar context ``ctx``; returns its Newton right-hand side."""
        program = self._program
        values = _companion_values(program,
                                   _CompiledSolutionView(self._compiled, x),
                                   ctx, "between iterations")
        if len(program.g_slots):
            self.values[row, program.g_slots] = values[program.g_vidx]
        b_iter = np.zeros(program.n)
        if len(program.b_rows):
            np.add.at(b_iter, program.b_rows, values[program.b_vidx])
        self._assembly = None
        return self.b_dc[row] + b_iter

    # ------------------------------------------------------------------
    def dense_rows(self, rows: np.ndarray) -> np.ndarray:
        """The Newton matrices of ``rows`` as a dense ``(A, n, n)`` stack
        (each slice bit for bit the scalar densify of its row)."""
        return self._program.pattern.to_dense_batch(self.values[rows])

    def _assembled(self, rows: np.ndarray) -> np.ndarray:
        """The matrices of ``rows`` in the solve kernel's form — a dense
        stack, or CSC data rows on the sparse kernel — cached until the
        values change, so a residual check and the step after it share
        one assembly."""
        cached = self._assembly
        if cached is None or not (cached[0] is rows
                                  or np.array_equal(cached[0], rows)):
            matrices = (self._program.pattern.csc_data_batch(self.values[rows])
                        if self._use_sparse else self.dense_rows(rows))
            cached = self._assembly = (rows, matrices)
        return cached[1]

    def _linear_system(self, rows: np.ndarray) -> LinearSystem:
        if self._system is None:
            pattern = self._program.pattern
            if self._use_sparse:
                self._system = LinearSystem(
                    pattern.to_csc(self.values[rows[0]]),
                    backend=self._backend, names=self._names,
                    pattern_key=pattern.pattern_key())
            else:
                # Below AUTO_SPARSE_MIN_SIZE unknowns Newton solves on the
                # dense kernel whatever the resolved backend.
                self._system = LinearSystem(self._assembled(rows)[0],
                                            backend=DenseBackend(),
                                            names=self._names)
        return self._system

    def matvec_rows(self, rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
        """``G_newton[k] @ x[k]`` for the given rows (the residual check),
        from the assembled matrices that :meth:`solve_rows` factors."""
        matrices = self._assembled(rows)
        if not self._use_sparse:
            return np.matmul(matrices, x_rows[..., None])[..., 0]
        system = self._linear_system(rows)
        return np.stack([system.refactor(data).matrix @ x
                         for data, x in zip(matrices, x_rows)])

    def solve_rows(self, rows: np.ndarray, b_rows: np.ndarray):
        """One batched Newton step for the given sample rows.

        Returns ``(x_rows, failures)`` where ``failures`` maps positions
        *within* ``rows`` to exceptions (singular samples fail alone).
        """
        matrices = self._assembled(rows)
        return self._linear_system(rows).solve_batch(matrices, b_rows)

    # ------------------------------------------------------------------
    def capacitance_dense(self, row: int, x: np.ndarray, ctx) -> np.ndarray:
        """Row ``row``'s small-signal ``C`` (linear + incremental) at
        ``x``, dense — the full-nonlinear transient integrator needs it
        once per time step."""
        program = self._program
        values = np.zeros(program.cap_nnz)
        values[:program.cap_linear_nnz] = self._batch.c_values[row]
        _stamp_capacitances(program, values,
                            _CompiledSolutionView(self._compiled, x), ctx)
        return program.cap_pattern.to_dense(values)


class BatchLinearization:
    """Small-signal ``G``/``C`` value planes of N operating points at once.

    The sample-axis form of what
    :meth:`~repro.analysis.mna.MNASystem.small_signal_matrices` produces
    for one scenario: row ``k`` of ``g_values``/``c_values`` holds sample
    ``k``'s linearized conductances/capacitances over one *shared*
    pattern, so a whole same-structure batch feeds a single batched AC
    assembly (:func:`repro.analysis.ac.solve_ac_stacked_batch`) under one
    cached symbolic ordering.  For linear circuits the planes are
    zero-copy views of the originating :class:`BatchStampState`; for
    nonlinear circuits they live over the compiled Newton union pattern
    (companion + per-device capacitance blocks), with the gshunt slots
    held at exactly zero — the dense matrices are then identical to the
    scalar small-signal assembly, and the sparse ones carry the same
    values over a superset pattern.

    ``failures`` maps samples whose linearization failed (restamp
    poisoning carried over, or a companion structure/limiting problem at
    the operating point) to their exceptions; those rows are NaN and
    never poison their batchmates.

    :meth:`reduction` caches each sample's QZ reduction for the dense AC
    sweep and :meth:`take` hands its rows to the sub-batch, so every
    sweep of the same planes shares one QZ per sample.  Assigning new
    ``g_values``/``c_values`` arrays drops the cache (the planes are not
    to be changed in place once reduced).
    """

    __slots__ = ("compiled", "pattern", "cap_pattern", "g_values",
                 "c_values", "b_ac", "temperatures", "gmins", "failures",
                 "_reduction")

    def __init__(self, compiled: "CompiledCircuit", pattern: CompiledPattern,
                 cap_pattern: CompiledPattern, g_values: np.ndarray,
                 c_values: np.ndarray, b_ac: np.ndarray,
                 temperatures: np.ndarray, gmins: np.ndarray,
                 failures: Optional[Dict[int, Exception]] = None):
        self.compiled = compiled
        self.pattern = pattern
        self.cap_pattern = cap_pattern
        self.g_values = g_values
        self.c_values = c_values
        self.b_ac = b_ac
        self.temperatures = temperatures
        self.gmins = gmins
        self.failures = failures or {}
        self._reduction = None

    def __len__(self) -> int:
        return self.g_values.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of linearized operating points in the batch."""
        return self.g_values.shape[0]

    def healthy_indices(self) -> List[int]:
        """Sample indices that linearized successfully, in order."""
        return [k for k in range(self.n_samples) if k not in self.failures]

    def take(self, samples: Sequence[int]) -> "BatchLinearization":
        """A sub-batch holding only ``samples``, renumbered ``0..len-1``.

        The value planes are fancy-indexed copies of the selected rows
        (cheap next to one batched AC solve) over the *same* shared
        patterns and compiled circuit; ``failures`` keys are remapped to
        the new positions.  Use this to push a subset of the batch
        through the batched solvers without paying for the absent
        samples.
        """
        rows = np.asarray(list(samples), dtype=np.intp)
        failures = {position: self.failures[int(sample)]
                    for position, sample in enumerate(rows)
                    if int(sample) in self.failures}
        sub = BatchLinearization(self.compiled, self.pattern,
                                 self.cap_pattern, self.g_values[rows],
                                 self.c_values[rows], self.b_ac[rows],
                                 self.temperatures[rows], self.gmins[rows],
                                 failures)
        if self._reduction_is_current():
            sub._reduction = (sub.g_values, sub.c_values,
                              self._reduction[2].take(rows))
        return sub

    def _reduction_is_current(self) -> bool:
        return self._reduction is not None \
            and self._reduction[0] is self.g_values \
            and self._reduction[1] is self.c_values

    def reduction(self):
        """Every healthy sample's QZ reduction of ``G + sC`` (a
        :class:`repro.analysis.ac.PencilReduction`), cached."""
        if not self._reduction_is_current():
            from repro.analysis.ac import reduce_pencils

            healthy = [k for k in self.healthy_indices()
                       if np.all(np.isfinite(self.g_values[k]))
                       and np.all(np.isfinite(self.c_values[k]))]
            # Densified like sample_dense, so a sample's sweep is bit for
            # bit its scalar sweep.
            G = np.zeros((self.n_samples, self.pattern.n, self.pattern.n))
            C = np.zeros_like(G)
            for k in healthy:
                self.pattern.to_dense(self.g_values[k], out=G[k])
                self.cap_pattern.to_dense(self.c_values[k], out=C[k])
            self._reduction = (self.g_values, self.c_values,
                               reduce_pencils(G, C, healthy))
        return self._reduction[2]

    # -- per-sample scalar views ----------------------------------------
    def sample_dense(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``index``'s dense ``(G_ss, C_ss)`` — exactly the scalar
        small-signal matrices (duplicate pattern slots sum on densify)."""
        if index in self.failures:
            raise self.failures[index]
        return (self.pattern.to_dense(self.g_values[index]),
                self.cap_pattern.to_dense(self.c_values[index]))

    def sample_sparse(self, index: int) -> Tuple:
        """Sample ``index``'s CSC ``(G_ss, C_ss)`` over the shared pattern."""
        if index in self.failures:
            raise self.failures[index]
        return (self.pattern.to_csc(self.g_values[index]),
                self.cap_pattern.to_csc(self.c_values[index], dtype=float))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<BatchLinearization {self.n_samples} samples, "
                f"{len(self.failures)} failed, nnz={self.pattern.nnz}>")


#: Upper bound on the companion limiting fixpoint iteration in
#: :func:`linearize_batch`.  The SPICE limiters contract toward the
#: candidate voltage (vds steps are capped at 2 V per pass, junction
#: steps at a few vt above vcrit), so any physically sensible operating
#: point reaches identity in a handful of passes.
_LINEARIZE_LIMIT_PASSES = 64


def _companion_fixpoint(newton: _NewtonProgram, view, ctx,
                        width: Optional[int] = None) -> np.ndarray:
    """Companion stamp values at exactly the ``view`` solution.

    Replays ``stamp_nonlinear`` until the device limiting state reaches
    its fixpoint (limiting becomes the identity), which is precisely the
    state a converged scalar Newton leaves behind before
    ``small_signal_matrices`` runs — so the values equal the scalar
    small-signal companion stamps bit for bit.  Over a
    :class:`_BatchSolutionView` of ``width`` samples the joint fixpoint
    is reached when no sample's values change between passes — each
    sample's limiter contracts independently, so its values freeze at
    exactly its own scalar fixpoint.  The values are shaped as
    :func:`_companion_values` returns them.
    """
    previous: Optional[np.ndarray] = None
    for _ in range(_LINEARIZE_LIMIT_PASSES):
        values = _companion_values(newton, view, ctx,
                                   "at the operating point", width)
        if not np.all(np.isfinite(values)):
            raise AnalysisError(
                "non-finite companion values at the operating point")
        if previous is not None and np.array_equal(previous, values):
            return values
        previous = values
    raise AnalysisError(
        "device limiting did not reach a fixpoint at the operating point "
        f"after {_LINEARIZE_LIMIT_PASSES} passes")


def linearize_batch(batch: BatchStampState,
                    x: Optional[np.ndarray] = None,
                    failures: Optional[Dict[int, Exception]] = None
                    ) -> BatchLinearization:
    """Linearize every sample of a converged batch for small-signal AC.

    For linear circuits this is free: the restamped ``(N, nnz)`` value
    planes *are* the small-signal matrices, so the returned
    :class:`BatchLinearization` holds zero-copy views over the batch's
    own arrays and patterns.

    For nonlinear circuits ``x`` must be the ``(N, n)`` operating-point
    plane (the output of
    :func:`repro.analysis.op.solve_nonlinear_dc_batch`); each healthy
    sample's companion conductances and incremental capacitances are
    captured at its own operating point into rows of planes over the
    compiled Newton union pattern, matching the scalar
    ``small_signal_matrices`` values (bit for bit on the per-sample
    path; temperature-uniform batches run one vectorized limiting
    fixpoint over all samples, identical up to elementwise array
    arithmetic).  Per-sample capture failures land in ``failures``
    without poisoning the batch.

    ``failures`` marks samples already known to be bad — typically the
    DC solve's per-sample failure map — so their rows are skipped
    instead of being linearized at a garbage operating point.
    """
    compiled = batch.compiled
    n = len(batch)
    extra = failures or {}
    failures = dict(batch.failures)
    failures.update(extra)
    if compiled.is_linear:
        return BatchLinearization(
            compiled, compiled.pattern_G, compiled.pattern_C,
            batch.g_values, batch.c_values, batch.b_ac,
            batch.temperatures, batch.gmins, failures=failures)
    if x is None:
        raise AnalysisError(
            "linearize_batch needs the (N, n) operating-point plane for a "
            "nonlinear circuit")
    if compiled.newton_fallback:
        raise AnalysisError(
            "circuit's nonlinear stamp structure is value-dependent; the "
            "compiled batch linearization cannot represent it")
    healthy = [k for k in range(n) if k not in failures]
    if not healthy:
        raise AnalysisError("every sample in the batch failed to restamp")
    newton = compiled.newton_program(batch.sample_context(healthy[0]))

    with _span("circuit.linearize_batch", size=compiled.size,
               samples=n) as span:
        g_values = np.zeros((n, newton.nnz))
        g_values[:, :newton.linear_nnz] = batch.g_values
        c_values = np.zeros((n, newton.cap_nnz))
        c_values[:, :newton.cap_linear_nnz] = batch.c_values

        # One limiting fixpoint for every healthy sample at once when the
        # batch is temperature-uniform (each device evaluates every lane
        # on one set of per-temperature parameters).  Array-shy device
        # code or a per-sample numerical problem demotes to the exact
        # per-sample loop below, which isolates and diagnoses it without
        # poisoning the batch.  Incremental capacitances stay per-sample:
        # the MOSFET's Meyer regions branch on scalar values.
        vectorized = False
        if len(healthy) >= 2 and np.all(
                batch.temperatures == batch.temperatures[0]):
            rows = np.asarray(healthy, dtype=np.int64)
            ctx = _BatchNewtonContext(float(batch.temperatures[0]),
                                      float(batch.gmins[0]))
            if not np.all(batch.gmins[rows] == batch.gmins[rows[0]]):
                ctx.gmin = batch.gmins[rows]
            try:
                with np.errstate(over="raise", invalid="raise",
                                 divide="raise"):
                    values = _companion_fixpoint(
                        newton, _BatchSolutionView(compiled, x[rows]), ctx,
                        len(rows))
            except Exception:
                pass
            else:
                if len(newton.g_slots):
                    g_values[np.ix_(rows, newton.g_slots)] = \
                        values[newton.g_vidx].T
                vectorized = True
        for k in healthy:
            try:
                ctx = batch.sample_context(k)
                view = _CompiledSolutionView(compiled, x[k])
                if not vectorized:
                    values = _companion_fixpoint(newton, view, ctx)
                    if len(newton.g_slots):
                        g_values[k, newton.g_slots] = values[newton.g_vidx]
                _stamp_capacitances(newton, c_values[k], view, ctx)
            except Exception as exc:
                failures[k] = exc
                g_values[k] = np.nan
                c_values[k] = np.nan
        span.set(failures=len(failures), vectorized=bool(vectorized))
    return BatchLinearization(
        compiled, newton.pattern, newton.cap_pattern, g_values, c_values,
        batch.b_ac, batch.temperatures, batch.gmins, failures=failures)


class CompiledCircuit:
    """One circuit topology, compiled for cheap per-scenario restamping.

    Construction flattens the circuit and builds the MNA unknown index
    (node voltages first, element branch currents after — the exact
    ordering :class:`~repro.analysis.mna.MNASystem` always used).  The
    structural recording pass runs lazily on the first :meth:`restamp`
    (element stamps may legitimately raise, and should do so where a
    fresh assembly would: at stamp time, not at construction).

    A compiled circuit is immutable once recorded and safe to share
    across threads and analyses; each :meth:`restamp` returns a private
    :class:`StampState`.
    """

    def __init__(self, circuit: Circuit):
        if any(isinstance(e, SubcircuitInstance) for e in circuit):
            circuit = circuit.flattened()
        self.circuit = circuit
        self._index: Dict[str, int] = {}
        self.node_names: List[str] = []
        self.branch_names: List[str] = []
        self._build_index()
        self._program: Optional[_LinearProgram] = None
        self._newton: Optional[_NewtonProgram] = None
        #: Set (once, by the first solve that trips a structure check)
        #: when an element's nonlinear stamp structure proved
        #: value-dependent: the verdict is a property of the topology, so
        #: every later system over this structure skips the doomed
        #: compiled attempt.
        self.newton_fallback = False
        self._compile_lock = threading.Lock()
        #: Memoised anchors (see :meth:`anchor`), one per resolved backend.
        self._anchors: Dict[str, object] = {}
        self._anchor_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Unknown index (structure pass 1)
    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        for element in self.circuit:
            for node in element.nodes:
                if is_ground(node):
                    continue
                if node not in self._index:
                    self._index[node] = len(self._index)
                    self.node_names.append(node)
        for element in self.circuit:
            for branch in element.branches():
                if branch in self._index:
                    raise NetlistError(f"duplicate branch unknown {branch!r}")
                self._index[branch] = len(self._index)
                self.branch_names.append(branch)
        if not self._index:
            raise NetlistError("circuit has no unknowns (only ground nodes?)")
        # index_of's lookup: every unknown plus the circuit's own ground
        # spellings, so the device reads in a Newton refill skip is_ground.
        self._lookup: Dict[str, Optional[int]] = dict(self._index)
        for element in self.circuit:
            for node in element.nodes:
                if is_ground(node):
                    self._lookup[node] = None

    @property
    def size(self) -> int:
        """Number of MNA unknowns (nodes + branch currents)."""
        return len(self._index)

    @property
    def variable_names(self) -> List[str]:
        """Unknown names in system order: node voltages, then branches."""
        return self.node_names + self.branch_names

    def index_of(self, variable: str) -> Optional[int]:
        """Index of a node or branch unknown; ``None`` for ground."""
        try:
            return self._lookup[variable]
        except KeyError:
            if is_ground(variable):
                return None
            raise NetlistError(f"unknown node or branch {variable!r}") from None

    def has_variable(self, variable: str) -> bool:
        """Whether ``variable`` names an unknown of this circuit (or ground)."""
        return is_ground(variable) or variable in self._index

    # ------------------------------------------------------------------
    # Structural recording (structure pass 2, lazy)
    # ------------------------------------------------------------------
    @property
    def is_compiled(self) -> bool:
        """Whether the lazy structural recording pass has run yet."""
        return self._program is not None

    @property
    def program(self) -> _LinearProgram:
        """The recorded linear program (raises before the first restamp)."""
        if self._program is None:
            raise AnalysisError("circuit is not compiled yet; call restamp() "
                                "(or MNASystem.stamp()) first")
        return self._program

    @property
    def pattern_G(self) -> CompiledPattern:
        """Frozen conductance-matrix structure (one slot per stamp)."""
        return self.program.pattern_G

    @property
    def pattern_C(self) -> CompiledPattern:
        """Frozen capacitance-matrix structure (one slot per stamp)."""
        return self.program.pattern_C

    def _ensure_compiled(self, ctx: AnalysisContext) -> _LinearProgram:
        if self._program is None:
            with self._compile_lock:
                if self._program is None:
                    with _span("circuit.compile", size=self.size,
                               elements=len(self.circuit)):
                        self._program = self._record(ctx)
        return self._program

    def _record(self, ctx: AnalysisContext) -> _LinearProgram:
        n = self.size
        recorder = _RecordingStamper(self)
        programs: List[_ElementProgram] = []
        for element in self.circuit:
            program = _ElementProgram(element)
            recorder.begin_element(program)
            probe = _ProbeContext(ctx)
            element.stamp_linear(recorder, probe)
            program.dynamic = probe.touched
            programs.append(program)

        linear = _LinearProgram()
        linear.pattern_G = CompiledPattern(n, recorder.g_rows, recorder.g_cols)
        linear.pattern_C = CompiledPattern(n, recorder.c_rows, recorder.c_cols)
        linear.initial_voltage_conditions = recorder.initial_voltage_conditions
        linear.initial_current_conditions = recorder.initial_current_conditions
        linear.time_sources = recorder.time_sources
        linear.dynamic = [p for p in programs if p.dynamic]
        linear.scatter = _DynamicScatter(linear.dynamic)
        linear.programs = programs

        # Base arrays: matrix slots carry every compile-time value (each
        # slot is written by exactly one op, so dynamic slots are simply
        # overwritten on restamp); the right-hand sides accumulate, so
        # their base holds *static* contributions only.
        base_g = np.zeros(linear.pattern_G.nnz)
        base_c = np.zeros(linear.pattern_C.nnz)
        base_bdc = np.zeros(n)
        base_bac = np.zeros(n, dtype=complex)
        for program in programs:
            static = not program.dynamic
            for op, value in zip(program.ops, program.values):
                if op.target == _G:
                    base_g[op.slots] = value * op.signs
                elif op.target == _C:
                    base_c[op.slots] = value * op.signs
                elif static and op.target == _BDC:
                    base_bdc[op.slots] += value * op.signs
                elif static and op.target == _BAC:
                    base_bac[op.slots] += value * op.signs
        linear.base_g = base_g
        linear.base_c = base_c
        linear.base_bdc = base_bdc
        linear.base_bac = base_bac
        return linear

    # ------------------------------------------------------------------
    # Nonlinear structure (Newton pattern, lazy like the linear pass)
    # ------------------------------------------------------------------
    def newton_program(self, ctx: AnalysisContext) -> _NewtonProgram:
        """The compiled Newton pattern of this topology (probed once).

        Each nonlinear device's ``stamp_nonlinear`` is replayed against a
        recording stamper (at an all-zero candidate solution, with a
        throwaway context copy so no limiting state leaks into the real
        solve); every companion entry becomes a fixed slot in the union
        pattern.  The incremental-capacitance layer is compiled from the
        device terminal lists directly — a full k x k block per device —
        because its stamp *positions* may legitimately move with the
        operating point (e.g. the MOSFET Meyer partition swapping source
        and drain roles), and the block is the superset of all of them.
        """
        if self._newton is None:
            # Compile the linear structure *before* taking the lock: the
            # recording pass depends on it, and _ensure_compiled acquires
            # the same (non-reentrant) lock when it has work to do.
            self._ensure_compiled(ctx)
            with self._compile_lock:
                if self._newton is None:
                    self._newton = self._record_newton(ctx)
        return self._newton

    def _record_newton(self, ctx: AnalysisContext) -> _NewtonProgram:
        linear = self._ensure_compiled(ctx)
        nonlinear = [e for e in self.circuit if e.is_nonlinear]
        recorder = _NewtonRecorder(self)
        counts: List[Tuple[Element, int]] = []
        probe_ctx = ctx.copy()
        probe_view = _ZeroSolution()
        for element in nonlinear:
            before = recorder.calls
            element.stamp_nonlinear(recorder, probe_view, probe_ctx)
            counts.append((element, recorder.calls - before))

        n = self.size
        diag = np.arange(n, dtype=np.int64)
        lin_g = linear.pattern_G
        nl_rows = np.asarray(recorder.rows, dtype=np.int64)
        nl_cols = np.asarray(recorder.cols, dtype=np.int64)

        newton = _NewtonProgram()
        newton.n = n
        newton.linear_nnz = lin_g.nnz
        newton.nnz = lin_g.nnz + len(nl_rows) + n
        newton.pattern = CompiledPattern(
            n, np.concatenate([lin_g.rows, nl_rows, diag]),
            np.concatenate([lin_g.cols, nl_cols, diag]))
        newton.shunt_slice = slice(lin_g.nnz + len(nl_rows), newton.nnz)
        newton.g_slots = np.asarray(recorder.g_slots, dtype=np.int64) + lin_g.nnz
        newton.g_vidx = np.asarray(recorder.g_vidx, dtype=np.int64)
        newton.b_rows = np.asarray(recorder.b_rows, dtype=np.int64)
        newton.b_vidx = np.asarray(recorder.b_vidx, dtype=np.int64)
        newton.counts = counts

        # Incremental-capacitance blocks: every terminal pair of every
        # nonlinear device gets a slot (ground pairs map to a drop).
        lin_c = linear.pattern_C
        cap_rows: List[int] = []
        cap_cols: List[int] = []
        cap_slots: List[Tuple[Element, Dict[Tuple[str, str], Optional[int]]]] = []
        for element in nonlinear:
            terminals = list(dict.fromkeys(element.nodes))
            mapping: Dict[Tuple[str, str], Optional[int]] = {}
            for node_a in terminals:
                for node_b in terminals:
                    if is_ground(node_a) or is_ground(node_b):
                        mapping[(node_a, node_b)] = None
                        continue
                    mapping[(node_a, node_b)] = lin_c.nnz + len(cap_rows)
                    cap_rows.append(self._index[node_a])
                    cap_cols.append(self._index[node_b])
            cap_slots.append((element, mapping))
        newton.cap_linear_nnz = lin_c.nnz
        newton.cap_nnz = lin_c.nnz + len(cap_rows)
        newton.cap_pattern = CompiledPattern(
            n, np.concatenate([lin_c.rows,
                               np.asarray(cap_rows, dtype=np.int64)]),
            np.concatenate([lin_c.cols,
                            np.asarray(cap_cols, dtype=np.int64)]))
        newton.cap_slots = cap_slots
        return newton

    def dc_rhs_slots(self, element_name: str) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The DC right-hand-side slots stamped by ``element_name``.

        One ``(slots, signs)`` pair per recorded ``add_rhs_dc`` call of
        the element, in stamp order (ground-dropped calls yield empty
        arrays).  This is what lets a DC source sweep patch ``b_dc``
        directly instead of restamping: the matrix stamps of an
        independent source do not depend on its DC value.
        """
        for program in self.program.programs:
            if program.element.name == element_name:
                return [(op.slots, op.signs) for op in program.ops
                        if op.target == _BDC]
        raise NetlistError(f"no element named {element_name!r} in the "
                           "compiled circuit")

    # ------------------------------------------------------------------
    # Per-scenario value pass
    # ------------------------------------------------------------------
    def restamp(self, ctx: Optional[AnalysisContext] = None,
                variables: Optional[Dict[str, float]] = None,
                temperature: float = 27.0,
                gmin: float = 1e-12) -> StampState:
        """Refill the value arrays for one scenario; structure untouched.

        Either pass a ready :class:`AnalysisContext` or let one be built
        from ``variables``/``temperature``/``gmin`` on top of the
        circuit's declared design-variable defaults.
        """
        if ctx is None:
            ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                                  variables=dict(self.circuit.variables))
            if variables:
                ctx.update_variables(variables)
        program = self._ensure_compiled(ctx)

        with _span("circuit.restamp", size=self.size):
            g_values = program.base_g.copy()
            c_values = program.base_c.copy()
            b_dc = program.base_bdc.copy()
            b_ac = program.base_bac.copy()
            if program.dynamic:
                captured = _capture(
                    program.scatter.counts,
                    lambda element, capture: element.stamp_linear(capture, ctx),
                    _CaptureStamper(), AnalysisError, _BETWEEN_SCENARIOS)
                program.scatter.apply(np.asarray(captured, dtype=complex),
                                      g_values, c_values, b_dc, b_ac)
            return StampState(self, g_values, c_values, b_dc, b_ac)

    # ------------------------------------------------------------------
    # Sample-axis batch value pass
    # ------------------------------------------------------------------
    def restamp_batch(self, variables=None,
                      temperature: Union[float, Sequence[float]] = 27.0,
                      gmin: Union[float, Sequence[float]] = 1e-12,
                      samples: Optional[int] = None) -> "BatchStampState":
        """Refill the value arrays for N scenarios in one pass.

        Parameters
        ----------
        variables:
            Either a mapping of design-variable name to an ``(N,)``
            column (or a scalar, broadcast to every sample), or a
            sequence of N per-sample mappings (the row form scenario
            generators naturally produce).  Unspecified variables keep
            the circuit's declared defaults.
        temperature, gmin:
            Scalar (shared by every sample) or ``(N,)`` per-sample.
        samples:
            Explicit batch size; only needed when every input is scalar.

        Each dynamic element is evaluated **once for the whole batch**
        against an array-valued context, and one scatter per target
        routes the captured ``(stamps, N)`` value matrix into the
        ``(N, nnz)`` blocks of the returned :class:`BatchStampState` —
        assembly cost per element, not per element x sample.  Elements
        whose code cannot take arrays make the pass fall back to a
        per-sample scalar loop with identical results; a sample whose
        values are unstampable (say a zero resistance) lands in
        ``BatchStampState.failures`` without poisoning its batch.  Row
        ``k`` of every block equals ``restamp()`` of scenario ``k`` —
        ``tests/analysis/test_compiled.py`` holds that to 1e-12 on every
        bundled circuit::

            >>> import numpy as np
            >>> from repro.analysis import CompiledCircuit
            >>> from repro.circuit.builder import CircuitBuilder
            >>> builder = CircuitBuilder("tc divider")
            >>> _ = builder.voltage_source("in", "0", dc=1.0, name="Vin")
            >>> _ = builder.resistor("in", "out", 1e3, name="R1", tc1=1e-3)
            >>> _ = builder.resistor("out", "0", 1e3, name="R2")
            >>> compiled = CompiledCircuit(builder.build())
            >>> batch = compiled.restamp_batch(temperature=[27.0, 127.0])
            >>> len(batch)
            2
            >>> single = compiled.restamp(temperature=127.0)
            >>> bool(np.allclose(batch.sample(1).g_values, single.g_values))
            True
        """
        columns, rows, temps, gmins, n = self._normalize_batch(
            variables, temperature, gmin, samples)
        # The (lazy, first-use) structural recording pass needs ONE
        # stampable scenario.  Trying the samples in order keeps the
        # failure-isolation contract even on a freshly indexed circuit:
        # a poisoned sample 0 must not abort the batch when a later
        # sample can drive the compile.  Only when every sample fails to
        # compile is the error raised (it is then a property of the
        # whole batch — typically of the topology itself).
        program = None
        compile_error: Optional[Exception] = None
        for index in range(n):
            if self._program is not None:
                program = self._program
                break
            ctx_vars = dict(self.circuit.variables)
            ctx_vars.update(rows[index])
            ctx = AnalysisContext(temperature=float(temps[index]),
                                  gmin=float(gmins[index]),
                                  variables=ctx_vars)
            try:
                program = self._ensure_compiled(ctx)
                break
            except Exception as exc:
                compile_error = exc
        if program is None:
            raise compile_error

        batch_span = _span("circuit.restamp_batch", size=self.size,
                           samples=n)
        with batch_span:
            g_values = np.tile(program.base_g, (n, 1))
            c_values = np.tile(program.base_c, (n, 1))
            b_dc = np.tile(program.base_bdc, (n, 1))
            b_ac = np.tile(program.base_bac, (n, 1))
            failures: Dict[int, Exception] = {}
            vectorized = columns is not None
            if program.dynamic:
                if vectorized:
                    try:
                        self._restamp_batch_vector(program, columns, temps,
                                                   gmins, g_values, c_values,
                                                   b_dc, b_ac)
                    except Exception:
                        # Array-shy element code (or one poisoned sample
                        # tripping a whole-batch validation): re-run sample by
                        # sample so failures isolate and results stay exact.
                        vectorized = False
                if not vectorized:
                    failures = self._restamp_batch_scalar(
                        rows, temps, gmins, g_values, c_values, b_dc, b_ac)
            batch_span.set(vectorized=vectorized, failures=len(failures))
            return BatchStampState(self, g_values, c_values, b_dc, b_ac,
                                   temperatures=temps, gmins=gmins,
                                   failures=failures, vectorized=vectorized,
                                   variable_rows=rows)

    def _normalize_batch(self, variables, temperature, gmin,
                         samples: Optional[int]):
        """Coerce the restamp_batch inputs into columns, per-sample rows
        and a batch size.

        Returns ``(columns, rows, temps, gmins, n)``.  ``rows`` holds the
        per-sample override dicts exactly as a scalar :meth:`restamp`
        would receive them (the exactness contract of the fallback path).
        ``columns`` is the vectorizable column view — or ``None`` when it
        cannot faithfully represent the rows: a row that omits a variable
        *not* declared on the circuit must fail like the scalar path
        does, not silently inherit another row's column.
        """
        row_form: Optional[Sequence] = None
        column_form: Dict[str, np.ndarray] = {}
        lengths = []
        if isinstance(variables, Mapping):
            for name, value in variables.items():
                arr = np.asarray(value, dtype=float)
                if arr.ndim == 1:
                    lengths.append(len(arr))
                elif arr.ndim != 0:
                    raise AnalysisError(
                        f"variable column {name!r} must be scalar or 1-D")
                column_form[str(name)] = arr
        elif variables is not None:
            row_form = [dict(row) if row else {} for row in variables]
            lengths.append(len(row_form))
        temps = np.asarray(temperature, dtype=float)
        gmins = np.asarray(gmin, dtype=float)
        for arr in (temps, gmins):
            if arr.ndim == 1:
                lengths.append(len(arr))
            elif arr.ndim != 0:
                raise AnalysisError("temperature/gmin must be scalar or 1-D")
        if samples is not None:
            lengths.append(int(samples))
        if not lengths:
            raise AnalysisError(
                "restamp_batch cannot infer the batch size: pass at least "
                "one (N,) input or an explicit samples= count")
        n = lengths[0]
        if any(length != n for length in lengths) or n < 1:
            raise AnalysisError(
                f"inconsistent batch sizes in restamp_batch inputs: {lengths}")

        declared = {str(name) for name in self.circuit.variables}
        columns: Optional[Dict[str, np.ndarray]] = {
            str(name): np.full(n, float(value))
            for name, value in self.circuit.variables.items()}
        if row_form is not None:
            rows = row_form
            names = set()
            for row in rows:
                names.update(str(name) for name in row)
            for name in sorted(names - declared):
                # An undeclared variable must appear in EVERY row to form
                # a faithful column; otherwise the omitting samples need
                # the scalar path's undefined-name failure.
                if not all(name in row for row in rows):
                    columns = None
                    break
                columns[name] = np.zeros(n)
            if columns is not None:
                for index, row in enumerate(rows):
                    for name, value in row.items():
                        columns[str(name)][index] = float(value)
        else:
            for name, arr in column_form.items():
                columns[name] = (np.full(n, float(arr)) if arr.ndim == 0
                                 else arr.astype(float, copy=True))
            rows = [{name: float(column_form[name])
                     if column_form[name].ndim == 0
                     else float(column_form[name][index])
                     for name in column_form}
                    for index in range(n)]
        return (columns, rows,
                np.full(n, float(temps)) if temps.ndim == 0 else temps.copy(),
                np.full(n, float(gmins)) if gmins.ndim == 0 else gmins.copy(),
                n)

    def _restamp_batch_vector(self, program: _LinearProgram,
                              columns: Dict[str, np.ndarray],
                              temps: np.ndarray, gmins: np.ndarray,
                              g_values: np.ndarray, c_values: np.ndarray,
                              b_dc: np.ndarray, b_ac: np.ndarray) -> None:
        """One pass over the dynamic elements for the whole sample axis.

        Runs under ``np.errstate(raise)`` for overflow/invalid/divide —
        where the scalar path raises (``math.exp`` overflow, a negative
        ``sqrt``) the vectorized pass must not silently produce inf/nan
        for the whole batch — and double-checks the captured values for
        finiteness, so any poisoned arithmetic demotes the batch to the
        per-sample fallback where the offending sample fails alone.
        """
        n = len(temps)
        ctx = _VectorContext(n, temps, gmins, columns)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            captured = _capture(
                program.scatter.counts,
                lambda element, capture: element.stamp_linear(capture, ctx),
                _CaptureStamper(), AnalysisError, _BETWEEN_SCENARIOS)
        values = _stack(captured, n, complex)
        if not np.all(np.isfinite(values)):
            raise AnalysisError("non-finite stamp values in the vectorized "
                                "batch pass")
        program.scatter.apply_batch(values, g_values, c_values, b_dc, b_ac)

    def _restamp_batch_scalar(self, rows: Sequence[Dict[str, float]],
                              temps: np.ndarray, gmins: np.ndarray,
                              g_values: np.ndarray, c_values: np.ndarray,
                              b_dc: np.ndarray, b_ac: np.ndarray
                              ) -> Dict[int, Exception]:
        """Per-sample fallback: exact scalar restamps, failures isolated.

        ``rows`` are the original per-sample override dicts, so each
        sample sees exactly what a direct :meth:`restamp` call would —
        including the scalar path's failures for rows that reference
        undefined variables.
        """
        failures: Dict[int, Exception] = {}
        for index in range(len(temps)):
            try:
                state = self.restamp(variables=rows[index],
                                     temperature=float(temps[index]),
                                     gmin=float(gmins[index]))
            except Exception as exc:
                failures[index] = exc
                g_values[index] = np.nan
                c_values[index] = np.nan
                b_dc[index] = np.nan
                b_ac[index] = np.nan
                continue
            g_values[index] = state.g_values
            c_values[index] = state.c_values
            b_dc[index] = state.b_dc
            b_ac[index] = state.b_ac
        return failures

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def is_linear(self) -> bool:
        """Whether the circuit has no nonlinear devices (batchable DC/AC)."""
        return not any(e.is_nonlinear for e in self.circuit)

    def anchor(self, backend=None):
        """This structure's anchored bias point on ``backend``: a
        :class:`~repro.analysis.op.BiasAnchor` (``None`` when its cold
        solve fails).

        The anchor is the cold ladder's bias point at 27 degC with the
        circuit's nominal variables, gmin 1e-12 and
        :data:`~repro.analysis.op.STABILITY_NEWTON` — a pure function of
        the compiled content, so every process computes the same bits.
        It is solved once per process and resolved backend (resolved as
        :class:`~repro.analysis.mna.MNASystem` does, so a system and a
        batch on one backend request share it), under a lock.  The
        structure must be compiled (restamped once) first.
        """
        from repro.analysis.op import solve_anchor   # op builds on this module

        program = self.program
        resolved = resolve_backend(
            backend, size=self.size,
            density=max(program.pattern_G.density(),
                        program.pattern_C.density()))
        key = resolved.name
        if key not in self._anchors:
            with self._anchor_lock:
                if key not in self._anchors:
                    self._anchors[key] = solve_anchor(self, resolved)
        return self._anchors[key]

    def system(self, ctx: Optional[AnalysisContext] = None,
               variables: Optional[Dict[str, float]] = None,
               temperature: float = 27.0, gmin: float = 1e-12,
               backend: Union[str, None] = None):
        """An :class:`~repro.analysis.mna.MNASystem` view over this
        compiled structure for one scenario."""
        from repro.analysis.mna import MNASystem

        if ctx is None:
            ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                                  variables=dict(self.circuit.variables))
            if variables:
                ctx.update_variables(variables)
        return MNASystem(None, ctx, backend=backend, compiled=self)

    def dynamic_element_count(self) -> int:
        """Number of elements re-evaluated per restamp (after compiling)."""
        return len(self.program.dynamic)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "compiled" if self.is_compiled else "indexed"
        return (f"<CompiledCircuit {len(self.node_names)} nodes, "
                f"{len(self.branch_names)} branches, {state}>")


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compile ``circuit`` for repeated restamping (functional spelling)."""
    return CompiledCircuit(circuit)
