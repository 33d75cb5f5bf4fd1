"""Modified Nodal Analysis system assembly.

:class:`MNASystem` is a thin per-scenario view over a
:class:`~repro.analysis.compiled.CompiledCircuit` plus one
:class:`~repro.analysis.context.AnalysisContext`: the compiled circuit
owns the topology-invariant structure (flattening, the unknown ordering
— node voltages followed by branch currents — and the pattern slots of
every linear stamp), while the system owns the scenario's *values* (one
:class:`~repro.analysis.compiled.StampState`) and the per-iteration
matrices refilled by nonlinear devices during Newton iterations.

The MNA formulation is::

    C * dx/dt + G * x = b(t)

with ``G``/``C`` split into a static part (linear elements, compiled +
restamped) and an iteration/operating-point part (nonlinear device
companions, accumulated per Newton iteration as COO triplets).

Constructing ``MNASystem(circuit)`` compiles the circuit on the fly — a
fresh build behaves exactly as it always did, bit-for-bit on the dense
path.  Passing ``compiled=`` reuses an existing structure, which is the
fast path for scenario sweeps: compile once per topology, restamp per
``(variables, temperature)`` sample (see ``docs/architecture.md``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.circuit.elements.base import Element
from repro.circuit.netlist import Circuit
from repro.exceptions import AnalysisError, NetlistError
from repro.analysis.compiled import (
    BatchNewtonState,
    BatchStampState,
    CompiledCircuit,
    StampState,
)
from repro.analysis.context import AnalysisContext
from repro.linalg import LinearSystem, SolverBackend, TripletMatrix, resolve_backend

__all__ = ["MNASystem", "SolutionView"]


class SolutionView:
    """Read-only view of a solution vector addressed by node/branch names."""

    def __init__(self, system: "MNASystem", x: np.ndarray):
        self._system = system
        self._x = x
        # Python floats: device evaluations read a handful of them per
        # device and stay off numpy scalars.
        self._values = np.real(x).tolist()

    @property
    def vector(self) -> np.ndarray:
        return self._x

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (0 for ground, hierarchical names allowed)."""
        index = self._system.index_of(node)
        if index is None:
            return 0.0
        return self._values[index]

    def current(self, branch_key: str) -> float:
        """Branch current of an element that owns a branch unknown."""
        index = self._system.index_of(branch_key)
        if index is None:
            raise NetlistError(f"unknown branch {branch_key!r}")
        return self._values[index]

    def voltages(self) -> Dict[str, float]:
        """All node voltages as a dictionary."""
        return {node: self.voltage(node) for node in self._system.node_names}


class MNASystem:
    """Assembled MNA matrices for one compiled circuit and one context.

    ``backend`` selects the linear-solver backend used by the analyses
    operating on this system: ``"dense"``, ``"sparse"`` or ``None``/
    ``"auto"`` (size/density heuristic, overridable with the
    ``REPRO_BACKEND`` environment variable).

    ``compiled`` reuses a previously compiled structure; ``circuit`` may
    then be ``None``.  Without it the circuit is compiled here (flatten,
    index build — structural netlist errors surface at construction
    exactly as before).
    """

    def __init__(self, circuit: Optional[Circuit],
                 ctx: Optional[AnalysisContext] = None,
                 backend: Union[str, SolverBackend, None] = None,
                 compiled: Optional[CompiledCircuit] = None):
        if compiled is None:
            if circuit is None:
                raise NetlistError("MNASystem needs a circuit or a "
                                   "CompiledCircuit")
            compiled = CompiledCircuit(circuit)
        self.compiled = compiled
        self.circuit = compiled.circuit
        self.ctx = ctx if ctx is not None else AnalysisContext(
            variables=self.circuit.variables)
        # Make sure circuit-level design variables are visible even when a
        # caller supplied its own context.
        for name, value in self.circuit.variables.items():
            self.ctx.variables.setdefault(name, value)

        # Structure: shared, immutable views into the compiled circuit.
        self._index = compiled._index
        self.node_names = compiled.node_names
        self.branch_names = compiled.branch_names

        n = self.size
        # Scenario values (filled by stamp()).
        self._state: Optional[StampState] = None
        self._G_dense: Optional[np.ndarray] = None
        self._C_dense: Optional[np.ndarray] = None
        # Per-iteration (nonlinear companion) matrices/vectors.
        self._G_iter_trip = TripletMatrix(n)
        self.b_iter = np.zeros(n)
        # Operating-point incremental capacitances.
        self._C_op_trip = TripletMatrix(n)
        # Transient right-hand-side deltas.
        self.b_tran = np.zeros(n)
        # Initial conditions recorded by elements (node pair / branch -> value).
        self.initial_voltage_conditions: List[Tuple[str, str, float]] = []
        self.initial_current_conditions: List[Tuple[str, float]] = []
        # Sources with time-dependent values (registered during stamping).
        self.time_sources: List[Element] = []

        self.nonlinear_elements: List[Element] = [
            e for e in self.circuit if e.is_nonlinear]

        self._backend_request = backend
        self._backend: Optional[SolverBackend] = None
        # Compiled Newton stepper (built lazily by newton_state()).
        self._newton: Optional[BatchNewtonState] = None

    # ------------------------------------------------------------------
    # Index management (delegated to the compiled structure)
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._index)

    @property
    def variable_names(self) -> List[str]:
        return self.node_names + self.branch_names

    def index_of(self, variable: str) -> Optional[int]:
        """Index of a node or branch unknown; ``None`` for ground."""
        return self.compiled.index_of(variable)

    def has_variable(self, variable: str) -> bool:
        return self.compiled.has_variable(variable)

    # ------------------------------------------------------------------
    # Scenario values
    # ------------------------------------------------------------------
    @property
    def state(self) -> StampState:
        """The scenario's stamped values (stamping on first access)."""
        self.stamp()
        return self._state

    @property
    def b_dc(self) -> np.ndarray:
        """Static DC right-hand side."""
        return self.state.b_dc

    @property
    def b_ac(self) -> np.ndarray:
        """Static AC right-hand side (complex phasors)."""
        return self.state.b_ac

    # ------------------------------------------------------------------
    # Dense views of the stamped matrices (cached)
    # ------------------------------------------------------------------
    @property
    def G(self) -> np.ndarray:
        """Static conductance matrix as a dense ndarray."""
        if self._G_dense is None:
            self._G_dense = self.state.G_dense()
        return self._G_dense

    @property
    def C(self) -> np.ndarray:
        """Static capacitance matrix as a dense ndarray."""
        if self._C_dense is None:
            self._C_dense = self.state.C_dense()
        return self._C_dense

    @property
    def G_iter(self) -> np.ndarray:
        """Per-iteration companion conductances (densified on access)."""
        return self._G_iter_trip.to_dense()

    @property
    def C_op(self) -> np.ndarray:
        """Operating-point incremental capacitances (densified on access)."""
        return self._C_op_trip.to_dense()

    # ------------------------------------------------------------------
    # Solver-backend seam
    # ------------------------------------------------------------------
    @property
    def backend(self) -> SolverBackend:
        """The resolved solver backend for this system.

        Resolution is lazy (the auto heuristic needs the stamp pattern)
        and cached; an explicit ``backend=`` constructor argument or the
        ``REPRO_BACKEND`` environment variable overrides the heuristic.
        """
        if self._backend is None:
            state = self.state
            density = max(state.pattern_G.density(), state.pattern_C.density())
            self._backend = resolve_backend(self._backend_request,
                                            size=self.size, density=density)
        return self._backend

    def static_sparse(self, which: str = "G"):
        """Static ``G`` or ``C`` as CSC, straight from the compiled pattern."""
        state = self.state
        return state.G_csc() if which == "G" else state.C_csc()

    def linear_system(self, matrix, dtype=float) -> LinearSystem:
        """Wrap a matrix in a :class:`LinearSystem` on this system's backend
        (factorization cached inside; unknown names attached for
        diagnostics)."""
        return LinearSystem(matrix, backend=self.backend,
                            names=self.variable_names, dtype=dtype)

    # ------------------------------------------------------------------
    # Stamping API used by nonlinear elements (Newton companions)
    # ------------------------------------------------------------------
    def add_G_iter(self, vi: str, vj: str, value: float) -> None:
        i, j = self.index_of(vi), self.index_of(vj)
        if i is not None and j is not None:
            self._G_iter_trip.add(i, j, value)

    def add_rhs_iter(self, variable: str, value: float) -> None:
        index = self.index_of(variable)
        if index is not None:
            self.b_iter[index] += value

    def add_C_op(self, vi: str, vj: str, value: float) -> None:
        i, j = self.index_of(vi), self.index_of(vj)
        if i is not None and j is not None:
            self._C_op_trip.add(i, j, value)

    def capacitance_op(self, node_a: str, node_b: str, c: float) -> None:
        """Two-terminal capacitance stamp into the operating-point C matrix."""
        i, j = self.index_of(node_a), self.index_of(node_b)
        if i is not None:
            self._C_op_trip.add(i, i, c)
        if j is not None:
            self._C_op_trip.add(j, j, c)
        if i is not None and j is not None:
            self._C_op_trip.add(i, j, -c)
            self._C_op_trip.add(j, i, -c)

    def add_rhs_tran(self, variable: str, value: float) -> None:
        index = self.index_of(variable)
        if index is not None:
            self.b_tran[index] += value

    # ------------------------------------------------------------------
    # Assembly entry points used by the analysis engines
    # ------------------------------------------------------------------
    def stamp(self) -> "MNASystem":
        """Stamp all linear element contributions (idempotent).

        The first call compiles the circuit structure (once per
        :class:`CompiledCircuit`, shared across systems) and restamps the
        values for this system's context.
        """
        if self._state is None:
            state = self.compiled.restamp(ctx=self.ctx)
            self._state = state
            self.initial_voltage_conditions = list(state.initial_voltage_conditions)
            self.initial_current_conditions = list(state.initial_current_conditions)
            self.time_sources = list(state.time_sources)
        return self

    def restamp(self) -> "MNASystem":
        """Re-fill the linear values for the *current* context state.

        Use after mutating ``ctx`` (variables/temperature) in place; the
        compiled structure is reused, only values and caches refresh.
        """
        self._state = None
        self._G_dense = None
        self._C_dense = None
        self._backend = None if self._backend_request in (None, "auto") else self._backend
        self.stamp()
        if self._newton is not None:
            # Same structure, fresh linear base: keep the stepper (and its
            # factorization skeleton), just rebind the value arrays.
            self._newton.rebind(self._as_batch())
        return self

    def newton_state(self) -> BatchNewtonState:
        """The compiled Newton stepper for this system's scenario: a
        one-row :class:`~repro.analysis.compiled.BatchNewtonState` whose
        row 0 the scalar Newton ladder and the transient integrator step.

        Built lazily (the first call probes the nonlinear stamp structure,
        once per :class:`CompiledCircuit`) and kept across restamps.
        """
        if self._newton is None:
            program = self.compiled.newton_program(self.ctx)
            self._newton = BatchNewtonState(program, self._as_batch(),
                                            backend=self.backend,
                                            names=self.variable_names)
        return self._newton

    def _as_batch(self) -> BatchStampState:
        """This scenario's stamped values as a one-row batch (views)."""
        state = self.state
        return BatchStampState(
            self.compiled, state.g_values[None], state.c_values[None],
            state.b_dc[None], state.b_ac[None],
            temperatures=np.array([self.ctx.temperature]),
            gmins=np.array([self.ctx.gmin]))

    @property
    def newton_fallback(self) -> bool:
        """Whether Newton runs on the classic per-entry companion path.

        The verdict lives on the shared :class:`CompiledCircuit`: a
        structure incompatibility discovered by any system over one
        topology spares every later scenario the doomed compiled attempt.
        """
        return self.compiled.newton_fallback

    @newton_fallback.setter
    def newton_fallback(self, value: bool) -> None:
        self.compiled.newton_fallback = bool(value)

    def _stamp_nonlinear(self, x: np.ndarray, dynamic: bool = False) -> None:
        """Refill the per-iteration matrices at candidate solution ``x``."""
        self.stamp()
        self._G_iter_trip.clear()
        self.b_iter[:] = 0.0
        if dynamic:
            self._C_op_trip.clear()
        view = SolutionView(self, x)
        for element in self.nonlinear_elements:
            element.stamp_nonlinear(self, view, self.ctx)
            if dynamic:
                element.stamp_dynamic_nonlinear(self, view, self.ctx)

    def newton_matrices(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return (G, b) of the linearised system at candidate solution x."""
        self._stamp_nonlinear(x, dynamic=False)
        return self.G + self._G_iter_trip.to_dense(), self.b_dc + self.b_iter

    #: Upper bound on the limiting fixpoint iteration in
    #: :meth:`small_signal_matrices`; mirrors the bound of
    #: :func:`repro.analysis.compiled.linearize_batch`.
    _SMALL_SIGNAL_LIMIT_PASSES = 64

    def small_signal_matrices(self, x_op: np.ndarray,
                              form: str = "dense") -> Tuple:
        """Return (G_ss, C_ss) linearised at the operating point ``x_op``.

        The stamp is replayed until the device limiting state reaches its
        fixpoint at ``x_op``.  When the system itself ran the Newton loop
        the first pass is already the fixpoint, but when the operating
        point was computed elsewhere (the all-nodes run shares one op
        across per-node systems) the limiters still hold their initial
        state and a single pass would clip large steps — linearising at a
        limited point instead of the actual operating point.

        ``form="dense"`` (default) returns ndarrays exactly as the dense
        analyses always consumed them; ``form="sparse"`` returns CSR
        matrices assembled straight from the compiled pattern plus the
        companion triplets without densifying (the sparse AC/impedance
        path).
        """
        previous: Optional[np.ndarray] = None
        for _ in range(self._SMALL_SIGNAL_LIMIT_PASSES):
            self._stamp_nonlinear(x_op, dynamic=True)
            values = np.array(self._G_iter_trip.values + self._C_op_trip.values)
            if previous is not None and np.array_equal(previous, values):
                break
            previous = values
        else:
            raise AnalysisError(
                "device limiting did not reach a fixpoint at the operating "
                f"point after {self._SMALL_SIGNAL_LIMIT_PASSES} passes")
        if form == "sparse":
            state = self._state
            return (state.pattern_G.to_csr(state.g_values, self._G_iter_trip),
                    state.pattern_C.to_csr(state.c_values, self._C_op_trip))
        return (self.G + self._G_iter_trip.to_dense(),
                self.C + self._C_op_trip.to_dense())

    def transient_rhs(self, time: float) -> np.ndarray:
        """DC right-hand side adjusted to the source waveform values at ``time``."""
        self.stamp()
        self.b_tran[:] = 0.0
        for source in self.time_sources:
            delta = getattr(source, "stamp_transient_delta", None)
            if delta is not None:
                delta(self, time, self.ctx)
        return self.b_dc + self.b_tran

    def breakpoints(self) -> List[float]:
        """Source waveform breakpoints (for the transient step controller)."""
        self.stamp()
        points = set()
        for source in self.time_sources:
            waveform = getattr(source, "waveform", None)
            if waveform is not None:
                points.update(waveform.breakpoints())
        return sorted(points)

    def solution_view(self, x: np.ndarray) -> SolutionView:
        return SolutionView(self, x)

    # ------------------------------------------------------------------
    # Linear algebra helpers
    # ------------------------------------------------------------------
    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One-shot dense solve with node-name diagnostics on singularity.

        This is the Newton-iteration kernel: the matrix changes on every
        call (companion stamps move), so there is nothing to reuse and the
        dense LAPACK path is used regardless of the configured backend.
        """
        from repro.linalg import DenseBackend

        return DenseBackend().solve_once(matrix, rhs, names=self.variable_names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MNASystem {len(self.node_names)} nodes, "
                f"{len(self.branch_names)} branches, "
                f"{len(self.nonlinear_elements)} nonlinear devices>")
