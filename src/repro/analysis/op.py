"""DC operating-point analysis.

The solver is a classic SPICE-style ladder of strategies:

0. on a reusable compiled structure with no explicit guess and options
   at least as tight as :data:`STABILITY_NEWTON` (:func:`anchor_for`),
   plain Newton from the structure's **anchor** (:class:`BiasAnchor`,
   its 27 degC nominal bias point), kept only when every junction device
   conducts as it does at the anchor; any failure falls through to the
   cold ladder;
1. plain Newton-Raphson with per-device junction-voltage limiting;
2. **gmin stepping** — solve with a large conductance to ground on every
   node and progressively reduce it to the target ``gmin``;
3. **source stepping** — ramp all independent sources from zero to their
   full values, re-using each converged point as the next initial guess.

Linear circuits are solved directly (a single factorisation).

The Newton iteration runs on the **compiled Newton pattern** of the
circuit (:meth:`~repro.analysis.mna.MNASystem.newton_state`): companion
entries are fixed pattern slots resolved once per topology, each
iteration only refills values (no per-entry name lookups, no triplet
rebuilds), ``gshunt`` fills a prebuilt diagonal slot, and large sparse
systems refactor one CSC skeleton per iteration with the symbolic
ordering cached per pattern.  Elements whose nonlinear stamp-call
structure is not value-independent fall back to the classic per-entry
assembly automatically.  One iteration (:func:`_newton_rows`) serves
every rung of the ladder (over row 0 of the one-row state) and the
batched solve :func:`solve_nonlinear_dc_batch` (over many rows).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.analysis.compiled import (
    BatchNewtonState,
    BatchStampState,
    CompiledCircuit,
)
from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.results import OPResult
from repro.circuit.netlist import Circuit
from repro.exceptions import (
    AnalysisError,
    CompanionStructureError,
    ConvergenceError,
    SingularMatrixError,
)
from repro.linalg import LinearSystem
from repro.obs.metrics import global_registry
from repro.obs.trace import span as _span

__all__ = ["operating_point", "solve_dc", "solve_linear_dc_batch",
           "solve_nonlinear_dc_batch", "NewtonOptions", "BiasAnchor",
           "STABILITY_NEWTON"]

# Direct metric references (cheap per-loop updates; see repro.obs.metrics).
_NEWTON_LOOPS = global_registry().counter("newton.loops")
_NEWTON_ITERATIONS = global_registry().counter("newton.iterations")
_NEWTON_FAILURES = global_registry().counter("newton.failures")
_NEWTON_ITERATIONS_PER_LOOP = global_registry().histogram(
    "newton.iterations_per_loop",
    buckets=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0))
#: Masked batched-Newton iterations: each batched iteration adds the
#: number of still-active samples (converged samples stop paying).
_NEWTON_BATCH_ITERATIONS = global_registry().counter("newton.batch_iterations")
#: Per-sample demotions from the batched loop to the scalar ladder.
_NEWTON_BATCH_DEMOTIONS = global_registry().counter("newton.batch_demotions")
#: Active-set size observed at each batched iteration (the shrink curve).
_NEWTON_SAMPLES_ACTIVE = global_registry().histogram(
    "newton.samples_active",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0))
#: Anchors solved (one cold 27 degC ladder per structure and backend).
_ANCHOR_SOLVES = global_registry().counter("newton.anchor.solves")
#: Solves (scalar or batch rows) accepted from the anchor.
_ANCHOR_HITS = global_registry().counter("newton.anchor.hits")


class NewtonOptions:
    """Convergence/iteration options for the Newton solver."""

    def __init__(self, max_iterations: int = 150, reltol: float = 1e-4,
                 vntol: float = 1e-7, abstol: float = 1e-11,
                 gmin_steps: int = 10, gmin_start: float = 1e-2,
                 source_steps: int = 10, gshunt: float = 0.0,
                 current_limit: float = 1e3):
        self.max_iterations = int(max_iterations)
        self.reltol = float(reltol)
        self.vntol = float(vntol)
        self.abstol = float(abstol)
        self.gmin_steps = int(gmin_steps)
        self.gmin_start = float(gmin_start)
        self.source_steps = int(source_steps)
        #: Optional conductance from every node to ground (helps circuits
        #: with truly floating DC nodes, e.g. nodes between capacitors).
        self.gshunt = float(gshunt)
        #: Largest branch current accepted as a physical solution [A].
        #: Solutions beyond it (which can appear when the overflow-safe
        #: exponential linearises far above any real bias point) are
        #: rejected so the homotopy strategies take over.
        self.current_limit = float(current_limit)


#: Newton options of the stability pipeline when the caller passes none,
#: and of every anchor's solve.  Tighter than the general-purpose
#: defaults (reltol 1e-4 / vntol 1e-7) because the screening linearizes
#: *at* the bias point: exponential device conductances amplify any bias
#: error by ~1/Vt, so a point only converged to the loose defaults moves
#: the derived stability metrics at the ~1e-3 relative scale.  The tight
#: solve costs a handful of extra (quadratically converging) Newton
#: iterations and pins both the per-request and the batched screening
#: paths to the same fixpoint.
STABILITY_NEWTON = NewtonOptions(reltol=1e-7, vntol=1e-10)


class BiasAnchor:
    """A compiled structure's anchored bias point
    (:meth:`~repro.analysis.compiled.CompiledCircuit.anchor`).

    ``x`` is the cold ladder's solution at 27 degC with the circuit's
    nominal variables, gmin 1e-12 and :data:`STABILITY_NEWTON` (read
    only); ``conducting`` holds each junction device's conduction state
    there (:func:`conduction_states`).  Solves on the structure start
    plain Newton from ``x``; a result whose devices conduct differently
    may be a second fixpoint of a multi-stable cell, so it is dropped for
    the cold ladder.  The anchor depends only on the structure's content,
    never on earlier requests, so results stay a pure function of the
    request.
    """

    __slots__ = ("x", "conducting")

    def __init__(self, x: np.ndarray, conducting: Tuple[bool, ...]):
        self.x = x
        self.conducting = conducting


def conduction_states(system: MNASystem, x: np.ndarray,
                      ctx: AnalysisContext) -> Tuple[bool, ...]:
    """Whether each junction device of ``system`` conducts at solution
    ``x`` under ``ctx`` (devices with a ``conducting`` method, in
    circuit order)."""
    view = system.solution_view(x)
    return tuple(bool(element.conducting(view, ctx))
                 for element in system.nonlinear_elements
                 if hasattr(element, "conducting"))


def solve_anchor(compiled: CompiledCircuit, backend) -> Optional[BiasAnchor]:
    """Solve the anchor of ``compiled`` on the resolved ``backend``: the
    cold ladder at 27 degC, nominal variables, gmin 1e-12 and
    :data:`STABILITY_NEWTON`.  ``None`` when that solve fails (the
    structure's solves then run the cold ladder only).

    :meth:`~repro.analysis.compiled.CompiledCircuit.anchor` memoises it;
    call that instead.
    """
    system = compiled.system(temperature=27.0, gmin=1e-12, backend=backend)
    with _span("newton.anchor", backend=backend.name) as anchor_span:
        _ANCHOR_SOLVES.inc()
        try:
            x, _, strategy = solve_dc(system, np.zeros(system.size),
                                      STABILITY_NEWTON)
            conducting = conduction_states(system, x, system.ctx)
        except AnalysisError:
            anchor_span.set(converged=False)
            return None
        anchor_span.set(converged=True, strategy=strategy)
    x.flags.writeable = False
    return BiasAnchor(x, conducting)


def anchor_for(compiled: CompiledCircuit, backend,
               options: NewtonOptions) -> Optional[BiasAnchor]:
    """The anchor a solve on ``compiled`` under ``options`` starts from:
    ``compiled.anchor(backend)`` when ``options`` converge at least as
    tightly as :data:`STABILITY_NEWTON`, else ``None`` (the cold ladder).

    Two Newton runs from different starts stop at different iterates
    within their tolerance of one fixpoint.  At the default reltol 1e-4
    an anchored and a cold solve land up to ~3e-8 apart, so a compiled
    solve would stop reproducing ``operating_point(circuit)`` to 1e-9;
    at the stability tolerances they agree to ~1e-13.
    """
    if (options.reltol > STABILITY_NEWTON.reltol
            or options.vntol > STABILITY_NEWTON.vntol
            or options.abstol > STABILITY_NEWTON.abstol):
        return None
    return compiled.anchor(backend)


def operating_point(circuit: Optional[Circuit],
                    temperature: float = 27.0,
                    gmin: float = 1e-12,
                    variables: Optional[Dict[str, float]] = None,
                    options: Optional[NewtonOptions] = None,
                    initial_guess: Union[Dict[str, float], np.ndarray, None] = None,
                    context: Optional[AnalysisContext] = None,
                    system: Optional[MNASystem] = None,
                    backend: Optional[str] = None,
                    compiled: Optional[CompiledCircuit] = None) -> OPResult:
    """Compute the DC operating point of ``circuit``.

    Parameters
    ----------
    circuit:
        The circuit to solve (hierarchical circuits are flattened).
    temperature:
        Simulation temperature in Celsius.
    gmin:
        Junction convergence conductance.
    variables:
        Design-variable overrides applied on top of the circuit defaults.
    options:
        Newton iteration / homotopy options.
    initial_guess:
        Optional mapping of node name to initial voltage guess, or a full
        solution vector in system ordering (the warm-start form used by
        scenario sweeps: the previous sample's ``OPResult.x`` seeds the
        next solve).
    context, system:
        Pre-built analysis context / MNA system (used internally by the
        other engines to avoid building things twice).
    backend:
        Linear-solver backend ("dense"/"sparse"/None for auto).  Linear
        circuits are solved directly on the selected backend.  The Newton
        iteration of nonlinear circuits assembles on the compiled union
        pattern; small systems solve on the dense kernel (identical on
        both backends), large sparse systems refactor the fixed CSC
        skeleton per iteration with the symbolic ordering cached.
    compiled:
        A precompiled circuit structure
        (:class:`~repro.analysis.compiled.CompiledCircuit`).  Scenario
        sweeps compile the topology once and pass it here so each sample
        only restamps values; ``circuit`` may then be ``None``.  A
        nonlinear solve with no ``initial_guess`` and options at least
        as tight as :data:`STABILITY_NEWTON` then starts plain
        Newton from the structure's anchor (:class:`BiasAnchor`, its
        27 degC nominal bias point) and falls back to the cold ladder
        from zeros when that rung diverges, hits a singular step, lands
        on a non-physical point or a device conducts differently than at
        the anchor (see :func:`anchor_for`).  Otherwise the solve is the
        cold ladder.
    """
    options = options or NewtonOptions()
    if system is None:
        source = compiled.circuit if compiled is not None else circuit
        if source is None:
            raise AnalysisError("operating_point needs a circuit, a "
                                "precompiled CompiledCircuit or a system")
        ctx = context or AnalysisContext(temperature=temperature, gmin=gmin,
                                         variables=dict(source.variables))
        if variables:
            ctx.update_variables(variables)
        system = MNASystem(circuit, ctx, backend=backend, compiled=compiled)
    else:
        ctx = system.ctx
    system.stamp()

    n = system.size
    x0 = np.zeros(n)
    if initial_guess is not None:
        if isinstance(initial_guess, dict):
            for name, value in initial_guess.items():
                index = system.index_of(name)
                if index is not None:
                    x0[index] = value
        else:
            vector = np.asarray(initial_guess, dtype=float)
            if vector.shape != (n,):
                raise AnalysisError(
                    f"initial-guess vector has shape {vector.shape}, "
                    f"expected ({n},)")
            x0 = vector.copy()

    anchor = None
    if compiled is not None and initial_guess is None \
            and system.nonlinear_elements:
        anchor = anchor_for(compiled, system.backend, options)
    x, iterations, strategy = solve_dc(system, x0, options, anchor)
    device_info, info_failures = _collect_device_info(system, x)
    return OPResult(system.variable_names, x, device_info=device_info,
                    iterations=iterations, strategy=strategy,
                    temperature=ctx.temperature,
                    info_failures=info_failures)


def solve_dc(system: MNASystem, x0: np.ndarray,
             options: Optional[NewtonOptions] = None,
             anchor: Optional[BiasAnchor] = None
             ) -> Tuple[np.ndarray, int, str]:
    """Solve the DC equations of a stamped system from guess ``x0``.

    Returns ``(x, iterations, strategy)`` — linear circuits solve
    directly, nonlinear circuits run the Newton/homotopy ladder, first
    from ``anchor`` when one is given (see :class:`BiasAnchor`).  This is
    the shared kernel of :func:`operating_point` and the warm-started
    :func:`~repro.analysis.dcsweep.dc_sweep` transfer curves.
    """
    options = options or NewtonOptions()
    system.stamp()
    if not system.nonlinear_elements:
        return _solve_linear_dc(system, options), 0, "linear"
    return _solve_nonlinear(system, x0, options, anchor)


def linear_dc_matrix(system: MNASystem, gshunt: float = 0.0):
    """The static DC matrix (plus optional shunt) in the backend's form."""
    if system.backend.name == "sparse":
        import scipy.sparse

        matrix = system.static_sparse("G")
        if gshunt:
            matrix = matrix + gshunt * scipy.sparse.identity(
                system.size, format="csc")
        return matrix
    matrix = system.G.copy()
    if gshunt:
        matrix[np.diag_indices_from(matrix)] += gshunt
    return matrix


def _solve_linear_dc(system: MNASystem, options: NewtonOptions) -> np.ndarray:
    """Direct DC solve of a linear circuit on the system's backend."""
    matrix = linear_dc_matrix(system, options.gshunt)
    if system.backend.name == "sparse":
        return system.linear_system(matrix).solve(system.b_dc)
    return system.solve(matrix, system.b_dc)


def solve_linear_dc_batch(batch, backend=None
                          ) -> Tuple[np.ndarray, Dict[int, Exception]]:
    """Direct DC solves of a *linear* circuit for a whole scenario batch.

    ``batch`` is a :class:`~repro.analysis.compiled.BatchStampState`
    (one restamped topology, N scenarios).  The dense backend assembles
    one ``(N, n, n)`` stack and makes a single batched LAPACK call; the
    sparse backend refills one CSC skeleton per sample under a cached
    symbolic ordering (see
    :meth:`~repro.linalg.LinearSystem.solve_batch`).

    Returns ``(x, failures)``: ``x`` is ``(N, n)`` in system ordering
    and ``failures`` maps each failed sample index — a restamp failure
    carried in from the batch, or a singular system — to its exception;
    failed rows are NaN.  Circuits with nonlinear devices are rejected:
    Newton iterations do not share a sample axis, use
    :func:`operating_point` per scenario instead.
    """
    from repro.linalg import resolve_backend

    compiled = batch.compiled
    if not compiled.is_linear:
        raise AnalysisError(
            "solve_linear_dc_batch only handles linear circuits; "
            "nonlinear scenarios go through operating_point per sample")
    names = compiled.variable_names
    pattern = compiled.pattern_G
    backend_obj = resolve_backend(backend, size=compiled.size,
                                  density=pattern.density())
    n_samples = len(batch)
    x = np.full((n_samples, compiled.size), np.nan)
    failures: Dict[int, Exception] = dict(batch.failures)
    healthy = [k for k in range(n_samples) if k not in failures]
    if not healthy:
        return x, failures
    if backend_obj.name == "sparse":
        matrices = pattern.csc_data_batch(batch.g_values[healthy])
        system = LinearSystem(
            pattern.to_csc(batch.g_values[healthy[0]]), backend=backend_obj,
            names=names, pattern_key=pattern.pattern_key())
    else:
        matrices = pattern.to_dense_batch(batch.g_values[healthy])
        system = LinearSystem(matrices[0], backend=backend_obj, names=names)
    solved, solve_failures = system.solve_batch(matrices,
                                                batch.b_dc[healthy])
    for position, sample in enumerate(healthy):
        if position in solve_failures:
            failures[sample] = solve_failures[position]
        else:
            x[sample] = solved[position]
    return x, failures


def batch_device_info(batch: BatchStampState, index: int, x_row: np.ndarray
                      ) -> Tuple[Dict[str, Dict[str, float]], Dict[str, str]]:
    """Per-device operating-point summaries of one batched sample.

    The batched twin of the diagnostics block :func:`operating_point`
    attaches to every scalar result: evaluated against sample ``index``'s
    exact scalar context.
    """
    system = batch.compiled.system(ctx=batch.sample_context(index))
    return _collect_device_info(system, x_row)


def solve_nonlinear_dc_batch(batch: BatchStampState, backend=None,
                             options: Optional[NewtonOptions] = None,
                             x0: Optional[np.ndarray] = None,
                             pilot: bool = False):
    """Batched Newton DC solves of a *nonlinear* circuit for a whole
    scenario batch.

    ``batch`` is a :class:`~repro.analysis.compiled.BatchStampState`
    (one restamped topology, N scenarios).  All samples run the one DC
    iteration (:func:`_newton_rows`) together on one ``(N, nnz)``
    companion value plane
    (:class:`~repro.analysis.compiled.BatchNewtonState`), each step one
    :meth:`~repro.linalg.LinearSystem.solve_batch` call; a per-sample
    convergence mask shrinks the active set, so converged samples stop
    paying.

    With no ``x0`` every sample starts from the structure's anchor
    (:class:`BiasAnchor`, its 27 degC nominal bias point) when
    :func:`anchor_for` gives one, else from zeros, as the scalar
    :func:`operating_point` on a compiled
    structure does, and a row converged from it must pass the same
    conduction-state guard.

    Samples the batched plain-Newton loop cannot finish — divergence,
    singular linearizations, non-physical accepted points, a tripped
    guard, or device code the vector pass cannot evaluate — are
    **demoted** to the scalar ladder (:func:`solve_dc`: Newton from the
    anchor when ``x0`` is not given, then Newton, gmin stepping and
    source stepping from the original guess), so per-sample results and
    failures are exactly what the scalar path would produce.  A
    :exc:`~repro.exceptions.ConvergenceError` of one sample never takes
    down its batchmates.

    Returns ``(x, iterations, strategies, failures)``: ``x`` is
    ``(N, n)`` in system ordering (NaN rows for failures),
    ``iterations`` the per-sample iteration counts, ``strategies`` the
    per-sample strategy labels (``"newton-batch"`` for fast-path
    convergence, the scalar ladder's label after demotion, ``""`` on
    failure), and ``failures`` maps failed sample indices to their
    exceptions (``ConvergenceError`` instances keep their per-iteration
    ``history``).

    ``pilot=True`` (only honoured when ``x0`` is not given) solves the
    first healthy sample through the exact scalar path (the anchored
    rung, then the cold ladder) and warm-starts the remaining samples
    from its solution — the Monte Carlo screening shape, where samples
    scatter tightly around one bias point and the warm-started batch
    converges in a few iterations.  The pilot sample's result is
    bit-identical to the scalar path's; demoted samples rerun the scalar
    path, so their results and diagnostics keep exact scalar parity.
    Warm-started samples converge under the same delta/residual
    acceptance as the anchored batch, so they agree with the scalar path
    to the Newton tolerance (not bit-for-bit).
    """
    from repro.linalg import resolve_backend

    compiled = batch.compiled
    if compiled.is_linear:
        raise AnalysisError(
            "solve_nonlinear_dc_batch needs a nonlinear circuit; linear "
            "batches go through solve_linear_dc_batch")
    options = options or NewtonOptions()
    n = compiled.size
    n_samples = len(batch)

    x_out = np.full((n_samples, n), np.nan)
    iterations_out = np.zeros(n_samples, dtype=np.int64)
    strategies: list = [""] * n_samples
    failures: Dict[int, Exception] = dict(batch.failures)
    healthy = np.array([k for k in range(n_samples) if k not in failures],
                       dtype=np.int64)

    anchor = None
    if x0 is None:
        x0_plane = np.zeros((n_samples, n))
        anchor = anchor_for(compiled, backend, options)
    else:
        x0_plane = np.array(x0, dtype=float)
        if x0_plane.ndim == 1:
            x0_plane = np.broadcast_to(x0_plane, (n_samples, n)).copy()
        elif x0_plane.shape != (n_samples, n):
            raise AnalysisError(
                f"initial-guess plane has shape {x0_plane.shape}, "
                f"expected ({n_samples}, {n})")

    def _run_scalar(k: int) -> None:
        system = batch.sample_system(k, backend)
        try:
            xk, iters, strategy = solve_dc(system, x0_plane[k].copy(),
                                           options, anchor)
        except (ConvergenceError, SingularMatrixError, AnalysisError) as exc:
            failures[k] = exc
        else:
            x_out[k] = xk
            iterations_out[k] = iters
            strategies[k] = strategy

    # Circuits whose companion structure is value-dependent take the
    # scalar (uncompiled) ladder per sample, exactly as the scalar path
    # would.
    demote_rows: list = []
    if compiled.newton_fallback:
        demote_rows, healthy = healthy.tolist(), healthy[:0]

    # Rows start from the anchor, or from the pilot's solution: one exact
    # scalar solve seeds the whole batch.  ``x0_plane`` stays the cold
    # guess that demotions' ladders restart from.
    warm_plane = x0_plane
    guard = anchor      # the anchor the batch rows start from, if any
    if anchor is not None:
        warm_plane = np.tile(anchor.x, (n_samples, 1))
    if pilot and x0 is None and healthy.size >= 2:
        pilot_k = int(healthy[0])
        _run_scalar(pilot_k)
        healthy = healthy[1:]
        if pilot_k not in failures:
            warm_plane = x0_plane.copy()
            warm_plane[healthy] = x_out[pilot_k]
            guard = None

    batch_span = _span("newton.batch", samples=int(len(batch)),
                       healthy=int(healthy.size), anchored=guard is not None)
    converged: Dict[int, int] = {}
    active_sizes: list = []
    vectorized = False
    with batch_span:
        if healthy.size:
            x = warm_plane.copy()
            contexts = {k: batch.sample_context(k) for k in healthy.tolist()}
            check_system = compiled.system()
            try:
                program = compiled.newton_program(contexts[int(healthy[0])])
                state = BatchNewtonState(
                    program, batch, names=compiled.variable_names,
                    backend=resolve_backend(
                        backend, size=n, density=compiled.pattern_G.density()))
                converged, row_failures, active_sizes, vectorized = \
                    _newton_rows(state, healthy, x, check_system, contexts,
                                 options, gshunt=options.gshunt)
            except CompanionStructureError:
                compiled.newton_fallback = True
                row_failures = healthy.tolist()
            row_failures = list(row_failures)
            if guard is not None:
                # The scalar rung's guard: a row whose devices conduct
                # differently than at the anchor reruns the scalar path.
                for k in list(converged):
                    if conduction_states(check_system, x[k], contexts[k]) \
                            != guard.conducting:
                        del converged[k]
                        row_failures.append(k)
                _ANCHOR_HITS.inc(len(converged))
            for k, count in converged.items():
                x_out[k] = x[k]
                iterations_out[k] = count
                strategies[k] = "newton-batch"
            # Every row the batched loop could not finish takes the exact
            # scalar path.
            demote_rows.extend(row_failures)
            _NEWTON_BATCH_ITERATIONS.inc(sum(active_sizes))
            for size in active_sizes:
                _NEWTON_SAMPLES_ACTIVE.observe(float(size))

        _NEWTON_BATCH_DEMOTIONS.inc(len(demote_rows))
        for k in demote_rows:
            _run_scalar(k)
        batch_span.set(iterations=len(active_sizes), converged=len(converged),
                       demoted=len(demote_rows), vectorized=vectorized)
    return x_out, iterations_out, strategies, failures


# ----------------------------------------------------------------------
# Newton machinery
# ----------------------------------------------------------------------

#: The one row of a system's scalar Newton state.
_ROW = np.zeros(1, dtype=np.int64)


class _UncompiledStep:
    """The reference one-row Newton state: classic per-entry companion
    stamping (:meth:`~repro.analysis.mna.MNASystem.newton_matrices`) for
    circuits whose companion structure changes with the solution.

    It has the row methods of :class:`BatchNewtonState` that the DC
    iteration and the transient step loop use, so both drive either.
    """

    def __init__(self, system: MNASystem):
        self._system = system
        self._gshunt = 0.0
        self._G: Optional[np.ndarray] = None
        self.b_dc = system.b_dc[None]

    def set_gshunt(self, gshunt: float) -> None:
        self._gshunt = gshunt

    def refill_row(self, row: int, x: np.ndarray, ctx) -> np.ndarray:
        G, b = self._system.newton_matrices(x)
        if self._gshunt:
            G[np.diag_indices_from(G)] += self._gshunt
        self._G = G
        return b

    def dense_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._G[None]

    def matvec_rows(self, rows: np.ndarray, x_rows: np.ndarray) -> np.ndarray:
        return (self._G @ x_rows[0])[None]

    def solve_rows(self, rows: np.ndarray, b_rows: np.ndarray):
        try:
            return self._system.solve(self._G, b_rows[0])[None], {}
        except SingularMatrixError as exc:
            return np.full_like(b_rows, np.nan), {0: exc}

    def capacitance_dense(self, row: int, x: np.ndarray, ctx) -> np.ndarray:
        return self._system.small_signal_matrices(x)[1]


def _on_newton_state(system: MNASystem, run):
    """``run(state)`` on the system's compiled one-row Newton state, or on
    the reference :class:`_UncompiledStep` once the circuit's nonlinear
    stamp structure proves value-dependent (the system is then flagged
    and every later run takes the reference state)."""
    if not system.newton_fallback:
        try:
            return run(system.newton_state())
        except CompanionStructureError:
            system.newton_fallback = True
    return run(_UncompiledStep(system))


def _newton_rows(state, rows: np.ndarray, x: np.ndarray, system, contexts,
                 options: NewtonOptions, gshunt: float = 0.0,
                 source_scale: float = 1.0, span=None):
    """Plain Newton-Raphson over ``rows`` of a Newton state: the one DC
    iteration of the scalar ladder (row 0 of a one-row state) and of
    :func:`solve_nonlinear_dc_batch` (its healthy samples).

    Each iteration refills the companions of the still-active rows,
    accepts the rows that stopped moving once their KCL residual agrees
    and :func:`_check_physical` passes, and steps the rest.  The
    vectorized refill runs only over two or more rows at one temperature
    (the rule of :func:`~repro.analysis.compiled.linearize_batch`);
    otherwise each row refills exactly under ``contexts[row]``.  ``x`` is
    the ``(state rows, n)`` candidate plane, updated in place; ``system``
    is an :class:`~repro.analysis.mna.MNASystem` of the circuit for the
    physical check; ``span`` (optional) receives a ``newton.iteration``
    event per row step.  A changed companion structure raises
    ``CompanionStructureError``.

    Returns ``(converged, failures, active_sizes, vectorized)``: each
    converged row's iteration count, each failed row's exception (a
    ``ConvergenceError`` carries the row's per-iteration ``history``),
    the active-set size of every iteration and whether the vectorized
    refill ran.
    """
    n = x.shape[1]
    state.set_gshunt(gshunt)
    use_vector = rows.size >= 2 and state.vector_ready
    histories: Dict[int, list] = {k: [] for k in rows.tolist()}
    converged: Dict[int, int] = {}
    failures: Dict[int, Exception] = {}
    active_sizes: list = []
    delta_conv = np.zeros(len(x), dtype=bool)
    active = rows
    iteration = 0
    while active.size and iteration < options.max_iterations:
        iteration += 1
        active_sizes.append(int(active.size))
        keep = np.ones(active.size, dtype=bool)
        b = None
        if use_vector:
            try:
                b = state.refill_vector(active, x[active])
            except Exception as exc:
                if isinstance(exc, CompanionStructureError):
                    raise
                # Array-shy or numerically hostile device code.  At
                # iteration 1 no limiting state exists yet, so the exact
                # row refill redoes the same iteration; later the vector
                # limiting history is unrecoverable and every row fails.
                state.discard_vector_state()
                use_vector = False
                if iteration > 1:
                    failures.update(dict.fromkeys(active.tolist(), exc))
                    keep[:] = False
                    b = np.empty((active.size, n))
        if b is None:
            b = np.empty((active.size, n))
            for position, k in enumerate(active.tolist()):
                try:
                    b[position] = state.refill_row(k, x[k], contexts[k])
                except Exception as exc:
                    if isinstance(exc, CompanionStructureError):
                        raise
                    keep[position] = False
                    failures[k] = exc
        if source_scale != 1.0:
            b = b - (1.0 - source_scale) * state.b_dc[active]

        # Accept a row that stopped moving only when the freshly stamped
        # companions (which reflect any remaining junction-voltage
        # limiting) agree with it, i.e. its KCL residual is small.
        positions = np.flatnonzero(delta_conv[active] & keep)
        if positions.size:
            checked = active[positions]
            Gx = state.matvec_rows(checked, x[checked])
            residual = np.abs(Gx - b[positions])
            current_scale = np.maximum(np.abs(Gx), np.abs(b[positions]))
            ok = np.all(residual <= options.reltol * current_scale
                        + options.abstol, axis=1)
            for i, k in enumerate(checked.tolist()):
                histories[k][-1].update(
                    residual_norm=float(np.max(residual[i])) if n else 0.0,
                    residual_ok=bool(ok[i]))
                if not ok[i]:
                    continue
                keep[positions[i]] = False
                try:
                    _check_physical(system, x[k], options, contexts[k])
                except ConvergenceError as exc:
                    # Non-physical: the ladder's homotopies find the real one.
                    failures[k] = exc
                else:
                    converged[k] = iteration
        if not keep.all():
            active, b = active[keep], b[keep]
            if not active.size:
                break

        x_new, solve_failures = state.solve_rows(active, b)
        if solve_failures:
            keep = np.ones(active.size, dtype=bool)
            for position, exc in solve_failures.items():
                keep[position] = False
                failures[int(active[position])] = exc
            active, x_new = active[keep], x_new[keep]
        x_old = x[active]
        delta = np.abs(x_new - x_old)
        tol = options.reltol * np.maximum(np.abs(x_new), np.abs(x_old)) \
            + options.vntol
        conv = np.all(delta <= tol, axis=1)
        delta_conv[active] = conv
        for i, k in enumerate(active.tolist()):
            entry = {"iteration": iteration,
                     "delta_norm": float(np.max(delta[i])) if n else 0.0,
                     "delta_converged": bool(conv[i])}
            histories[k].append(entry)
            if span is not None:
                span.add_event("newton.iteration", **entry)
        x[active] = x_new

    for i, k in enumerate(active.tolist()):     # still moving at the limit
        worst = int(np.argmax(delta[i] / np.maximum(tol[i], 1e-30)))
        failures[k] = ConvergenceError(
            "Newton iteration did not converge", iterations=iteration,
            worst_node=system.variable_names[worst],
            residual=float(delta[i, worst]))
    # The per-row trail is kept regardless of tracing (it is bounded by
    # max_iterations) so a non-convergence is diagnosable after the fact.
    for k, exc in failures.items():
        if isinstance(exc, ConvergenceError) and exc.history is None:
            exc.history = histories[k]
    return converged, failures, active_sizes, use_vector


def _newton_loop(system: MNASystem, x0: np.ndarray, options: NewtonOptions,
                 gmin_override: Optional[float] = None,
                 source_scale: float = 1.0,
                 gshunt: float = 0.0) -> Tuple[np.ndarray, int]:
    """Run Newton-Raphson to convergence (returning ``(x, iterations)``)
    or raise ConvergenceError.

    The iteration is :func:`_newton_rows` over row 0 of the system's
    one-row Newton state (see :func:`_on_newton_state`); the iteration
    count is part of the return value, not module state.
    """
    def run(state) -> Tuple[np.ndarray, int]:
        ctx = system.ctx
        saved_gmin = ctx.gmin
        if gmin_override is not None:
            ctx.gmin = gmin_override
        ctx.reset_device_states()
        x = x0[None].copy()
        _NEWTON_LOOPS.inc()
        loop_span = _span("newton.loop",
                          compiled=not isinstance(state, _UncompiledStep),
                          gmin=ctx.gmin, source_scale=source_scale,
                          gshunt=gshunt)
        try:
            with loop_span:
                converged, failures, _, _ = _newton_rows(
                    state, _ROW, x, system, {0: ctx}, options, gshunt,
                    source_scale, loop_span)
                exc = failures.get(0)
                if isinstance(exc, ConvergenceError):
                    _NEWTON_FAILURES.inc()
                # Converged, or out of iterations: a non-physical point
                # or a singular step leaves the counts alone.
                iterations = converged.get(0, getattr(exc, "iterations", None))
                if iterations is not None:
                    _NEWTON_ITERATIONS.inc(iterations)
                    _NEWTON_ITERATIONS_PER_LOOP.observe(iterations)
                    loop_span.set(iterations=iterations, converged=exc is None)
                if exc is not None:
                    raise exc
                return x[0], iterations
        finally:
            ctx.gmin = saved_gmin

    return _on_newton_state(system, run)


class _NonPhysicalPoint(ConvergenceError):
    """:func:`_check_physical`'s verdict: a converged but absurd point."""


def _check_physical(system: MNASystem, x: np.ndarray, options: NewtonOptions,
                    ctx: AnalysisContext) -> None:
    """Reject converged points with absurd branch currents (devices are
    evaluated under the sample's context ``ctx``).

    The overflow-safe exponential used by the junction devices becomes
    linear far above any real bias voltage, which creates spurious
    "everything is a short" solutions carrying astronomically large
    currents.  Such a point satisfies the modified equations, so it must be
    rejected explicitly; the homotopy strategies then find the real one.
    """
    if system.branch_names:
        start = len(system.node_names)
        branch_currents = np.abs(x[start:])
        if branch_currents.size and float(np.max(branch_currents)) > options.current_limit:
            worst = int(np.argmax(branch_currents))
            raise _NonPhysicalPoint(
                "converged to a non-physical operating point",
                worst_node=system.branch_names[worst],
                residual=float(branch_currents[worst]))
    # Evaluate the true (non-companion) device currents at the solution:
    # a junction pushed into the linearised-exponential region reports an
    # absurd current here even when the companion equations look balanced.
    # Devices without a ``currents`` evaluation vote through their
    # ``operating_point_info``.
    view = system.solution_view(x)
    for element in system.nonlinear_elements:
        evaluate = (getattr(element, "currents", None)
                    or getattr(element, "operating_point_info", None))
        if evaluate is None:
            continue
        try:
            info = evaluate(view, ctx)
        except (ArithmeticError, ValueError):
            # Expected numeric edge cases far from the solution (overflow,
            # a fractional power of a negative argument...): the device
            # simply cannot vote on physicality at this candidate point.
            continue
        except Exception as exc:
            # Anything else is a genuine defect in the device model and
            # must not be silently swallowed as "looks physical".
            raise AnalysisError(
                f"{evaluate.__name__} of device {element.name!r} failed "
                f"unexpectedly while validating the operating point: "
                f"{type(exc).__name__}: {exc}") from exc
        for key in ("id", "ic", "ib", "ie"):
            value = info.get(key)
            if value is not None and abs(float(value)) > options.current_limit:
                raise _NonPhysicalPoint(
                    "converged to a non-physical operating point",
                    worst_node=element.name, residual=float(value))


def _solve_nonlinear(system: MNASystem, x0: np.ndarray, options: NewtonOptions,
                     anchor: Optional[BiasAnchor] = None):
    """Try Newton from the anchor (when given), then the cold ladder:
    Newton, gmin stepping, source stepping."""
    registry = global_registry()
    total_iterations = 0

    # Strategy 0: plain Newton from the structure's anchor, kept only if
    # every junction device conducts as it does at the anchor.
    if anchor is not None:
        with _span("newton.strategy", strategy="newton",
                   anchored=True) as anchor_span:
            try:
                x, iterations = _newton_loop(system, anchor.x, options,
                                             gshunt=options.gshunt)
            except SingularMatrixError:
                fallback = "singular"
            except _NonPhysicalPoint:
                fallback = "nonphysical"
            except ConvergenceError:
                fallback = "diverged"
            else:
                fallback = None
                if conduction_states(system, x, system.ctx) \
                        != anchor.conducting:
                    fallback = "region"
            if fallback is not None:
                anchor_span.set(fallback=fallback)
        if fallback is None:
            _ANCHOR_HITS.inc()
            return x, iterations, "newton"
        registry.counter(f"newton.anchor.fallbacks.{fallback}").inc()

    # Strategy 1: plain Newton.
    try:
        with _span("newton.strategy", strategy="newton", anchored=False):
            x, iterations = _newton_loop(system, x0, options,
                                         gshunt=options.gshunt)
        return x, iterations, "newton"
    except (ConvergenceError, SingularMatrixError):
        registry.counter("newton.strategy_failures").inc()

    # Strategy 2: gmin stepping.
    try:
        with _span("newton.strategy", strategy="gmin-stepping",
                   anchored=False) as gmin_span:
            x = x0.copy()
            gmin_target = system.ctx.gmin
            start = max(options.gmin_start, gmin_target * 10)
            steps = np.geomspace(start, gmin_target, options.gmin_steps)
            for gmin_value in steps:
                gmin_span.add_event("newton.gmin_step", gmin=float(gmin_value))
                x, iterations = _newton_loop(
                    system, x, options, gmin_override=float(gmin_value),
                    gshunt=options.gshunt + float(gmin_value))
                total_iterations += iterations
            # Final solve at the target gmin without the shunt.
            x, iterations = _newton_loop(system, x, options,
                                         gshunt=options.gshunt)
            total_iterations += iterations
        return x, total_iterations, "gmin-stepping"
    except (ConvergenceError, SingularMatrixError):
        registry.counter("newton.strategy_failures").inc()

    # Strategy 3: source stepping.
    x = x0.copy()
    total_iterations = 0
    last_error: Optional[Exception] = None
    scales = np.linspace(1.0 / options.source_steps, 1.0, options.source_steps)
    try:
        with _span("newton.strategy", strategy="source-stepping",
                   anchored=False) as source_span:
            for scale in scales:
                source_span.add_event("newton.source_step",
                                      scale=float(scale))
                x, iterations = _newton_loop(system, x, options,
                                             source_scale=float(scale),
                                             gshunt=options.gshunt)
                total_iterations += iterations
        return x, total_iterations, "source-stepping"
    except (ConvergenceError, SingularMatrixError) as exc:
        registry.counter("newton.strategy_failures").inc()
        last_error = exc

    registry.counter("newton.exhausted").inc()
    raise ConvergenceError(
        "operating point failed to converge with Newton, gmin stepping and "
        f"source stepping: {last_error}",
        history=getattr(last_error, "history", None))


def _collect_device_info(system: MNASystem, x: np.ndarray
                         ) -> Tuple[Dict[str, Dict[str, float]], Dict[str, str]]:
    """Gather per-device operating-point summaries where available.

    Diagnostics must never break a converged solve, so failures are
    collected (device name -> error text) instead of raised; they surface
    on :attr:`OPResult.info_failures` and in the serialized payload.
    """
    info: Dict[str, Dict[str, float]] = {}
    failures: Dict[str, str] = {}
    view = system.solution_view(x)
    for element in system.circuit:
        collect = getattr(element, "operating_point_info", None)
        if collect is None:
            continue
        try:
            info[element.name] = collect(view, system.ctx)
        except Exception as exc:
            failures[element.name] = f"{type(exc).__name__}: {exc}"
    return info, failures
