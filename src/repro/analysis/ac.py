"""AC (small-signal) frequency-domain analysis.

The circuit is linearised at its DC operating point and the complex MNA
system ``(G + j*2*pi*f*C) X = B_ac`` is solved at every frequency of the
requested sweep.  This is the analysis the stability tool runs after
attaching an AC current stimulus to the node under test.

Three solver paths sit behind one interface (``docs/solver-backends.md``):

* **Reduced sweep** (dense backend, up to :data:`REDUCED_SWEEP_MAX_SIZE`
  unknowns): each sample's pencil is equilibrated by powers of two and
  reduced once by a complex QZ, ``D_r (G + sC) D_c = Q (S + sT) Z^H`` —
  the pencil form of Laub's Hessenberg method — after which every
  frequency is a back-substitution through the triangular ``S + sT``,
  vectorized over (sample, frequency, column).  A
  :class:`~repro.analysis.compiled.BatchLinearization` caches its
  reduction, so a screen's coarse cube and its closed-form peak search
  (:func:`reduced_driving_point`) share one QZ per sample;
  :func:`solve_ac_stacked` is a batch of one.
* **Dense LU** per frequency, for larger dense systems, where one QZ
  costs hundreds of factorizations.
* **Sparse**: SuperLU factorizes ``G + j*omega*C`` per frequency and
  reuses each factorization for every right-hand-side column.

A failure — a non-finite plane, a singular pencil, a singular frequency —
fails only its own sample with a typed
:class:`~repro.exceptions.SingularMatrixError` and increments
``ac.sweep_failures.<reason>``.  A capacitance too large for
``2*pi*f_max*|C|`` to stay finite fails its sample before either backend
forms ``G + j*omega*C``, with an
:class:`~repro.exceptions.AnalysisError` naming the node pair and the
magnitude (reason ``capacitance_overflow``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np
import scipy.linalg

from repro.analysis.compiled import CompiledCircuit
from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import NewtonOptions, operating_point
from repro.analysis.results import ACResult, OPResult
from repro.analysis.sweeps import FrequencySweep
from repro.circuit.netlist import Circuit
from repro.exceptions import AnalysisError, SingularMatrixError
from repro.linalg import (
    LinearSystem,
    SolverBackend,
    csc_pattern_key,
    matrix_stats,
    resolve_backend,
)
from repro.obs.metrics import global_registry
from repro.obs.trace import span as _span

__all__ = ["PencilReduction", "ac_analysis", "factored_driving_point",
           "reduce_pencils", "reduced_driving_point",
           "solve_ac_batch", "solve_ac_stacked", "solve_ac_stacked_batch"]

#: Dense sweeps of systems up to this many unknowns run the reduced sweep;
#: larger dense systems take one LU per frequency.  From the crossover
#: table in ``docs/solver-backends.md``: an all-nodes sweep (one column
#: per node) is faster reduced at 18 unknowns and no faster at 34.
REDUCED_SWEEP_MAX_SIZE = 32

#: Work entries ``(n, m, A, F_block)`` of one frequency block of the
#: reduced sweep (2 MB): the back-substitution then runs in cache, about
#: 15 % faster per 64-sample screen than one block of every frequency or
#: blocks of 16 MB, and its memory stays bounded on large systems.
_SWEEP_BLOCK = 1 << 17

#: Poles above this natural frequency [Hz] are numerically infinite
#: eigenvalues of the singular part of ``C`` (as in ``pole_analysis``).
_MAX_POLE_HZ = 1e15

_NON_FINITE_MESSAGE = ("AC system matrices contain non-finite entries "
                       "(bad operating point or device model)")


def _count_failure(reason: str) -> None:
    global_registry().counter(f"ac.sweep_failures.{reason}").inc()


class PencilReduction:
    """Equilibrated generalized Schur forms of N pencils ``G + sC``.

    Sample ``k`` satisfies ``G_k + s C_k = (QH_k)^-1 (S_k + s T_k) Z_k^-1``
    with upper-triangular ``S``, ``T``; ``QH = Q^H D_r`` and ``Z = D_c Z``
    carry the power-of-two scales.  ``failures`` maps samples whose
    pencil is singular to their error; those, and samples never reduced,
    hold the identity pencil.
    """

    __slots__ = ("S", "T", "QH", "Z", "failures")

    def __init__(self, S, T, QH, Z, failures: Dict[int, Exception]):
        self.S, self.T, self.QH, self.Z = S, T, QH, Z
        self.failures = failures

    def take(self, samples: Sequence[int]) -> "PencilReduction":
        """The reductions of ``samples`` only, renumbered ``0..len-1``."""
        rows = np.asarray(list(samples), dtype=np.intp)
        failures = {position: self.failures[int(sample)]
                    for position, sample in enumerate(rows)
                    if int(sample) in self.failures}
        return PencilReduction(self.S[rows], self.T[rows], self.QH[rows],
                               self.Z[rows], failures)

    def poles(self, index: int) -> np.ndarray:
        """Sample ``index``'s finite poles ``-S_ii / T_ii`` [rad/s]
        (scaling does not move eigenvalues)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            poles = -np.diagonal(self.S[index]) / np.diagonal(self.T[index])
        return poles[np.isfinite(poles)
                     & (np.abs(poles) <= 2.0 * np.pi * _MAX_POLE_HZ)]


def _power_of_two(magnitude: np.ndarray) -> np.ndarray:
    """``2**-e`` putting ``magnitude * 2**-e`` in ``[0.5, 1)`` (1 at 0)."""
    return np.ldexp(1.0, -np.frexp(magnitude)[1])


def reduce_pencils(G: np.ndarray, C: np.ndarray,
                   samples: Optional[Sequence[int]] = None
                   ) -> PencilReduction:
    """Equilibrate and QZ-reduce the dense ``(N, n, n)`` pencils ``G + sC``.

    Rows, then columns, of ``|G| + |C|`` are scaled by powers of two (an
    exact scaling) so their largest entry lies in ``[0.5, 1)``.  That is
    what keeps the reduction accurate when a 1e-12 gmin sits next to 1e3
    conductances: on the open-loop op-amp (``cond(G + jwC)`` near 1e17)
    the driving-point impedances are 9e2 relatively wrong unscaled and
    within 1.1e-10 scaled.  ``samples`` (default: all) are reduced; the
    others keep the identity pencil.
    """
    n_samples, n = G.shape[0], G.shape[1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), (n_samples, n, n))
    S, QH, Z = eye.copy(), eye.copy(), eye.copy()
    T = np.zeros((n_samples, n, n), dtype=complex)
    failures: Dict[int, Exception] = {}
    magnitude = np.abs(G) + np.abs(C)
    row_scale = _power_of_two(magnitude.max(axis=2))
    col_scale = _power_of_two((row_scale[:, :, None] * magnitude).max(axis=1))
    samples = range(n_samples) if samples is None else samples
    tol = 8.0 * n * np.finfo(float).eps
    with _span("ac.reduce", size=n, samples=len(samples)):
        for k in samples:
            scale = row_scale[k][:, None] * col_scale[k][None, :]
            try:
                AA, BB, Q, ZZ = scipy.linalg.qz(
                    scale * G[k], scale * C[k], output="complex",
                    overwrite_a=True, overwrite_b=True, check_finite=False)
            except (np.linalg.LinAlgError, ValueError) as exc:
                _count_failure("qz_failed")
                failures[k] = SingularMatrixError(
                    f"AC pencil reduction (QZ) failed: {exc}")
                continue
            # alpha_i = beta_i = 0: det(G + sC) vanishes at every s.
            if np.any((np.abs(np.diagonal(AA)) <= tol * np.abs(AA).max())
                      & (np.abs(np.diagonal(BB)) <= tol * np.abs(BB).max())):
                _count_failure("singular_pencil")
                failures[k] = SingularMatrixError(
                    "AC system is singular at every frequency: the pencil "
                    "G + sC is singular (a node or branch with no "
                    "conductive or capacitive path)")
                continue
            S[k], T[k] = AA, BB
            QH[k] = Q.conj().T * row_scale[k][None, :]
            Z[k] = col_scale[k][:, None] * ZZ
    return PencilReduction(S, T, QH, Z, failures)


def _reduced_sweep(reduction: PencilReduction, rhs: np.ndarray,
                   per_sample_rhs: bool, freq: np.ndarray,
                   sel_rows: Optional[np.ndarray],
                   sel_cols: Optional[np.ndarray]) -> tuple:
    """Solve every (sample, frequency, column) of a reduced batch.

    Returns ``(values, first_bad)``: ``values`` is ``(A, F, Q)`` for the
    ``select`` pairs or ``(A, F, n, m)`` in full; ``first_bad[k]`` is the
    first frequency index where sample ``k`` met a zero or non-finite
    pivot or a non-finite solution, ``-1`` when clean.

    Arrays are laid out ``(n, m, A, F)`` and each back-substitution step
    is one broadcast multiply-subtract over the rows above it.  Plain
    elementwise numpy keeps each sample's arithmetic independent of its
    batchmates and of the selection, so ``select=`` output equals the
    full output's entries, and a batch of one the scalar sweep, bit for
    bit.
    """
    S, T, Z = reduction.S, reduction.T, reduction.Z
    n_samples, n = S.shape[0], S.shape[1]
    m = rhs.shape[-1]
    if sel_rows is None:
        rows, cols = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    else:
        rows, cols = sel_rows, sel_cols
    identity = np.array_equal(cols, np.arange(m))     # each column once
    c = reduction.QH @ (rhs if per_sample_rhs else rhs[None])  # (A, n, m)
    c = np.transpose(c, (1, 2, 0))[..., None]                  # (n, m, A, 1)
    S_t = np.transpose(S, (1, 2, 0))[..., None]                # (n, n, A, 1)
    T_t = np.transpose(T, (1, 2, 0))[..., None]
    alpha = np.diagonal(S_t[..., 0]).T[..., None]              # (n, A, 1)
    beta = np.diagonal(T_t[..., 0]).T[..., None]
    Z_rows = np.transpose(Z, (1, 2, 0))[rows][..., None]       # (Q, n, A, 1)
    out = np.empty((len(rows), n_samples, len(freq)), dtype=complex)
    bad_points = np.empty((n_samples, len(freq)), dtype=bool)
    width = max(1, _SWEEP_BLOCK // (n * m * n_samples))
    y = np.empty((n, m, n_samples, min(width, len(freq))), dtype=complex)
    scratch = np.empty_like(y)
    column = np.empty((n, n_samples, y.shape[-1]), dtype=complex)
    term = np.empty((len(rows), n_samples, y.shape[-1]), dtype=complex)
    for f0 in range(0, len(freq), width):
        f1 = min(f0 + width, len(freq))
        fb = f1 - f0
        s = (2j * np.pi) * freq[f0:f1]
        pivots = alpha + beta * s                               # (n, A, Fb)
        bad = ~np.isfinite(pivots) | (pivots == 0)
        pivots[bad] = 1.0
        inverse = 1.0 / pivots
        yb, sb, block = y[..., :fb], scratch[..., :fb], out[..., f0:f1]
        yb[:] = c
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(n - 1, -1, -1):
                yb[i] *= inverse[i]
                if i:
                    col = column[:i, :, :fb]
                    np.multiply(T_t[:i, i], s, out=col)
                    col += S_t[:i, i]
                    np.multiply(col[:, None], yb[i], out=sb[:i])
                    yb[:i] -= sb[:i]
            # x = Z y, one (row, column) pair at a time.
            picked = yb if identity else yb[:, cols]
            np.multiply(Z_rows[:, 0], picked[0], out=block)
            for j in range(1, n):
                np.multiply(Z_rows[:, j], picked[j], out=term[..., :fb])
                block += term[..., :fb]
        bad_points[:, f0:f1] = bad.any(axis=0) | \
            ~np.isfinite(block).all(axis=0)
    first_bad = np.where(bad_points.any(axis=1),
                         bad_points.argmax(axis=1), -1)
    values = np.transpose(out, (1, 2, 0))                      # (A, F, Q)
    if sel_rows is None:
        values = values.reshape(n_samples, len(freq), n, m)
    return values, first_bad


def reduced_driving_point(reduction: PencilReduction, samples: np.ndarray,
                          rows: np.ndarray, s: np.ndarray) -> tuple:
    """``T``, ``dT/ds``, ``d2T/ds2`` of ``T(s) = [(G + sC)^-1]_rr`` at the
    ``(P, E)`` points ``s`` (row ``p``: sample ``samples[p]``, unknown
    ``rows[p]``), and the mask of singular points.

    With ``R = S + sT = QH (G + sC) Z``, ``u = QH[:, r]``, ``w = Z[r, :]``::

        T = w R^-1 u,   T' = -w R^-1 T R^-1 u,   T'' = 2 w (R^-1 T)^2 R^-1 u

    — three back-substitutions through ``R`` side by side, each feeding
    the next through the triangular ``T``.  As in :func:`_reduced_sweep`,
    plain elementwise numpy keeps every point's arithmetic its own.
    """
    n = reduction.S.shape[1]
    S_t = np.transpose(reduction.S[samples], (1, 2, 0))[..., None]  # (n, n, P, 1)
    T_t = np.transpose(reduction.T[samples], (1, 2, 0))[..., None]
    u = reduction.QH[samples, :, rows].T[..., None]                # (n, P, 1)
    w = reduction.Z[samples, rows, :].T[..., None]
    pivots = np.diagonal(S_t[..., 0]).T[..., None] \
        + np.diagonal(T_t[..., 0]).T[..., None] * s                # (n, P, E)
    bad = ~np.isfinite(pivots) | (pivots == 0)
    pivots[bad] = 1.0
    inverse = 1.0 / pivots
    rest = np.zeros((3, n) + s.shape, dtype=complex)               # (3, n, P, E)
    rest[0] = u
    y = np.empty((3,) + s.shape, dtype=complex)
    acc = np.zeros_like(y)
    term = np.empty_like(rest)
    column = np.empty((n,) + s.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            # y_k[i], then its share of the next system's rhs T y_k.
            for k in range(3):
                np.multiply(rest[k, i], inverse[i], out=y[k])
                if k < 2:
                    np.multiply(T_t[:i + 1, i], y[k], out=term[0, :i + 1])
                    rest[k + 1, :i + 1] += term[0, :i + 1]
            np.multiply(w[i], y, out=term[:, 0])
            acc += term[:, 0]
            if i:
                np.multiply(T_t[:i, i], s, out=column[:i])
                column[:i] += S_t[:i, i]
                np.multiply(column[None, :i], y[:, None], out=term[:, :i])
                rest[:, :i] -= term[:, :i]
    return acc[0], -acc[1], 2.0 * acc[2], bad.any(axis=0)


def factored_driving_point(lin, backend: SolverBackend, samples: np.ndarray,
                           rows: np.ndarray, s: np.ndarray) -> tuple:
    """:func:`reduced_driving_point` by one factorization of ``A = G + sC``
    per point: ``x0 = A^-1 e_r``, ``x1 = A^-1 C x0`` and ``x2 = A^-1 C x1``
    give ``T = x0_r``, ``T' = -x1_r``, ``T'' = 2 x2_r``.  A singular point
    is masked and left NaN."""
    sparse = backend.name == "sparse"
    values = np.full((3,) + s.shape, np.nan, dtype=complex)
    singular = np.zeros(s.shape, dtype=bool)
    key = None
    for p, (sample, row) in enumerate(zip(samples, rows)):
        G, C = (lin.sample_sparse if sparse else lin.sample_dense)(int(sample))
        rhs = np.zeros(G.shape[0], dtype=complex)
        rhs[row] = 1.0
        for e, point in enumerate(s[p]):
            matrix = G + point * C
            if sparse:
                matrix = matrix.tocsc()
                key = key or csc_pattern_key(matrix)
            try:
                factors = backend.factorize(
                    matrix, names=lin.compiled.variable_names, pattern_key=key)
            except SingularMatrixError:
                singular[p, e] = True
                continue
            x0 = factors.solve(rhs)
            x1 = factors.solve(C @ x0)
            x2 = factors.solve(C @ x1)
            values[:, p, e] = x0[row], -x1[row], 2.0 * x2[row]
    return values[0], values[1], values[2], singular


def _lu_sweep(G: np.ndarray, C: np.ndarray, B: np.ndarray,
              freq: np.ndarray) -> np.ndarray:
    """``(F, n, m)`` solutions by one LU per frequency (dense systems above
    :data:`REDUCED_SWEEP_MAX_SIZE`); a singular frequency raises."""
    out = np.empty((len(freq),) + B.shape, dtype=complex)
    for k, frequency in enumerate(freq):
        try:
            out[k] = np.linalg.solve(G + (2j * np.pi * frequency) * C, B)
        except np.linalg.LinAlgError as exc:
            raise _singular_at(frequency) from exc
        if not np.all(np.isfinite(out[k])):
            raise _singular_at(frequency)
    return out


def _capacitance_overflow(lin, index: int, f_max: float) -> AnalysisError:
    """The failure of sample ``index`` of ``lin``, some capacitance of
    which overflows ``2*pi*f_max*|C|``.

    Such a sample cannot form ``G + j*omega*C`` at the top of the sweep;
    the error names the capacitance's node pair and magnitude instead of
    letting either backend report a singular or non-finite pencil.
    """
    c_values = lin.c_values[index]
    with np.errstate(over="ignore"):
        scaled = (2.0 * np.pi * f_max) * np.abs(c_values)
    bad = np.flatnonzero(~np.isfinite(scaled))
    rows, cols = lin.cap_pattern.rows[bad], lin.cap_pattern.cols[bad]
    # A two-terminal capacitor is named by an off-diagonal entry.
    slot = bad[int(np.argmax(rows != cols))]
    names = lin.compiled.variable_names
    node_a = names[lin.cap_pattern.rows[slot]]
    node_b = names[lin.cap_pattern.cols[slot]]
    where = (f"between {node_a!r} and {node_b!r}" if node_a != node_b
             else f"at {node_a!r}")
    _count_failure("capacitance_overflow")
    return AnalysisError(
        f"AC layer: the capacitance {where} ({abs(c_values[slot]):.3g} F) "
        f"overflows 2*pi*f*|C| at {f_max:g} Hz, so G + j*omega*C cannot "
        "be formed")


def _singular_at(frequency: float) -> SingularMatrixError:
    _count_failure("singular_frequency")
    return SingularMatrixError(f"AC system is singular at {frequency:g} Hz")


def _sweep_inputs(frequencies, select) -> tuple:
    """The frequency array and ``select``'s row and column index arrays."""
    freq = np.asarray(frequencies, dtype=float)
    if freq.ndim != 1 or len(freq) < 1:
        raise AnalysisError("at least one frequency is required")
    if select is None:
        return freq, None, None
    pairs = np.asarray(list(select), dtype=np.int64).reshape(-1, 2)
    return freq, pairs[:, 0], pairs[:, 1]


def solve_ac_stacked(G, C, rhs: np.ndarray, frequencies,
                     backend: Union[str, SolverBackend, None] = None,
                     names: Optional[Sequence[str]] = None,
                     select: Optional[Sequence] = None) -> np.ndarray:
    """Solve ``(G + j*2*pi*f*C) X = rhs`` for every frequency at once.

    ``rhs`` may be a single vector ``(n,)`` (one stimulus — the AC
    analysis) or a matrix ``(n, m)`` (one column per injection site — the
    multi-node impedance sweep); the result has a leading frequency
    axis, ``(K, n)`` or ``(K, n, m)``::

        >>> import numpy as np
        >>> G = np.array([[2.0, -1.0], [-1.0, 2.0]])   # conductances
        >>> C = np.array([[1e-3, 0.0], [0.0, 1e-3]])   # capacitances
        >>> rhs = np.array([1.0, 0.0])                 # one stimulus
        >>> X = solve_ac_stacked(G, C, rhs, [1.0, 10.0, 100.0])
        >>> X.shape                                    # (K frequencies, n)
        (3, 2)
        >>> direct = np.linalg.solve(G + 2j * np.pi * 10.0 * C, rhs)
        >>> bool(np.allclose(X[1], direct))
        True

    On the dense backend this is the reduced sweep as a batch of one (LU
    per frequency above :data:`REDUCED_SWEEP_MAX_SIZE` unknowns); on the
    sparse backend (chosen automatically for large sparse systems, or by
    ``backend="sparse"``; ``G``/``C`` may then be scipy sparse matrices)
    SuperLU factorizes each frequency once for every column.  A singular
    frequency raises :class:`SingularMatrixError` naming it; ``names``
    (MNA unknown names) improve the sparse path's diagnostics.
    ``select`` (``(row, col)`` pairs, as in :func:`solve_ac_stacked_batch`)
    keeps only those entries: ``(K, len(select))``.
    """
    freq, sel_rows, sel_cols = _sweep_inputs(frequencies, select)
    if backend is None and (hasattr(G, "tocsc") or hasattr(C, "tocsc")):
        backend_obj = resolve_backend("sparse")
    else:
        n_unknowns, g_density = matrix_stats(G)
        backend_obj = resolve_backend(backend, size=n_unknowns,
                                      density=max(g_density, matrix_stats(C)[1]))
    G_data = G.data if hasattr(G, "tocsc") else G
    C_data = C.data if hasattr(C, "tocsc") else C
    if not (np.all(np.isfinite(G_data)) and np.all(np.isfinite(C_data))):
        _count_failure("non_finite_matrix")
        raise SingularMatrixError(_NON_FINITE_MESSAGE)
    rhs = np.asarray(rhs, dtype=complex)
    B = rhs[:, None] if rhs.ndim == 1 else rhs

    if backend_obj.name == "sparse":
        out = _solve_ac_sparse(G, C, B, freq, backend_obj, names)
    elif matrix_stats(G)[0] > REDUCED_SWEEP_MAX_SIZE:
        out = _lu_sweep(backend_obj.matrix(G), backend_obj.matrix(C), B, freq)
    else:
        reduction = reduce_pencils(backend_obj.matrix(G)[None],
                                   backend_obj.matrix(C)[None])
        if reduction.failures:
            raise reduction.failures[0]
        values, first_bad = _reduced_sweep(reduction, B, False, freq,
                                           sel_rows, sel_cols)
        if first_bad[0] >= 0:
            raise _singular_at(freq[first_bad[0]])
        out, sel_rows = values[0], None
    if sel_rows is not None:
        return out[:, sel_rows, sel_cols]
    return out[:, :, 0] if rhs.ndim == 1 and select is None else out


def _solve_ac_sparse(G, C, B: np.ndarray, freq: np.ndarray,
                     backend: SolverBackend,
                     names: Optional[Sequence[str]],
                     pattern_key=None) -> np.ndarray:
    """Sparse path: one SuperLU factorization per frequency, all RHS columns
    solved against it at once.  Every frequency shares one sparsity
    pattern, hashed once (``pattern_key``, which batch callers compute
    once per batch) so each factorization hits the symbolic cache."""
    G = backend.matrix(G)
    C = backend.matrix(C)
    n, m = B.shape
    out = np.empty((len(freq), n, m), dtype=complex)
    for k, frequency in enumerate(freq):
        matrix = (G + (2j * np.pi * frequency) * C).tocsc()
        if pattern_key is None:
            pattern_key = csc_pattern_key(matrix)
        try:
            out[k] = LinearSystem(matrix, backend=backend, names=names,
                                  dtype=complex,
                                  pattern_key=pattern_key).solve(B)
        except SingularMatrixError as exc:
            _count_failure("sparse_singular")
            raise SingularMatrixError(
                f"AC system is singular at {frequency:g} Hz: {exc}") from exc
    return out


def solve_ac_batch(batch, frequencies,
                   backend: Union[str, SolverBackend, None] = None,
                   x: Optional[np.ndarray] = None,
                   failures: Optional[Dict[int, Exception]] = None) -> tuple:
    """AC sweeps of a whole scenario batch, each sample driven by its own
    AC stimulus.

    ``batch`` is a :class:`~repro.analysis.compiled.BatchStampState`
    over one topology.  Linear circuits are their own linearization;
    nonlinear ones need ``x``, the ``(N, n)`` operating-point plane.
    ``failures`` marks samples already known to be bad (say, by the DC
    solve).  The sweep is :func:`solve_ac_stacked_batch` over
    :func:`~repro.analysis.compiled.linearize_batch`.

    Returns ``(data, failures)``: ``data[k]`` is sample ``k``'s
    ``(K, n)`` complex response and ``failures`` maps failed samples
    (carried in, zero AC stimulus, a failed linearization, a singular
    frequency) to their exception; failed slabs are NaN.
    """
    from repro.analysis.compiled import linearize_batch

    with _span("analysis.ac_batch", samples=len(batch)):
        failures = {**batch.failures, **(failures or {})}
        for index in range(len(batch)):
            if index not in failures and not np.any(batch.b_ac[index]):
                failures[index] = AnalysisError(
                    "AC analysis needs at least one source with a non-zero "
                    "AC magnitude")
        if len(failures) == len(batch):
            freq = _sweep_inputs(frequencies, None)[0]
            return np.full((len(batch), len(freq), batch.compiled.size),
                           np.nan, dtype=complex), failures
        data, failures = solve_ac_stacked_batch(
            linearize_batch(batch, x, failures=failures),
            batch.b_ac[:, :, None], frequencies, backend=backend)
        return data[..., 0], failures


def solve_ac_stacked_batch(lin, rhs, frequencies,
                           backend: Union[str, SolverBackend, None] = None,
                           select: Optional[Sequence] = None) -> tuple:
    """Frequency sweeps of a whole linearized batch.

    ``lin`` is a :class:`~repro.analysis.compiled.BatchLinearization` —
    N samples' small-signal ``G``/``C`` value planes over one shared
    pattern.  ``rhs`` is one shared ``(n, m)`` excitation plane (one
    column per injection site — the impedance cube) or a per-sample
    ``(N, n, m)`` stack.  The dense backend runs the reduced sweep over
    the batch's cached
    :meth:`~repro.analysis.compiled.BatchLinearization.reduction` (LU per
    frequency above :data:`REDUCED_SWEEP_MAX_SIZE` unknowns); the sparse
    backend runs the samples under one shared pattern key.

    ``select`` (optional) is a sequence of ``(row, col)`` index pairs
    into the per-frequency solution matrix; only those entries are kept,
    ``(N, K, len(select))`` — the impedance sweep keeps the diagonal
    ``Z(node_c) = X[node_c, c]`` instead of the full ``(N, K, n, m)``.

    Returns ``(data, failures)``: failed samples (linearization failures
    carried in from ``lin``, non-finite planes, a singular pencil or
    frequency point) map to their exception and their slabs are NaN —
    one poisoned sample never hurts its batchmates.
    """
    freq, sel_rows, sel_cols = _sweep_inputs(frequencies, select)
    n = lin.pattern.n
    n_samples = len(lin)
    rhs = np.asarray(rhs, dtype=complex)
    per_sample_rhs = rhs.ndim == 3 and rhs.shape[0] == n_samples
    if rhs.ndim != 2 and not per_sample_rhs:
        raise AnalysisError(
            "rhs must be (n, m) shared across samples or (N, n, m) "
            f"per-sample; got shape {rhs.shape} for {n_samples} samples")
    shape = (len(sel_rows),) if select is not None else (n, rhs.shape[-1])
    data = np.full((n_samples, len(freq)) + shape, np.nan, dtype=complex)

    failures = dict(lin.failures)
    finite = (np.isfinite(lin.g_values).all(axis=1)
              & np.isfinite(lin.c_values).all(axis=1))
    f_max = float(np.max(freq)) if len(freq) else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        overflows = ~np.isfinite(
            (2.0 * np.pi * f_max) * np.abs(lin.c_values)).all(axis=1)
    for index in range(n_samples):
        if index in failures:
            continue
        if not finite[index]:
            _count_failure("non_finite_matrix")
            failures[index] = SingularMatrixError(_NON_FINITE_MESSAGE)
        elif overflows[index]:
            failures[index] = _capacitance_overflow(lin, index, f_max)
    healthy = [k for k in range(n_samples) if k not in failures]

    span = _span("ac.stacked_batch", samples=n_samples,
                 frequencies=len(freq), select=len(select) if select else 0)
    with span:
        density = max(lin.pattern.density(), lin.cap_pattern.density())
        backend_obj = resolve_backend(backend, size=n, density=density)
        sparse = backend_obj.name == "sparse"
        if healthy and not sparse and n <= REDUCED_SWEEP_MAX_SIZE:
            reduction = lin.reduction()
            for index, exc in reduction.failures.items():
                failures.setdefault(index, exc)
            alive = [k for k in healthy if k not in reduction.failures]
            if alive:
                values, first_bad = _reduced_sweep(
                    reduction.take(alive), rhs[alive] if per_sample_rhs
                    else rhs, per_sample_rhs, freq, sel_rows, sel_cols)
                for position, sample in enumerate(alive):
                    if first_bad[position] >= 0:
                        failures[sample] = _singular_at(
                            freq[first_bad[position]])
                    else:
                        data[sample] = values[position]
        elif healthy:
            if sparse:
                G, C = lin.sample_sparse(healthy[0])
                key = csc_pattern_key((G + (2j * np.pi * freq[0]) * C).tocsc())
            for sample in healthy:
                B = rhs[sample] if per_sample_rhs else rhs
                try:
                    if sparse:
                        G, C = lin.sample_sparse(sample)
                        solved = _solve_ac_sparse(
                            G, C, B, freq, backend_obj,
                            lin.compiled.variable_names, pattern_key=key)
                    else:
                        solved = _lu_sweep(*lin.sample_dense(sample), B, freq)
                except (SingularMatrixError, AnalysisError) as exc:
                    failures[sample] = exc
                    continue
                data[sample] = solved if select is None \
                    else solved[:, sel_rows, sel_cols]
        span.set(failures=len(failures))
    return data, failures


def ac_analysis(circuit: Optional[Circuit],
                sweep: Union[FrequencySweep, Sequence[float], None] = None,
                temperature: float = 27.0,
                gmin: float = 1e-12,
                variables: Optional[Dict[str, float]] = None,
                op: Optional[OPResult] = None,
                options: Optional[NewtonOptions] = None,
                backend: Union[str, SolverBackend, None] = None,
                compiled: Optional[CompiledCircuit] = None) -> ACResult:
    """Run a small-signal AC sweep and return an :class:`ACResult`.

    Parameters
    ----------
    circuit:
        Circuit containing at least one source with an AC stimulus.
    sweep:
        A :class:`FrequencySweep`, an explicit array of frequencies, or
        ``None`` for the default wide log sweep.
    op:
        A previously computed operating point.  When omitted it is
        computed here.  Passing one is how the all-nodes stability run
        avoids recomputing the bias point for every node.
    backend:
        Linear-solver backend: ``"dense"``, ``"sparse"`` or ``None``/
        ``"auto"`` (size/density heuristic; ``REPRO_BACKEND`` overrides).
    compiled:
        A precompiled circuit structure — scenario sweeps compile the
        topology once and restamp values per sample; ``circuit`` may
        then be ``None``.  The bias point then starts from the
        structure's anchor under tight options, as in
        :func:`~repro.analysis.op.operating_point`.
    """
    sweep = FrequencySweep.coerce(sweep)
    if circuit is None:
        if compiled is None:
            raise AnalysisError("ac_analysis needs a circuit or a "
                                "precompiled CompiledCircuit")
        circuit = compiled.circuit
    ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                          variables=dict(circuit.variables))
    if variables:
        ctx.update_variables(variables)
    system = MNASystem(circuit, ctx, backend=backend, compiled=compiled)
    system.stamp()

    if not np.any(system.b_ac):
        raise AnalysisError("AC analysis needs at least one source with a "
                            "non-zero AC magnitude")

    if op is None:
        op = operating_point(circuit, options=options, system=system,
                             compiled=compiled)
        x_op = op.x
    else:
        # The caller's OP may have been computed on a different (but
        # structurally compatible) system; map values by variable name so
        # that extra elements (e.g. an injected AC current source) do not
        # disturb the bias point.
        x_op = op.values_for(system.variable_names)

    form = "sparse" if system.backend.name == "sparse" else "dense"
    G_ss, C_ss = system.small_signal_matrices(x_op, form=form)

    frequencies = sweep.frequencies
    data = solve_ac_stacked(G_ss, C_ss, system.b_ac, frequencies,
                            backend=system.backend,
                            names=system.variable_names)
    return ACResult(system.variable_names, frequencies, data, op=op)
