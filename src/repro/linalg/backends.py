"""Pluggable linear-solver backends behind the :class:`LinearSystem` seam.

Every linear solve in the repro analyses goes through one of two
interchangeable backends:

* :class:`DenseBackend` — NumPy/LAPACK.  One-shot solves use
  ``np.linalg.solve`` (bit-for-bit the historical behaviour); reusable
  factorizations use ``scipy.linalg.lu_factor``/``lu_solve``.
* :class:`SparseBackend` — ``scipy.sparse`` CSC + SuperLU (``splu``).
  Assembly stays in triplet/CSC form end to end; one factorization serves
  any number of right-hand sides (all columns of a matrix RHS at once).

:func:`resolve_backend` picks one: an explicit name always wins, the
``REPRO_BACKEND`` environment variable overrides the automatic choice,
and otherwise systems that are large *and* sparse (``size >=
AUTO_SPARSE_MIN_SIZE`` and ``density <= AUTO_SPARSE_MAX_DENSITY``) go to
SuperLU while everything else stays on LAPACK — small dense MNA systems
beat sparse machinery by a wide margin, large ladder-style systems lose
O(n^3) vs O(n) by staying dense.

:class:`LinearSystem` wraps one assembled matrix and caches its
factorization, which is what makes reuse across Newton iterations at a
fixed matrix, across transient timesteps with an unchanged ``G``/``C``
and across AC right-hand sides free.  Both backends keep process-global
:class:`SolveStats` counters so tests (and curious users) can observe how
many factorizations a run actually paid for.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from repro.exceptions import AnalysisError, SingularMatrixError
from repro.linalg.diagnostics import singular_system_message
from repro.linalg.triplets import TripletMatrix
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import span as _span

__all__ = [
    "AUTO_SPARSE_MAX_DENSITY",
    "AUTO_SPARSE_MIN_SIZE",
    "BACKEND_ENV_VAR",
    "DenseBackend",
    "LinearSystem",
    "SolveStats",
    "SolverBackend",
    "SparseBackend",
    "available_backends",
    "csc_pattern_key",
    "resolve_backend",
]

#: Environment variable that overrides the automatic backend choice
#: (used by the CI matrix to run the whole suite on each backend).
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Automatic selection: systems at least this large ...
AUTO_SPARSE_MIN_SIZE = 200
#: ... with at most this stamp density go to the sparse backend.
AUTO_SPARSE_MAX_DENSITY = 0.05


class SolveStats:
    """Factorization/solve counters of one backend class, as a thin view
    over the observability metrics registry (:mod:`repro.obs.metrics`).

    The attribute API is unchanged from the historical dataclass —
    ``stats.factorizations`` reads, ``stats.factorizations += 1``
    updates, :meth:`reset` zeroes, :meth:`as_dict` serializes — but the
    values now live in registry counters (``linalg.dense.solves``, ...),
    so they appear in registry snapshots, ship home from pool workers as
    mergeable deltas and surface in :class:`~repro.obs.EngineReport`.

    Counter semantics:

    * ``factorizations`` / ``solves`` — numeric LU factorizations and
      back-substitutions performed.
    * ``symbolic_reuses`` — factorizations that reused a cached
      per-pattern symbolic artifact (the SuperLU column ordering).
    * ``batch_solves`` — :meth:`LinearSystem.solve_batch` calls served.
    * ``batched_systems`` — total systems solved through batch calls
      (the sum of batch sizes); ``batched_systems / batch_solves`` is
      the observed mean batch size.
    """

    FIELDS = ("factorizations", "solves", "symbolic_reuses",
              "batch_solves", "batched_systems")

    def __init__(self, namespace: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        # A namespaced view shares the process-global registry (that is
        # what the backend classes use); a bare SolveStats() keeps the
        # historical standalone-instance semantics by owning a private
        # registry, so ad-hoc instances never collide with the backends.
        if registry is None:
            registry = global_registry() if namespace else MetricsRegistry()
        prefix = f"{namespace}." if namespace else "linalg."
        # One lock for the whole set, so inc_many is one acquisition.
        lock = threading.Lock()
        object.__setattr__(self, "_lock", lock)
        object.__setattr__(self, "_counters",
                           {f: registry.counter(prefix + f, lock=lock)
                            for f in self.FIELDS})

    def __getattr__(self, name):
        try:
            return self._counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name, value):
        counter = self._counters.get(name)
        if counter is None:
            raise AttributeError(f"SolveStats has no counter {name!r}")
        counter.value = value

    def inc(self, name: str, amount: int = 1) -> None:
        """Atomic counter increment (preferred over ``stats.x += 1``)."""
        self._counters[name].inc(amount)

    def inc_many(self, **amounts: int) -> None:
        """Increment several counters atomically, under one acquisition
        of their shared lock."""
        counters = self._counters
        with self._lock:
            for name, amount in amounts.items():
                counters[name].inc_held(amount)

    def reset(self) -> None:
        """Zero every counter (tests bracket a region of interest with this)."""
        for counter in self._counters.values():
            counter.reset()

    def as_dict(self) -> dict:
        """The counters as a plain dict (snapshot/reporting helper)."""
        return {name: counter.value
                for name, counter in self._counters.items()}


def csc_pattern_key(matrix) -> str:
    """Stable content hash of a CSC/CSR matrix *structure* (not values).

    Same-pattern matrices (e.g. the ``G + j*omega*C`` systems of one AC
    sweep, or one topology restamped across Monte Carlo scenarios) map to
    the same key, which is what the sparse backend's symbolic cache is
    keyed on.
    """
    digest = hashlib.sha256()
    digest.update(str(matrix.shape).encode("ascii"))
    digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    return digest.hexdigest()


class Factorization:
    """A factorized matrix: cheap repeated solves against new RHS vectors."""

    def __init__(self, backend: "SolverBackend", solve_fn):
        self._backend = backend
        self._solve_fn = solve_fn

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-substitute one RHS vector or matrix (columns = RHS set)."""
        type(self._backend).stats.inc("solves")
        return self._solve_fn(rhs)


class SolverBackend:
    """Interface of a linear-solver backend.

    Subclasses provide a native matrix form (:meth:`matrix`), a reusable
    :meth:`factorize` and a one-shot :meth:`solve_once`.  To add a
    backend, implement those three methods and register the class in
    ``_BACKENDS`` (see ``docs/solver-backends.md`` for a walkthrough).
    """

    name = "abstract"
    stats = SolveStats("linalg.abstract")

    MatrixSource = Union[TripletMatrix, np.ndarray]

    def matrix(self, source: MatrixSource, dtype=float):
        """Convert triplets / arrays into this backend's native form."""
        raise NotImplementedError

    def factorize(self, matrix, names: Optional[Sequence[str]] = None,
                  pattern_key: Optional[str] = None) -> Factorization:
        """Factorize a native-form matrix for repeated solves.

        ``pattern_key`` (optional) identifies the matrix *structure*;
        backends that cache per-pattern symbolic artifacts use it to pay
        only the numeric factorization on same-structure matrices.
        """
        raise NotImplementedError

    def solve_once(self, matrix, rhs: np.ndarray,
                   names: Optional[Sequence[str]] = None) -> np.ndarray:
        """Factor-and-solve a matrix that will not be reused."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class DenseBackend(SolverBackend):
    """NumPy/LAPACK dense solver (the historical behaviour)."""

    name = "dense"
    stats = SolveStats("linalg.dense")

    def matrix(self, source, dtype=float) -> np.ndarray:
        if isinstance(source, TripletMatrix):
            return source.to_dense(dtype=dtype)
        if hasattr(source, "toarray"):  # scipy sparse handed to the dense path
            return np.asarray(source.toarray(), dtype=dtype)
        return np.asarray(source, dtype=dtype)

    def factorize(self, matrix: np.ndarray,
                  names: Optional[Sequence[str]] = None,
                  pattern_key: Optional[str] = None) -> Factorization:
        import warnings

        type(self).stats.inc("factorizations")
        try:
            with warnings.catch_warnings():
                # An exactly singular matrix only *warns* here; the zero-pivot
                # check below turns it into a SingularMatrixError.
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                lu_piv = scipy.linalg.lu_factor(matrix)
        except (ValueError, scipy.linalg.LinAlgError) as exc:
            raise SingularMatrixError(
                singular_system_message(matrix, names, detail=str(exc))) from exc
        # ``lu_factor`` only *warns* on an exactly singular matrix; a zero
        # U-diagonal would silently poison every later back-substitution.
        if not np.all(np.isfinite(lu_piv[0])) or np.any(np.diagonal(lu_piv[0]) == 0.0):
            raise SingularMatrixError(singular_system_message(
                matrix, names, detail="zero pivot in LU factorization"))
        return Factorization(self, lambda rhs: scipy.linalg.lu_solve(lu_piv, rhs))

    def solve_once(self, matrix: np.ndarray, rhs: np.ndarray,
                   names: Optional[Sequence[str]] = None) -> np.ndarray:
        type(self).stats.inc("factorizations")
        type(self).stats.inc("solves")
        try:
            return np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                singular_system_message(matrix, names, detail=str(exc))) from exc


class SparseBackend(SolverBackend):
    """``scipy.sparse`` CSC + SuperLU backend for large, sparse systems.

    Factorizations are pattern-aware: the first factorization of a given
    sparsity pattern runs SuperLU's full symbolic analysis (COLAMD column
    ordering) and caches the resulting ordering under the pattern key;
    every factorization — that first one included — pre-permutes the
    columns with the cached ordering and calls SuperLU with
    ``permc_spec="NATURAL"``, so later same-pattern factorizations skip
    the symbolic ordering work and pay only the numeric LU, and the
    result does not depend on the cache state.
    This is what makes compiled-circuit scenario sweeps (same structure,
    new values per sample) and AC sweeps (same ``G + j*omega*C`` pattern
    per frequency) cheap; ``SolveStats.symbolic_reuses`` counts the hits.
    """

    name = "sparse"
    stats = SolveStats("linalg.sparse")

    #: pattern key -> cached SuperLU column ordering (process-global LRU).
    _ordering_cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
    _ordering_lock = threading.Lock()
    _ORDERING_CACHE_SIZE = 64

    @classmethod
    def _cached_ordering(cls, key: str) -> Optional[np.ndarray]:
        with cls._ordering_lock:
            perm = cls._ordering_cache.get(key)
            if perm is not None:
                cls._ordering_cache.move_to_end(key)
            return perm

    @classmethod
    def _store_ordering(cls, key: str, perm_c: np.ndarray) -> None:
        with cls._ordering_lock:
            cls._ordering_cache[key] = np.asarray(perm_c)
            while len(cls._ordering_cache) > cls._ORDERING_CACHE_SIZE:
                cls._ordering_cache.popitem(last=False)

    @classmethod
    def clear_symbolic_cache(cls) -> None:
        """Drop every cached column ordering (mostly for tests)."""
        with cls._ordering_lock:
            cls._ordering_cache.clear()

    def matrix(self, source, dtype=float):
        from scipy.sparse import csc_matrix, issparse

        if isinstance(source, TripletMatrix):
            matrix = source.to_csc()
        elif issparse(source):
            matrix = source.tocsc()
        else:
            return csc_matrix(np.asarray(source, dtype=dtype))
        # astype always copies, even at matching dtype: guard the hot path
        # (one matrix per AC frequency point goes through here).
        return matrix.astype(dtype) if matrix.dtype != np.dtype(dtype) else matrix

    def factorize(self, matrix, names: Optional[Sequence[str]] = None,
                  pattern_key: Optional[str] = None) -> Factorization:
        from scipy.sparse.linalg import splu

        type(self).stats.inc("factorizations")
        csc = matrix.tocsc() if matrix.format != "csc" else matrix
        if csc.nnz and not np.all(np.isfinite(csc.data)):
            raise SingularMatrixError(singular_system_message(
                csc, names, detail="non-finite matrix entries"))
        if pattern_key is None:
            pattern_key = csc_pattern_key(csc)
        perm_c = self._cached_ordering(pattern_key)
        try:
            if perm_c is not None and len(perm_c) == csc.shape[1]:
                type(self).stats.inc("symbolic_reuses")
            else:
                # First sight of this pattern: let SuperLU order it, keep
                # only the ordering and factor again below.
                perm_c = splu(csc).perm_c
                self._store_ordering(pattern_key, perm_c)
            # Apply the column ordering ourselves and tell SuperLU to skip
            # its symbolic pass.  Factoring A[:, perm_c] with NATURAL is
            # not bit-identical to splu's own COLAMD run, so both the cold
            # and the warm call take this path: a solution never depends
            # on what the ordering cache held.
            factor = splu(csc[:, perm_c].tocsc(), permc_spec="NATURAL")
        except (RuntimeError, ValueError) as exc:
            # SuperLU reports exact singularity as a RuntimeError.
            raise SingularMatrixError(
                singular_system_message(csc, names, detail=str(exc))) from exc

        def solve(rhs: np.ndarray) -> np.ndarray:
            solution = factor.solve(np.asarray(rhs))
            # factor solved A[:, perm_c] y = rhs, i.e. y = Pc^T x.
            unpermuted = np.empty_like(solution)
            unpermuted[perm_c] = solution
            solution = unpermuted
            if not np.all(np.isfinite(solution)):
                raise SingularMatrixError(singular_system_message(
                    csc, names, detail="non-finite solution (near-singular system)"))
            return solution

        return Factorization(self, solve)

    def solve_once(self, matrix, rhs: np.ndarray,
                   names: Optional[Sequence[str]] = None) -> np.ndarray:
        return self.factorize(matrix, names=names).solve(rhs)


_BACKENDS = {DenseBackend.name: DenseBackend, SparseBackend.name: SparseBackend}


def available_backends() -> tuple:
    """Names accepted by ``backend=`` options (plus ``"auto"``)."""
    return tuple(sorted(_BACKENDS))


def matrix_stats(matrix) -> tuple:
    """(size, density) of a TripletMatrix / ndarray / scipy sparse matrix —
    the inputs of the automatic backend selection."""
    if isinstance(matrix, TripletMatrix):
        return matrix.n, matrix.density()
    if hasattr(matrix, "nnz"):
        size = matrix.shape[0]
        return size, matrix.nnz / float(max(size * size, 1))
    matrix = np.asarray(matrix)
    size = matrix.shape[0]
    return size, np.count_nonzero(matrix) / float(max(matrix.size, 1))


def _auto_choice(size: Optional[int], density: Optional[float]) -> SolverBackend:
    if size is not None and size >= AUTO_SPARSE_MIN_SIZE:
        if density is None or density <= AUTO_SPARSE_MAX_DENSITY:
            return SparseBackend()
    return DenseBackend()


def resolve_backend(name: Union[str, SolverBackend, None] = None, *,
                    size: Optional[int] = None,
                    density: Optional[float] = None) -> SolverBackend:
    """Resolve a backend request into a backend instance.

    Precedence: an explicit ``name`` ("dense"/"sparse", or an already
    constructed backend) wins; ``None``/"auto" consults the
    ``REPRO_BACKEND`` environment variable; and without either the
    size/density heuristic decides (defaulting to dense when the system
    structure is unknown).
    """
    if isinstance(name, SolverBackend):
        return name
    if name is None or str(name).strip().lower() in ("", "auto"):
        env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if env in ("", "auto"):
            return _auto_choice(size, density)
        name = env
    key = str(name).strip().lower()
    try:
        return _BACKENDS[key]()
    except KeyError:
        raise AnalysisError(
            f"unknown linear-solver backend {name!r}; expected one of "
            f"{available_backends()} or 'auto'") from None


class LinearSystem:
    """One assembled system matrix behind a backend, factorized at most once.

    ``matrix`` may be a :class:`~repro.linalg.triplets.TripletMatrix`, a
    dense ndarray or a scipy sparse matrix; it is converted to the
    backend's native form up front.  The first :meth:`solve` pays for the
    factorization; every further solve against the same matrix is a
    back-substitution.  ``names`` (the MNA unknown names) make singular
    systems report which node/branch looks responsible.

    :meth:`refactor` supports the compiled-circuit restamp flow: swap in
    new numeric values on the *same* structure, drop only the numeric
    factorization and keep the pattern identity (``pattern_key``) so the
    sparse backend's symbolic cache keeps hitting across scenarios.
    """

    def __init__(self, matrix, backend: Union[str, SolverBackend, None] = None,
                 names: Optional[Sequence[str]] = None, dtype=float,
                 pattern_key: Optional[str] = None):
        size, density = matrix_stats(matrix)
        self.backend = resolve_backend(backend, size=size, density=density)
        self.names = names
        self.size = size
        self.pattern_key = pattern_key
        self._dtype = dtype
        self._native = self.backend.matrix(matrix, dtype=dtype)
        self._factorization: Optional[Factorization] = None

    # ------------------------------------------------------------------
    @property
    def matrix(self):
        """The matrix in the backend's native form."""
        return self._native

    @property
    def is_factorized(self) -> bool:
        """Whether the (lazy) factorization has been computed already."""
        return self._factorization is not None

    def factorization(self) -> Factorization:
        """The (cached) factorization; computed on first use."""
        if self._factorization is None:
            with _span("linalg.factorize", backend=self.backend.name,
                       n=self.size):
                self._factorization = self.backend.factorize(
                    self._native, names=self.names,
                    pattern_key=self.pattern_key)
        return self._factorization

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` reusing the cached factorization."""
        return self.factorization().solve(rhs)

    def solve_batch(self, matrices: np.ndarray, rhs: np.ndarray
                    ) -> Tuple[np.ndarray, Dict[int, Exception]]:
        """Solve ``N`` same-structure systems ``A_k x_k = rhs[k]`` at once.

        This is the sample-axis kernel of the compiled batch pipeline
        (one matrix per Monte Carlo sample over one topology):

        * on the **dense** backend ``matrices`` is an ``(N, n, n)`` stack
          and the whole batch is one batched ``numpy.linalg.solve`` call;
        * on the **sparse** backend ``matrices`` is an ``(N, csc_nnz)``
          block of CSC data arrays over this system's structure (see
          :meth:`CompiledPattern.csc_data_batch
          <repro.linalg.triplets.CompiledPattern.csc_data_batch>`), and
          each row goes through :meth:`refactor` — same skeleton, same
          ``pattern_key`` — so every numeric LU after the first reuses
          the cached symbolic ordering.

        ``rhs`` is ``(N, n)`` (or ``(n,)``, broadcast to every sample).
        Returns ``(solutions, failures)``: ``solutions`` is ``(N, n)``
        with failed samples' rows set to NaN, and ``failures`` maps each
        failed sample index to its exception — per-sample failure
        isolation, so one singular scenario cannot poison its batch.
        ``SolveStats.batch_solves``/``batched_systems`` count the calls
        and the total batched systems.
        """
        matrices = np.asarray(matrices)
        n_samples = matrices.shape[0]
        rhs = np.asarray(rhs)
        if rhs.ndim == 1:
            rhs = np.broadcast_to(rhs, (n_samples, len(rhs)))
        dtype = np.result_type(matrices, rhs)
        stats = type(self.backend).stats
        failures: Dict[int, Exception] = {}
        if self.backend.name == "sparse":
            stats.inc_many(batch_solves=1, batched_systems=n_samples)
            solutions = np.full((n_samples, self.size), np.nan, dtype=dtype)
            with _span("linalg.solve_batch", backend="sparse", n=self.size,
                       samples=n_samples):
                for index in range(n_samples):
                    try:
                        self.refactor(matrices[index])
                        solutions[index] = self.solve(rhs[index])
                    except (SingularMatrixError, AnalysisError) as exc:
                        failures[index] = exc
            return solutions, failures
        if matrices.shape[1:] != (self.size, self.size):
            raise AnalysisError(
                f"solve_batch on the dense backend needs an "
                f"(N, {self.size}, {self.size}) matrix stack; got shape "
                f"{matrices.shape}")
        stats.inc_many(batch_solves=1, batched_systems=n_samples,
                       factorizations=n_samples, solves=n_samples)
        batch_span = _span("linalg.solve_batch", backend="dense",
                           n=self.size, samples=n_samples)
        try:
            with batch_span:
                solutions = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # At least one sample is singular: fall back to per-sample
            # solves so the healthy samples still come back and each
            # offender gets its own named diagnostic.
            solutions = np.full((n_samples, self.size), np.nan, dtype=dtype)
            for index in range(n_samples):
                try:
                    solutions[index] = np.linalg.solve(matrices[index],
                                                       rhs[index])
                except np.linalg.LinAlgError as exc:
                    failures[index] = SingularMatrixError(
                        singular_system_message(matrices[index], self.names,
                                                detail=str(exc)))
                    solutions[index] = np.nan
        # Batched LAPACK reports only exact singularity; non-finite inputs
        # (or a near-singular system blowing up) come back as inf/nan rows
        # without raising.  Mirror the scalar factorize paths' guards so
        # garbage is a per-sample failure, never a "solved" result.
        if np.isfinite(solutions).all():
            return solutions, failures
        for index in np.flatnonzero(~np.isfinite(solutions).all(axis=1)):
            index = int(index)
            if index in failures:
                continue
            detail = ("non-finite matrix entries"
                      if not np.all(np.isfinite(matrices[index]))
                      else "non-finite solution (near-singular system)")
            failures[index] = SingularMatrixError(singular_system_message(
                matrices[index], self.names, detail=detail))
            solutions[index] = np.nan
        return solutions, failures

    def refactor(self, values) -> "LinearSystem":
        """Swap in new numeric values in place; keep the structure.

        ``values`` may be a flat array of the sparse native's ``nnz``
        data entries, a same-structure sparse matrix, or (on the dense
        backend / as a fallback) anything :meth:`SolverBackend.matrix`
        accepts.  The cached numeric factorization is invalidated — the
        next :meth:`solve` refactorizes — while the pattern identity is
        preserved, so same-structure refactorizations reuse the symbolic
        artifacts cached per pattern.
        """
        native = self._native
        if hasattr(native, "data") and hasattr(native, "indptr"):
            if isinstance(values, np.ndarray) and values.ndim == 1 \
                    and values.shape == native.data.shape:
                native.data[:] = values
            elif hasattr(values, "indptr") and values.shape == native.shape:
                fresh = values.tocsc()
                if np.array_equal(fresh.indptr, native.indptr) \
                        and np.array_equal(fresh.indices, native.indices):
                    native.data[:] = fresh.data
                else:
                    self._native = self.backend.matrix(values, dtype=self._dtype)
                    self.pattern_key = None
            else:
                self._replace_native(values)
        else:
            self._replace_native(values)
        self._factorization = None
        return self

    def _replace_native(self, values) -> None:
        """Full matrix replacement (refactor fallback), shape-checked so a
        flat data array handed to the dense backend fails loudly here
        instead of deep inside LAPACK."""
        replacement = self.backend.matrix(values, dtype=self._dtype)
        if getattr(replacement, "shape", None) != (self.size, self.size):
            raise AnalysisError(
                f"refactor() needs a {self.size}x{self.size} matrix, the "
                f"native sparse data array, or a same-structure sparse "
                f"matrix; got shape {getattr(replacement, 'shape', None)} "
                f"on the {self.backend.name} backend")
        self._native = replacement
        self.pattern_key = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "factorized" if self.is_factorized else "unfactorized"
        return f"<LinearSystem n={self.size} backend={self.backend.name} {state}>"
