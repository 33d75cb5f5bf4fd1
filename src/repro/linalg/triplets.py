"""Triplet (COO) accumulation of MNA matrices.

Element stamps arrive one ``(row, col, value)`` contribution at a time.
Accumulating them as a triplet list instead of writing into a dense array
keeps the assembly cost proportional to the number of stamps (not to the
matrix size squared) and lets *either* solver backend consume the result
without an intermediate conversion:

* the dense backend replays the triplets into a NumPy array with
  ``np.add.at`` — an unbuffered, in-order accumulation, so the assembled
  matrix is **bit-for-bit identical** to the historical "stamp straight
  into ``G[i, j]``" behaviour;
* the sparse backend hands the same arrays to ``scipy.sparse.coo_matrix``
  (which sums duplicates on conversion to CSR/CSC) and never builds the
  dense matrix at all.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["CompiledPattern", "TripletMatrix"]


class TripletMatrix:
    """A square matrix accumulated as COO triplets.

    Supports the three consumers of an assembled MNA matrix: dense replay
    (:meth:`to_dense`), sparse conversion (:meth:`to_csr`/:meth:`to_csc`)
    and structure queries for backend auto-selection (:meth:`density`).
    """

    __slots__ = ("n", "rows", "cols", "values")

    def __init__(self, n: int):
        self.n = int(n)
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.values: List[float] = []

    # ------------------------------------------------------------------
    def add(self, row: int, col: int, value: float) -> None:
        """Accumulate ``value`` at ``(row, col)`` (duplicates sum)."""
        self.rows.append(row)
        self.cols.append(col)
        self.values.append(value)

    def clear(self) -> None:
        """Drop every accumulated triplet (used by per-iteration matrices)."""
        del self.rows[:]
        del self.cols[:]
        del self.values[:]

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of accumulated triplets (duplicates counted separately)."""
        return len(self.values)

    def structural_nnz(self) -> int:
        """Number of distinct ``(row, col)`` positions touched."""
        return len(set(zip(self.rows, self.cols)))

    def density(self) -> float:
        """Fraction of matrix positions with at least one stamp.

        Uses the *structural* count: overlapping stamps (e.g. the shared
        diagonal entries of chained two-terminal elements) occupy one
        position, which is the quantity the dense-vs-sparse backend
        heuristic actually cares about.
        """
        if self.n == 0:
            return 0.0
        return self.structural_nnz() / float(self.n * self.n)

    # ------------------------------------------------------------------
    def to_dense(self, dtype=float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Replay the triplets into a dense ``(n, n)`` array.

        ``np.add.at`` performs unbuffered in-order accumulation, so the
        floating-point result matches sequential ``matrix[i, j] += value``
        stamping exactly.
        """
        if out is None:
            out = np.zeros((self.n, self.n), dtype=dtype)
        else:
            out[:] = 0.0
        if self.values:
            np.add.at(out, (self.rows, self.cols), self.values)
        return out

    def _coo_arrays(self, extra: Optional["TripletMatrix"] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows, cols, values = self.rows, self.cols, self.values
        if extra is not None and extra.values:
            rows = rows + extra.rows
            cols = cols + extra.cols
            values = values + extra.values
        return (np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64),
                np.asarray(values, dtype=float))

    def to_coo(self, extra: Optional["TripletMatrix"] = None):
        """``scipy.sparse.coo_matrix`` of these triplets (+ an optional
        second accumulator, e.g. the nonlinear companion stamps)."""
        from scipy.sparse import coo_matrix

        rows, cols, values = self._coo_arrays(extra)
        return coo_matrix((values, (rows, cols)), shape=(self.n, self.n))

    def to_csr(self, extra: Optional["TripletMatrix"] = None):
        """CSR form (duplicates summed); never densifies."""
        matrix = self.to_coo(extra).tocsr()
        matrix.sum_duplicates()
        return matrix

    def to_csc(self, extra: Optional["TripletMatrix"] = None):
        """CSC form (what ``splu`` wants); never densifies."""
        matrix = self.to_coo(extra).tocsc()
        matrix.sum_duplicates()
        return matrix

    def compile_pattern(self) -> "CompiledPattern":
        """Freeze the current structure into a reusable :class:`CompiledPattern`.

        The pattern captures the ``(row, col)`` positions (in stamp order)
        without the values, which is what the compile-once/restamp-per-
        scenario pipeline needs: the structural pass records the pattern a
        single time and every scenario afterwards only supplies a fresh
        value array.
        """
        return CompiledPattern(self.n, self.rows, self.cols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TripletMatrix {self.n}x{self.n}, {self.nnz} triplets>"


class CompiledPattern:
    """Frozen COO structure: the (row, col) positions without the values.

    A :class:`TripletMatrix` couples structure and values; the compiled
    pattern splits them apart.  The structure — triplet positions, the
    canonical CSC skeleton derived from them and the triplet-to-CSC
    scatter map — is computed once per circuit topology; each scenario
    then only provides a value array of length :attr:`nnz` (one entry per
    recorded stamp, in stamp order) and pays for a vectorised fill:

    * :meth:`to_dense` replays values with ``np.add.at`` in stamp order,
      bit-for-bit identical to :meth:`TripletMatrix.to_dense`;
    * :meth:`to_csc` scatters values straight into a prebuilt CSC
      skeleton — no COO conversion, no ``sum_duplicates``, no sorting;
    * :meth:`pattern_key` is a stable content hash of the structure, the
      key under which solver backends cache per-pattern artifacts (e.g.
      the SuperLU column ordering).
    """

    __slots__ = ("n", "rows", "cols", "_key", "_csc_structure",
                 "_structural_nnz", "_flat")

    def __init__(self, n: int, rows, cols):
        self.n = int(n)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        if self.rows.shape != self.cols.shape:
            raise ValueError("rows and cols must have the same length")
        self._key: Optional[str] = None
        self._csc_structure: Optional[Tuple] = None
        self._structural_nnz: Optional[int] = None
        #: Each triplet's row-major position in a flattened dense matrix.
        self._flat = self.rows * self.n + self.cols

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of recorded triplets (duplicate positions counted)."""
        return len(self.rows)

    def structural_nnz(self) -> int:
        """Number of distinct matrix positions (duplicates collapsed)."""
        if self._structural_nnz is None:
            self._structural_nnz = len(self._csc()[1])
        return self._structural_nnz

    def density(self) -> float:
        """Fraction of matrix positions with at least one stamp."""
        if self.n == 0:
            return 0.0
        return self.structural_nnz() / float(self.n * self.n)

    def pattern_key(self) -> str:
        """Stable content hash of the *structure* (positions, not values)."""
        if self._key is None:
            digest = hashlib.sha256()
            digest.update(str(self.n).encode("ascii"))
            digest.update(self.rows.tobytes())
            digest.update(self.cols.tobytes())
            self._key = digest.hexdigest()
        return self._key

    # ------------------------------------------------------------------
    def to_dense(self, values, dtype=float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Replay ``values`` (stamp order) into a dense ``(n, n)`` array.

        Identical accumulation order to :meth:`TripletMatrix.to_dense`, so
        the result is bit-for-bit the same as a fresh stamp-and-densify.
        """
        if out is None:
            out = np.zeros((self.n, self.n), dtype=dtype)
        else:
            out[:] = 0.0
        if len(self.rows):
            np.add.at(out, (self.rows, self.cols), values)
        return out

    def _csc(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, scatter): the canonical CSC skeleton plus the
        map from triplet index to CSC data slot (duplicates share a slot)."""
        if self._csc_structure is None:
            if len(self.rows):
                order = np.lexsort((self.rows, self.cols))
                rows = self.rows[order]
                cols = self.cols[order]
                first = np.empty(len(rows), dtype=bool)
                first[0] = True
                first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
                slot_of_sorted = np.cumsum(first) - 1
                scatter = np.empty(len(rows), dtype=np.int64)
                scatter[order] = slot_of_sorted
                indices = rows[first]
                counts = np.bincount(cols[first], minlength=self.n)
                indptr = np.zeros(self.n + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
            else:
                scatter = np.empty(0, dtype=np.int64)
                indices = np.empty(0, dtype=np.int64)
                indptr = np.zeros(self.n + 1, dtype=np.int64)
            self._csc_structure = (indptr, indices, scatter)
        return self._csc_structure

    def _replay_batch(self, values, positions: np.ndarray, width: int,
                      dtype, out: Optional[np.ndarray]) -> np.ndarray:
        """Accumulate a ``(N, nnz)`` value block into ``(N, width)`` rows,
        triplet ``t`` of sample ``k`` landing at ``out[k, positions[t]]``.

        One unbuffered ``np.add.at`` over the flattened block adds every
        sample's triplets in stamp order, so each row is bit for bit the
        scalar replay (``np.add.reduceat`` would sum a slot with eight or
        more contributions pairwise).
        """
        values = np.asarray(values, dtype=dtype)
        if values.ndim != 2 or values.shape[1] != self.nnz:
            raise ValueError(f"expected a (N, {self.nnz}) value block, got "
                             f"shape {values.shape}")
        n_samples = values.shape[0]
        if out is None:
            out = np.zeros((n_samples, width), dtype=dtype)
        else:
            out[:] = 0.0
        if self.nnz:
            offsets = np.arange(0, n_samples * width, width, dtype=np.int64)
            np.add.at(out.reshape(-1), (offsets[:, None] + positions).ravel(),
                      values.ravel())
        return out

    def to_dense_batch(self, values: np.ndarray, dtype=float,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Replay a ``(N, nnz)`` value block into a dense ``(N, n, n)`` stack.

        ``values[k]`` is one scenario's stamp-order value array (the rows
        of a :class:`~repro.analysis.compiled.BatchStampState` block); the
        result stacks every scenario's matrix along a leading sample axis,
        ready for one batched LAPACK call.  Each slice is bit for bit the
        scalar :meth:`to_dense` replay.
        """
        size = self.n * self.n
        flat = None if out is None else out.reshape(out.shape[0], size)
        flat = self._replay_batch(values, self._flat, size, dtype, flat)
        return flat.reshape(-1, self.n, self.n) if out is None else out

    def csc_data_batch(self, values: np.ndarray, dtype=float) -> np.ndarray:
        """The CSC ``data`` arrays for a ``(N, nnz)`` value block, stacked.

        Returns ``(N, structural_nnz)``: row ``k`` is bit for bit
        ``csc_data(values[k])``.  This is the sparse half of the batch
        kernel — :meth:`~repro.linalg.backends.LinearSystem.solve_batch`
        feeds each row to ``refactor`` under one cached symbolic ordering.
        """
        _, indices, scatter = self._csc()
        return self._replay_batch(values, scatter, len(indices), dtype, None)

    def csc_data(self, values, dtype=float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The CSC ``data`` array for ``values`` (stamp order), nothing else.

        This is the per-iteration kernel of the compiled Newton path: the
        CSC skeleton of a :class:`LinearSystem` built from :meth:`to_csc`
        never changes, so refilling it only needs the freshly scattered
        data vector (``LinearSystem.refactor`` accepts it directly).
        """
        indptr, indices, scatter = self._csc()
        if out is None:
            out = np.zeros(len(indices), dtype=dtype)
        else:
            out[:] = 0.0
        if len(scatter):
            np.add.at(out, scatter, np.asarray(values, dtype=dtype))
        return out

    def to_csc(self, values, dtype=float):
        """CSC matrix with ``values`` scattered into the prebuilt skeleton.

        Every call returns a fresh matrix sharing the (immutable) index
        structure; only the data array is allocated per call, so repeated
        restamps of the same topology skip all structural work.
        """
        from scipy.sparse import csc_matrix

        matrix = csc_matrix((self.csc_data(values, dtype=dtype),
                             self._csc()[1], self._csc()[0]),
                            shape=(self.n, self.n))
        matrix.has_canonical_format = True
        return matrix

    def to_csr(self, values, extra: Optional[TripletMatrix] = None):
        """CSR form of the patterned values plus an optional extra
        accumulator (e.g. the nonlinear companion stamps), matching
        :meth:`TripletMatrix.to_csr` exactly."""
        from scipy.sparse import coo_matrix

        rows, cols = self.rows, self.cols
        values = np.asarray(values, dtype=float)
        if extra is not None and extra.values:
            rows = np.concatenate([rows, np.asarray(extra.rows, dtype=np.int64)])
            cols = np.concatenate([cols, np.asarray(extra.cols, dtype=np.int64)])
            values = np.concatenate([values, np.asarray(extra.values, dtype=float)])
        matrix = coo_matrix((values, (rows, cols)), shape=(self.n, self.n)).tocsr()
        matrix.sum_duplicates()
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledPattern {self.n}x{self.n}, {self.nnz} triplets>"
