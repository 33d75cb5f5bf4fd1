"""Tests for compiled patterns, in-place refactorization and the sparse
backend's per-pattern symbolic-ordering cache."""

import numpy as np
import pytest

from repro.analysis import CompiledCircuit
from repro.circuits import rc_ladder, rlc_ladder
from repro.linalg import (
    CompiledPattern,
    LinearSystem,
    SparseBackend,
    TripletMatrix,
    csc_pattern_key,
)


def _triplets():
    trip = TripletMatrix(3)
    trip.add(0, 0, 2.0)
    trip.add(1, 1, 3.0)
    trip.add(0, 1, -1.0)
    trip.add(1, 0, -1.0)
    trip.add(0, 0, 0.5)      # duplicate position
    trip.add(2, 2, 1.0)
    return trip


class TestCompiledPattern:
    def test_dense_matches_triplet_replay(self):
        trip = _triplets()
        pattern = trip.compile_pattern()
        assert np.array_equal(pattern.to_dense(trip.values), trip.to_dense())

    def test_csc_matches_triplet_conversion(self):
        trip = _triplets()
        pattern = trip.compile_pattern()
        reference = trip.to_csc()
        fast = pattern.to_csc(trip.values)
        assert (abs(reference - fast)).max() == 0.0
        # Duplicates collapse: 6 triplets, 5 distinct positions.
        assert pattern.nnz == 6 and pattern.structural_nnz() == 5

    def test_csr_with_extra_accumulator(self):
        trip = _triplets()
        extra = TripletMatrix(3)
        extra.add(2, 0, 4.0)
        extra.add(0, 0, 1.0)
        pattern = trip.compile_pattern()
        reference = trip.to_csr(extra)
        fast = pattern.to_csr(trip.values, extra)
        assert (abs(reference - fast)).max() == 0.0

    def test_pattern_key_tracks_structure_not_values(self):
        a = _triplets().compile_pattern()
        b = _triplets().compile_pattern()
        assert a.pattern_key() == b.pattern_key()
        other = TripletMatrix(3)
        other.add(0, 0, 2.0)
        assert other.compile_pattern().pattern_key() != a.pattern_key()

    def test_empty_pattern(self):
        pattern = CompiledPattern(2, [], [])
        assert pattern.to_dense([]).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert pattern.to_csc([]).nnz == 0
        assert pattern.density() == 0.0
        assert pattern.to_dense_batch(np.zeros((3, 0))).shape == (3, 2, 2)
        assert pattern.csc_data_batch(np.zeros((3, 0))).shape == (3, 0)

    def test_batch_densify_is_bitwise_the_scalar_replay(self):
        # The op-amp's Newton union pattern stacks 8-11 contributions on a
        # few slots, where a pairwise sum would differ from the scalar
        # in-order replay in the last bit.
        from repro.analysis import AnalysisContext
        from repro.circuits import opamp_with_bias

        compiled = CompiledCircuit(opamp_with_bias().circuit)
        compiled.restamp()
        pattern = compiled.newton_program(AnalysisContext(
            variables=dict(compiled.circuit.variables))).pattern
        assert np.bincount(pattern._csc()[2]).max() >= 8
        rng = np.random.default_rng(7)
        values = rng.standard_normal((4, pattern.nnz)) \
            * 10.0 ** rng.uniform(-15.0, 3.0, (4, pattern.nnz))
        dense = pattern.to_dense_batch(values)
        data = pattern.csc_data_batch(values)
        for k in range(len(values)):
            np.testing.assert_allclose(dense[k], pattern.to_dense(values[k]),
                                       rtol=0, atol=0)
            np.testing.assert_allclose(data[k], pattern.csc_data(values[k]),
                                       rtol=0, atol=0)


class TestSymbolicOrderingCache:
    def setup_method(self):
        SparseBackend.clear_symbolic_cache()
        SparseBackend.stats.reset()

    def test_same_pattern_reuses_ordering(self):
        state = CompiledCircuit(rlc_ladder(40).circuit).restamp()
        matrix = state.G_csc() + state.C_csc()
        rhs = np.linspace(1.0, 2.0, matrix.shape[0])
        backend = SparseBackend()
        first = backend.factorize(matrix).solve(rhs)
        assert SparseBackend.stats.symbolic_reuses == 0
        second = backend.factorize(matrix.copy()).solve(rhs)
        assert SparseBackend.stats.symbolic_reuses == 1
        scale = max(float(np.max(np.abs(first))), 1.0)
        assert np.max(np.abs(first - second)) <= 1e-9 * scale

    def test_reused_ordering_handles_matrix_rhs(self):
        state = CompiledCircuit(rc_ladder(60).circuit).restamp()
        matrix = state.G_csc()
        backend = SparseBackend()
        backend.factorize(matrix)
        rhs = np.eye(matrix.shape[0])[:, :4]
        solution = backend.factorize(matrix.copy()).solve(rhs)
        assert SparseBackend.stats.symbolic_reuses == 1
        assert np.max(np.abs(matrix @ solution - rhs)) < 1e-9

    def test_pattern_key_is_structural(self):
        state = CompiledCircuit(rc_ladder(10).circuit).restamp()
        a = state.G_csc()
        b = state.G_csc()
        b.data *= 2.0
        assert csc_pattern_key(a) == csc_pattern_key(b)


class TestLinearSystemRefactor:
    def test_dense_refactor_swaps_values(self):
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        system = LinearSystem(matrix, backend="dense")
        assert system.solve(np.array([2.0, 4.0]))[0] == pytest.approx(1.0)
        system.refactor(np.array([[4.0, 0.0], [0.0, 8.0]]))
        assert not system.is_factorized
        assert system.solve(np.array([2.0, 4.0]))[0] == pytest.approx(0.5)

    def test_sparse_refactor_in_place_by_data_array(self):
        state = CompiledCircuit(rc_ladder(30).circuit).restamp()
        matrix = state.G_csc()
        system = LinearSystem(matrix, backend="sparse")
        rhs = np.ones(matrix.shape[0])
        x1 = system.solve(rhs)
        system.refactor(matrix.data * 2.0)
        x2 = system.solve(rhs)
        assert np.allclose(x1, 2.0 * x2, rtol=1e-9)

    def test_sparse_refactor_same_structure_matrix(self):
        state = CompiledCircuit(rc_ladder(30).circuit).restamp()
        matrix = state.G_csc()
        system = LinearSystem(matrix, backend="sparse")
        rhs = np.ones(matrix.shape[0])
        x1 = system.solve(rhs)
        scaled = matrix * 4.0
        system.refactor(scaled)
        assert np.allclose(system.solve(rhs), x1 / 4.0, rtol=1e-9)

    def test_refactor_keeps_symbolic_cache_warm(self):
        SparseBackend.clear_symbolic_cache()
        SparseBackend.stats.reset()
        state = CompiledCircuit(rc_ladder(50).circuit).restamp()
        system = LinearSystem(state.G_csc(), backend="sparse",
                              pattern_key=state.pattern_G.pattern_key())
        rhs = np.ones(system.size)
        system.solve(rhs)
        system.refactor(system.matrix.data * 3.0)
        system.solve(rhs)
        assert SparseBackend.stats.factorizations == 2
        assert SparseBackend.stats.symbolic_reuses == 1
