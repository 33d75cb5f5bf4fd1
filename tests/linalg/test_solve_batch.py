"""Batched solve kernel: N same-structure systems through one seam.

The dense backend must make a single batched LAPACK call over the
``(N, n, n)`` stack, the sparse backend must loop ``refactor`` under one
cached symbolic ordering, failures must isolate per sample, and
``SolveStats`` must count batch sizes — on results identical (1e-12) to
per-sample solves.
"""

import numpy as np
import pytest

from repro.analysis import CompiledCircuit
from repro.circuit.builder import CircuitBuilder
from repro.linalg import DenseBackend, LinearSystem, SparseBackend


def _tc_ladder(sections: int):
    builder = CircuitBuilder(f"tc ladder ({sections})")
    builder.voltage_source("in", "0", dc=1.0, ac=1.0, name="Vin")
    previous = "in"
    for k in range(1, sections + 1):
        node = f"n{k}"
        builder.resistor(previous, node, 1e3, name=f"R{k}", tc1=1e-3)
        builder.capacitor(node, "0", 1e-12, name=f"C{k}")
        previous = node
    return builder.build()


@pytest.fixture(scope="module")
def batch():
    compiled = CompiledCircuit(_tc_ladder(20))
    return compiled.restamp_batch(temperature=np.linspace(-40.0, 125.0, 6))


def test_dense_batch_matches_per_sample_solves(batch):
    DenseBackend.stats.reset()
    stack = batch.G_dense_batch()
    system = LinearSystem(stack[0], backend="dense",
                          names=batch.compiled.variable_names)
    x, failures = system.solve_batch(stack, batch.b_dc)
    assert not failures
    assert DenseBackend.stats.batch_solves == 1
    assert DenseBackend.stats.batched_systems == len(batch)
    for k in range(len(batch)):
        reference = np.linalg.solve(stack[k], batch.b_dc[k])
        scale = max(float(np.max(np.abs(reference))), 1.0)
        assert np.max(np.abs(x[k] - reference)) <= 1e-12 * scale


def test_sparse_batch_reuses_symbolic_ordering(batch):
    SparseBackend.clear_symbolic_cache()
    SparseBackend.stats.reset()
    pattern = batch.compiled.pattern_G
    system = LinearSystem(pattern.to_csc(batch.g_values[0]), backend="sparse",
                          names=batch.compiled.variable_names,
                          pattern_key=pattern.pattern_key())
    x, failures = system.solve_batch(batch.G_csc_data_batch(), batch.b_dc)
    assert not failures
    stats = SparseBackend.stats
    assert stats.batch_solves == 1
    assert stats.batched_systems == len(batch)
    assert stats.factorizations == len(batch)
    # The first factorization computes the ordering; every later sample
    # of the batch reuses it.
    assert stats.symbolic_reuses == len(batch) - 1
    dense = batch.G_dense_batch()
    for k in range(len(batch)):
        reference = np.linalg.solve(dense[k], batch.b_dc[k])
        scale = max(float(np.max(np.abs(reference))), 1.0)
        assert np.max(np.abs(x[k] - reference)) <= 1e-9 * scale


def test_dense_batch_isolates_singular_samples():
    """One singular matrix in the stack fails alone; its batchmates still
    solve, and the failure carries the named-unknown diagnostic."""
    healthy = np.array([[2.0, -1.0], [-1.0, 2.0]])
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    stack = np.stack([healthy, singular, 3.0 * healthy])
    rhs = np.ones((3, 2))
    system = LinearSystem(healthy, backend="dense", names=["in", "out"])
    x, failures = system.solve_batch(stack, rhs)
    assert set(failures) == {1}
    assert "'out'" in str(failures[1])
    assert np.all(np.isnan(x[1]))
    assert np.allclose(x[0], np.linalg.solve(healthy, rhs[0]))
    assert np.allclose(x[2], np.linalg.solve(3.0 * healthy, rhs[2]))


def test_sparse_batch_isolates_singular_samples():
    from scipy.sparse import csc_matrix

    healthy = csc_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    data = np.stack([healthy.data,
                     np.array([2.0, -1.0, -1.0, 1.0]),
                     np.zeros_like(healthy.data)])
    rhs = np.ones((3, 2))
    system = LinearSystem(healthy, backend="sparse", names=["in", "out"])
    x, failures = system.solve_batch(data, rhs)
    assert set(failures) == {2}
    assert np.all(np.isnan(x[2]))
    dense0 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert np.allclose(x[0], np.linalg.solve(dense0, rhs[0]), rtol=1e-9)


def test_dense_batch_flags_non_finite_samples():
    """Batched LAPACK returns nan rows (without raising) for non-finite
    inputs; solve_batch must surface those as per-sample failures, never
    as solved results."""
    healthy = np.array([[2.0, -1.0], [-1.0, 2.0]])
    poisoned = np.array([[np.nan, 0.0], [0.0, 1.0]])
    stack = np.stack([healthy, poisoned])
    system = LinearSystem(healthy, backend="dense", names=["a", "b"])
    x, failures = system.solve_batch(stack, np.ones((2, 2)))
    assert set(failures) == {1}
    assert "non-finite" in str(failures[1])
    assert np.all(np.isnan(x[1]))
    assert np.allclose(x[0], np.linalg.solve(healthy, np.ones(2)))


def test_dense_batch_broadcasts_single_rhs(batch):
    stack = batch.G_dense_batch()
    system = LinearSystem(stack[0], backend="dense")
    x, failures = system.solve_batch(stack, batch.b_dc[0])
    assert not failures
    assert np.allclose(x[0], np.linalg.solve(stack[0], batch.b_dc[0]))


def test_dense_batch_rejects_wrong_shapes(batch):
    from repro.exceptions import AnalysisError

    stack = batch.G_dense_batch()
    system = LinearSystem(stack[0], backend="dense")
    with pytest.raises(AnalysisError, match="matrix stack"):
        system.solve_batch(batch.g_values, batch.b_dc)


def _hammer(work, threads=6):
    """Run ``work`` on several threads at once with a short switch
    interval, so an unlocked read-modify-write would lose updates."""
    import sys
    import threading

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    return threads


def test_solve_stats_inc_many_is_exact_under_threads():
    from repro.linalg.backends import SolveStats

    stats = SolveStats()
    rounds = 2000

    def work():
        for _ in range(rounds):
            stats.inc_many(batch_solves=1, batched_systems=3, solves=2)
            stats.inc("solves")

    threads = _hammer(work)
    assert stats.batch_solves == threads * rounds
    assert stats.batched_systems == 3 * threads * rounds
    assert stats.solves == 3 * threads * rounds


def test_solve_batch_counts_stay_exact_under_threads(batch):
    stack = batch.G_dense_batch()
    rhs = np.real(batch.b_dc)
    before = DenseBackend.stats.as_dict()
    rounds = 200

    def work():
        system = LinearSystem(stack[0], backend="dense")
        for _ in range(rounds):
            system.solve_batch(stack, rhs)

    calls = _hammer(work) * rounds
    after = DenseBackend.stats.as_dict()
    assert after["batch_solves"] - before["batch_solves"] == calls
    for field in ("batched_systems", "factorizations", "solves"):
        assert after[field] - before[field] == calls * len(batch)
