"""The reduced AC sweep (equilibrated QZ once, triangular solves per
frequency) against per-frequency ``np.linalg.solve``.

Covers the kernel's accuracy on random circuit-like pencils (singular
``C``, gmin next to large conductances), its bit-level contracts
(``select=`` vs full output, scalar vs batch of one, a reduction reused
through ``take()`` vs a fresh one), per-sample isolation of singular
pencils and singular frequencies, and the in-program pole cross-check
of the batched all-nodes screen.
"""

import collections

import numpy as np
import pytest
import scipy.linalg

from repro.analysis.ac import (
    reduce_pencils,
    solve_ac_stacked,
    solve_ac_stacked_batch,
)
from repro.analysis.compiled import compile_circuit, linearize_batch
from repro.analysis.sweeps import log_sweep
from repro.circuit.builder import CircuitBuilder
from repro.circuits import opamp_buffer, rc_ladder
from repro.core.all_nodes import (
    AllNodesOptions,
    analyze_all_nodes,
    analyze_all_nodes_batch,
    pole_mismatches,
)
from repro.core.loops import Loop
from repro.exceptions import SingularMatrixError
from repro.obs.metrics import global_registry

from test_ac_batch_stability import (
    ALL_CIRCUITS,
    TEMPS,
    build_lin,
    bundled_circuit,
)

FREQS = np.logspace(0, 9, 19)


def circuit_pencil(rng, n, large=False):
    """A random MNA-like ``(G, C)``: a conductance tree to ground plus
    extra branches (1 mS to 1 S), transconductances, a 1e-12 gmin on
    every node and capacitors on half the nodes (so ``C`` is singular).
    ``large`` adds two 1 kS conductances — gmin then sits fifteen
    decades below the largest entry, as in the open-loop op-amp."""
    G = np.zeros((n + 1, n + 1))
    C = np.zeros((n + 1, n + 1))

    def branch(M, a, b, value):
        M[a, a] += value
        M[b, b] += value
        M[a, b] -= value
        M[b, a] -= value

    for a in range(n):                      # node n is ground
        branch(G, a, int(rng.integers(a + 1, n + 1)),
               10.0 ** rng.uniform(-3, 0))
    for _ in range(n // 2):
        a, b = rng.integers(0, n + 1, 2)
        if a != b:
            branch(G, a, b, 10.0 ** rng.uniform(-3, 0))
    if large:
        for _ in range(2):
            a, b = rng.integers(0, n + 1, 2)
            if a != b:
                branch(G, a, b, 1e3)
    for a in rng.choice(n, size=max(1, n // 2), replace=False):
        branch(C, a, int(rng.integers(0, n + 1)), 10.0 ** rng.uniform(-12, -10))
    G, C = G[:n, :n], C[:n, :n]
    G += 1e-12 * np.eye(n)
    for _ in range(n // 2):
        a, b = rng.integers(0, n, 2)
        G[a, b] += 10.0 ** rng.uniform(-3, 0) * rng.choice([-1.0, 1.0])
    return G, C


def lu_reference(G, C, rhs, freqs):
    return np.array([np.linalg.solve(G + 2j * np.pi * f * C, rhs)
                     for f in freqs])


def driving_point_error(X, ref):
    """Worst relative error of the diagonal (driving-point) entries whose
    magnitude is above 1e-9 of the largest."""
    got = np.diagonal(X, axis1=-2, axis2=-1)
    want = np.diagonal(ref, axis1=-2, axis2=-1)
    mask = np.abs(want) > 1e-9 * np.abs(want).max()
    return float(np.max(np.abs(got - want)[mask] / np.abs(want)[mask]))


def counter(name):
    return global_registry().counter(name).value


class TestAgainstLU:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_pencils_with_singular_c(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        G, C = circuit_pencil(rng, n)
        assert np.linalg.matrix_rank(C) < n
        X = solve_ac_stacked(G, C, np.eye(n), FREQS, backend="dense")
        ref = lu_reference(G, C, np.eye(n), FREQS)
        assert driving_point_error(X, ref) <= 1e-9
        assert np.max(np.abs(X - ref)) <= 1e-9 * np.max(np.abs(ref))

    @pytest.mark.parametrize("seed", range(40))
    def test_badly_scaled_pencils(self, seed):
        # An orthogonal reduction is normwise stable: entries far below
        # the largest one of the solution carry errors LU's pivoting
        # avoids.  Measured over 300 such pencils: whole solution within
        # 1e-9 of its largest entry, driving-point entries within 8.3e-9
        # relative (62 of 5700 points above 1e-9).
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        G, C = circuit_pencil(rng, n, large=True)
        X = solve_ac_stacked(G, C, np.eye(n), FREQS, backend="dense")
        ref = lu_reference(G, C, np.eye(n), FREQS)
        assert driving_point_error(X, ref) <= 1e-7
        assert np.max(np.abs(X - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_open_loop_opamp(self):
        # cond(G + jwC) reaches 1e17 here; without equilibration the QZ
        # is 9e2 relatively wrong on these impedances.
        compiled, _, _, lin = build_lin(bundled_circuit("opamp_open_loop"),
                                        TEMPS, "dense")
        nodes = [compiled.index_of(name) for name in compiled.node_names]
        rhs = np.eye(compiled.size)[:, nodes]
        select = [(row, column) for column, row in enumerate(nodes)]
        data, failures = solve_ac_stacked_batch(lin, rhs, FREQS,
                                                backend="dense",
                                                select=select)
        assert not failures
        for k in range(len(TEMPS)):
            G, C = lin.sample_dense(k)
            ref = lu_reference(G, C, rhs, FREQS)[:, nodes, range(len(nodes))]
            mask = np.abs(ref) > 1e-9 * np.abs(ref).max()
            error = np.abs(data[k] - ref)[mask] / np.abs(ref)[mask]
            assert float(error.max()) <= 1e-9


class TestBitContracts:
    def test_select_equals_full_output(self):
        compiled, _, _, lin = build_lin(bundled_circuit("opamp_buffer"),
                                        TEMPS, "dense")
        n = compiled.size
        rng = np.random.default_rng(7)
        rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        freq = log_sweep(1e2, 1e8, 5)
        full, _ = solve_ac_stacked_batch(lin, rhs, freq, backend="dense")
        # Repeated, off-diagonal and out-of-order pairs.
        select = [(3, 2), (0, 0), (n - 1, 2), (0, 3), (5, 1), (3, 2)]
        picked, _ = solve_ac_stacked_batch(lin, rhs, freq, backend="dense",
                                           select=select)
        for j, (row, col) in enumerate(select):
            assert np.array_equal(picked[:, :, j], full[:, :, row, col])

    def test_scalar_sweep_is_a_batch_of_one(self):
        compiled, _, _, lin = build_lin(bundled_circuit("opamp_buffer"),
                                        TEMPS, "dense")
        rhs = np.eye(compiled.size)[:, :3]
        freq = log_sweep(1e2, 1e8, 7)
        for k in range(len(TEMPS)):
            G, C = lin.sample_dense(k)
            scalar = solve_ac_stacked(G, C, rhs, freq, backend="dense")
            batched, _ = solve_ac_stacked_batch(lin.take([k]), rhs, freq,
                                                backend="dense")
            assert np.array_equal(scalar, batched[0])

    def test_reduction_is_shared_through_take(self, monkeypatch):
        compiled, _, _, lin = build_lin(bundled_circuit("opamp_buffer"),
                                        [27.0, 55.0, 85.0], "dense")
        rhs = np.eye(compiled.size)[:, :2]
        freq = log_sweep(1e5, 1e7, 20)
        parent = lin.reduction()
        assert lin.reduction() is parent              # cached
        calls = []
        real_qz = scipy.linalg.qz
        monkeypatch.setattr(scipy.linalg, "qz",
                            lambda *a, **k: calls.append(1) or real_qz(*a, **k))
        sub = lin.take([2, 0])
        reused, _ = solve_ac_stacked_batch(sub, rhs, freq, backend="dense")
        assert not calls                              # no new QZ
        fresh = uncached_copy(lin).take([2, 0])
        recomputed, _ = solve_ac_stacked_batch(fresh, rhs, freq,
                                               backend="dense")
        assert len(calls) == 2                        # one QZ per sample
        assert np.array_equal(reused, recomputed)
        for name in ("S", "T", "QH", "Z"):
            assert np.array_equal(getattr(sub.reduction(), name),
                                  getattr(fresh.reduction(), name))

    def test_new_planes_drop_the_cached_reduction(self):
        compiled, _, _, lin = build_lin(bundled_circuit("parallel_rlc"),
                                        TEMPS, "dense")
        first = lin.reduction()
        lin.c_values = lin.c_values * 2.0
        assert lin.reduction() is not first


def uncached_copy(lin):
    """The same planes in a BatchLinearization with no cached reduction."""
    return type(lin)(lin.compiled, lin.pattern, lin.cap_pattern,
                     lin.g_values.copy(), lin.c_values.copy(), lin.b_ac,
                     lin.temperatures, lin.gmins, dict(lin.failures))


def rc_lin(samples):
    """Two RC sections driven by an AC current: ``C`` is invertible."""
    builder = CircuitBuilder("rc pair")
    builder.current_source("0", "a", ac=1.0, name="I1")
    builder.resistor("a", "0", 1e3, name="R1")
    builder.capacitor("a", "0", 1e-9, name="C1")
    builder.resistor("a", "b", 1e3, name="R2")
    builder.capacitor("b", "0", 1e-9, name="C2")
    compiled = compile_circuit(builder.build())
    batch = compiled.restamp_batch(temperature=[27.0] * samples)
    return compiled, linearize_batch(batch)


class TestSingularSamples:
    def test_singular_pencil_fails_its_sample_at_reduction(self):
        compiled, lin = rc_lin(3)
        lin.g_values = lin.g_values.copy()
        lin.c_values = lin.c_values.copy()
        lin.g_values[1] = 0.0
        lin.c_values[1] = 0.0
        rhs = np.eye(compiled.size)
        freq = log_sweep(1e3, 1e7, 5)
        before = counter("ac.sweep_failures.singular_pencil")
        data, failures = solve_ac_stacked_batch(lin, rhs, freq,
                                                backend="dense")
        assert list(failures) == [1]
        assert isinstance(failures[1], SingularMatrixError)
        assert "every frequency" in str(failures[1])
        assert counter("ac.sweep_failures.singular_pencil") == before + 1
        assert np.all(np.isnan(data[1]))
        for k in (0, 2):
            G, C = lin.sample_dense(k)
            ref = lu_reference(G, C, rhs, freq)
            assert np.max(np.abs(data[k] - ref)) <= 1e-12 * np.max(np.abs(ref))
        # Reused reduction: the failure is reported again, not recomputed.
        again, failures = solve_ac_stacked_batch(lin, rhs, freq,
                                                 backend="dense")
        assert list(failures) == [1]
        assert counter("ac.sweep_failures.singular_pencil") == before + 1

    def test_zero_pivot_names_the_first_bad_frequency(self):
        compiled, lin = rc_lin(3)
        lin.g_values = lin.g_values.copy()
        lin.g_values[2] = 0.0               # G = 0: singular at f = 0 only
        rhs = np.eye(compiled.size)
        freq = np.array([1e3, 0.0, 1e6, 0.0])
        before = counter("ac.sweep_failures.singular_frequency")
        data, failures = solve_ac_stacked_batch(lin, rhs, freq,
                                                backend="dense")
        assert list(failures) == [2]
        assert isinstance(failures[2], SingularMatrixError)
        assert "singular at 0 Hz" in str(failures[2])
        assert counter("ac.sweep_failures.singular_frequency") == before + 1
        assert np.all(np.isnan(data[2]))
        for k in (0, 1):
            G, C = lin.sample_dense(k)
            ref = lu_reference(G, C, rhs, freq)
            assert np.max(np.abs(data[k] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_non_finite_plane_is_counted(self):
        compiled, lin = rc_lin(2)
        lin.c_values = lin.c_values.copy()
        lin.c_values[0, 0] = np.inf
        before = counter("ac.sweep_failures.non_finite_matrix")
        data, failures = solve_ac_stacked_batch(lin, np.eye(compiled.size),
                                                [1e3], backend="dense")
        assert list(failures) == [0]
        assert counter("ac.sweep_failures.non_finite_matrix") == before + 1

    def test_reduce_pencils_flags_only_the_singular_pencil(self):
        G = np.stack([np.eye(3), np.diag([1.0, 0.0, 1.0])])
        C = np.stack([np.eye(3), np.diag([1.0, 0.0, 0.0])])
        reduction = reduce_pencils(G, C)
        assert list(reduction.failures) == [1]
        np.testing.assert_allclose(np.sort(reduction.poles(0).real),
                                   [-1.0, -1.0, -1.0])


#: Loops whose stability-plot estimate misses the nearest complex pole
#: pair by more than 3 % in natural frequency or 5 % in damping ratio.
#: The bias loops (about 0.45 damping) sit 3.0-4.5 % below the pole
#: pair's natural frequency; the source follower's damping ratio is 6 %
#: high.  The cross-check exists to surface exactly these.
KNOWN_MISMATCHES = {
    "bias_circuit": {"bline", "fbase"},
    "opamp_with_bias": {"bias_fbase"},
    "source_follower": {"out"},
}


def mismatch_counts():
    return {name: value for name, value
            in global_registry().snapshot()["counters"].items()
            if name.startswith("verdict.pole_mismatch.")}


class TestPoleCrossCheck:
    @pytest.mark.parametrize("name", ALL_CIRCUITS)
    def test_counter_matches_an_independent_pole_analysis(self, name):
        circuit = bundled_circuit(name)
        compiled, _, ops, lin = build_lin(circuit, TEMPS, "dense")
        options = [AllNodesOptions(temperature=t, backend="dense")
                   for t in TEMPS]
        before = mismatch_counts()
        results = analyze_all_nodes_batch(circuit, options, ops, lin)
        after = mismatch_counts()
        prefix = "verdict.pole_mismatch."
        fired = collections.Counter({
            counter_name[len(prefix):]: value - before.get(counter_name, 0)
            for counter_name, value in after.items()
            if value != before.get(counter_name, 0)})
        expected = collections.Counter()
        for k, result in enumerate(results):
            G, C = lin.sample_dense(k)
            poles = scipy.linalg.eig(-G, C, right=False)
            poles = poles[np.isfinite(poles)]
            expected.update(pole_mismatches(result, poles))
        assert fired == expected
        assert set(fired) == KNOWN_MISMATCHES.get(name, set())

    def test_a_damping_error_fires_the_counter(self, monkeypatch):
        circuit = bundled_circuit("opamp_buffer")
        compiled, _, ops, lin = build_lin(circuit, TEMPS, "dense")
        options = [AllNodesOptions(temperature=t, backend="dense")
                   for t in TEMPS]
        before = mismatch_counts()
        analyze_all_nodes_batch(circuit, options, ops, lin)
        assert mismatch_counts() == before
        honest = Loop.damping_ratio.fget
        monkeypatch.setattr(Loop, "damping_ratio",
                            property(lambda loop: 1.2 * honest(loop)))
        results = analyze_all_nodes_batch(circuit, options, ops, lin)
        worst = {result.worst_loop().worst_node.node for result in results}
        after = mismatch_counts()
        for node in worst:
            key = f"verdict.pole_mismatch.{node}"
            assert after[key] - before.get(key, 0) == len(TEMPS)

    @pytest.mark.parametrize("factory, reductions", [
        (lambda: rc_ladder(60), 0),     # LU sweep: no QZ for the poles
        (opamp_buffer, 1),              # reduced sweep: its QZ serves both
    ])
    def test_cross_check_pays_no_extra_reduction(self, factory, reductions,
                                                 monkeypatch):
        import repro.analysis.ac as ac_module

        real = ac_module.reduce_pencils
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(ac_module, "reduce_pencils", counting)
        analyze_all_nodes(factory().circuit, AllNodesOptions(backend="dense"))
        assert len(calls) == reductions


class TestLargeDenseSystems:
    def test_lu_path_above_the_crossover(self):
        from repro.analysis.ac import REDUCED_SWEEP_MAX_SIZE
        from repro.circuits import rc_ladder

        circuit = rc_ladder(REDUCED_SWEEP_MAX_SIZE).circuit
        compiled, _, _, lin = build_lin(circuit, TEMPS, "dense")
        assert compiled.size > REDUCED_SWEEP_MAX_SIZE
        lin.g_values = lin.g_values.copy()
        lin.c_values = lin.c_values.copy()
        lin.g_values[0] = 0.0
        lin.c_values[0] = 0.0
        rhs = np.eye(compiled.size)[:, :3]
        freq = log_sweep(1e3, 1e7, 3)
        data, failures = solve_ac_stacked_batch(lin, rhs, freq,
                                                backend="dense")
        assert list(failures) == [0]
        assert "singular at" in str(failures[0])
        assert np.all(np.isnan(data[0]))
        G, C = lin.sample_dense(1)
        ref = lu_reference(G, C, rhs, freq)
        assert np.array_equal(data[1], ref)
        assert np.array_equal(
            solve_ac_stacked(G, C, rhs, freq, backend="dense"), ref)
