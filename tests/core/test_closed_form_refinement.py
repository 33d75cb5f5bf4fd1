"""Closed-form eq. 1.3 peak refinement against independent references.

The dominant peak of every node is refined to the minimum of the exact
stability plot ``P = Re[s T'/T + s^2 (T''/T - (T'/T)^2)]``, with ``T``
and its s-derivatives taken from the pencil ``G + sC``.  These tests
hold the derivatives against finite differences, the refined peaks
against a bounded scalar minimizer on per-point LU solves, a screened
sample against the same sample screened alone, and the fallback rules
against their counters.
"""

import types

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from repro import circuits
from repro.analysis.ac import (
    factored_driving_point,
    reduce_pencils,
    reduced_driving_point,
)
from repro.analysis.sweeps import FrequencySweep
from repro.core.all_nodes import (
    AllNodesOptions,
    analyze_all_nodes,
    analyze_all_nodes_batch,
)
from repro.core.impedance import ImpedanceSweeper
from repro.core.peaks import PeakType, dominant_negative_peak
from repro.core.single_node import SingleNodeOptions, analyze_node
from repro.core.stability_plot import (
    BRACKET_STEPS,
    bracketed_minima,
    closed_form_plot,
)
from repro.linalg import resolve_backend
from repro.obs import Tracer, use_tracer
from repro.obs.metrics import global_registry

from tests.analysis.test_ac_batch_stability import (
    ALL_CIRCUITS,
    TEMPS,
    bundled_circuit,
    build_lin,
)

#: The bundled circuits, plus a ladder long enough (38 unknowns) for the
#: dense backend's LU path.
LU_LADDER = ("rlc_ladder", 12)


def mna_like_pencils(seed: int, n_samples: int = 3, n: int = 8):
    """Seeded ``(N, n, n)`` G/C pencils shaped like nodal analysis:
    conductance and capacitance Laplacians with grounded branches, plus
    a few transconductances (which make G unsymmetric)."""
    rng = np.random.default_rng(seed)
    G = np.zeros((n_samples, n, n))
    C = np.zeros_like(G)
    for k in range(n_samples):
        for plane, scale in ((G[k], 1e-3), (C[k], 1e-9)):
            for _ in range(2 * n):
                a, b = rng.choice(n, size=2, replace=False)
                value = scale * 10.0 ** rng.uniform(-1, 1)
                plane[a, a] += value
                plane[b, b] += value
                plane[a, b] -= value
                plane[b, a] -= value
            plane[np.diag_indices(n)] += scale * 10.0 ** rng.uniform(-2, 0, n)
        for _ in range(3):
            a, b = rng.choice(n, size=2, replace=False)
            G[k, a, b] += 1e-3 * rng.uniform(0.5, 2.0)
    return G, C


class _Pencils:
    """The part of a BatchLinearization that factored_driving_point reads."""

    def __init__(self, G, C):
        self._G, self._C = G, C
        self.compiled = types.SimpleNamespace(
            variable_names=[f"n{i}" for i in range(G.shape[1])])

    def sample_dense(self, k):
        return self._G[k], self._C[k]

    def sample_sparse(self, k):
        return (scipy.sparse.csc_matrix(self._G[k]),
                scipy.sparse.csc_matrix(self._C[k]))


def equilibrated_plot(G, C, row):
    """Eq. 1.3 at the points ``ln(f)`` for unknown ``row`` of one pencil,
    by three ``np.linalg.solve`` calls per point on the power-of-two
    equilibrated matrix (the reference's own noise then stays near
    1e-15)."""
    magnitude = np.abs(G) + np.abs(C)
    rows = 2.0 ** -np.frexp(magnitude.max(axis=1))[1]
    cols = 2.0 ** -np.frexp((rows[:, None] * magnitude).max(axis=0))[1]
    Gs = rows[:, None] * G * cols[None, :]
    Cs = rows[:, None] * C * cols[None, :]
    unit = np.zeros(G.shape[0])
    unit[row] = rows[row]

    def plot(u):
        s = 2j * np.pi * np.exp(np.atleast_1d(u))
        A = Gs[None] + s[:, None, None] * Cs[None]
        x0 = np.linalg.solve(A, np.broadcast_to(unit, s.shape + unit.shape)
                             [..., None])[..., 0]
        x1 = np.linalg.solve(A, (x0 @ Cs.T)[..., None])[..., 0]
        x2 = np.linalg.solve(A, (x1 @ Cs.T)[..., None])[..., 0]
        scale = cols[row]
        return closed_form_plot(s, scale * x0[:, row], -scale * x1[:, row],
                                2.0 * scale * x2[:, row])

    return plot


def bracket_minimum(plot, center, half_width, points=2001):
    """``(u, P)`` at the minimum of ``plot`` over ``center ± half_width``:
    a dense scan, then a bounded polish around its best point; ``None``
    when the minimum lies on the bracket's edge."""
    u = np.linspace(center - half_width, center + half_width, points)
    j = int(np.argmin(plot(u)))
    if j in (0, points - 1):
        return None
    reference = scipy.optimize.minimize_scalar(
        lambda x: float(plot(x)[0]), bounds=(u[j - 1], u[j + 1]),
        method="bounded", options={"xatol": 1e-12})
    return reference.x, reference.fun


def counter(name):
    return global_registry().snapshot()["counters"].get(name, 0)


class TestDerivatives:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("path", ["reduced", "dense", "sparse"])
    def test_against_central_differences(self, seed, path):
        G, C = mna_like_pencils(seed)
        samples = np.array([0, 1, 2, 2])
        rows = np.array([0, 3, 5, 7])
        s = 2j * np.pi * np.logspace(3, 7, 5)[None, :].repeat(4, axis=0)

        def evaluate(points):
            if path == "reduced":
                return reduced_driving_point(reduce_pencils(G, C), samples,
                                             rows, points)
            return factored_driving_point(_Pencils(G, C),
                                          resolve_backend(path), samples,
                                          rows, points)

        T, dT, d2T, singular = evaluate(s)
        assert not singular.any()
        # Steps balance truncation against round-off; each derivative is
        # held on the scale of its own row.
        for order, step, rtol in ((1, 1e-4, 1e-6), (2, 1e-3, 1e-4)):
            h = step * np.abs(s)
            up, _, _, _ = evaluate(s + h)
            down, _, _, _ = evaluate(s - h)
            exact, estimate = ((dT, (up - down) / (2 * h)) if order == 1
                               else (d2T, (up - 2 * T + down) / h ** 2))
            scale = np.abs(exact).max(axis=1, keepdims=True)
            assert np.all(np.abs(exact - estimate) <= rtol * scale)

    def test_paths_agree(self):
        G, C = mna_like_pencils(7)
        samples, rows = np.array([0, 1, 2]), np.array([1, 4, 6])
        s = 2j * np.pi * np.logspace(2, 8, 7)[None, :].repeat(3, axis=0)
        reduced = reduced_driving_point(reduce_pencils(G, C), samples, rows,
                                        s)
        for name in ("dense", "sparse"):
            factored = factored_driving_point(
                _Pencils(G, C), resolve_backend(name), samples, rows, s)
            for a, b in zip(reduced[:3], factored[:3]):
                np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_plot_matches_log_magnitude_curvature(self):
        # A second-order section: P peaks at -1/zeta**2 at its natural
        # frequency (eq. 1.4).
        zeta, wn = 0.2, 2 * np.pi * 1e5
        s = 1j * wn * np.array([0.5, 1.0, 2.0])
        d = s * s + 2 * zeta * wn * s + wn * wn
        T = 1.0 / d
        dT = -(2 * s + 2 * zeta * wn) / d ** 2
        d2T = 2 * (2 * s + 2 * zeta * wn) ** 2 / d ** 3 - 2 / d ** 2
        P = closed_form_plot(s, T, dT, d2T)
        u = np.log(np.abs(s))
        ln_mag = lambda x: np.log(np.abs(1 / ((1j * np.exp(x)) ** 2
                                              + 2 * zeta * wn * 1j * np.exp(x)
                                              + wn * wn)))
        h = 1e-4
        numeric = (ln_mag(u + h) - 2 * ln_mag(u) + ln_mag(u - h)) / h ** 2
        np.testing.assert_allclose(P, numeric, rtol=1e-5)
        assert P[1] == pytest.approx(-1 / zeta ** 2, rel=1e-12)


class TestAgainstScalarReference:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("name", ALL_CIRCUITS + ["rlc_ladder_lu"])
    def test_refined_peaks_match_a_bounded_minimizer(self, name, backend):
        # Every dominant peak is held against the minimum of eq. 1.3 over
        # its whole bracket: the refined peak must be that minimum, and a
        # peak the search left coarse must have its minimum on the edge.
        if name == "rlc_ladder_lu":
            circuit = getattr(circuits, LU_LADDER[0])(LU_LADDER[1]).circuit
        else:
            circuit = bundled_circuit(name)
        result = analyze_all_nodes(circuit, AllNodesOptions(backend=backend))
        sweeper = ImpedanceSweeper(circuit, op=result.op, backend=backend)
        G, C = sweeper._lin.sample_dense(0)
        if name == "rlc_ladder_lu":
            assert G.shape[0] > 32 and sweeper.reduction() is None
        grid = np.log(FrequencySweep.coerce(None).frequencies)
        steps = np.gradient(grid)
        refined = 0
        for node in result.results:
            coarse = dominant_negative_peak(node.peaks)
            if coarse is None:
                continue
            plot = equilibrated_plot(G, C, sweeper.compiled.index_of(node.node))
            reference = bracket_minimum(plot, grid[coarse.index],
                                        BRACKET_STEPS * steps[coarse.index])
            if reference is None:
                assert node.refine_fallback == "edge_minimum", node.node
                assert node.dominant_peak is coarse
                continue
            assert node.refine_fallback is None, node.node
            assert node.natural_frequency_hz == pytest.approx(
                np.exp(reference[0]), rel=1e-6), node.node
            assert node.performance_index == pytest.approx(
                reference[1], rel=1e-6), node.node
            assert node.performance_index <= coarse.value
            expected = (PeakType.MIN_MAX if coarse.peak_type is PeakType.MIN_MAX
                        else PeakType.NORMAL)
            assert node.peak_type is expected
            refined += 1
        if name in ("parallel_rlc", "opamp_buffer", "rlc_ladder_lu"):
            assert refined

    def test_ladder_resonances_narrower_than_the_first_round(self):
        # n11 of the 12-section ladder resonates at zeta ~ 0.008, well
        # inside one first-round spacing (2.9 % in frequency): only the
        # search seeded at the pole pair sees the -15,393 peak.
        circuit = circuits.rlc_ladder(12).circuit
        node = analyze_all_nodes(circuit).node_result("n11")
        assert node.performance_index == pytest.approx(-15393, rel=1e-3)
        assert node.natural_frequency_hz == pytest.approx(98.4e6, rel=1e-3)


class TestDeterminism:
    @pytest.mark.parametrize("name", ["opamp_buffer", "bias_circuit",
                                      "source_follower"])
    def test_screened_sample_equals_the_sample_alone(self, name):
        circuit = bundled_circuit(name)
        compiled, _, ops, lin = build_lin(circuit, TEMPS, "dense")
        options = [AllNodesOptions(temperature=t) for t in TEMPS]
        together = analyze_all_nodes_batch(circuit, options, ops, lin)
        for k in range(len(TEMPS)):
            (alone,) = analyze_all_nodes_batch(circuit, [options[k]],
                                               [ops[k]], lin.take([k]))
            for a, b in zip(together[k].results, alone.results):
                assert a.performance_index == b.performance_index
                assert a.natural_frequency_hz == b.natural_frequency_hz
                if a.refined_plot is not None:
                    assert np.array_equal(a.refined_plot.x, b.refined_plot.x)
                    assert np.array_equal(a.refined_plot.y, b.refined_plot.y)

    def test_single_node_refines_like_all_nodes(self):
        design = circuits.opamp_buffer()
        screen = analyze_all_nodes(design.circuit)
        for node in ("output", "first"):
            alone = analyze_node(design.circuit, node, SingleNodeOptions(),
                                 op=screen.op)
            same = screen.node_result(node)
            assert alone.performance_index == pytest.approx(
                same.performance_index, rel=1e-9)
            assert alone.natural_frequency_hz == pytest.approx(
                same.natural_frequency_hz, rel=1e-9)
            assert len(alone.refined_plot) == len(same.refined_plot)


class TestFallbacks:
    def test_search_reasons(self):
        centers = np.zeros(4)
        half_widths = np.full(4, 0.1)

        def evaluate(rows, u):
            values = (u - 0.01) ** 2        # interior minimum at 0.01
            values[rows == 1] = u[rows == 1]               # falls to the left
            values[rows == 2] = np.where(u[rows == 2] > 0, np.nan, 1.0)
            return values, np.broadcast_to((rows == 3)[:, None], u.shape)

        u, _, _, _, reasons = bracketed_minima(evaluate, centers, half_widths)
        assert reasons == [None, "edge_minimum", "non_finite", "singular"]
        assert u[0] == pytest.approx(0.01, abs=1e-9)

    def test_a_pole_pair_seeds_a_search_of_its_own(self):
        # A zeta = 0.002 resonance 0.0113 from the nearest of the nine
        # first-round points, where eq. 1.3 is already positive: only a
        # search seeded at the pole pair finds it.
        zeta, pole = 0.002, 0.0137

        def evaluate(rows, u):
            v = u - pole
            resonance = -(zeta ** 2 - v ** 2) / (zeta ** 2 + v ** 2) ** 2
            return resonance + 100.0 * (u + 0.05) ** 2, np.zeros(u.shape, bool)

        centers, half_widths = np.zeros(1), np.full(1, 0.1)
        u, _, _, _, _ = bracketed_minima(evaluate, centers, half_widths)
        assert abs(u[0] - pole) > 0.01
        u, value, points, _, reasons = bracketed_minima(
            evaluate, centers, half_widths, np.array([[0, pole, zeta]]))
        assert reasons == [None]
        assert u[0] == pytest.approx(pole, abs=1e-6)
        assert value[0] == pytest.approx(
            float(evaluate(None, u)[0][0]), rel=1e-12)
        assert value[0] < -0.99 / zeta ** 2
        # A well-damped pole pair, or one outside the bracket, seeds none.
        for far in ([0, 0.05, 0.5], [0, 0.2, zeta]):
            _, _, more, _, _ = bracketed_minima(
                evaluate, centers, half_widths, np.array([far]))
            assert more.shape[1] < points.shape[1]

    def test_edge_minimum_is_counted_and_keeps_the_coarse_peak(self):
        # The divider's mid node sees the undamped series-LC zero pair:
        # eq. 1.3 falls without bound toward it, past the bracket's edge.
        before = counter("core.refine.fallbacks.edge_minimum")
        result = analyze_all_nodes(circuits.series_rlc_divider().circuit)
        assert counter("core.refine.fallbacks.edge_minimum") == before + 1
        mid = result.node_result("mid")
        assert mid.dominant_peak is dominant_negative_peak(mid.peaks)
        assert mid.refine_fallback == "edge_minimum"
        assert mid.refined_plot is not None
        # The coarse peak does not pull the loop off the refined one.
        (loop,) = [loop for loop in result.loops if mid in loop.nodes]
        out = result.node_result("out")
        assert out in loop.nodes and out.refine_fallback is None
        assert loop.natural_frequency_hz == out.natural_frequency_hz

    def test_refine_span_and_counters(self):
        before = counter("core.refine.evaluations")
        tracer = Tracer()
        with use_tracer(tracer):
            result = analyze_all_nodes(circuits.opamp_buffer().circuit)
        (span,) = [s for s in tracer.spans() if s.name == "core.refine"]
        refined = sum(1 for r in result.results
                      if r.refined_plot is not None)
        assert span.attrs["peaks"] == refined
        assert counter("core.refine.evaluations") - before \
            == span.attrs["evaluations"]
        assert span.attrs["evaluations"] >= 10 * refined

    def test_refine_off_leaves_the_coarse_peak(self):
        result = analyze_all_nodes(circuits.opamp_buffer().circuit,
                                   AllNodesOptions(refine=False))
        for node in result.results:
            assert node.refined_plot is None
            assert node.dominant_peak is dominant_negative_peak(node.peaks)
