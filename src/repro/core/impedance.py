"""Fast multi-node driving-point impedance sweeps.

The all-nodes run needs the self-response of *every* node to an injected
AC current.  Done naively that is one AC analysis per node, each of which
factorises the same ``(G + jwC)`` matrix at every frequency.  Because the
matrix does not depend on where the current is injected — only the
right-hand side does — one factorisation (or one QZ reduction) can serve
all nodes at once, and the whole sweep is handed to the solver as one
stacked batch (:func:`repro.analysis.ac.solve_ac_stacked_batch`): one QZ
reduction of each sample's pencil and a triangular solve per frequency
on the dense backend, one SuperLU factorization per frequency (shared by
every injection column) on the sparse backend — see
``docs/solver-backends.md``.  This gives results numerically identical
to the one-node-at-a-time path (which the tests verify) at a fraction of
the cost.

:class:`BatchImpedanceSweeper` sweeps a whole linearized sample batch;
:class:`ImpedanceSweeper` linearizes one circuit at its bias point and
is that sweeper over a batch of one — the engine behind
:func:`repro.core.all_nodes.analyze_all_nodes`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.ac import (
    REDUCED_SWEEP_MAX_SIZE,
    factored_driving_point,
    reduce_pencils,
    reduced_driving_point,
    solve_ac_stacked_batch,
)
from repro.analysis.compiled import BatchLinearization, CompiledCircuit
from repro.analysis.context import AnalysisContext
from repro.analysis.mna import MNASystem
from repro.analysis.op import NewtonOptions, operating_point
from repro.analysis.results import OPResult
from repro.circuit.netlist import Circuit
from repro.exceptions import StabilityAnalysisError
from repro.linalg import AUTO_SPARSE_MIN_SIZE, resolve_backend
from repro.linalg.triplets import CompiledPattern
from repro.waveform.waveform import Waveform

__all__ = ["BatchImpedanceSweeper", "ImpedanceSweeper"]


#: Off the reduced path, the peak search takes its seeding poles from a
#: QZ of each sample's dense pencil below this many unknowns; larger
#: systems search unseeded.
POLE_SEED_MAX_SIZE = AUTO_SPARSE_MIN_SIZE


class BatchImpedanceSweeper:
    """Driving-point impedances of many nodes for a whole sample batch.

    It holds a :class:`~repro.analysis.compiled.BatchLinearization` —
    N samples' small-signal planes over one shared pattern — and
    :meth:`impedance_cube` computes the full ``(N, nodes, F)`` impedance
    cube in stacked batch solves: on the dense backend one reduced sweep
    covers every sample, frequency and injection column together, over
    QZ reductions cached on ``lin`` (so the peak search reuses them);
    on the sparse backend every factorization of the batch shares one
    cached symbolic ordering.

    :meth:`driving_point_derivatives` evaluates the impedance and its
    s-derivatives at arbitrary points for the closed-form peak search;
    :meth:`sample_impedances` is the one-sample view of the cube.
    """

    def __init__(self, lin: BatchLinearization,
                 backend: Optional[str] = None):
        self._lin = lin
        self.compiled = lin.compiled
        density = max(lin.pattern.density(), lin.cap_pattern.density())
        self._backend = resolve_backend(backend, size=self.compiled.size,
                                        density=density)

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self._lin)

    @property
    def node_names(self) -> List[str]:
        return list(self.compiled.node_names)

    def has_node(self, node: str) -> bool:
        return node in self.compiled.node_names

    def reduction(self):
        """The batch's cached QZ reduction when the sweep runs the reduced
        path (its :meth:`~repro.analysis.ac.PencilReduction.poles` are
        every sample's natural frequencies); ``None`` on the sparse path
        and above :data:`~repro.analysis.ac.REDUCED_SWEEP_MAX_SIZE`
        unknowns, where the sweep factors per frequency and a reduction
        would be computed for the poles alone."""
        if self._backend.name == "sparse" \
                or self.compiled.size > REDUCED_SWEEP_MAX_SIZE:
            return None
        return self._lin.reduction()

    def poles(self, sample: int) -> np.ndarray:
        """Sample ``sample``'s finite poles [rad/s], which seed the peak
        search: from the cached reduction on the reduced path, else from
        a QZ of its dense pencil below :data:`POLE_SEED_MAX_SIZE`
        unknowns; none above, or when the pencil is singular."""
        reduction, row = self.reduction(), sample
        if reduction is None and self.compiled.size < POLE_SEED_MAX_SIZE:
            G, C = self._lin.sample_dense(sample)
            reduction, row = reduce_pencils(G[None], C[None]), 0
        if reduction is None or row in reduction.failures:
            return np.empty(0, dtype=complex)
        return reduction.poles(row)

    def driving_point_derivatives(self, samples: np.ndarray,
                                  rows: np.ndarray, s: np.ndarray) -> tuple:
        """``Z``, ``dZ/ds``, ``d2Z/ds2`` and a singular-point mask at the
        ``(P, E)`` points ``s``, row ``p`` at unknown ``rows[p]`` of sample
        ``samples[p]``: through the cached QZ form on the reduced path,
        else one factorization of ``G + sC`` per point."""
        reduction = self.reduction()
        if reduction is not None:
            return reduced_driving_point(reduction, samples, rows, s)
        return factored_driving_point(self._lin, self._backend, samples,
                                      rows, s)

    def _injection_rhs(self, nodes: Sequence[str]):
        unknown = [n for n in nodes if not self.has_node(n)]
        if unknown:
            raise StabilityAnalysisError(
                f"nodes not present in the circuit: {unknown}")
        indices = [self.compiled.index_of(n) for n in nodes]
        rhs = np.zeros((self.compiled.size, len(nodes)), dtype=complex)
        for column, index in enumerate(indices):
            rhs[index, column] = 1.0
        return indices, rhs

    # ------------------------------------------------------------------
    def impedance_cube(self, nodes: Sequence[str],
                       frequencies: Sequence[float],
                       samples: Optional[Sequence[int]] = None) -> tuple:
        """The ``(N, nodes, F)`` complex impedance cube, batched.

        ``cube[k, c]`` is sample ``k``'s driving-point impedance of
        ``nodes[c]`` over the sweep.  Also returns the failure map
        (linearization failures plus per-sample singular frequency
        points); failed samples' slabs are NaN.

        ``samples`` restricts the solve to a subset of the batch: the
        cube's first axis then follows the given order — ``cube[p]``
        belongs to ``samples[p]`` — while the failure map keeps the
        *original* sample indices.
        """
        nodes = list(nodes)
        freq = np.asarray(frequencies, dtype=float)
        if freq.ndim != 1 or len(freq) < 1:
            raise StabilityAnalysisError("at least one frequency is required")
        indices, rhs = self._injection_rhs(nodes)
        select = [(index, column) for column, index in enumerate(indices)]
        lin = self._lin if samples is None else self._lin.take(samples)
        data, failures = solve_ac_stacked_batch(
            lin, rhs, freq, backend=self._backend, select=select)
        if samples is not None:
            failures = {int(samples[position]): exc
                        for position, exc in failures.items()}
        return np.swapaxes(data, 1, 2), failures

    def sample_impedances(self, index: int, nodes: Sequence[str],
                          frequencies: Sequence[float]) -> Dict[str, np.ndarray]:
        """One sample's impedance sweep: a batch of one through
        :meth:`impedance_cube`, so it reuses the batch's reduction."""
        if index in self._lin.failures:
            raise self._lin.failures[index]
        nodes = list(nodes)
        cube, failures = self.impedance_cube(nodes, frequencies,
                                             samples=[index])
        if index in failures:
            raise failures[index]
        return {node: cube[0, column] for column, node in enumerate(nodes)}


class ImpedanceSweeper(BatchImpedanceSweeper):
    """Driving-point impedances of many nodes of one circuit: a batch of one.

    The circuit is copied with every AC stimulus zeroed (the tool's
    auto-zero) and linearised once at its bias point by
    :meth:`~repro.analysis.mna.MNASystem.small_signal_matrices`, which,
    unlike :func:`~repro.analysis.compiled.linearize_batch`, also takes
    circuits whose companion structure depends on values.  The matrices
    become a one-sample :class:`~repro.analysis.compiled.BatchLinearization`
    over patterns taken from their coordinates.

    ``compiled`` (a :class:`~repro.analysis.compiled.CompiledCircuit` of
    the flattened circuit) skips the copy: the sweeper never reads the
    stamped AC stimuli, so the shared structure is restamped directly
    (the Monte Carlo fast path).
    """

    def __init__(self, circuit: Optional[Circuit],
                 temperature: float = 27.0,
                 gmin: float = 1e-12,
                 variables: Optional[Dict[str, float]] = None,
                 op: Optional[OPResult] = None,
                 newton: Optional[NewtonOptions] = None,
                 backend: Optional[str] = None,
                 compiled: Optional[CompiledCircuit] = None):
        if compiled is not None:
            working = compiled.circuit
        else:
            working = circuit.flattened().copy()
            working.zero_all_ac_sources()

        ctx = AnalysisContext(temperature=temperature, gmin=gmin,
                              variables=dict(working.variables))
        if variables:
            ctx.update_variables(variables)
        system = MNASystem(working, ctx, backend=backend, compiled=compiled)
        system.stamp()

        if op is None:
            op = operating_point(working, temperature=temperature,
                                 variables=variables, options=newton,
                                 system=system)
        self.op = op

        G, C = (matrix.tocoo() for matrix in system.small_signal_matrices(
            op.values_for(system.variable_names), form="sparse"))
        n = system.size
        lin = BatchLinearization(
            system.compiled, CompiledPattern(n, G.row, G.col),
            CompiledPattern(n, C.row, C.col), G.data[None], C.data[None],
            np.zeros((1, n), dtype=complex), np.array([temperature]),
            np.array([gmin]))
        super().__init__(lin, backend=system.backend)

    def impedances(self, nodes: Sequence[str],
                   frequencies: Sequence[float]) -> Dict[str, np.ndarray]:
        """Complex driving-point impedance Z(node) over ``frequencies``.

        Z is the voltage at the node in response to a unit AC current
        injected into that same node with every other stimulus zeroed —
        exactly what the single-node analysis measures.
        """
        return self.sample_impedances(0, nodes, frequencies)

    def impedance_waveforms(self, nodes: Sequence[str],
                            frequencies: Sequence[float]) -> Dict[str, Waveform]:
        """Same as :meth:`impedances` but wrapped as complex waveforms."""
        freq = np.asarray(frequencies, dtype=float)
        return {node: Waveform(freq, values, name=f"Z({node})", x_unit="Hz",
                               y_unit="Ohm")
                for node, values in self.impedances(nodes, freq).items()}
