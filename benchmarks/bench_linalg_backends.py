"""Solver-backend benchmark: sparse vs. dense at scale.

The acceptance bar of the `repro.linalg` subsystem: on a >= 1000-unknown
ladder AC sweep the sparse (SuperLU) path must beat the dense (batched
LAPACK) path by at least 5x, while agreeing with it to 1e-9 relative.
Also checks that the automatic backend selection sends large sparse
systems to SuperLU and the paper-sized circuits to LAPACK.  (The
factorization-reuse regression lives in ``tests/linalg/``.)
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import write_result
from repro.analysis import ac_analysis, operating_point
from repro.analysis.mna import MNASystem
from repro.analysis.sweeps import log_sweep
from repro.circuits import opamp_buffer, rc_ladder
from repro.linalg import DenseBackend, SparseBackend

#: rc_ladder(n) has n + 2 MNA unknowns, so this gives a 1002-unknown system.
LADDER_SECTIONS = 1000
#: Modest sweep: enough frequencies to time the hot loop, small enough to
#: keep the *dense* reference run in CI budget.
SWEEP = log_sweep(1e3, 1e9, 5)

SPEEDUP_BAR = 5.0


def _timed_ac(circuit, backend):
    start = time.perf_counter()
    result = ac_analysis(circuit, SWEEP, backend=backend)
    return result, time.perf_counter() - start


def test_sparse_beats_dense_on_large_ladder():
    design = rc_ladder(LADDER_SECTIONS)
    system = MNASystem(design.circuit)
    assert system.size >= 1000

    # Warm-up outside the timed region (imports, caches).
    ac_analysis(design.circuit, [1e6, 1e7], backend="sparse")

    dense, dense_seconds = _timed_ac(design.circuit, "dense")
    sparse, sparse_seconds = _timed_ac(design.circuit, "sparse")

    # Equivalence first: a fast wrong answer is worthless.
    scale = np.max(np.abs(dense.data))
    assert np.max(np.abs(dense.data - sparse.data)) <= 1e-9 * scale

    speedup = dense_seconds / max(sparse_seconds, 1e-12)
    write_result(
        "linalg_backends.txt",
        f"Sparse vs. dense AC sweep, {system.size}-unknown RC ladder, "
        f"{len(SWEEP)} frequencies\n"
        f"  dense (LU per frequency): {dense_seconds:6.3f} s\n"
        f"  sparse (SuperLU):       {sparse_seconds:8.3f} s\n"
        f"  speedup:                {speedup:8.1f}x  (bar: {SPEEDUP_BAR}x)\n")
    assert speedup >= SPEEDUP_BAR, (
        f"sparse path must be >= {SPEEDUP_BAR}x faster on a "
        f"{system.size}-unknown ladder (got {speedup:.1f}x)")


def test_auto_selection_matches_workload():
    ladder = MNASystem(rc_ladder(LADDER_SECTIONS).circuit)
    assert ladder.backend.name == "sparse"
    opamp = MNASystem(opamp_buffer().circuit)
    assert opamp.backend.name == "dense"


def test_sparse_operating_point_on_large_ladder():
    """Direct linear DC solve of the big ladder stays fast and correct."""
    design = rc_ladder(LADDER_SECTIONS)
    start = time.perf_counter()
    op = operating_point(design.circuit, backend="sparse")
    elapsed = time.perf_counter() - start
    # DC: no current through the ladder, every node sits at the source value.
    assert op.voltage(design.output_node) == pytest.approx(1.0, abs=1e-9)
    assert elapsed < 5.0
