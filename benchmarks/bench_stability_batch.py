"""Batched stability screening benchmark: the sample-axis screen's own time.

The acceptance bar of the batched screening pipeline: a 64-sample Monte
Carlo ``all-nodes`` screen of the paper's op-amp buffer (input common-mode
+ load scatter) through the engine's batched fast path — one restamp, one
batched Newton bias plane, one batched linearization, one ``(N, nodes,
F)`` impedance cube, vectorized stability plots/peaks and cross-sample
refinement windows — must cost at most ``PER_SAMPLE_BAR_MS`` per sample
(best of ``REPEATS`` screens).

The bar is absolute, not a ratio against per-request execution: the
per-request path shares the Newton and device code that keeps getting
faster, so a ratio against it fails whenever the baseline improves.  On
a 2-core x86-64 box (Python 3.11, numpy 2.4) the screen measured 3.6 to
4.5 ms per sample; the bar leaves headroom for slower CI runners and
still catches a 2-3x regression.

Equivalence is gated in tier-1:
``tests/service/test_stability_batch.py::TestAllNodesFastpath::
test_monte_carlo_buffer_screen_matches_per_request`` runs this same
screen against per-request execution at 1e-9 on every per-node verdict.
"""

import math
import time

from benchmarks.conftest import write_result
from repro.circuits import opamp_buffer
from repro.service import AnalysisRequest
from repro.service.engine import execute_linear_batch

SAMPLES = 64
REPEATS = 3
PER_SAMPLE_BAR_MS = 10.0


def _scatter(samples=SAMPLES):
    """Deterministic MC scatter: input common mode and load capacitance.

    Temperature is deliberately uniform — scattering it would force the
    batched Newton layer off its vectorized companion-refill path, which
    is a known (documented) slow case, not what this benchmark measures.
    """
    for k in range(samples):
        yield {"vcm": 2.45 + 0.10 * k / (samples - 1),
               "cload": 1e-9 * (1.0 + 0.10 * math.cos(0.9 * k))}


def test_batched_stability_screen_per_sample_time():
    circuit = opamp_buffer().circuit
    requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                variables=variables, label=f"s{k}")
                for k, variables in enumerate(_scatter())]

    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        batched = execute_linear_batch(requests)
        best = min(best, time.perf_counter() - start)
        assert batched is not None, "stability group fell off the fast path"
        for response in batched:
            assert response.status == "done", (response.error,
                                               response.traceback)

    per_sample_ms = 1e3 * best / SAMPLES
    nodes = len(batched[0].result["results"])
    write_result(
        "stability_batch.txt",
        "Batched all-nodes stability screen "
        f"({SAMPLES}-sample Monte Carlo screen of the op-amp buffer, "
        f"{nodes} nodes each, best of {REPEATS})\n"
        f"  batched sample axis:  {best:8.3f} s\n"
        f"  per sample:           {per_sample_ms:8.2f} ms  "
        f"(bar: {PER_SAMPLE_BAR_MS:.1f} ms)\n")
    assert per_sample_ms <= PER_SAMPLE_BAR_MS, (
        f"the batched screen must cost <= {PER_SAMPLE_BAR_MS} ms per sample "
        f"(got {per_sample_ms:.2f} ms)")
