"""Batched stability screening: a 64-sample all-nodes Monte Carlo screen.

Demonstrates the batched stability pipeline (``docs/compiled-engine.md``):

1. scatter the paper's op-amp buffer over input common mode and load
   capacitance — 64 ``all-nodes`` screening requests on one topology;
2. run the batch through ``BatchEngine``: the engine routes the whole
   same-structure stability group through its in-process fast path —
   ONE pilot-warm-started batched Newton bias plane, ONE batched
   linearization, ONE ``(samples, nodes, frequencies)`` impedance cube,
   then vectorized stability plots and peak extraction, and one
   lockstep search for the closed-form eq. 1.3 minimum near every
   dominant peak;
3. print the ``engine.stability_batch.*`` counters proving the batched
   screen served the group, the worst per-node phase margin across the
   scatter, and the same screen run per-request for contrast.

Run with:  python examples/batch_stability_screening.py
"""

import math
import time

from repro.circuits import opamp_buffer
from repro.obs.metrics import global_registry
from repro.service import AnalysisRequest, BatchEngine
from repro.service.engine import execute_request

SAMPLES = 64


def scatter_requests(circuit):
    """Deterministic MC scatter: input common mode + load capacitance."""
    requests = []
    for k in range(SAMPLES):
        requests.append(AnalysisRequest(
            mode="all-nodes", circuit=circuit, label=f"sample-{k}",
            variables={"vcm": 2.45 + 0.10 * k / (SAMPLES - 1),
                       "cload": 1e-9 * (1.0 + 0.10 * math.cos(0.9 * k))}))
    return requests


def worst_margins(responses):
    """node -> (min, max) phase margin across the scatter."""
    margins = {}
    for response in responses:
        for entry in response.result["results"]:
            margin = entry["phase_margin_deg"]
            if margin is None:
                continue
            low, high = margins.get(entry["node"], (margin, margin))
            margins[entry["node"]] = (min(low, margin), max(high, margin))
    return margins


def main() -> None:
    circuit = opamp_buffer().circuit
    requests = scatter_requests(circuit)
    registry = global_registry()
    groups = registry.counter("engine.stability_batch.groups")
    samples = registry.counter("engine.stability_batch.samples")
    demotions = registry.counter("engine.stability_batch.demotions")

    # -- 1. the batched screen (one bias plane + one impedance cube) --
    before = (groups.value, samples.value, demotions.value)
    with BatchEngine(backend="serial") as engine:
        started = time.perf_counter()
        responses = engine.run(requests)
        batched_seconds = time.perf_counter() - started
    assert all(response.ok for response in responses)
    print(f"batched all-nodes screen: {SAMPLES} samples in "
          f"{batched_seconds:.3f} s "
          f"({SAMPLES / max(batched_seconds, 1e-9):.0f} samples/s)")
    print(f"  -> stability_batch counters: "
          f"groups +{groups.value - before[0]}, "
          f"samples +{samples.value - before[1]}, "
          f"demotions +{demotions.value - before[2]}")
    for node, (low, high) in sorted(worst_margins(responses).items()):
        print(f"  -> {node:>8}: phase margin {low:6.1f}° .. {high:6.1f}° "
              f"across the scatter")
    print()

    # -- 2. the same screen, per request, for contrast ----------------
    started = time.perf_counter()
    scalar = [execute_request(request) for request in requests]
    scalar_seconds = time.perf_counter() - started
    assert all(response.ok for response in scalar)
    assert [r.fingerprint for r in scalar] == [r.fingerprint
                                               for r in responses]
    print(f"per-request loop over the same {SAMPLES} samples: "
          f"{scalar_seconds:.3f} s "
          f"({scalar_seconds / max(batched_seconds, 1e-9):.1f}x slower "
          f"than the batched screen)")


if __name__ == "__main__":
    main()
