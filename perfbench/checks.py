"""Output checks, run after the timed phase.

Each check compares a program output with a figure computed apart from
the program's stability-plot method, and returns ``None`` when the
output is right or a one-line reason when it is not:

* every ``done`` payload is finite, and gateway bodies parse as strict
  JSON (``NaN``/``Infinity`` are refused);
* the least-damped loop of an all-nodes verdict matches, in natural
  frequency and damping ratio, the least-damped complex pole pair of the
  linearised pencil ``G + sC`` (generalised eigenvalues, scipy);
* a unity-gain buffer's DC transfer curve has slope 1 and an offset of
  a few millivolts;
* a batched Monte Carlo sample equals the scalar path at the program's
  own equivalence gate, and a screen's yield recounts from its verdicts.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

#: Pole-pair agreement bounds.  Both op-amps agree within about 1.1 % in
#: damping ratio and 0.7 % in natural frequency over -40..125 degC.
ZETA_RTOL = 0.05
FREQ_RTOL = 0.03
#: DC transfer of the unity-gain buffer: measured slope 0.99997-0.99998
#: and offset 1.2-1.7 mV over the temperature corners.
SLOPE_TOL = 0.01
OFFSET_MAX_V = 0.01
#: The program's batched-vs-scalar gate for nonlinear circuits: samples
#: linearise at the batched Newton solution, whose ~1e-9 agreement is
#: amplified by ~1/Vt through the exponential device conductances.
BATCH_RTOL = 1e-7
STABILITY_FIELDS = ("performance_index", "natural_frequency_hz",
                    "damping_ratio", "phase_margin_deg",
                    "overshoot_percent", "peak_type")
#: Response fields that legitimately differ between two executions.
VOLATILE = ("elapsed_seconds", "created", "cached", "telemetry", "label")
_ELAPSED = re.compile(r"Elapsed: [0-9.]+ s")


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text):
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


def non_finite(payload, path: str = "") -> str | None:
    """Path of the first non-finite number in a nested payload."""
    if isinstance(payload, list) and payload and \
            isinstance(payload[0], float):
        try:
            # A NaN or an infinity makes the sum non-finite; the payloads'
            # magnitudes are far from overflowing it.
            if math.isfinite(sum(payload)):
                return None
        except TypeError:
            pass
    if isinstance(payload, float):
        return None if math.isfinite(payload) else (path or "<root>")
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, (list, tuple)):
        items = enumerate(payload)
    else:
        return None
    for key, value in items:
        found = non_finite(value, f"{path}/{key}")
        if found is not None:
            return found
    return None


def count_non_finite(payload) -> int:
    if isinstance(payload, float):
        return 0 if math.isfinite(payload) else 1
    if isinstance(payload, dict):
        return sum(count_non_finite(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(count_non_finite(v) for v in payload)
    return 0


def failure(response: dict) -> str | None:
    """Why a response counts as a failed operation, or ``None``.

    A failure is a ``failed`` status or a ``done`` payload carrying
    non-finite numbers: such a verdict is not a result.
    """
    if response.get("status") != "done":
        return f"status {response.get('status')}: {response.get('error')}"
    where = non_finite(response.get("result"))
    if where is not None:
        return (f"done with {count_non_finite(response.get('result'))} "
                f"non-finite numbers (first at {where})")
    return None


def least_damped_loop(result: dict):
    """``(natural frequency, damping ratio)`` of the verdict's least-damped
    loop (deepest stability peak), or ``None`` without loops."""
    by_node = {entry["node"]: entry for entry in result["results"]}
    loops = [(by_node[loop["nodes"][0]], loop["natural_frequency_hz"])
             for loop in result["loops"]]
    if not loops:
        return None
    worst, frequency = min(loops, key=lambda item:
                           item[0]["performance_index"])
    return frequency, worst["damping_ratio"]


def least_damped_pole_pair(circuit, temperature: float, variables: dict,
                           f_low: float, f_high: float):
    """``(natural frequency, damping ratio)`` of the least-damped complex
    pole pair with a natural frequency inside the analysed band, from the
    generalised eigenvalues of ``(G, -C)`` at the operating point."""
    from repro.analysis.pz import pole_analysis

    poles = pole_analysis(circuit, temperature=temperature,
                          variables=variables).poles
    pairs = [(-p.real / abs(p), abs(p) / (2 * math.pi)) for p in poles
             if p.imag > 0 and f_low <= abs(p) / (2 * math.pi) <= f_high]
    if not pairs:
        return None
    zeta, frequency = min(pairs)
    return frequency, zeta


def check_poles(result: dict, circuit, temperature: float,
                variables: dict, f_low: float = 1.0,
                f_high: float = 1e9) -> str | None:
    loop = least_damped_loop(result)
    pair = least_damped_pole_pair(circuit, temperature, variables,
                                  f_low, f_high)
    if loop is None or pair is None:
        return f"loop {loop} vs pole pair {pair}: one is missing"
    (f_loop, z_loop), (f_pole, z_pole) = loop, pair
    if abs(f_loop / f_pole - 1) > FREQ_RTOL or \
            abs(z_loop / z_pole - 1) > ZETA_RTOL:
        return (f"least-damped loop fn={f_loop:.4g} Hz zeta={z_loop:.4f} vs "
                f"pole pair fn={f_pole:.4g} Hz zeta={z_pole:.4f}")
    return None


def check_transfer(result: dict, node: str = "output") -> str | None:
    """Unity-gain buffer DC transfer: slope 1, offset of a few mV."""
    names = result["variable_names"]
    column = names.index(node)
    x = np.asarray(result["sweep_values"], dtype=float)
    y = np.asarray(result["data"], dtype=float)[:, column]
    slope, offset = np.polyfit(x, y, 1)
    if abs(slope - 1) > SLOPE_TOL or abs(offset) > OFFSET_MAX_V:
        return f"transfer slope {slope:.5f}, offset {offset * 1e3:.2f} mV"
    return None


def _close(a, b, rtol: float) -> bool:
    if a is None or isinstance(a, str):
        return a == b
    return abs(a - b) <= rtol * max(abs(a), 1.0)


def check_equivalent(reference: dict, served: dict,
                     rtol: float = 0.0) -> str | None:
    """``served`` equals ``reference`` apart from volatile fields.

    With ``rtol=0`` the payloads must be identical; otherwise all-nodes
    payloads are compared per node on the stability fields within
    ``rtol`` (the batched-vs-scalar gate).
    """
    if rtol == 0.0:
        a, b = _strip(reference), _strip(served)
        if a != b:
            diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            return f"differs from the in-process result in {diff}"
        return None
    if reference["status"] != served["status"]:
        return f"status {served['status']} vs {reference['status']}"
    if reference["fingerprint"] != served["fingerprint"]:
        return "fingerprint differs"
    ref = {e["node"]: e for e in reference["result"]["results"]}
    got = {e["node"]: e for e in served["result"]["results"]}
    if set(ref) != set(got):
        return f"nodes {sorted(got)} vs {sorted(ref)}"
    for node, entry in ref.items():
        for field in STABILITY_FIELDS:
            if not _close(entry[field], got[node][field], rtol):
                return (f"{node}.{field} = {got[node][field]!r}, scalar "
                        f"path {entry[field]!r}")
    return None


def _strip(response: dict) -> dict:
    out = {k: v for k, v in response.items() if k not in VOLATILE}
    if out.get("report"):
        out["report"] = _ELAPSED.sub("Elapsed: - s", out["report"])
    result = out.get("result")
    if isinstance(result, dict):
        out["result"] = {k: v for k, v in result.items()
                         if k != "elapsed_seconds"}
    return out


def sample_passes(result: dict, min_pm_deg: float) -> bool:
    """Whether one all-nodes payload meets the phase-margin criterion:
    every loop's equivalent phase margin,
    ``atan(2 zeta / sqrt(sqrt(1 + 4 zeta^4) - 2 zeta^2))``, reaches it."""
    by_node = {e["node"]: e for e in result["results"]}
    return all(_phase_margin(by_node[loop["nodes"][0]]["damping_ratio"])
               >= min_pm_deg for loop in result["loops"])


def recount_yield(verdicts: list, passed: int, analysed: int) -> str | None:
    """Recount a screen's yield from its per-sample verdicts
    (``sample_passes`` of each payload)."""
    count = sum(verdicts)
    if (count, len(verdicts)) != (passed, analysed):
        return (f"yield {passed}/{analysed} but the verdicts give "
                f"{count}/{len(verdicts)}")
    return None


def _phase_margin(zeta: float) -> float:
    root = math.sqrt(math.sqrt(1 + 4 * zeta ** 4) - 2 * zeta ** 2)
    return math.degrees(math.atan2(2 * zeta, root))
