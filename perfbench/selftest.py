"""Self-test of the benchmark: ``python3 perfbench/run.py --selftest``.

1. Runs each workload for one round (``--seconds 0``) with every check
   on, and requires a correct result in which only the named fault jobs
   fail.
2. Shows that the checks reject corrupted payloads: a NaN in a verdict,
   a damping ratio 20 % off the pole analysis, a DC transfer slope of
   0.9, and a job stream one result short.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import checks
import inputs
from workloads import missing_results

HERE = os.path.dirname(os.path.abspath(__file__))


def run_workload(workload: str, seed: int) -> str | None:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300, text=True)
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr[-1500:]}"
    result = json.loads(done.stdout.splitlines()[-1])
    expected = (inputs.GATEWAY_ROUND.count("fault")
                if workload == "gateway-mix" else 0)
    if not result["correct"] or result["failed"] != expected:
        return f"{result} (expected {expected} failed)\n{done.stderr[-1500:]}"
    return None


def corrupted_payloads() -> list:
    """``[(what, reason or None), ...]``: ``None`` means not rejected."""
    from repro.circuits import opamp_buffer, opamp_buffer_netlist
    from repro.service import AnalysisRequest, execute_request

    circuit = opamp_buffer().circuit
    verdict = execute_request(AnalysisRequest(mode="all-nodes",
                                              circuit=circuit)).to_dict()
    sweep_body = dict(inputs.DC_SWEEP, mode="dc-sweep",
                      netlist=opamp_buffer_netlist())
    sweep = execute_request(AnalysisRequest.from_dict(sweep_body)).to_dict()
    outcomes = [
        ("intact verdict counted as failed", checks.failure(verdict)),
        ("intact verdict off the pole analysis",
         checks.check_poles(verdict["result"], circuit, 27.0, {})),
        ("intact transfer curve", checks.check_transfer(sweep["result"])),
    ]
    failures = [f"{what}: {reason}" for what, reason in outcomes if reason]

    nan = copy.deepcopy(verdict)
    nan["result"]["results"][0]["damping_ratio"] = float("nan")
    off = copy.deepcopy(verdict)
    for entry in off["result"]["results"]:
        entry["damping_ratio"] *= 1.2
    shallow = copy.deepcopy(sweep)
    column = shallow["result"]["variable_names"].index("output")
    for row, value in zip(shallow["result"]["data"],
                          shallow["result"]["sweep_values"]):
        row[column] = 0.9 * value
    try:
        checks.strict_loads(json.dumps(nan))
        strict = None
    except ValueError as exc:
        strict = str(exc)
    rejected = [
        ("NaN in a verdict", checks.failure(nan)),
        ("NaN on the wire", strict),
        ("damping ratio 20 % off",
         checks.check_poles(off["result"], circuit, 27.0, {})),
        ("transfer slope 0.9", checks.check_transfer(shallow["result"])),
        ("stream one result short",
         missing_results([{"index": 0, "response": verdict}],
                         [None, None])),
    ]
    return failures, rejected


def main(seed: int) -> int:
    problems = []
    for workload in ("designer-allnodes", "mc-screen", "gateway-mix"):
        problem = run_workload(workload, seed)
        print(f"{workload}: {'ok' if problem is None else problem}")
        if problem:
            problems.append(workload)
    failures, rejected = corrupted_payloads()
    for failure in failures:
        print(f"FALSE ALARM: {failure}")
        problems.append(failure)
    for what, reason in rejected:
        print(f"{what}: {'rejected: ' + reason if reason else 'NOT REJECTED'}")
        if reason is None:
            problems.append(what)
    print("self-test " + ("passed" if not problems else
                          f"FAILED: {problems}"))
    return 0 if not problems else 1
