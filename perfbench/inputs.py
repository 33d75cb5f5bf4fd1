"""Seeded inputs of the three workloads.

Everything here is plain data derived from the run seed; the program
only ever receives these generated values.  Temperatures walk a
golden-ratio (Kronecker) sequence from a seeded offset, so each run
covers the -40..125 degC range as evenly as the next one while the
points themselves differ from seed to seed: the per-request work of the
op-amps depends strongly on temperature (14-99 Newton iterations), and
an uneven draw would move a run's median by itself.
"""

from __future__ import annotations

import random

T_LOW, T_HIGH = -40.0, 125.0
#: Temperature corners of the Monte Carlo screens and dc-sweep corners.
CORNERS = (-40.0, 27.0, 85.0, 125.0)
_PHI = 0.6180339887498949


class Stream:
    """Seeded stream of evenly spread temperatures and scattered variables
    for one kind of operation."""

    def __init__(self, seed: int, kind: str):
        self.seed = seed
        self.kind = kind
        self.offset = random.Random(f"{seed}:{kind}:offset").random()

    def rng(self, n: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.kind}:{n}")

    def temperature(self, n: int) -> float:
        u = (self.offset + n * _PHI) % 1.0
        return T_LOW + (T_HIGH - T_LOW) * u


def opamp_scatter(rng: random.Random) -> dict:
    """Design-variable scatter of the op-amp core (both circuits)."""
    return {"c1": 17e-12 * rng.uniform(0.9, 1.1),
            "cload": 1e-9 * rng.uniform(0.8, 1.25),
            "rzero": 130.0 * rng.uniform(0.9, 1.1)}


# -- designer-allnodes ---------------------------------------------------

#: One round: three Fig. 1 buffers per Table 2 op-amp with bias cell.
#: The buffer's median and the full circuit's tail then sit inside one
#: kind's latency mode each instead of on the boundary between them.
DESIGNER_ROUND = ("buffer", "buffer", "buffer", "full")


def designer_round(seed: int, index: int) -> list:
    """``[(circuit kind, temperature, variables), ...]`` of one round."""
    ops = []
    streams = {kind: Stream(seed, f"designer-{kind}")
               for kind in set(DESIGNER_ROUND)}
    per_round = {kind: DESIGNER_ROUND.count(kind) for kind in streams}
    position = {kind: 0 for kind in streams}
    for kind in DESIGNER_ROUND:
        n = index * per_round[kind] + position[kind]
        position[kind] += 1
        stream = streams[kind]
        rng = stream.rng(n)
        variables = opamp_scatter(rng)
        if kind == "full":
            variables["cdec"] = 12e-12 * rng.uniform(0.9, 1.1)
        ops.append((kind, stream.temperature(n), variables))
    return ops


# -- mc-screen -----------------------------------------------------------

SCREEN_SAMPLES = 64


def screen_round(seed: int, index: int) -> list:
    """``[(corner temperature, screen seed), ...]``: one 64-sample screen
    per corner, each with a fresh sampling seed."""
    rng = random.Random(f"{seed}:screen:{index}")
    return [(corner, rng.randrange(1, 2 ** 31)) for corner in CORNERS]


def screen_variables() -> dict:
    """Scatter of each screen: load capacitance over a 4x range and a
    +-50 mV (1 sigma) common-mode spread."""
    return {"cload": ("loguniform", (0.5e-9, 2e-9)),
            "vcm": ("normal", (2.5, 0.05))}


# -- gateway-mix ---------------------------------------------------------

#: The job kinds of one gateway round, in submission order.  Over
#: sockets a cache hit, an ``op`` job and the fault job all take about
#: 100 ms (delayed-ACK stalls dominate), a single all-nodes job about
#: 150-200 ms, a corner job about 350 ms and a 16-sample scenario job
#: about 850 ms.  With 3 fast, 4 all-nodes, 1 corner and 2 scenario jobs
#: the median falls in the middle of the all-nodes mode and the 90th
#: percentile in the middle of the scenario mode, not on the edge
#: between two kinds.
GATEWAY_ROUND = ("allnodes", "op", "scenario", "allnodes", "repeat",
                 "allnodes", "corners", "scenario", "allnodes", "fault")
#: Exact repeats are drawn from this many bodies sent during set-up.
REPEAT_POOL = 6
SCENARIO_SAMPLES = 16
DC_SWEEP = {"dc_variable": "Vin", "dc_start": 1.5, "dc_stop": 3.5,
            "dc_points": 21, "node": "output"}
#: The named fault: the compensation capacitor at 1e308 F overflows the
#: small-signal matrices.  Its inputs never depend on the seed.
FAULT_LINE = ("C1 zx first {c1}", "C1 zx first 1e308")


def gateway_warm_bodies(seed: int, netlist: str) -> list:
    """Set-up jobs: the repeat pool plus one job of every other kind."""
    stream = Stream(seed, "gateway-repeat")
    bodies = [_allnodes_body(netlist, stream, n) for n in range(REPEAT_POOL)]
    warm = Stream(seed, "gateway-warm")
    bodies.append(_op_body(netlist, warm, 0))
    bodies.append(_scenario_body(netlist, warm, 0))
    bodies.append(_corners_body(netlist, warm, 0))
    return bodies


def gateway_round(seed: int, index: int, netlist: str) -> list:
    """``[(kind, body), ...]`` of one round of jobs."""
    streams = {kind: Stream(seed, f"gateway-{kind}")
               for kind in set(GATEWAY_ROUND)}
    per_round = {kind: GATEWAY_ROUND.count(kind) for kind in streams}
    position = {kind: 0 for kind in streams}
    repeat_pool = Stream(seed, "gateway-repeat")
    fault_netlist = netlist.replace(*FAULT_LINE)
    jobs = []
    for kind in GATEWAY_ROUND:
        n = index * per_round[kind] + position[kind]
        position[kind] += 1
        stream = streams[kind]
        if kind == "allnodes":
            body = _allnodes_body(netlist, stream, n)
        elif kind == "repeat":
            pick = stream.rng(n).randrange(REPEAT_POOL)
            body = _allnodes_body(netlist, repeat_pool, pick)
        elif kind == "op":
            body = _op_body(netlist, stream, n)
        elif kind == "scenario":
            body = _scenario_body(netlist, stream, n)
        elif kind == "corners":
            body = _corners_body(netlist, stream, n)
        else:
            body = {"mode": "all-nodes", "netlist": fault_netlist}
        jobs.append((kind, body))
    return jobs


def _allnodes_body(netlist: str, stream: Stream, n: int) -> dict:
    return {"mode": "all-nodes", "netlist": netlist,
            "temperature": stream.temperature(n),
            "variables": opamp_scatter(stream.rng(n))}


def _op_body(netlist: str, stream: Stream, n: int) -> dict:
    return {"mode": "op", "netlist": netlist,
            "temperature": stream.temperature(n),
            "variables": opamp_scatter(stream.rng(n))}


def _scenario_body(netlist: str, stream: Stream, n: int) -> dict:
    rng = stream.rng(n)
    variables = {name: {"kind": kind, "params": list(params)}
                 for name, (kind, params) in screen_variables().items()}
    return {"mode": "all-nodes", "netlist": netlist,
            "scenarios": {"samples": SCENARIO_SAMPLES,
                          "seed": rng.randrange(1, 2 ** 31),
                          "base_temperature": CORNERS[n % len(CORNERS)],
                          "variables": variables}}


def _corners_body(netlist: str, stream: Stream, n: int) -> dict:
    variables = {"itail": 40e-6 * stream.rng(n).uniform(0.9, 1.1)}
    return {"requests": [dict(DC_SWEEP, mode="dc-sweep", netlist=netlist,
                              temperature=corner, variables=variables)
                         for corner in CORNERS]}
