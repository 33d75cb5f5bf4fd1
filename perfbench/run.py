"""Benchmark of the stability-analysis program: three workloads, one command.

    python3 perfbench/run.py --workload designer-allnodes --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate traced run that times every layer from outside (see
``layers.py``) and prints the per-layer metrics instead.  The last line
of standard output is one JSON object; a readable report goes to
standard error.  ``--selftest`` runs each workload for one round with
every check on and shows that the checks reject corrupted payloads.
See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

# Third-party imports come before set-up time starts.
import numpy
import scipy
import scipy.linalg  # noqa: F401

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
perf = time.perf_counter
#: An untraced run's rounds take at least this many times their timed
#: work in wall time: the off-clock checks and set-ups fill the gaps
#: between rounds, idle waits the rest.  The host's speed wanders by
#: 15 % over tens of seconds, and the median over a run moves less the
#: longer the stretch its operations are drawn from (see README.md).
SPAN = 1.8

WORKLOADS = ("designer-allnodes", "mc-screen", "gateway-mix")
UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "throughput_per_s": "1/s", "rss_peak_mb": "MiB"}


def machine_line() -> str:
    return (f"machine: nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={numpy.__version__} scipy={scipy.__version__} "
            f"{platform.machine()}")


def log(text: str = "") -> None:
    print(text, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------

class Checked:
    """Check results gathered round by round."""

    def __init__(self):
        self.failed, self.wrong, self.sizes, self.notes = {}, [], [], {}

    def add(self, result: tuple, offset: int) -> None:
        failed, wrong, sizes, notes = result
        self.failed.update({offset + k: v for k, v in failed.items()})
        self.wrong += wrong
        self.sizes += sizes
        for key, value in notes.items():
            self.notes[key] = self.notes.get(key, 0) + value


def run_rounds(workload, seconds: float, trace: bool) -> dict:
    """Closed loop, one caller: whole rounds until ``seconds`` of timed
    work have passed and ``RSS_ROUNDS`` rounds are done (``seconds`` 0:
    one round).

    Each round is checked right after it, off the clock, and its
    payloads are dropped: a 64-sample screen returns about 14 MB of
    results, and holding a run of them would swell the resident set the
    benchmark reports.  The checks also spread the timed work over a
    longer stretch of wall time, which evens out the host's drifting
    speed; an untraced run waits between rounds where they do not fill
    ``SPAN`` times the timed work.  A traced run alternates traced and
    untraced rounds.

    The peak resident set is read after round ``RSS_ROUNDS``, so that it
    does not depend on how many operations the run's time allows.  An
    untraced run makes its extra set-ups off the clock after the rounds
    that pass ``seconds * j / (SETUPS - 1)`` of timed work.
    """
    from workloads import SETUPS, Record

    records = []
    checked = Checked()
    wall = rss = 0.0
    index = 0
    rss_rounds = workload.RSS_ROUNDS if seconds > 0 else 1
    probes = [] if trace else [seconds * j / (SETUPS - 1)
                               for j in range(SETUPS - 1)]
    setups = []
    began = perf()
    while index < rss_rounds or wall < seconds:
        traced = trace and index % 2 == 0
        workload.start_round(traced)
        batch = []
        started = perf()
        for kind, op in workload.round(index):
            op_started = perf()
            result = workload.execute(op)
            batch.append(Record(kind, perf() - op_started, traced,
                                (op, result)))
        wall += perf() - started
        workload.end_round()
        if index + 1 == rss_rounds:
            rss = workload.rss_peak_mb()
        checked.add(workload.check(batch, sizes=trace), len(records))
        for record in batch:
            record.payload = None
        records += batch
        while probes and wall >= probes[0]:
            probes.pop(0)
            setups.append(workload.extra_setup())
        index += 1
        lag = SPAN * wall - (perf() - began)
        if not trace and lag > 0 and (index < rss_rounds or wall < seconds):
            time.sleep(lag)
    return {"records": records, "wall": wall, "rss": rss, "setups": setups,
            "failed": checked.failed, "wrong": checked.wrong,
            "sizes": checked.sizes, "notes": checked.notes}


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------

def p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(outcome: dict) -> dict:
    latencies = [r.latency * 1e3 for r in outcome["records"]]
    unit = outcome["workload"].unit_per_op
    values = {
        "setup_s": statistics.median(outcome["setups"]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90(latencies),
        "throughput_per_s": len(latencies) * unit / outcome["wall"],
        "rss_peak_mb": outcome["rss"],
    }
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


def per_layer(outcome: dict, gateway_run: bool) -> dict:
    import layers

    traced = [(i, r) for i, r in enumerate(outcome["records"]) if r.traced]
    untraced = [r for r in outcome["records"] if not r.traced]
    ops = len(traced)
    values = layers.layer_metrics(outcome["delta"], outcome["run_delta"],
                                  ops)
    values["service.response_kb"] = sum(
        outcome["sizes"][i] for i, _ in traced) / 1024.0 / max(1, ops)
    latency = sum(r.latency for _, r in traced)
    attributed = sum(layers.layer_seconds(outcome["delta"], layer,
                                          workers=not gateway_run)
                     for layer in layers.TIMED_LAYERS + ("analysis.compile",))
    queue = run = http = 0.0
    if gateway_run:
        for _, record in traced:
            job = record.extra.get("job")
            if job is None:
                continue
            queue += job["started"] - job["created"]
            run += job["finished"] - job["started"]
            http += record.latency - (job["finished"] - job["created"])
        attributed += queue + http
    values["jobs.queue_wait_ms"] = 1e3 * queue / max(1, ops)
    values["jobs.run_ms"] = 1e3 * run / max(1, ops)
    values["gateway.http_ms"] = 1e3 * http / max(1, ops)
    values["service.pool_rss_peak_mb"] = getattr(outcome["workload"],
                                                 "pool_rss", 0.0)
    values["unattributed_ms"] = 1e3 * (latency - attributed) / max(1, ops)
    values["obs.tracing_overhead_pct"] = 100.0 * (
        statistics.median(r.latency for _, r in traced)
        / statistics.median(r.latency for r in untraced) - 1.0) \
        if untraced else 0.0
    return values


LAYER_UNITS = {"_ms": "ms", "_kb": "KiB", "_mb": "MiB", "_pct": "%",
               "_ratio": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def report(args, outcome: dict, metrics: dict) -> None:
    records = outcome["records"]
    log(f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}")
    log(machine_line())
    kinds = {}
    for record in records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    log(f"operations: attempted={len(records)} failed="
        f"{len(outcome['failed'])} wall={outcome['wall']:.2f}s kinds={kinds}")
    reasons = {}
    for index, reason in outcome["failed"].items():
        key = f"{records[index].kind}: {reason}"
        reasons[key] = reasons.get(key, 0) + 1
    for reason, count in sorted(reasons.items()):
        log(f"  failed x{count}: {reason}")
    log(f"checks: {outcome['notes']} wrong={len(outcome['wrong'])}")
    for problem in outcome["wrong"][:10]:
        log(f"  WRONG: {problem}")
    log("set-up samples: " + ", ".join(f"{s:.3f}" for s in outcome["setups"]))
    by_kind = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record.latency * 1e3)
    for kind, values in sorted(by_kind.items()):
        log(f"  {kind:>10}: n={len(values):4d} p50={statistics.median(values):8.2f}"
            f" ms  max={max(values):8.2f} ms")
    for name, entry in metrics.items():
        log(f"  {name:34s} {entry['value']:12.4f} {entry['unit']}")
    if args.trace:
        import layers

        log("program spans (count, ms per traced operation):")
        ops = max(1, sum(1 for r in records if r.traced))
        for name, (count, seconds) in layers.span_table(
                outcome["delta"]).items():
            log(f"  {name:28s} {count:7d} {1e3 * seconds / ops:10.3f}")


def measure(args) -> int:
    started = perf()
    sys.path[:0] = [HERE, SRC]
    import workloads

    workload = {"designer-allnodes": workloads.Designer,
                "mc-screen": workloads.Screen,
                "gateway-mix": workloads.Gateway}[args.workload]()
    try:
        setup = workload.setup(args.seed, bool(args.trace), started)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        outcome = run_rounds(workload, args.seconds, args.trace)
        outcome.update(workload=workload,
                       setups=[setup] + outcome["setups"])
        if args.trace:
            outcome["delta"], outcome["run_delta"] = workload.layer_deltas()
    finally:
        workload.close()
    if args.trace:
        values = per_layer(outcome, args.workload == "gateway-mix")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in values.items()}
    else:
        metrics = end_to_end(outcome)
    report(args, outcome, metrics)
    print(json.dumps({"correct": not outcome["wrong"],
                      "attempted": len(outcome["records"]),
                      "failed": len(outcome["failed"]),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="one round of each workload with every check, "
                             "plus the checks' rejection of corrupted payloads")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"error: no program source at {SRC}/repro; run from a checkout "
            "of the repository")
        return 2
    if args.selftest:
        sys.path[:0] = [HERE, SRC]
        import selftest
        return selftest.main(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
