"""Command-line front end of the batch screening service.

Usage examples::

    # One-shot (cached-or-fresh) all-nodes screening of a netlist:
    python -m repro.service analyze opamp.sp

    # Several netlists fanned out over the process pool:
    python -m repro.service analyze a.sp b.sp c.sp --workers 4

    # Single-node mode at a corner temperature:
    python -m repro.service analyze opamp.sp --mode single-node \\
        --node out --temperature 125 --set cload=2e-12

    # Monte Carlo screening, 64 samples on the pool:
    python -m repro.service montecarlo opamp.sp --samples 64 \\
        --vary "cload=normal:1e-12:10%" --temperature "uniform:-40:125" \\
        --min-pm 45

    # One-shot DC transfer curve (warm-started Newton per point):
    python -m repro.service analyze opamp.sp --mode dc-sweep \\
        --dc-sweep "Vin=0:5:51" --node out

    # Monte Carlo over transfer curves: per-sample sweep, output envelope:
    python -m repro.service montecarlo opamp.sp --samples 32 \\
        --dc-sweep "Vin=0:5:51" --node out --vary "cload=normal:1e-12:10%"

    # Bare operating point / AC sweep (linear batches of these run on the
    # in-process vectorized restamp + batched solve kernel):
    python -m repro.service analyze ladder.sp --mode op
    python -m repro.service montecarlo ladder.sp --samples 256 --op \\
        --node out --vary "rload=uniform:5e3:2e4"

    # Cache inspection / maintenance:
    python -m repro.service cache stats
    python -m repro.service cache clear

    # Long-lived HTTP job gateway (warm pool, bounded queue, /metrics):
    python -m repro.service serve --port 8080 --workers 4 \\
        --max-queue-depth 128 --priority normal
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Dict, List, Optional

from repro.analysis.sweeps import FrequencySweep
from repro.circuit.units import parse_value
from repro.exceptions import ReproError, ToolError
from repro.linalg import available_backends
from repro.obs.trace import Tracer, use_tracer
from repro.service.cache import ResultCache
from repro.service.requests import AnalysisRequest
from repro.service.scenarios import Distribution, ScenarioSpec, StabilityCriteria
from repro.service.service import StabilityService

__all__ = ["DEFAULT_CACHE_DIR", "build_parser", "main",
           "cmd_analyze", "cmd_montecarlo", "cmd_cache", "cmd_serve",
           "cmd_stats"]

#: Default disk-cache root, under the session result directory the tool
#: layer also writes to (see repro.tool.session.SimulationEnvironment).
DEFAULT_CACHE_DIR = os.path.join("stability_results", "service_cache")


def _parse_assignment(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}")
    name, _, value = text.partition("=")
    try:
        return name.strip(), parse_value(value.strip())
    except ReproError:
        raise argparse.ArgumentTypeError(
            f"value of {name!r} is not a number: {value!r}") from None


def _parse_distribution(text: str, reference: Optional[float] = None) -> Distribution:
    """Parse ``kind:param[:param...]``; "10%" params scale ``reference``."""
    parts = text.split(":")
    kind, raw_params = parts[0].strip().lower(), parts[1:]
    params: List[float] = []
    for raw in raw_params:
        raw = raw.strip()
        if raw.endswith("%"):
            if reference is None:
                raise ToolError(f"percentage parameter {raw!r} needs a "
                                "reference value (use mean:percent forms)")
            params.append(abs(reference) * float(raw[:-1]) / 100.0)
        else:
            params.append(parse_value(raw))
        if kind == "normal" and reference is None and len(params) == 1:
            reference = params[0]
    if kind == "normal":
        return Distribution.normal(*params)
    if kind == "uniform":
        return Distribution.uniform(*params)
    if kind == "loguniform":
        return Distribution.loguniform(*params)
    if kind == "choice":
        return Distribution.choice(*params)
    raise ToolError(f"unknown distribution {kind!r} "
                    "(expected normal/uniform/loguniform/choice)")


def _parse_vary(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=kind:params, got {text!r}")
    name, _, spec = text.partition("=")
    return name.strip(), spec.strip()


def _parse_sweep(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:POINTS_PER_DECADE, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _parse_dc_sweep(text: str) -> tuple:
    """``NAME=START:STOP:POINTS`` — the DC transfer sweep definition.

    ``NAME`` is an independent source or design variable; descending
    ranges (``START > STOP``) ramp down.
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=START:STOP:POINTS, got {text!r}")
    name, _, spec = text.partition("=")
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected NAME=START:STOP:POINTS, got {text!r}")
    try:
        return (name.strip(), parse_value(parts[0]), parse_value(parts[1]),
                int(parts[2]))
    except (ReproError, ValueError):
        raise argparse.ArgumentTypeError(
            f"bad DC sweep range {spec!r} (expected START:STOP:POINTS)") from None


def _read_netlist(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _make_service(args) -> StabilityService:
    cache_dir = None if args.no_cache else args.cache_dir
    cache = ResultCache(cache_dir)
    return StabilityService(cache=cache, max_workers=args.workers,
                            backend=args.backend,
                            compiled_cache_size=args.compiled_cache,
                            pool_idle_timeout=args.pool_idle_timeout)


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"disk cache root (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache for this invocation")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size (default: CPU count, capped at 8)")
    parser.add_argument("--backend", choices=("process", "serial"),
                        default="process", help="batch execution backend")
    parser.add_argument("--pool-idle-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="recycle idle persistent-pool workers after "
                             "this many seconds (default: never)")
    parser.add_argument("--compiled-cache", type=int, default=None,
                        metavar="N",
                        help="compiled-circuit LRU entries per worker "
                             "(default: REPRO_COMPILED_CACHE or 8)")
    parser.add_argument("--solver-backend",
                        choices=("auto",) + available_backends(),
                        default=None, dest="solver_backend",
                        help="linear-solver backend (default: auto — "
                             "size/density heuristic, REPRO_BACKEND overrides)")
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON responses instead of reports")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record a span trace of this run and write it "
                             "to FILE as Chrome trace_event JSON (open at "
                             "chrome://tracing or https://ui.perfetto.dev)")
    parser.add_argument("--stats", action="store_true",
                        help="print the engine telemetry report (dispatch "
                             "counts, merged worker metrics, cache stats) "
                             "to stderr after the run")


@contextlib.contextmanager
def _telemetry(args, service: StabilityService):
    """Run the wrapped command under --trace / --stats telemetry.

    A ``--trace`` tracer is installed only for the duration of the block
    and the Chrome trace is written even when the command fails — a
    failing run is exactly the one worth inspecting.
    """
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            with use_tracer(tracer):
                yield
        else:
            yield
    finally:
        if tracer is not None:
            tracer.write_chrome_trace(args.trace)
            print(f"trace: {len(tracer)} spans written to {args.trace}"
                  + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""),
                  file=sys.stderr)
        if args.stats:
            report = service.engine.last_report
            if report is not None:
                sys.stderr.write(report.format())
            print("cache: " + json.dumps(service.stats()), file=sys.stderr)


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(done, total, response):
        origin = "cache" if response.cached else f"{response.elapsed_seconds:.2f}s"
        status = "ok" if response.ok else "FAILED"
        label = response.label or response.fingerprint[:12] or "?"
        print(f"  [{done}/{total}] {label}: {status} ({origin})",
              file=sys.stderr)
    return progress


def cmd_analyze(args) -> int:
    service = _make_service(args)
    try:
        with _telemetry(args, service):
            return _run_analyze(args, service)
    finally:
        service.close()


def _run_analyze(args, service: StabilityService) -> int:
    dc = getattr(args, "dc_sweep", None)
    if args.mode == "dc-sweep" and dc is None:
        print("error: --mode dc-sweep needs --dc-sweep NAME=START:STOP:POINTS",
              file=sys.stderr)
        return 2
    if dc is not None and args.mode != "dc-sweep":
        print("error: --dc-sweep requires --mode dc-sweep (got "
              f"--mode {args.mode})", file=sys.stderr)
        return 2
    requests = []
    for path in args.netlists:
        requests.append(AnalysisRequest(
            mode=args.mode,
            netlist=_read_netlist(path),
            node=args.node,
            temperature=args.temperature,
            gmin=args.gmin,
            variables=dict(args.set or []),
            sweep_start=args.sweep[0], sweep_stop=args.sweep[1],
            sweep_points_per_decade=args.sweep[2],
            backend=args.solver_backend,
            dc_variable=dc[0] if dc else None,
            dc_start=dc[1] if dc else 0.0,
            dc_stop=dc[2] if dc else 1.0,
            dc_points=dc[3] if dc else 51,
            label=os.path.basename(path),
        ))
    responses = service.submit_batch(requests,
                                     progress=_progress_printer(args.quiet))
    failures = 0
    for response in responses:
        if args.json:
            print(response.to_json())
            continue
        origin = ("served from cache" if response.cached
                  else f"computed in {response.elapsed_seconds:.2f}s")
        print(f"=== {response.label} ({origin}) ===")
        if response.ok:
            print(response.report)
        else:
            failures += 1
            print(f"analysis failed: {response.error}")
            if args.verbose and response.traceback:
                print(response.traceback)
    return 1 if failures else 0


def cmd_montecarlo(args) -> int:
    service = _make_service(args)
    try:
        with _telemetry(args, service):
            return _run_montecarlo(args, service)
    finally:
        service.close()


def _run_montecarlo(args, service: StabilityService) -> int:
    netlist = _read_netlist(args.netlist)
    variables: Dict[str, Distribution] = {}
    for name, spec in args.vary or []:
        variables[name] = _parse_distribution(spec)
    temperature = (_parse_distribution(args.temperature)
                   if args.temperature else None)
    gmin = _parse_distribution(args.gmin) if args.gmin else None
    spec = ScenarioSpec(variables=variables, temperature=temperature,
                        gmin=gmin, samples=args.samples, seed=args.seed)
    if getattr(args, "op", False):
        # Monte Carlo over bare operating points: every sample is one
        # linear DC solve, so the whole cache-miss set runs through the
        # engine's in-process batched restamp+solve kernel.
        if getattr(args, "dc_sweep", None) is not None:
            print("error: --op and --dc-sweep are mutually exclusive "
                  "(pick the operating-point spread or the transfer-curve "
                  "envelope)", file=sys.stderr)
            return 2
        if not args.node:
            print("error: --op needs --node (the output whose voltage "
                  "spread is reported)", file=sys.stderr)
            return 2
        base = AnalysisRequest(mode="op", netlist=netlist,
                               backend=args.solver_backend)
        report = service.screen_op(spec, base=base, node=args.node,
                                   progress=_progress_printer(args.quiet))
        if args.json:
            print(json.dumps({
                "spread": {
                    "node": report.spread.node,
                    "values": report.spread.values,
                    "stats": report.spread.stats(),
                    "samples": report.spread.samples,
                    "errors": report.spread.errors,
                },
                "responses": [r.to_dict() for r in report.responses],
            }))
        else:
            print(report.format())
        return 0 if report.spread.errors == 0 else 1
    dc = getattr(args, "dc_sweep", None)
    if dc is not None:
        # Monte Carlo over DC transfer curves: every sample sweeps the
        # named source/variable and the report is the output envelope.
        if not args.node:
            print("error: --dc-sweep needs --node (the output whose "
                  "envelope is reported)", file=sys.stderr)
            return 2
        base = AnalysisRequest(mode="dc-sweep", netlist=netlist,
                               node=args.node,
                               dc_variable=dc[0], dc_start=dc[1],
                               dc_stop=dc[2], dc_points=dc[3],
                               backend=args.solver_backend)
        report = service.screen_dc_sweep(spec, base=base, node=args.node,
                                         progress=_progress_printer(args.quiet))
        if args.json:
            print(json.dumps({
                "envelope": {
                    "node": report.envelope.node,
                    "sweep_name": report.envelope.sweep_name,
                    "sweep_values": report.envelope.sweep_values,
                    "low": report.envelope.low,
                    "high": report.envelope.high,
                    "samples": report.envelope.samples,
                    "errors": report.envelope.errors,
                },
                "responses": [r.to_dict() for r in report.responses],
            }))
        else:
            print(report.format())
        return 0 if report.envelope.errors == 0 else 1
    criteria = StabilityCriteria(min_phase_margin_deg=args.min_pm,
                                 min_damping_ratio=args.min_zeta)
    base = AnalysisRequest(mode="all-nodes", netlist=netlist,
                           sweep_start=args.sweep[0], sweep_stop=args.sweep[1],
                           sweep_points_per_decade=args.sweep[2],
                           backend=args.solver_backend)
    report = service.screen(spec, base=base, criteria=criteria,
                            progress=_progress_printer(args.quiet))
    if args.json:
        print(json.dumps({
            "summary": {
                "samples": report.summary.samples,
                "analysed": report.summary.analysed,
                "errors": report.summary.errors,
                "passed": report.summary.passed,
                "yield_fraction": report.summary.yield_fraction,
                "phase_margin": report.summary.phase_margin_stats(),
            },
            "responses": [r.to_dict() for r in report.responses],
        }))
    else:
        print(report.format())
    return 0 if report.summary.errors == 0 else 1


def cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        print(json.dumps({
            "directory": cache.directory,
            "disk_entries": cache.disk_entries(),
        }, indent=2))
        return 0
    cache.clear(disk=True)
    print(f"cleared {args.cache_dir}")
    return 0


def _snapshot_has_readings(snapshot: dict) -> bool:
    """True when any metric in the registry snapshot recorded anything."""
    if any(snapshot.get("counters", {}).values()):
        return True
    if any(snapshot.get("gauges", {}).values()):
        return True
    return any(data.get("count") for data
               in snapshot.get("histograms", {}).values())


def cmd_stats(args) -> int:
    """Print the service telemetry payload (the /metrics body)."""
    cache = ResultCache(args.cache_dir)
    service = StabilityService(cache=cache)
    payload = service.engine_report()
    if payload["engine"] is None and \
            not _snapshot_has_readings(payload["metrics"]):
        # Fresh process, fresh registry: the JSON payload on stdout stays
        # machine-readable (all-zero), the human reads why on stderr.
        print("no metrics recorded yet in this process "
              "(run an analysis, or query a live gateway's /metrics)",
              file=sys.stderr)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    """Boot the long-lived HTTP job gateway and serve until interrupted."""
    from repro.service.gateway import StabilityGateway

    cache_dir = None if args.no_cache else args.cache_dir
    service = StabilityService(cache=ResultCache(cache_dir),
                               max_workers=args.workers,
                               backend=args.backend,
                               compiled_cache_size=args.compiled_cache,
                               pool_idle_timeout=args.pool_idle_timeout)
    gateway = StabilityGateway(service,
                               host=args.host, port=args.port,
                               dispatchers=args.dispatchers,
                               max_queue_depth=args.max_queue_depth,
                               default_priority=args.priority)
    host, port = gateway.address
    print(f"serving on http://{host}:{port} "
          f"(queue watermark {args.max_queue_depth}, "
          f"{args.dispatchers} dispatchers; Ctrl-C drains and exits)",
          file=sys.stderr)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        print("draining in-flight jobs ...", file=sys.stderr)
    finally:
        gateway.close(drain=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Batch stability-screening service")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="screen one or more netlists")
    analyze.add_argument("netlists", nargs="+", help="SPICE netlist file(s)")
    analyze.add_argument("--mode",
                         choices=("all-nodes", "single-node", "dc-sweep",
                                  "op", "ac"),
                         default="all-nodes",
                         help="analysis mode; op/ac are the bare "
                              "operating-point / AC-sweep engines (linear "
                              "batches of them run on the in-process "
                              "batched kernel)")
    analyze.add_argument("--node", help="node name for single-node mode "
                                        "(and the reported output of a "
                                        "dc-sweep or ac run)")
    analyze.add_argument("--dc-sweep", metavar="NAME=START:STOP:POINTS",
                         type=_parse_dc_sweep, dest="dc_sweep",
                         help="DC transfer sweep of a source or design "
                              "variable (mode dc-sweep); descending "
                              "ranges ramp down")
    analyze.add_argument("--temperature", type=float, default=27.0)
    analyze.add_argument("--gmin", type=float, default=1e-12,
                         help="junction convergence conductance")
    analyze.add_argument("--set", metavar="NAME=VALUE", action="append",
                         type=_parse_assignment,
                         help="design-variable override (repeatable)")
    analyze.add_argument("--sweep", type=_parse_sweep,
                         default=(FrequencySweep.DEFAULT_START,
                                  FrequencySweep.DEFAULT_STOP,
                                  FrequencySweep.DEFAULT_POINTS_PER_DECADE),
                         metavar="START:STOP:PPD")
    analyze.add_argument("--quiet", action="store_true")
    analyze.add_argument("--verbose", action="store_true",
                         help="print tracebacks of failed analyses")
    _add_service_options(analyze)
    analyze.set_defaults(func=cmd_analyze)

    mc = sub.add_parser("montecarlo", help="Monte Carlo stability screening")
    mc.add_argument("netlist", help="SPICE netlist file")
    mc.add_argument("--samples", type=int, default=32)
    mc.add_argument("--seed", type=int, default=2005)
    mc.add_argument("--vary", metavar="NAME=KIND:PARAMS", action="append",
                    type=_parse_vary,
                    help="e.g. cload=normal:1e-12:1e-13 or rload=uniform:1e3:1e5")
    mc.add_argument("--temperature", metavar="KIND:PARAMS",
                    help="temperature distribution, e.g. uniform:-40:125")
    mc.add_argument("--gmin", metavar="KIND:PARAMS",
                    help="gmin distribution, e.g. loguniform:1e-14:1e-10")
    mc.add_argument("--min-pm", type=float, default=45.0,
                    help="pass criterion: minimum loop phase margin [deg]")
    mc.add_argument("--min-zeta", type=float, default=None,
                    help="pass criterion: minimum loop damping ratio")
    mc.add_argument("--dc-sweep", metavar="NAME=START:STOP:POINTS",
                    type=_parse_dc_sweep, dest="dc_sweep",
                    help="screen DC transfer curves instead of stability: "
                         "sweep the named source/variable per sample and "
                         "report the output envelope (needs --node)")
    mc.add_argument("--op", action="store_true",
                    help="screen bare DC operating points instead of "
                         "stability: linear circuits batch every sample "
                         "through the vectorized restamp + batched solve "
                         "kernel and report the --node voltage spread")
    mc.add_argument("--node", help="output node for --dc-sweep envelopes "
                                   "and --op spreads")
    mc.add_argument("--sweep", type=_parse_sweep,
                    default=(FrequencySweep.DEFAULT_START,
                             FrequencySweep.DEFAULT_STOP,
                             FrequencySweep.DEFAULT_POINTS_PER_DECADE),
                    metavar="START:STOP:PPD")
    mc.add_argument("--quiet", action="store_true")
    _add_service_options(mc)
    mc.set_defaults(func=cmd_montecarlo)

    cache = sub.add_parser("cache", help="inspect or clear the disk cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    cache.set_defaults(func=cmd_cache)

    stats = sub.add_parser(
        "stats", help="print the service telemetry payload (engine report, "
                      "cache stats, metric registry snapshot) as JSON")
    stats.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    stats.set_defaults(func=cmd_stats)

    serve = sub.add_parser(
        "serve", help="run the long-lived HTTP job gateway (async job "
                      "submission over the warm engine; see docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks an ephemeral one "
                            "(default: 8080)")
    serve.add_argument("--max-queue-depth", type=int, default=128,
                       metavar="N",
                       help="admission watermark: queued jobs beyond this "
                            "are refused with 429 + Retry-After "
                            "(default: 128)")
    serve.add_argument("--priority", choices=("high", "normal", "low"),
                       default="normal",
                       help="queue class of jobs that name none "
                            "(default: normal)")
    serve.add_argument("--dispatchers", type=int, default=2, metavar="N",
                       help="job dispatcher threads draining the queue "
                            "into the engine (default: 2)")
    serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"disk cache root (default: {DEFAULT_CACHE_DIR})")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache for this server")
    serve.add_argument("--workers", type=int, default=None,
                       help="engine pool size (default: CPU count, capped "
                            "at 8)")
    serve.add_argument("--backend", choices=("process", "serial"),
                       default="process", help="batch execution backend")
    serve.add_argument("--pool-idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="recycle idle pool workers after this many "
                            "seconds (default: never)")
    serve.add_argument("--compiled-cache", type=int, default=None,
                       metavar="N",
                       help="compiled-circuit LRU entries per worker")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
