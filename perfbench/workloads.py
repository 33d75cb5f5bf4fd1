"""The workloads: set-up, timed operations and output checks.

Every workload runs whole *rounds* of a fixed make-up (see
``inputs.py``), so the share of each operation kind — and of the one
operation that fails by design — is the same in every run.  A workload
offers the same interface to the runner:

* ``setup(seed, trace, started)`` — everything before the first timed
  operation; returns its time;
* ``extra_setup()`` — one more set-up, timed the same way in a fresh
  process or server and thrown away (the runner spreads ``SETUPS - 1``
  of them over the run);
* ``round(index)`` — the ``[(kind, op), ...]`` of one round;
* ``start_round(traced)`` / ``execute(op)`` — one timed operation;
* ``check(records, sizes)`` — the output checks of one round, off the
  clock: ``(failed {index: reason}, wrong [...], sizes [...], notes)``;
* ``layer_deltas()`` — registry deltas of the traced rounds and of the
  whole run (traced runs only); ``rss_peak_mb()``, read after round
  ``RSS_ROUNDS``; ``close()``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working space for server logs and the gateway's result cache.
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
#: ``setup_s`` is the median of this many set-ups per run: this
#: process's (or the serving gateway's) and fresh ones spread over the
#: run, so that the host's drifting speed, which moves over tens of
#: seconds, is sampled across the run rather than at its start.
SETUPS = 5
perf = time.perf_counter


@dataclass
class Record:
    """One timed operation and what came back."""

    kind: str
    latency: float
    traced: bool = False
    payload: object = None          # (op, result) until checked
    extra: dict = field(default_factory=dict)


def rss_peak_mb(pid: int | None = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process (interpreter and numpy/scipy
    start-up excluded, exactly as in this process)."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--setup-probe"]
    output = subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                            stdout=subprocess.PIPE).stdout
    return float(json.loads(output.splitlines()[-1])["setup_s"])


class InProcess:
    """A workload whose analyses run in this process."""

    service = None

    def setup(self, seed: int, trace: bool, started: float) -> float:
        import layers
        from repro.obs.metrics import global_registry

        self.registry = global_registry()
        self.trace = trace
        self.delta = None
        if trace:
            layers.install()
            self.run_before = self.registry.snapshot()
        self.prepare(seed)
        return perf() - started

    def extra_setup(self) -> float:
        return probe_setup(self.name, self.seed)

    def start_round(self, traced: bool) -> None:
        if self.trace:
            import layers

            layers.set_enabled(traced)
            self.traced = traced
            self.before = self.registry.snapshot()

    def end_round(self) -> None:
        if self.trace and self.traced:
            import layers
            from repro.obs.metrics import merge_snapshots, subtract_snapshots

            layers.set_enabled(False)
            step = subtract_snapshots(self.registry.snapshot(), self.before)
            self.delta = step if self.delta is None \
                else merge_snapshots(self.delta, step)

    def layer_deltas(self) -> tuple:
        from repro.obs.metrics import subtract_snapshots

        return self.delta, subtract_snapshots(self.registry.snapshot(),
                                              self.run_before)

    def rss_peak_mb(self) -> float:
        return rss_peak_mb()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


# ----------------------------------------------------------------------
# designer-allnodes
# ----------------------------------------------------------------------

class Designer(InProcess):
    """In-process ``StabilityService.submit``: one all-nodes verdict per
    call, memory-only cache, every fingerprint distinct."""

    name = "designer-allnodes"
    unit_per_op = 1                 # verdicts per operation
    RSS_ROUNDS = 25
    #: Every n-th verdict is checked against the pole analysis.
    POLE_STRIDE = 6

    def prepare(self, seed: int) -> None:
        from repro.circuits import opamp_buffer, opamp_with_bias
        from repro.service import AnalysisRequest, StabilityService

        self.seed = seed
        self.Request = AnalysisRequest
        self.circuits = {"buffer": opamp_buffer().circuit,
                         "full": opamp_with_bias().circuit}
        self.service = StabilityService(backend="serial", persistent=False)
        for circuit in self.circuits.values():
            warm = self.service.submit(AnalysisRequest(mode="all-nodes",
                                                       circuit=circuit))
            if not warm.ok:
                raise RuntimeError(f"warm-up verdict failed: {warm.error}")

    def round(self, index: int) -> list:
        return [(kind, self.Request(mode="all-nodes",
                                    circuit=self.circuits[kind],
                                    temperature=temperature,
                                    variables=variables))
                for kind, temperature, variables in
                inputs.designer_round(self.seed, index)]

    def execute(self, request):
        return self.service.submit(request)

    def check(self, records: list, sizes: bool) -> tuple:
        failed, wrong, size = {}, [], []
        checked = 0
        for index, record in enumerate(records):
            request, response = record.payload
            data = response.to_dict()
            size.append(len(json.dumps(data)) if sizes else 0)
            reason = checks.failure(data)
            if reason is not None:
                failed[index] = reason
                continue
            if random.Random(repr(request.temperature)).randrange(
                    self.POLE_STRIDE):
                continue
            checked += 1
            problem = checks.check_poles(data["result"], request.circuit,
                                         request.temperature,
                                         request.variables)
            if problem:
                wrong.append(f"{record.kind} at {request.temperature:.1f} "
                             f"degC: {problem}")
        return failed, wrong, size, {"pole_checks": checked}


# ----------------------------------------------------------------------
# mc-screen
# ----------------------------------------------------------------------

class Screen(InProcess):
    """In-process ``StabilityService.screen``: one 64-sample Monte Carlo
    all-nodes screen of the op-amp buffer per call."""

    name = "mc-screen"
    unit_per_op = inputs.SCREEN_SAMPLES      # samples per operation
    RSS_ROUNDS = 4
    MIN_PM_DEG = 45.0

    def prepare(self, seed: int) -> None:
        from repro.circuits import opamp_buffer
        from repro.service import (AnalysisRequest, Distribution,
                                   ScenarioSpec, StabilityCriteria,
                                   StabilityService)

        self.seed = seed
        self.Request = AnalysisRequest
        self.circuit = opamp_buffer().circuit
        self.criteria = StabilityCriteria(min_phase_margin_deg=self.MIN_PM_DEG)
        self.distributions = {
            name: Distribution(kind, tuple(params))
            for name, (kind, params) in inputs.screen_variables().items()}
        self.Spec = ScenarioSpec
        self.service = StabilityService(backend="serial", persistent=False)
        warm = self.execute((27.0, 1))
        if warm.summary.errors:
            raise RuntimeError("warm-up screen had failing samples")

    def round(self, index: int) -> list:
        return [(f"{corner:g}C", (corner, seed))
                for corner, seed in inputs.screen_round(self.seed, index)]

    def execute(self, op):
        corner, seed = op
        spec = self.Spec(variables=self.distributions,
                         base_temperature=corner,
                         samples=inputs.SCREEN_SAMPLES, seed=seed)
        return self.service.screen(spec, circuit=self.circuit,
                                   criteria=self.criteria)

    def check(self, records: list, sizes: bool) -> tuple:
        from repro.service.engine import execute_request

        failed, wrong, size = {}, [], []
        for index, record in enumerate(records):
            (_, seed), report = record.payload
            # One seeded sample per screen is held against the scalar
            # path and the pole analysis.  Samples are converted one at a
            # time: all 64 payloads as dicts at once would raise this
            # process's peak resident set, which is the figure reported.
            pick = random.Random(f"spot:{seed}").randrange(
                len(report.responses))
            reasons, verdicts, nbytes = [], [], 0
            for sample, response in enumerate(report.responses):
                payload = response.to_dict()
                nbytes += len(json.dumps(payload)) if sizes else 0
                reason = checks.failure(payload)
                if reason:
                    reasons.append(reason)
                    continue
                verdicts.append(checks.sample_passes(payload["result"],
                                                     self.MIN_PM_DEG))
                if sample == pick:
                    picked = payload
            size.append(nbytes)
            if reasons:
                failed[index] = f"{len(reasons)} samples: {reasons[0]}"
                continue
            summary = report.summary
            problem = checks.recount_yield(verdicts, summary.passed,
                                           summary.analysed)
            scenario = report.scenarios[pick]
            request = self.Request(mode="all-nodes", circuit=self.circuit,
                                   temperature=scenario.temperature,
                                   gmin=scenario.gmin,
                                   variables=scenario.variables)
            scalar = execute_request(request).to_dict()
            problem = problem or checks.check_equivalent(
                scalar, picked, rtol=checks.BATCH_RTOL)
            problem = problem or checks.check_poles(
                picked["result"], self.circuit,
                scenario.temperature, scenario.variables)
            del picked
            if problem:
                wrong.append(f"screen seed {seed} ({record.kind}): {problem}")
        return failed, wrong, size, {"spot_checks": len(records)}


# ----------------------------------------------------------------------
# gateway-mix
# ----------------------------------------------------------------------

class Server:
    """One ``repro.service serve`` process on an ephemeral port."""

    def __init__(self, traced: bool, workers: int):
        os.makedirs(WORK_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="gateway-", dir=WORK_DIR)
        self.log_path = os.path.join(self.directory, "server.log")
        if traced:
            program = [sys.executable, os.path.join(HERE, "serve.py")]
        else:
            program = [sys.executable, "-m", "repro.service"]
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--workers", str(workers), "--dispatchers", str(workers),
                "--backend", "process",
                "--cache-dir", os.path.join(self.directory, "cache")]
        env = dict(os.environ, PYTHONPATH=SRC)
        self.log = open(self.log_path, "w", encoding="utf-8")
        # The server drains and stops its pool on SIGINT.  A shell starts
        # background jobs with SIGINT ignored, and the child would inherit
        # that; its own process group lets close() reach the pool workers.
        self.process = subprocess.Popen(
            program + args, cwd=ROOT, env=env, stdout=self.log,
            stderr=self.log, stdin=subprocess.DEVNULL,
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        self.port = self._wait_for_port()

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on http://"):
                        address = line.split()[2]
                        return int(address.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.close()
        raise RuntimeError("gateway did not start")

    def close(self) -> None:
        """Drain and stop the server and its pool, then remove its files."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self.log.close()
        for base, dirs, files in os.walk(self.directory, topdown=False):
            for name in files:
                os.unlink(os.path.join(base, name))
            for name in dirs:
                os.rmdir(os.path.join(base, name))
        os.rmdir(self.directory)


class Client:
    """One keep-alive connection: POST a job, read its NDJSON stream."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        return checks.strict_loads(self.conn.getresponse().read())

    def run_job(self, body: dict) -> dict:
        """Submit and stream one job; the body is checked later."""
        self.conn.request("POST", "/jobs", body=json.dumps(body).encode(),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        accepted = response.read()
        if response.status != 202:
            return {"error": f"POST answered {response.status}: "
                             f"{accepted[:200]!r}"}
        job_id = json.loads(accepted)["id"]
        self.conn.request("GET", f"/jobs/{job_id}/stream")
        return {"raw": self.conn.getresponse().read()}

    def close(self) -> None:
        self.conn.close()


def parse_stream(raw: bytes) -> tuple:
    """``(responses, terminal job dict, failure reason)`` of one stream."""
    try:
        lines = [checks.strict_loads(line) for line in raw.splitlines()
                 if line.strip()]
    except ValueError as exc:
        return None, None, f"stream is not strict JSON ({exc})"
    if not lines or "status" not in lines[-1]:
        return None, None, "stream has no terminal line"
    return lines[:-1], lines[-1], None


def missing_results(results: list, requests: list) -> str | None:
    """The stream must carry one result per request, indexed 0..n-1: it
    ends early when the job ends before a result lands."""
    indices = [line.get("index") for line in results]
    if indices != list(range(len(requests))):
        return (f"stream carries results {indices} for {len(requests)} "
                "requests")
    return None


def body_requests(body: dict) -> list:
    """The requests a job body describes, expanded in this process the
    way the gateway documents it (scenario bodies sample server-side)."""
    from repro.service import (AnalysisRequest, Distribution, ScenarioSpec,
                               scenario_requests)

    if "requests" in body:
        return [AnalysisRequest.from_dict(entry) for entry in body["requests"]]
    if "scenarios" not in body:
        return [AnalysisRequest.from_dict(body)]
    spec_data = body["scenarios"]
    spec = ScenarioSpec(
        variables={name: Distribution(d["kind"], tuple(d["params"]))
                   for name, d in spec_data["variables"].items()},
        base_temperature=spec_data["base_temperature"],
        samples=spec_data["samples"], seed=spec_data["seed"])
    base = AnalysisRequest.from_dict(
        {k: v for k, v in body.items() if k != "scenarios"})
    return scenario_requests(spec, base=base)[1]


class Gateway:
    """A ``python -m repro.service serve`` process driven closed loop over
    one keep-alive connection by this process.

    A traced run also boots an untraced twin and alternates rounds
    between them; the traced server's ``/metrics`` carries the layer
    figures of its rounds only.
    """

    name = "gateway-mix"
    unit_per_op = 1                 # jobs per operation
    #: The server keeps every finished job with its results, so its
    #: resident set grows with the jobs served; it is read after this
    #: many rounds, whatever the run's throughput.
    RSS_ROUNDS = 8
    #: Every n-th single all-nodes job is checked against the poles.
    POLE_STRIDE = 4

    def __init__(self):
        self.servers, self.clients = {}, {}
        self.reference_service = None

    def setup(self, seed: int, trace: bool, started: float) -> float:
        from repro.circuits import opamp_buffer_netlist
        from repro.service import StabilityService

        self.seed = seed
        self.trace = trace
        self.netlist = opamp_buffer_netlist()
        self.workers = os.cpu_count() or 1
        self.references = {}
        self.reference_service = StabilityService(backend="serial",
                                                  persistent=False)
        for traced in ((False, True) if trace else (False,)):
            server = self.servers[traced] = self.boot(traced)
            self.clients[traced] = Client(server.port)
        setup = perf() - started
        if trace:
            self.metrics_before = self.clients[True].get_json(
                "/metrics")["metrics"]
        return setup

    def extra_setup(self) -> float:
        """Boot a second server with its set-up jobs, then stop it; the
        serving one sits idle meanwhile."""
        started = perf()
        server = self.boot(False)
        setup = perf() - started
        server.close()
        return setup

    def boot(self, traced: bool) -> Server:
        """Start a server and send the set-up jobs through it."""
        server = Server(traced, self.workers)
        try:
            client = Client(server.port)
            for body in inputs.gateway_warm_bodies(self.seed, self.netlist):
                outcome = client.run_job(body)
                results, job, reason = parse_stream(outcome.get("raw", b""))
                reason = reason or missing_results(results,
                                                   body_requests(body))
                if reason or job["status"] != "done" or any(
                        checks.failure(line["response"]) for line in results):
                    raise RuntimeError(f"set-up job failed: {reason} "
                                       f"{outcome.get('error')}")
            client.close()
        except BaseException:
            server.close()
            raise
        return server

    def round(self, index: int) -> list:
        return inputs.gateway_round(self.seed, index, self.netlist)

    def start_round(self, traced: bool) -> None:
        self.client = self.clients[traced]

    def execute(self, body: dict) -> dict:
        return self.client.run_job(body)

    def end_round(self) -> None:
        pass

    def rss_peak_mb(self) -> float:
        return rss_peak_mb(self.servers[self.trace].process.pid)

    def layer_deltas(self) -> tuple:
        from repro.obs.metrics import subtract_snapshots

        metrics = self.clients[True].get_json("/metrics")
        pids = ((metrics.get("engine") or {}).get("pool") or {}).get(
            "worker_pids", [])
        self.pool_rss = max((rss_peak_mb(pid) for pid in pids), default=0.0)
        return (subtract_snapshots(metrics["metrics"], self.metrics_before),
                metrics["metrics"])

    def close(self) -> None:
        for client in self.clients.values():
            client.close()
        for server in self.servers.values():
            server.close()
        if self.reference_service is not None:
            self.reference_service.close()

    def check(self, records: list, sizes: bool) -> tuple:
        from repro.service.engine import execute_request

        failed, wrong, size = {}, [], []
        notes = {"pole_checks": 0, "scalar_spot_checks": 0}
        for index, record in enumerate(records):
            body, outcome = record.payload
            size.append(len(outcome.get("raw", b"")))
            if "error" in outcome:
                failed[index] = outcome["error"]
                continue
            results, job, reason = parse_stream(outcome["raw"])
            responses = [line["response"] for line in results or ()]
            record.extra["job"] = job
            if reason is None and job["status"] != "done":
                reason = f"job {job['status']}: {job.get('error')}"
            reason = reason or next(
                (r for r in map(checks.failure, responses) if r), None)
            if reason is not None:
                failed[index] = reason
                continue
            key = json.dumps(body, sort_keys=True)
            requests = body_requests(body)
            problem = missing_results(results, requests)
            if problem:
                wrong.append(f"{record.kind} job: {problem}")
                continue
            if key not in self.references:
                # Scenario jobs take the server's batched fast path: the
                # same batch run here must agree exactly, and one seeded
                # sample is held against the scalar path below.
                if record.kind == "scenario":
                    served = self.reference_service.submit_batch(requests)
                else:
                    served = [execute_request(r) for r in requests]
                self.references[key] = [r.to_dict() for r in served]
            for reference, served in zip(self.references[key], responses):
                problem = problem or checks.check_equivalent(reference,
                                                             served)
                if served["mode"] == "dc-sweep":
                    problem = problem or checks.check_transfer(
                        served["result"])
            if record.kind == "scenario":
                notes["scalar_spot_checks"] += 1
                pick = random.Random(key).randrange(len(requests))
                problem = problem or checks.check_equivalent(
                    execute_request(requests[pick]).to_dict(),
                    responses[pick], rtol=checks.BATCH_RTOL)
            if record.kind == "allnodes" and \
                    random.Random(key).randrange(self.POLE_STRIDE) == 0:
                notes["pole_checks"] += 1
                problem = problem or checks.check_poles(
                    responses[0]["result"], self.circuit(),
                    body["temperature"], body["variables"])
            if problem:
                wrong.append(f"{record.kind} job: {problem}")
        return failed, wrong, size, notes

    def circuit(self):
        from repro.circuit.parser import parse_netlist

        return parse_netlist(self.netlist, first_line_title=True)
