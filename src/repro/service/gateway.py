"""The long-lived HTTP job gateway over the batch stability engine.

One :class:`StabilityGateway` owns one long-lived
:class:`~repro.service.service.StabilityService` — warm worker pool,
compiled-circuit caches, two-tier result cache — and serves it over
plain stdlib HTTP (``ThreadingHTTPServer``; no third-party framework).
This is the piece that turns the engine's batched kernel wins into
sustained served throughput: the pool spins up once at boot and every
job after that lands on warm caches.

Endpoints
---------
``POST /jobs``
    Submit work, get ``202`` with a job id and a ``Location`` header.
    The body is one of three JSON shapes: a single
    :class:`~repro.service.requests.AnalysisRequest` dict (anything with
    a ``netlist``), ``{"requests": [<request>, ...]}`` for an explicit
    batch, or a base request plus a ``"scenarios"`` object (``samples``,
    ``seed``, ``variables`` mapping names to ``{"kind", "params"}``
    distributions, optional ``temperature``/``gmin`` distributions) that
    the gateway expands into a Monte Carlo screen server-side.  An
    optional top-level ``"priority"`` ("high"/"normal"/"low") picks the
    queue class.  ``all-nodes``/``single-node`` results are verdict-sized
    (peaks, verdicts, loops, operating point); a request field
    ``"detail": "plots"`` (on the base request of a scenario body, or on
    each entry of a batch) adds every node's plot arrays.  Past the
    admission watermark the gateway answers ``429`` with a
    ``Retry-After`` header instead of queueing — bounded queues are the
    backpressure contract.
``GET /jobs`` / ``GET /jobs/<id>``
    Poll.  Terminal jobs embed their per-request results (JSON via the
    round-trippable ``AnalysisResponse``); live jobs report counts
    unless ``?results=1`` asks for the partial payload.
``GET /jobs/<id>/stream``
    Chunked NDJSON: one ``{"index", "response"}`` line per completed
    request as it lands, then a final job-summary line when the job
    reaches a terminal state.  Each result line splices the response's
    one JSON encoding (``AnalysisResponse.to_json``, shared with the
    disk cache), which the response then releases.
``DELETE /jobs/<id>``
    Cancel: queued jobs immediately, running jobs at the next slice
    boundary.
``GET /metrics``
    The service's full telemetry (``StabilityService.engine_report()``:
    engine report, cache stats, obs registry snapshot) plus a
    ``gateway`` section with queue depth and job lifecycle counters.
``GET /healthz``
    Liveness: ``200 {"status": "ok"}`` while serving.

Shutdown is graceful by default: :meth:`StabilityGateway.close` stops
accepting, drains queued and running jobs, stops the HTTP listener and
closes the warm pool — leaving no orphan workers and no leaked
shared-memory blocks (``repro.service.shm.active_block_names()`` is
empty afterwards; that is tested).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from repro.exceptions import ToolError
from repro.service.jobs import JobManager, QueueFullError, validate_priority
from repro.service.requests import AnalysisRequest
from repro.service.scenarios import Distribution, ScenarioSpec, \
    scenario_requests
from repro.service.service import StabilityService

__all__ = ["StabilityGateway"]

#: Largest accepted request body; circuits are text, 8 MiB is generous.
MAX_BODY_BYTES = 8 * 1024 * 1024


def _spec_from_dict(data: dict) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from the ``"scenarios"`` JSON object."""

    def dist(payload) -> Optional[Distribution]:
        if payload is None:
            return None
        return Distribution(kind=str(payload["kind"]),
                            params=tuple(float(p)
                                         for p in payload["params"]))

    variables = {str(name): dist(payload)
                 for name, payload in (data.get("variables") or {}).items()}
    spec = ScenarioSpec(variables=variables,
                        temperature=dist(data.get("temperature")),
                        gmin=dist(data.get("gmin")))
    if "base_temperature" in data:
        spec.base_temperature = float(data["base_temperature"])
    if "base_gmin" in data:
        spec.base_gmin = float(data["base_gmin"])
    if "samples" in data:
        spec.samples = int(data["samples"])
        if spec.samples < 1:
            raise ToolError("a scenario spec needs at least one sample")
    if "seed" in data:
        spec.seed = int(data["seed"])
    return spec


def _requests_from_body(body: dict) -> list:
    """Decode a POST body into the request list it describes."""
    if not isinstance(body, dict):
        raise ToolError("the job body must be a JSON object")
    if "requests" in body:
        entries = body["requests"]
        if not isinstance(entries, list) or not entries:
            raise ToolError('"requests" must be a non-empty list')
        return [AnalysisRequest.from_dict(entry) for entry in entries]
    if "scenarios" in body:
        base_fields = {key: value for key, value in body.items()
                       if key not in ("scenarios", "priority", "label")}
        base = AnalysisRequest.from_dict(base_fields)
        spec = _spec_from_dict(body["scenarios"])
        _, requests = scenario_requests(spec, base=base)
        return requests
    return [AnalysisRequest.from_dict(
        {key: value for key, value in body.items() if key != "priority"})]


class _GatewayServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that knows the gateway it fronts."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default backlog of 5 drops connections under a
    # concurrent submission burst; admission control belongs to the job
    # queue's watermark (429), not to SYN-queue overflow resets.
    request_queue_size = 128

    def __init__(self, address, gateway: "StabilityGateway"):
        super().__init__(address, _GatewayHandler)
        self.gateway = gateway


class _GatewayHandler(BaseHTTPRequestHandler):
    """Route HTTP verbs onto the gateway's job manager."""

    protocol_version = "HTTP/1.1"   # keep-alive + chunked streaming
    # TCP_NODELAY on every accepted socket: with Nagle on, a response
    # written in more than one segment waits out the client's delayed
    # ACK (tens of ms) before its tail leaves.
    disable_nagle_algorithm = True
    server: _GatewayServer

    # -- plumbing -------------------------------------------------------
    def log_message(self, format, *args):   # noqa: A002 - stdlib signature
        pass                                # tests must not spam stderr

    def _send_json(self, code: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # Status line, headers and body leave in one write (the stdlib's
        # end_headers() would flush the headers on their own first).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _error(self, code: int, message: str,
               headers: Optional[dict] = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def _read_body(self) -> Optional[dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            self._error(400, "empty request body")
            return None
        try:
            return json.loads(raw)
        except ValueError:
            self._error(400, "request body is not valid JSON")
            return None

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:       # noqa: N802 - stdlib casing
        gateway = self.server.gateway
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            self._send_json(200, {"status": "ok",
                                  "uptime_seconds": gateway.uptime()})
        elif parts == ["metrics"]:
            self._send_json(200, gateway.metrics())
        elif parts == ["jobs"]:
            self._send_json(200, {"jobs": [job.to_dict()
                                           for job in gateway.jobs.jobs()]})
        elif len(parts) == 2 and parts[0] == "jobs":
            job = gateway.jobs.get(parts[1])
            if job is None:
                self._error(404, f"unknown job {parts[1]!r}")
                return
            include = job.terminal or \
                parse_qs(url.query).get("results", ["0"])[0] in ("1", "true")
            self._send_json(200, job.to_dict(results=include))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
            job = gateway.jobs.get(parts[1])
            if job is None:
                self._error(404, f"unknown job {parts[1]!r}")
                return
            self._stream(job)
        else:
            self._error(404, f"no route for GET {url.path}")

    def do_POST(self) -> None:      # noqa: N802
        gateway = self.server.gateway
        if urlparse(self.path).path.rstrip("/") != "/jobs":
            self._error(404, f"no route for POST {self.path}")
            return
        if gateway.closing:
            self._error(503, "gateway is shutting down")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            requests = _requests_from_body(body)
            priority = body.get("priority")
            if priority is not None:
                priority = validate_priority(priority)
            label = body.get("label")
            if label is not None:
                label = str(label)
            job = gateway.jobs.submit(requests, priority=priority,
                                      label=label)
        except QueueFullError as exc:
            self._error(429, str(exc), {
                "Retry-After": str(max(1, round(exc.retry_after_seconds)))})
            return
        except (ToolError, KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad job body: {exc}")
            return
        self._send_json(202, job.to_dict(),
                        {"Location": f"/jobs/{job.id}"})

    def do_DELETE(self) -> None:    # noqa: N802
        gateway = self.server.gateway
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, f"no route for DELETE {self.path}")
            return
        job = gateway.jobs.cancel(parts[1])
        if job is None:
            self._error(404, f"unknown job {parts[1]!r}")
            return
        self._send_json(200, job.to_dict())

    # -- streaming ------------------------------------------------------
    @staticmethod
    def _chunk(*parts: bytes) -> bytes:
        """``parts`` framed as one HTTP chunk, joined in one copy."""
        size = sum(len(part) for part in parts)
        return b"".join((b"%x\r\n" % size,) + parts + (b"\r\n",))

    def _stream(self, job) -> None:
        """Chunked NDJSON: per-request results as they land, then a
        terminal summary line.  While a result is pending nothing is
        written; the wait re-polls every 0.5 s.  A client hanging up
        just ends the stream; the job itself is unaffected."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for index in range(len(job.requests)):
                while True:
                    try:
                        response = job.wait_result(index, timeout=0.5)
                        break
                    except TimeoutError:
                        continue        # job still live: keep waiting
                if response is None:    # terminal before this result
                    break
                # The response's one encoding (shared with the disk
                # cache) spliced into the line: byte for byte
                # json.dumps({"index": i, "response": r.to_dict()},
                # sort_keys=True).  The retained response then drops it.
                self.wfile.write(self._chunk(
                    b'{"index": %d, "response": ' % index,
                    response.to_json().encode(), b"}\n"))
                response.release_json()
            job.wait()
            summary = json.dumps(job.to_dict(), sort_keys=True).encode()
            self.wfile.write(self._chunk(summary, b"\n") + b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def handle_one_request(self):
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True


class StabilityGateway:
    """One warm engine, one bounded job queue, one HTTP front.

    Parameters
    ----------
    service:
        The :class:`StabilityService` to serve; built from
        ``service_kwargs`` (forwarded to the service constructor) when
        omitted.  The gateway owns it either way: :meth:`close` shuts
        the warm pool down.
    host / port:
        Bind address; ``port=0`` (the default) picks an ephemeral port —
        the resolved one is in :attr:`address` right after construction,
        which is what the test harness uses.
    dispatchers / max_queue_depth / default_priority /
    retry_after_seconds / slice_size:
        Forwarded to :class:`~repro.service.jobs.JobManager`; the
        watermark is the 429 backpressure knob.
    """

    def __init__(self, service: Optional[StabilityService] = None,
                 host: str = "127.0.0.1", port: int = 0, *,
                 dispatchers: int = 2,
                 max_queue_depth: Optional[int] = 64,
                 default_priority: str = "normal",
                 retry_after_seconds: float = 1.0,
                 slice_size: int = 32,
                 **service_kwargs):
        self.service = service if service is not None \
            else StabilityService(**service_kwargs)
        # Fresh results keep their JSON text until the stream sends it.
        self.service.keep_encoding = True
        self.jobs = JobManager(self.service,
                               dispatchers=dispatchers,
                               max_queue_depth=max_queue_depth,
                               default_priority=default_priority,
                               retry_after_seconds=retry_after_seconds,
                               slice_size=slice_size)
        self._server = _GatewayServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self._started = time.time()
        self._serving = False
        self._closed = False
        self.closing = False

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple:
        """``(host, port)`` actually bound (port resolved when 0)."""
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def uptime(self) -> float:
        return time.time() - self._started

    def metrics(self) -> dict:
        """The ``/metrics`` body: engine report + cache + registry
        snapshot (exactly ``StabilityService.engine_report()``) plus the
        gateway's own queue/lifecycle counters."""
        payload = self.service.engine_report()
        payload["gateway"] = dict(self.jobs.stats(),
                                  uptime_seconds=self.uptime())
        return payload

    # ------------------------------------------------------------------
    def start(self) -> "StabilityGateway":
        """Serve in a daemon thread; returns self (already listening)."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="repro-gateway", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``serve`` CLI path)."""
        self._serving = True
        self._server.serve_forever(poll_interval=0.1)

    def close(self, drain: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Graceful shutdown (idempotent): refuse new jobs, drain the
        queue (unless ``drain=False``, which cancels the backlog), stop
        the listener, close the warm pool.  True when fully wound down.
        """
        if self._closed:
            return True
        self._closed = True
        self.closing = True                 # POST /jobs now answers 503
        drained = self.jobs.close(drain=drain, timeout=timeout)
        # BaseServer.shutdown() waits on an event only serve_forever()
        # sets — calling it on a server that never served deadlocks
        # forever, so signal it only once serving actually began.
        if self._serving:
            self._server.shutdown()
            if self._thread is not None:
                self._thread.join(timeout=5.0)
        self._server.server_close()
        self.service.close()
        return drained

    def __enter__(self) -> "StabilityGateway":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
