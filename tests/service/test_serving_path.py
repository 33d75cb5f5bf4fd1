"""The gateway's serving path: one encoding per result, no Nagle stalls.

A fresh result is JSON-encoded once (``AnalysisResponse.to_json``), the
disk cache writes that text and the gateway's stream splices it into its
NDJSON line, then releases it.  These tests pin the wire bytes, the disk
format, the socket option and the memory contract of that path.
"""

import http.client
import json
import math
import os
import socket
import types
from dataclasses import replace

import pytest

import repro.service.engine as engine_module
import repro.service.requests as requests_module
from repro.obs.metrics import global_registry
from repro.obs.trace import Tracer, use_tracer
from repro.service import (
    AnalysisRequest,
    AnalysisResponse,
    BatchEngine,
    Distribution,
    ResultCache,
    ScenarioSpec,
    StabilityService,
)
from repro.service.gateway import _GatewayHandler

from tests.service.gateway_harness import running_gateway

RLC_NETLIST = """tank standard
.param rval=1k
R1 tank 0 {rval}
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""

BROKEN_NETLIST = """broken
R1 a 0 {undefined_variable}
C1 a 0 1n
I1 0 a DC 1u
.end
"""

KEY = "ab" + "0" * 62


def _raw_stream(gateway, job_id: str) -> list:
    """The stream's NDJSON lines as raw bytes (chunk framing removed)."""
    host, port = gateway.address
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        connection.request("GET", f"/jobs/{job_id}/stream")
        response = connection.getresponse()
        assert response.status == 200
        return response.read().splitlines()
    finally:
        connection.close()


def _expected_lines(job) -> list:
    return [json.dumps({"index": index, "response": response.to_dict()},
                       sort_keys=True).encode()
            for index, response in enumerate(job.results())]


def _encodes(monkeypatch) -> list:
    """Record every ``json.dumps`` made by ``AnalysisResponse.to_json``."""
    calls = []

    def dumps(obj, **kwargs):
        calls.append(obj.get("label"))
        return json.dumps(obj, **kwargs)

    monkeypatch.setattr(requests_module, "json",
                        types.SimpleNamespace(dumps=dumps))
    return calls


class TestResponseEncoding:
    def test_to_json_is_sorted_dumps_and_memoized(self):
        response = AnalysisResponse(fingerprint="f", mode="op",
                                    status="done", result={"b": 1, "a": 2})
        text = response.to_json()
        assert text == json.dumps(response.to_dict(), sort_keys=True)
        assert response.to_json() is text

    def test_replace_clone_does_not_inherit_the_memo(self):
        response = AnalysisResponse(fingerprint="f", mode="op",
                                    status="done", label="first")
        response.to_json()
        clone = replace(response, label="second", cached=True)
        assert json.loads(clone.to_json())["label"] == "second"
        assert json.loads(response.to_json())["label"] == "first"

    def test_release_drops_the_memo(self):
        response = AnalysisResponse(fingerprint="f", mode="op",
                                    status="done")
        text = response.to_json()
        response.release_json()
        assert response._json is None
        assert response.to_json() == text


class TestStreamBytes:
    def test_lines_match_sorted_dumps_for_every_response_kind(self, tmp_path):
        request = {"mode": "op", "netlist": RLC_NETLIST}
        with running_gateway(cache_directory=str(tmp_path),
                             persistent=False) as (gateway, client):
            # Fresh, an in-batch clone with its own label, and a failure.
            first = client.submit({"requests": [
                dict(request, label="fresh"),
                dict(request, label="clone"),
                {"mode": "op", "netlist": BROKEN_NETLIST, "label": "broken"},
            ]})
            lines = _raw_stream(gateway, first["id"])
            job = gateway.jobs.get(first["id"])
            fresh, clone, broken = job.results()
            assert not fresh.cached and clone.cached and not broken.ok
            assert clone.label == "clone"
            assert lines[:-1] == _expected_lines(job)
            assert json.loads(lines[-1])["status"] == "done"

            # Served again, from the memory tier and then from disk.
            for drop_memory in (False, True):
                if drop_memory:
                    gateway.service.cache.clear(disk=False)
                again = client.submit(dict(request, label="hit"))
                lines = _raw_stream(gateway, again["id"])
                job = gateway.jobs.get(again["id"])
                [hit] = job.results()
                assert hit.cached
                assert hit.label == "hit"
                assert lines[:-1] == _expected_lines(job)

    def test_a_fresh_result_is_encoded_once(self, tmp_path, monkeypatch):
        encodes = _encodes(monkeypatch)
        with running_gateway(cache_directory=str(tmp_path),
                             persistent=False) as (gateway, client):
            job = client.submit({"mode": "op", "netlist": RLC_NETLIST,
                                 "label": "once"})
            lines = _raw_stream(gateway, job["id"])
        assert len(lines) == 2
        # One encoding, shared by the disk cache and the stream.
        assert encodes == ["once"]
        [path] = [os.path.join(root, name)
                  for root, _, names in os.walk(tmp_path)
                  for name in names if name.endswith(".json")]
        with open(path, encoding="utf-8") as handle:
            on_disk = handle.read()
        assert lines[0] == b'{"index": 0, "response": ' \
            + on_disk.encode() + b"}"


class TestCompactStreamBytes:
    def test_compact_all_nodes_lines_match_sorted_dumps(self, tmp_path):
        with running_gateway(cache_directory=str(tmp_path),
                             persistent=False) as (gateway, client):
            submitted = client.submit({"mode": "all-nodes",
                                       "netlist": RLC_NETLIST})
            lines = _raw_stream(gateway, submitted["id"])
            job = gateway.jobs.get(submitted["id"])
            assert lines[:-1] == _expected_lines(job)
            [entry] = json.loads(lines[0])["response"]["result"]["results"]
            assert "plot" not in entry
            assert abs(entry["damping_ratio"] - 0.5) < 1e-3


def _strict_loads(line: bytes):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=refuse)


class TestStrictJson:
    @pytest.mark.parametrize("disk", [True, False])
    def test_a_nan_result_streams_as_a_typed_failure(self, tmp_path,
                                                     monkeypatch, disk):
        real = engine_module.stability_payload

        def poisoned(result, detail):
            payload = real(result, detail)
            payload["results"][0]["natural_frequency_hz"] = float("nan")
            return payload

        monkeypatch.setattr(engine_module, "stability_payload", poisoned)
        body = {"mode": "all-nodes", "netlist": RLC_NETLIST}
        with running_gateway(cache_directory=str(tmp_path) if disk else None,
                             persistent=False) as (gateway, client):
            for _attempt in range(2):
                submitted = client.submit(body)
                lines = _raw_stream(gateway, submitted["id"])
                response = _strict_loads(lines[0])["response"]
                assert response["status"] == "failed"
                assert response["result"] is None
                assert response["error_details"] == {
                    "type": "NonFiniteResultError",
                    "path": "/result/results/0/natural_frequency_hz"}
                assert "natural_frequency_hz" in response["error"]
                summary = _strict_loads(lines[-1])
                assert summary["failed_requests"] == 1
                # Never cached: the second attempt computes afresh.
                assert summary["cached_requests"] == 0
                assert len(gateway.service.cache) == 0
                assert gateway.service.cache.disk_entries() == 0

    def test_cache_put_refuses_non_finite_payloads(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        try:
            cache.put(KEY, {"x": [1.0, float("inf")]})
        except ValueError:
            pass
        else:
            raise AssertionError("a non-finite payload was stored")
        assert len(cache) == 0 and cache.disk_entries() == 0

    def test_first_non_finite_names_the_path(self):
        payload = {"a": [1.0, 2.0], "b": [{"c": 1.0}, {"c": -math.inf}]}
        assert requests_module.first_non_finite(payload) == "/b/1/c"
        assert requests_module.first_non_finite({"a": [1.0, 2.0]}) is None
        assert requests_module.first_non_finite(
            [1e308, 1e308], "/r") is None


class TestEncodingTelemetry:
    def test_each_encoding_is_a_span_and_counts_its_bytes(self):
        counter = global_registry().counter("service.response_bytes")
        before = counter.value
        response = AnalysisResponse(fingerprint="f", mode="op",
                                    status="done", result={"v": [1.0]})
        tracer = Tracer()
        with use_tracer(tracer):
            text = response.to_json()
            response.to_json()              # memoized: no second encoding
        assert counter.value - before == len(text)
        [encode] = [s for s in tracer.spans() if s.name == "service.encode"]
        assert encode.attrs["bytes"] == len(text)


class TestStreamReleasesText:
    def test_no_retained_response_holds_text_after_its_stream(self,
                                                              tmp_path):
        with running_gateway(cache_directory=str(tmp_path),
                             persistent=False) as (gateway, client):
            submitted = client.submit({
                "mode": "op", "netlist": RLC_NETLIST,
                "scenarios": {"samples": 3, "seed": 5, "variables": {
                    "rval": {"kind": "uniform", "params": [800.0, 1200.0]}}},
            })
            client.wait(submitted["id"])
            job = gateway.jobs.get(submitted["id"])
            # The disk cache encoded every fresh result; the text waits
            # on the retained response for the stream to use it.
            assert all(r._json is not None for r in job.results())
            lines = _raw_stream(gateway, submitted["id"])
            assert len(lines) == 4
            assert all(r._json is None for r in job.results())


class _CountingWriter:
    """The handler's socket writer, recording each write's size."""

    def __init__(self, inner, writes: list):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestSocket:
    def test_accepted_sockets_set_tcp_nodelay(self, monkeypatch):
        seen = []
        setup = _GatewayHandler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(handler.connection.getsockopt(socket.IPPROTO_TCP,
                                                      socket.TCP_NODELAY))

        monkeypatch.setattr(_GatewayHandler, "setup", recording_setup)
        with running_gateway(persistent=False) as (_gateway, client):
            status, _, _ = client.get("/healthz")
        assert status == 200
        assert seen and all(value != 0 for value in seen)

    def test_json_response_leaves_in_one_write(self, monkeypatch):
        writes = []
        setup = _GatewayHandler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(_GatewayHandler, "setup", counting_setup)
        with running_gateway(persistent=False) as (_gateway, client):
            status, headers, _ = client.get("/healthz")
        assert status == 200
        assert len(writes) == 1
        assert writes[0] > int(headers["Content-Length"])


class TestDiskFormat:
    def test_file_holds_plain_dumps_and_reads_back(self, tmp_path):
        payload = {"v": [1.5, 2.5], "label": None, "nested": {"z": 1, "a": 2}}
        ResultCache(str(tmp_path)).put(KEY, payload)
        path = os.path.join(str(tmp_path), "objects", KEY[:2], f"{KEY}.json")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == json.dumps(payload)
        assert ResultCache(str(tmp_path)).get(KEY) == payload

    def test_given_text_is_written_as_is(self, tmp_path):
        payload = {"b": 1, "a": 2}
        text = json.dumps(payload, sort_keys=True)
        cache = ResultCache(str(tmp_path))
        cache.put(KEY, payload, text)
        path = os.path.join(str(tmp_path), "objects", KEY[:2], f"{KEY}.json")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == text
        assert cache.get(KEY) is payload
        assert ResultCache(str(tmp_path)).get(KEY) == payload

    def test_entries_written_by_json_dump_still_read_back(self, tmp_path):
        payload = {"v": 3, "r": {"x": [1.0, 2.0]}}
        path = os.path.join(str(tmp_path), "objects", KEY[:2], f"{KEY}.json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert ResultCache(str(tmp_path)).get(KEY) == payload


class TestMemoryOnlyNeverEncodes:
    def test_screen_never_calls_to_json(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("a memory-only service encoded a response")

        monkeypatch.setattr(AnalysisResponse, "to_json", forbidden)
        service = StabilityService(cache=ResultCache(None),
                                   engine=BatchEngine(backend="serial"))
        spec = ScenarioSpec(
            variables={"rval": Distribution.uniform(800.0, 1200.0)},
            samples=4, seed=7)
        report = service.screen(spec, netlist=RLC_NETLIST,
                                base=AnalysisRequest(mode="all-nodes",
                                                     netlist=RLC_NETLIST))
        assert len(report.responses) == 4
        assert all(r.ok for r in report.responses)
        # Served again from the memory tier: still no encoding.
        again = service.screen(spec, netlist=RLC_NETLIST,
                               base=AnalysisRequest(mode="all-nodes",
                                                    netlist=RLC_NETLIST))
        assert all(r.cached for r in again.responses)

    def test_disk_backed_service_encodes_each_fresh_result_once(
            self, tmp_path, monkeypatch):
        encodes = _encodes(monkeypatch)
        service = StabilityService(cache=ResultCache(str(tmp_path)),
                                   engine=BatchEngine(backend="serial"))
        requests = [AnalysisRequest(mode="op", netlist=RLC_NETLIST,
                                    variables={"rval": value},
                                    label=f"r{value:g}")
                    for value in (900.0, 1100.0)]
        responses = service.submit_batch(requests)
        assert encodes == ["r900", "r1100"]
        assert service.cache.disk_entries() == 2
        # Nothing downstream sends the text on: it is dropped once stored.
        assert all(r._json is None for r in responses)

    def test_keep_encoding_leaves_the_text_on_fresh_responses(self, tmp_path):
        service = StabilityService(cache=ResultCache(str(tmp_path)),
                                   engine=BatchEngine(backend="serial"))
        service.keep_encoding = True
        request = AnalysisRequest(mode="op", netlist=RLC_NETLIST)
        [fresh] = service.submit_batch([request])
        [hit] = service.submit_batch([request])
        assert fresh._json == fresh.to_json()
        assert hit.cached and hit._json is None

