"""Verdict-sized stability payloads and the ``detail`` request field.

``all-nodes``/``single-node`` responses carry peaks, verdicts, loops and
the operating point; every node's ``plot``, ``response`` and
``refined_plot`` arrays ride along only for ``detail="plots"``.  Only the
serialization differs: the verdict numbers of the two payloads are the
same floats, and the ``plots`` payload is the typed result's lossless
``to_dict()``.
"""

import json
import re

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuits import opamp_buffer_netlist
from repro.core.all_nodes import AllNodesResult, analyze_all_nodes
from repro.core.single_node import NodeStabilityResult, analyze_node
from repro.exceptions import ToolError
from repro.service import (
    AnalysisRequest,
    BatchEngine,
    Distribution,
    ResultCache,
    ScenarioSpec,
    StabilityService,
    expand_corners,
    scenario_requests,
    stability_yield,
)
from repro.service.engine import execute_request, stability_payload
from repro.service.gateway import _requests_from_body
from repro.tool.corners import Corner
from repro.waveform import Waveform

PLOT_FIELDS = ("plot", "response", "refined_plot")
COMPACT_LIMIT_BYTES = 16 * 1024

RLC_NETLIST = """tank standard
.param rval=1k
R1 tank 0 {rval}
L1 tank 0 1m
C1 tank 0 1n
Vref vref 0 DC 1 AC 1
Rtie vref tank 1G
.end
"""


def _without_plots(result: dict) -> dict:
    stripped = dict(result)
    stripped["results"] = [{k: v for k, v in entry.items()
                            if k not in PLOT_FIELDS}
                           for entry in result["results"]]
    stripped.pop("elapsed_seconds")
    return stripped


def _report(text: str) -> str:
    return re.sub(r"Elapsed: [0-9.]+ s", "Elapsed: - s", text)


def _divider():
    builder = CircuitBuilder("variable divider")
    builder.voltage_source("in", "0", dc=1.0, ac=1.0, name="Vin")
    builder.resistor("in", "out", "rtop", name="R1")
    builder.resistor("out", "0", 1e3, name="R2")
    builder.capacitor("out", "0", 1e-12, name="C1")
    builder.variable("rtop", 1e3)
    return builder.build()


@pytest.fixture(scope="module")
def buffer_pair():
    """The Fig. 1 op-amp buffer's all-nodes response in both details."""
    netlist = opamp_buffer_netlist()
    return tuple(execute_request(AnalysisRequest(mode="all-nodes",
                                                 netlist=netlist,
                                                 detail=detail))
                 for detail in ("verdict", "plots"))


class TestCompactPayload:
    def test_buffer_verdict_fits_in_16_kib(self, buffer_pair):
        compact, full = buffer_pair
        assert compact.ok and full.ok
        assert len(compact.to_json()) <= COMPACT_LIMIT_BYTES
        assert len(full.to_json()) > 10 * len(compact.to_json())

    def test_verdicts_loops_and_peaks_equal_the_plots_payload(self,
                                                              buffer_pair):
        compact, full = buffer_pair
        for entry in compact.result["results"]:
            assert not set(PLOT_FIELDS) & set(entry)
        assert all(entry["plot"] is not None
                   for entry in full.result["results"])
        # Exact equality: every verdict number is the same float.
        assert _without_plots(compact.result) == _without_plots(full.result)
        assert compact.result["loops"] and compact.result["op"]
        assert _report(compact.report) == _report(full.report)

    def test_plots_payload_is_the_lossless_typed_dict(self):
        request = AnalysisRequest(mode="all-nodes", netlist=RLC_NETLIST,
                                  detail="plots")
        result = analyze_all_nodes(request.resolved_circuit(),
                                   options=request.analysis_options())
        served = execute_request(request).result
        typed = result.to_dict()
        assert stability_payload(result, "plots") == typed
        served.pop("elapsed_seconds")
        typed.pop("elapsed_seconds")
        assert served == typed

    def test_single_node_payload_and_compact_round_trip(self):
        requests = [AnalysisRequest(mode="single-node", netlist=RLC_NETLIST,
                                    node="tank", detail=detail)
                    for detail in ("verdict", "plots")]
        compact, full = (execute_request(r).result for r in requests)
        assert not set(PLOT_FIELDS) & set(compact)
        assert {k: v for k, v in full.items() if k not in PLOT_FIELDS} \
            == compact
        back = NodeStabilityResult.from_dict(compact)
        assert back.plot is None and back.response is None
        assert back.refined_plot is None
        assert back.damping_ratio == compact["damping_ratio"]
        assert back.to_dict(plots=False) == compact
        typed = analyze_node(requests[0].resolved_circuit(), "tank",
                             options=requests[0].analysis_options())
        assert NodeStabilityResult.from_dict(
            typed.to_dict()).plot.y.tolist() == typed.plot.y.tolist()

    def test_all_nodes_result_rebuilds_from_a_compact_payload(self,
                                                              buffer_pair):
        compact, full = buffer_pair
        lean = compact.all_nodes_result()
        rich = full.all_nodes_result()
        assert [r.plot for r in lean.results] == [None] * len(lean.results)
        assert [(loop.node_names, loop.natural_frequency_hz,
                 loop.phase_margin_deg) for loop in lean.loops] == \
            [(loop.node_names, loop.natural_frequency_hz,
              loop.phase_margin_deg) for loop in rich.loops]
        assert lean.to_dict(plots=False) == compact.result
        assert isinstance(AllNodesResult.from_dict(full.result)
                          .results[0].plot, Waveform)

    def test_other_modes_ignore_detail(self):
        for mode in ("op", "ac"):
            verdict, plots = (AnalysisRequest(mode=mode, netlist=RLC_NETLIST,
                                              detail=detail)
                              for detail in ("verdict", "plots"))
            assert verdict.fingerprint() == plots.fingerprint()
            assert execute_request(verdict).result == \
                execute_request(plots).result


class TestDetailField:
    def test_default_is_verdict_and_junk_is_refused(self):
        assert AnalysisRequest(netlist=RLC_NETLIST).detail == "verdict"
        with pytest.raises(ToolError, match="payload detail"):
            AnalysisRequest(netlist=RLC_NETLIST, detail="everything")

    def test_detail_round_trips_through_json(self):
        request = AnalysisRequest(netlist=RLC_NETLIST, detail="plots")
        data = json.loads(json.dumps(request.to_dict()))
        assert data["detail"] == "plots"
        assert AnalysisRequest.from_dict(data).detail == "plots"
        del data["detail"]
        assert AnalysisRequest.from_dict(data).detail == "verdict"

    def test_details_have_their_own_fingerprints_and_cache_entries(self):
        verdict, plots = (AnalysisRequest(mode="all-nodes",
                                          netlist=RLC_NETLIST, detail=detail)
                          for detail in ("verdict", "plots"))
        assert verdict.fingerprint() != plots.fingerprint()
        service = StabilityService(cache=ResultCache(None),
                                   engine=BatchEngine(backend="serial"))
        first = service.submit(verdict)
        second = service.submit(plots)
        assert not first.cached and not second.cached
        assert "plot" in second.result["results"][0]
        hit_verdict, hit_plots = service.submit(verdict), service.submit(plots)
        assert hit_verdict.cached and hit_plots.cached
        assert "plot" not in hit_verdict.result["results"][0]
        assert "plot" in hit_plots.result["results"][0]


class TestDetailPropagation:
    SPEC = ScenarioSpec(variables={"rval": Distribution.uniform(800.0,
                                                                 1200.0)},
                        samples=3, seed=4)

    def test_scenario_samples_inherit_detail(self):
        base = AnalysisRequest(mode="all-nodes", netlist=RLC_NETLIST,
                               detail="plots")
        _, requests = scenario_requests(self.SPEC, base=base)
        assert [r.detail for r in requests] == ["plots"] * 3

    def test_gateway_scenario_body_passes_detail_to_every_sample(self):
        body = {"mode": "all-nodes", "netlist": RLC_NETLIST,
                "detail": "plots", "priority": "high",
                "scenarios": {"samples": 3, "seed": 4, "variables": {
                    "rval": {"kind": "uniform", "params": [800, 1200]}}}}
        assert [r.detail for r in _requests_from_body(body)] == \
            ["plots"] * 3
        del body["detail"]
        assert [r.detail for r in _requests_from_body(body)] == \
            ["verdict"] * 3

    def test_corners_inherit_detail(self):
        base = AnalysisRequest(mode="all-nodes", netlist=RLC_NETLIST,
                               detail="plots")
        corners = [Corner("cold", -40.0), Corner("hot", 125.0)]
        assert [r.detail for r in expand_corners(base, corners)] == \
            ["plots", "plots"]


class TestEnginePaths:
    def test_mixed_details_share_one_fast_path_group(self):
        circuit = _divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    variables={"rtop": r}, detail=detail)
                    for detail in ("verdict", "plots")
                    for r in (1e3, 2e3, 4e3)]
        engine = BatchEngine(backend="serial")
        responses = engine.run(requests)
        report = engine.last_report
        assert report.fastpath_requests == len(requests)
        assert report.counter("engine.stability_batch.groups") == 1
        for request, response in zip(requests, responses):
            entry = response.result["results"][0]
            assert ("plot" in entry) == (request.detail == "plots")

    def test_shm_pool_path_honours_detail(self):
        circuit = _divider()
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    backend="sparse", variables={"rtop": r},
                                    detail=detail)
                    for detail in ("verdict", "plots")
                    for r in (1e3, 2e3, 4e3)]
        reference = BatchEngine(backend="serial").run(requests)
        with BatchEngine(backend="process", persistent=True,
                         max_workers=2) as pool_engine:
            pooled = pool_engine.run(requests)
            report = pool_engine.last_report
        # One shared-memory group: detail only shapes each row's payload.
        assert report.pool_requests == len(requests)
        assert report.counter("engine.stability_batch.groups") == 1
        for request, ref, pool in zip(requests, reference, pooled):
            assert ("plot" in pool.result["results"][0]) == \
                (request.detail == "plots")
            assert _without_plots(pool.result) == _without_plots(ref.result)


class TestYieldOnCompactPayloads:
    def test_yield_matches_the_full_payloads_without_waveforms(
            self, monkeypatch):
        spec = ScenarioSpec(
            variables={"rval": Distribution.uniform(300.0, 3000.0)},
            samples=8, seed=11)
        service = StabilityService(cache=ResultCache(None),
                                   engine=BatchEngine(backend="serial"))
        reports = {
            detail: service.screen(spec, base=AnalysisRequest(
                mode="all-nodes", netlist=RLC_NETLIST, detail=detail))
            for detail in ("verdict", "plots")}
        scenarios = reports["verdict"].scenarios

        def no_waveforms(*_args, **_kwargs):
            raise AssertionError("the yield reducer built a Waveform")

        monkeypatch.setattr(Waveform, "__init__", no_waveforms)
        summaries = {detail: stability_yield(scenarios, report.responses)
                     for detail, report in reports.items()}
        verdict, plots = summaries["verdict"], summaries["plots"]
        assert 0 < verdict.passed < verdict.samples
        assert [(o.status, o.min_phase_margin_deg,
                 o.worst_loop_frequency_hz) for o in verdict.outcomes] == \
            [(o.status, o.min_phase_margin_deg, o.worst_loop_frequency_hz)
             for o in plots.outcomes]
        monkeypatch.undo()
        typed = [r.all_nodes_result() for r in reports["plots"].responses]
        assert [min((loop.phase_margin_deg for loop in result.loops),
                    default=None) for result in typed] == \
            [o.min_phase_margin_deg for o in verdict.outcomes]
