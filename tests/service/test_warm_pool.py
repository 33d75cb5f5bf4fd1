"""Tests for the persistent warm worker pool and its transport.

Covers the warm-reuse contract (same worker processes across ``run()``
calls, at-most-once structure serialization), worker-crash recovery
(SIGKILLed workers are replaced, their tasks re-dispatched, no response
is dropped or duplicated), idle-timeout recycling, shared-memory leak
hygiene, and the configurable compiled-circuit cache.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.circuit.builder import CircuitBuilder
from repro.circuit.elements.passive import Resistor
from repro.circuits.ladders import rc_ladder
from repro.exceptions import ToolError
from repro.obs.metrics import global_registry
from repro.service import AnalysisRequest, BatchEngine, WorkerPool
from repro.service import engine as engine_module
from repro.service.shm import active_block_names

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="persistent pool tests rely on the fork start method")

#: Captured at import: the kill switches below only fire in *worker*
#: processes (the parent builds and fingerprints the same circuits).
_MAIN_PID = os.getpid()


class KillOnceResistor(Resistor):
    """Resistor that SIGKILLs the first worker process that stamps it.

    ``sentinel`` (a path, set by the test) makes the kill one-shot: the
    dying worker leaves the file behind, so the re-dispatched task
    completes on the replacement worker.
    """

    sentinel = None

    def stamp_linear(self, stamper, ctx) -> None:
        path = type(self).sentinel
        if path and os.getpid() != _MAIN_PID and not os.path.exists(path):
            with open(path, "w") as handle:
                handle.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        super().stamp_linear(stamper, ctx)


class KillAlwaysResistor(Resistor):
    """Resistor that SIGKILLs every worker process that stamps it."""

    def stamp_linear(self, stamper, ctx) -> None:
        if os.getpid() != _MAIN_PID:
            os.kill(os.getpid(), signal.SIGKILL)
        super().stamp_linear(stamper, ctx)


def _killer_circuit(cls, resistance):
    builder = CircuitBuilder(f"killer {resistance}")
    builder.voltage_source("in", "0", dc=1.0, name="V1")
    builder.resistor("in", "out", 1e3, name="R1")
    circuit = builder.build()
    circuit.add(cls("RK", "out", "0", resistance))
    return circuit


def _ladder_requests(count, mode="op", sections=8, **kwargs):
    circuit = rc_ladder(sections).circuit
    return [AnalysisRequest(mode=mode, circuit=circuit,
                            temperature=20.0 + index, backend="sparse",
                            label=f"s{index}", **kwargs)
            for index in range(count)]


def _counter(name):
    return global_registry().snapshot()["counters"].get(name, 0)


class TestWarmReuse:
    def test_workers_survive_across_runs(self):
        requests = _ladder_requests(8)
        with BatchEngine(max_workers=2, backend="process") as engine:
            engine.run(requests)
            first_pids = sorted(engine.pool.worker_pids())
            engine.run(requests)
            second_pids = sorted(engine.pool.worker_pids())
            report = engine.last_report
        assert first_pids == second_pids and len(first_pids) == 2
        assert report.pool is not None
        assert report.pool["warm_workers"] == 2
        assert report.pool["restarts"] == 0

    def test_structure_ships_at_most_once_across_runs(self):
        requests = _ladder_requests(10)
        fetches_before = _counter("transport.circuit_fetches")
        with BatchEngine(max_workers=2, backend="process") as engine:
            engine.run(requests)
            engine.run(requests)
            engine.run(requests)
            # One topology, three runs: the content-addressed store holds
            # exactly one structure block, and workers fetched it at most
            # once each (with fork inheritance, typically never).
            assert engine.pool.stats()["structures_stored"] == 1
        fetches = _counter("transport.circuit_fetches") - fetches_before
        assert 0 <= fetches <= 2

    def test_persistent_results_match_serial(self):
        requests = _ladder_requests(10)
        with BatchEngine(max_workers=2, backend="process") as engine:
            warm = engine.run(requests)
        serial = BatchEngine(backend="serial").run(requests)
        assert all(r.ok for r in warm)
        for got, want in zip(warm, serial):
            x_got = np.asarray(got.result["x"])
            x_want = np.asarray(want.result["x"])
            scale = np.maximum(np.abs(x_want), 1.0)
            assert np.max(np.abs(x_got - x_want) / scale) < 1e-9

    def test_ac_through_the_shm_transport_matches_serial(self):
        requests = _ladder_requests(6, mode="ac", node="n8")
        with BatchEngine(max_workers=2, backend="process") as engine:
            warm = engine.run(requests)
        serial = BatchEngine(backend="serial").run(requests)
        assert all(r.ok for r in warm)
        for got, want in zip(warm, serial):
            for key in ("data_real", "data_imag"):
                a = np.asarray(got.result[key], dtype=float)
                b = np.asarray(want.result[key], dtype=float)
                scale = np.maximum(np.abs(b), 1.0)
                assert np.max(np.abs(a - b) / scale) < 1e-9

    def test_non_persistent_engine_builds_no_pool(self):
        requests = _ladder_requests(4)
        with BatchEngine(max_workers=2, backend="process",
                         persistent=False) as engine:
            responses = engine.run(requests)
            assert engine.pool is None
        assert all(r.ok for r in responses)
        assert engine.last_report.pool["max_workers"] == 2

    def test_non_persistent_engine_closes_its_pool_after_each_run(self):
        # Shared-memory solve tasks (the sparse ladder group) and pickled
        # chunk tasks (dc-sweep) both run on a pool of the run's own.
        requests = _ladder_requests(6) + [
            AnalysisRequest(mode="dc-sweep", circuit=rc_ladder(8).circuit,
                            node="n8", dc_variable="Vin", dc_start=0.0,
                            dc_stop=1.0, dc_points=3, temperature=t,
                            label=f"dc{t}")
            for t in (0.0, 50.0)]
        with BatchEngine(max_workers=2, backend="process") as engine:
            warm = [engine.run(requests) for _ in range(2)]
        baseline = {p.pid for p in multiprocessing.active_children()}
        engine = BatchEngine(max_workers=2, backend="process",
                             persistent=False)
        for want in warm:
            got = engine.run(requests)
            assert engine.pool is None
            assert engine.last_report.pool_requests == len(requests)
            assert engine.last_report.chunks >= 2
            assert {p.pid for p in multiprocessing.active_children()} \
                <= baseline
            assert active_block_names() == []
            assert all(r.ok for r in got), [r.error for r in got]
            assert [r.result for r in got] == [r.result for r in want]

    def test_dropped_engine_closes_its_pool(self):
        engine = BatchEngine(max_workers=2, backend="process")
        assert all(r.ok for r in engine.run(_ladder_requests(4)))
        pids = set(engine.pool.worker_pids())
        assert len(pids) == 2
        assert active_block_names()          # the stored structure
        del engine
        assert active_block_names() == []
        assert not pids & {p.pid for p in multiprocessing.active_children()}

    def test_restamp_heavy_warm_runs_match_serial(self):
        """Temperature-dependent values on one topology, run after run:
        the warm pool keeps one structure, fetches it at most once per
        worker, never restarts, and agrees with the serial engine."""
        builder = CircuitBuilder("tc ladder")
        builder.voltage_source("in", "0", dc=1.0, name="V1")
        previous = "in"
        for index in range(1, 41):
            builder.resistor(previous, f"n{index}", 1e3, name=f"R{index}",
                             tc1=2e-4)
            builder.capacitor(f"n{index}", "0", 1e-12, name=f"C{index}")
            previous = f"n{index}"
        builder.resistor(previous, "0", 1e3, name="Rload")
        circuit = builder.build()
        requests = [AnalysisRequest(mode="op", circuit=circuit,
                                    temperature=-40.0 + 10.0 * index,
                                    backend="sparse", label=f"s{index}")
                    for index in range(16)]
        serial = BatchEngine(backend="serial").run(requests)
        fetches_before = _counter("transport.circuit_fetches")
        with BatchEngine(max_workers=2, backend="process") as engine:
            for _ in range(3):
                warm = engine.run(requests)
            stats = engine.pool.stats()
        assert stats["structures_stored"] == 1
        assert _counter("transport.circuit_fetches") - fetches_before <= 2
        assert stats["restarts"] == 0
        assert all(r.ok for r in serial) and all(r.ok for r in warm)
        x_serial = [np.asarray(r.result["x"]) for r in serial]
        # The samples really differ: tc1 moves the divider's taps.
        assert not np.allclose(x_serial[0], x_serial[-1], rtol=1e-6)
        for got, want in zip(warm, x_serial):
            x_got = np.asarray(got.result["x"])
            scale = np.maximum(np.abs(want), 1.0)
            assert np.max(np.abs(x_got - want) / scale) < 1e-9

    def test_close_is_idempotent_and_engine_restarts_lazily(self):
        requests = _ladder_requests(4)
        engine = BatchEngine(max_workers=2, backend="process")
        try:
            engine.run(requests)
            engine.close()
            engine.close()
            assert engine.pool is None
            responses = engine.run(requests)
            assert all(r.ok for r in responses)
        finally:
            engine.close()
        assert active_block_names() == []


class TestConcurrentRuns:
    def test_two_threads_share_one_engine(self):
        # Gateway dispatcher threads call run() on one engine at once;
        # both runs' pool tasks must come home to the right caller.
        circuit = rc_ladder(8).circuit

        def batch(tag):
            return [AnalysisRequest(mode="dc-sweep", circuit=circuit,
                                    node="n8", dc_variable="Vin",
                                    dc_start=0.0, dc_stop=1.0, dc_points=3,
                                    temperature=float(t), label=f"{tag}{t}")
                    for t in range(6)]

        results = {}
        stale_before = _counter("pool.stale_results")
        with BatchEngine(max_workers=2, backend="process") as engine:
            def work(tag):
                results[tag] = [engine.run(batch(tag)) for _ in range(4)]

            threads = [threading.Thread(target=work, args=(tag,), daemon=True)
                       for tag in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert sorted(results) == ["a", "b"], "a run never finished"
        for tag, runs in results.items():
            for responses in runs:
                assert [r.label for r in responses] == \
                    [r.label for r in batch(tag)]
                assert all(r.ok for r in responses)
        assert _counter("pool.stale_results") == stale_before


class TestCrashRecovery:
    def test_sigkilled_worker_is_replaced_and_chunk_redispatched(self, tmp_path):
        KillOnceResistor.sentinel = str(tmp_path / "killed-once")
        try:
            requests = [AnalysisRequest(
                mode="op", circuit=_killer_circuit(KillOnceResistor,
                                                   1e3 * (k + 1)),
                label=f"k{k}") for k in range(4)]
            restarts_before = _counter("pool.restarts")
            redispatches_before = _counter("pool.redispatches")
            with BatchEngine(max_workers=1, backend="process") as engine:
                responses = engine.run(requests)
                report = engine.last_report
                stats = engine.pool.stats()
            assert os.path.exists(KillOnceResistor.sentinel)
            # No response dropped or duplicated, all eventually succeed.
            assert [r.label for r in responses] == [r.label for r in requests]
            assert all(r.ok for r in responses), \
                [(r.label, r.error) for r in responses]
            assert stats["restarts"] - restarts_before >= 1
            assert _counter("pool.redispatches") - redispatches_before >= 1
            assert report.requests == 4 and report.chunks == 4
            assert report.pool["warm_workers"] == 1
        finally:
            KillOnceResistor.sentinel = None
        assert active_block_names() == []

    def test_poison_task_is_isolated_after_redispatch_budget(self):
        requests = [AnalysisRequest(
            mode="op", circuit=_killer_circuit(KillAlwaysResistor,
                                               1e3 * (k + 1)),
            label=f"p{k}") for k in range(2)]
        with BatchEngine(max_workers=1, backend="process") as engine:
            responses = engine.run(requests)
        assert [r.label for r in responses] == ["p0", "p1"]
        assert all(not r.ok for r in responses)
        assert all("worker failure" in r.error for r in responses)
        assert active_block_names() == []

    def test_crash_does_not_leak_shm_of_concurrent_batched_group(self, tmp_path):
        KillOnceResistor.sentinel = str(tmp_path / "killed-mixed")
        try:
            # One shm-transported linear group + killer chunk requests in
            # the same run: the crash must not strand the group's blocks.
            requests = _ladder_requests(6)
            requests += [AnalysisRequest(
                mode="op", circuit=_killer_circuit(KillOnceResistor,
                                                   1e3 * (k + 1)),
                label=f"mk{k}") for k in range(2)]
            with BatchEngine(max_workers=2, backend="process") as engine:
                responses = engine.run(requests)
                # Only the content-addressed structure store survives a run.
                assert len(active_block_names()) == \
                    engine.pool.stats()["structures_stored"]
            assert all(r.ok for r in responses), \
                [(r.label, r.error) for r in responses]
        finally:
            KillOnceResistor.sentinel = None
        assert active_block_names() == []


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestOrphanedWorkers:
    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads process states from /proc")
    def test_worker_exits_when_its_parent_dies_without_close(self):
        # The parent interpreter starts one worker and dies at once: no
        # close(), no atexit hook, so no sentinel ever reaches the worker.
        script = ("import os\n"
                  "from repro.service import WorkerPool\n"
                  "pool = WorkerPool(max_workers=1)\n"
                  "pool.ensure_started()\n"
                  "print(pool.worker_pids()[0], flush=True)\n"
                  "os._exit(0)\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # The worker inherits the pipe: read the line, not up to EOF.
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE, text=True)
        with child.stdout:
            pid = int(child.stdout.readline())
        assert child.wait(timeout=60) == 0
        try:
            deadline = time.monotonic() + 10.0
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _running(pid)
        finally:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


class TestIdleRecycle:
    def test_idle_pool_recycles_and_restarts_lazily(self):
        requests = _ladder_requests(4)
        with BatchEngine(max_workers=1, backend="process",
                         pool_idle_timeout=0.2) as engine:
            engine.run(requests)
            pool = engine.pool
            assert pool.alive
            # Workers stop first, then the recycler unlinks the structure
            # store's blocks — poll for the end state of both.
            deadline = time.time() + 10.0
            while time.time() < deadline and \
                    (pool.alive or active_block_names()):
                time.sleep(0.05)
            assert not pool.alive
            assert active_block_names() == []
            assert pool.stats()["recycles"] >= 1
            responses = engine.run(requests)
            assert all(r.ok for r in responses)
        assert active_block_names() == []


class TestWorkerPoolDirect:
    def test_rejects_zero_workers(self):
        with pytest.raises(ToolError):
            WorkerPool(0)

    def test_run_tasks_on_closed_pool_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(ToolError):
            list(pool.run_tasks([("chunk", [])]))

    def test_chunk_tasks_round_trip(self):
        requests = _ladder_requests(3)
        with WorkerPool(1) as pool:
            outcomes = dict(pool.run_tasks(
                [("chunk", requests[:2]), ("chunk", requests[2:])]))
        assert set(outcomes) == {0, 1}
        assert all(o.status == "done" for o in outcomes.values())
        assert [r.label for r in outcomes[0].payload] == ["s0", "s1"]
        assert [r.label for r in outcomes[1].payload] == ["s2"]
        # The worker ships its metric delta home alongside the payload.
        assert isinstance(outcomes[0].delta, dict)


class TestCompiledCacheConfig:
    def test_env_var_sets_default_size(self, monkeypatch):
        monkeypatch.setenv(engine_module.COMPILED_CACHE_ENV_VAR, "3")
        assert engine_module._default_compiled_cache_size() == 3
        monkeypatch.setenv(engine_module.COMPILED_CACHE_ENV_VAR, "junk")
        assert engine_module._default_compiled_cache_size() == \
            engine_module._COMPILED_CACHE_DEFAULT
        monkeypatch.setenv(engine_module.COMPILED_CACHE_ENV_VAR, "-4")
        assert engine_module._default_compiled_cache_size() == 1

    def test_engine_rejects_non_positive_cache_size(self):
        with pytest.raises(ToolError):
            BatchEngine(compiled_cache_size=0)

    def test_set_compiled_cache_size_trims_and_counts_evictions(self):
        previous = engine_module._COMPILED_CACHE_SIZE
        evictions_before = _counter("engine.compile_cache.evictions")
        try:
            engine_module.set_compiled_cache_size(16)
            for key in range(6):
                engine_module._cache_put(f"trim-test-{key}", object())
            engine_module.set_compiled_cache_size(2)
            with engine_module._COMPILED_CACHE_LOCK:
                assert len(engine_module._COMPILED_CACHE) <= 2
            assert _counter("engine.compile_cache.evictions") > evictions_before
        finally:
            engine_module.set_compiled_cache_size(previous)
            with engine_module._COMPILED_CACHE_LOCK:
                engine_module._COMPILED_CACHE.clear()

    def test_cache_counters_surface_in_engine_report(self):
        circuit = rc_ladder(4).circuit
        requests = [AnalysisRequest(mode="all-nodes", circuit=circuit,
                                    temperature=20.0 + k, label=f"c{k}")
                    for k in range(3)]
        with engine_module._COMPILED_CACHE_LOCK:
            engine_module._COMPILED_CACHE.clear()
        engine = BatchEngine(backend="serial")
        engine.run(requests)
        report = engine.last_report
        assert report.counter("engine.compile_cache.misses") >= 1
        # The batched fast path compiles once per group, so the hits show
        # up on a second run over the same structure.
        engine.run(requests)
        report = engine.last_report
        assert report.counter("engine.compile_cache.hits") >= 1
        assert report.counter("engine.compile_cache.misses") == 0


class TestNetlistHashMemo:
    NETLIST = "hash memo\nR1 a 0 1k\nC1 a 0 1n\nI1 0 a DC 1u\n.end\n"

    def test_hash_matches_sha256_and_is_memoised(self):
        import hashlib

        request = AnalysisRequest(mode="all-nodes", netlist=self.NETLIST)
        expected = hashlib.sha256(self.NETLIST.encode("utf-8")).hexdigest()
        assert request.netlist_text_hash() == expected
        assert request._netlist_hash == expected
        assert request.netlist_text_hash() is request.netlist_text_hash()

    def test_circuit_backed_request_has_no_text_hash(self):
        request = AnalysisRequest(mode="op", circuit=rc_ladder(2).circuit)
        assert request.netlist_text_hash() is None

    def test_group_key_uses_memoised_hash(self):
        requests = [AnalysisRequest(mode="all-nodes", netlist=self.NETLIST)
                    for _ in range(2)]
        keys = {BatchEngine._group_key(r, i)
                for i, r in enumerate(requests)}
        assert len(keys) == 1
