"""Persistent warm worker pool with a work-stealing task queue.

The :class:`WorkerPool` is the process backend the
:class:`~repro.service.engine.BatchEngine` keeps *across* ``run()``
calls: workers are plain ``multiprocessing`` processes that live until
:meth:`WorkerPool.close` (or the idle timeout recycles them), so the
per-worker compiled-circuit LRU (:mod:`repro.service.engine`'s
``_COMPILED_CACHE``) and the sparse solver's symbolic-ordering cache
stay warm between batches — repeat-topology traffic skips the
structural compile entirely.

Scheduling is **work stealing by construction**: every task goes into
one shared queue and whichever worker frees up first takes the next one,
so a dense/sparse mix or a straggler chunk cannot idle the rest of the
pool.  Two task kinds exist, and for both the worker ships home what the
task added to its metric registry:

* ``TASK_CHUNK`` — a pickled list of requests, executed by
  :func:`~repro.service.engine.execute_request_chunk` (the fallback
  transport, used for every non-batchable mode);
* ``TASK_SOLVE`` — a small descriptor naming shared-memory blocks
  (:mod:`repro.service.shm`): the circuit ships content-addressed
  through the pool's :class:`~repro.service.shm.StructureStore`, value
  planes and result vectors move zero-copy.

Crash containment: the dispatch loop polls worker liveness whenever the
result stream goes quiet.  A dead worker (SIGKILL, OOM, segfault) is
replaced immediately and the tasks it had claimed are re-enqueued once
(``max_task_attempts``); a task that kills its second worker too is
reported as lost — the poison stays isolated instead of grinding the
pool through endless respawns.  Completed task ids are tracked so a
message that raced a crash re-dispatch can never produce a duplicate
outcome.

Results travel over a **per-worker queue**, each pumped into one
thread-safe inbox by a daemon reader thread.  This is deliberate: with a
single shared result queue, a worker SIGKILLed while its queue's feeder
thread is mid-write (the claim message goes out concurrently with the
task that kills it) leaves the shared pipe lock held by a corpse — every
surviving worker then blocks forever on its next result.  With one pipe
per worker a crash can only wedge the dead worker's own abandoned
queue; its reader thread is orphaned (daemon, reclaimed at exit) and the
rest of the pool never notices.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import threading
import traceback
import weakref
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ToolError
from repro.obs.metrics import global_registry
from repro.service import shm as shm_transport

__all__ = ["TASK_CHUNK", "TASK_SOLVE", "TaskOutcome", "WorkerPool"]

TASK_CHUNK = "chunk"
TASK_SOLVE = "solve"

#: How often (seconds) an idle worker checks that the process that
#: started it is still its parent; an orphaned worker exits.
PARENT_CHECK_SECONDS = 1.0

#: Pools not yet closed; the atexit hook unlinks their shared memory so
#: an un-closed daemon cannot strand ``/dev/shm`` segments.
_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()
_ATEXIT_INSTALLED = False


def _close_leftover_pools() -> None:
    for pool in list(_POOLS):
        try:
            pool.close()
        except Exception:
            pass


def _pump_results(result_queue, inbox) -> None:
    """Reader-thread loop: forward one worker's messages into the inbox.

    Ends on the ``None`` sentinel (clean shutdown) or on a broken pipe
    (the worker died; whatever it managed to send is already forwarded).
    """
    while True:
        try:
            message = result_queue.get()
        except (EOFError, OSError):
            break
        except Exception:
            break
        if message is None:
            break
        inbox.put(message)


@dataclass
class TaskOutcome:
    """What became of one dispatched task.

    ``status`` is ``"done"`` (``payload``/``delta`` are the worker's
    return value and metric delta), ``"error"`` (the worker caught and
    reported an exception — it is still alive) or ``"lost"`` (the task's
    worker died and the re-dispatch budget is spent).
    """

    status: str
    worker_id: int
    payload: object = None
    delta: Optional[dict] = None
    error: Optional[str] = None
    traceback: Optional[str] = None


def _worker_main(worker_id: int, task_queue, result_queue,
                 config: dict) -> None:
    """Worker process loop: drain the shared queue until the ``None``
    sentinel, or until the parent (``config["parent_pid"]``) is gone.
    Imports the engine lazily (the engine module imports this one); with
    the fork start method the parent's compiled-circuit cache is
    inherited copy-on-write, so structures compiled before the pool
    started cost the worker nothing."""
    from repro.obs.metrics import global_registry as _registry_factory
    from repro.obs.metrics import subtract_snapshots
    from repro.service import engine as _engine

    size = config.get("compiled_cache_size")
    if size:
        _engine.set_compiled_cache_size(size)
    registry = _registry_factory()
    result_queue.put(("ready", worker_id, os.getpid()))
    while True:
        try:
            task = task_queue.get(timeout=PARENT_CHECK_SECONDS)
        except queue.Empty:
            if os.getppid() != config["parent_pid"]:
                # Nobody reads results any more: exit without flushing.
                result_queue.cancel_join_thread()
                break
            continue
        if task is None:
            break
        kind, task_id, payload = task
        result_queue.put(("claim", task_id, worker_id))
        try:
            before = registry.snapshot()
            if kind == TASK_CHUNK:
                outcome = _engine.execute_request_chunk(payload)
            else:
                outcome = _engine.execute_solve_task(payload)
            delta = subtract_snapshots(registry.snapshot(), before)
            result_queue.put(("done", task_id, worker_id, outcome, delta))
        except BaseException as exc:  # noqa: BLE001 - full isolation
            try:
                result_queue.put(("error", task_id, worker_id,
                                  f"{type(exc).__name__}: {exc}",
                                  traceback.format_exc()))
            except Exception:
                break


class WorkerPool:
    """Long-lived worker processes fed from one shared task queue.

    Parameters
    ----------
    max_workers:
        Worker process count (replacements keep it constant).
    compiled_cache_size:
        Per-worker compiled-structure LRU size (``None``: the engine
        default, see ``REPRO_COMPILED_CACHE``).
    idle_timeout:
        Seconds of inactivity after which the workers *and* the
        structure store are recycled (``None``: never).  The pool
        restarts lazily on the next :meth:`run_tasks`.
    max_task_attempts:
        Dispatch budget per task across worker crashes (default 2: one
        re-dispatch, then the task is reported lost).
    """

    def __init__(self, max_workers: int,
                 compiled_cache_size: Optional[int] = None,
                 idle_timeout: Optional[float] = None,
                 max_task_attempts: int = 2,
                 structure_capacity: int = 32):
        global _ATEXIT_INSTALLED
        if max_workers < 1:
            raise ToolError("WorkerPool needs at least one worker")
        self.max_workers = int(max_workers)
        self.compiled_cache_size = compiled_cache_size
        self.idle_timeout = idle_timeout
        self.max_task_attempts = max(1, int(max_task_attempts))
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._lock = threading.RLock()
        #: Held for a whole run_tasks() call: the inbox is shared, so a
        #: concurrent run would take the other's results as stale and
        #: drop them, leaving both waiting forever.
        self._dispatch_lock = threading.Lock()
        self._workers: Dict[int, multiprocessing.Process] = {}
        self._worker_queues: Dict[int, object] = {}
        self._next_worker_id = 0
        self._next_task_id = 0
        self._task_queue = None
        #: Thread-safe merge point of every per-worker result queue.
        self._inbox: "queue.Queue" = queue.Queue()
        self._idle_timer: Optional[threading.Timer] = None
        self._running = False
        self._closed = False
        #: Content-addressed pickled-circuit blocks (survives recycling
        #: of the worker *processes* only via re-put; dropped with them).
        self.structure_store = shm_transport.StructureStore(
            capacity=structure_capacity)
        #: worker id -> tasks completed, over the pool's whole lifetime.
        self.tasks_by_worker: Dict[int, int] = {}
        registry = global_registry()
        self._workers_gauge = registry.gauge("pool.workers")
        self._restarts = registry.counter("pool.restarts")
        self._redispatches = registry.counter("pool.redispatches")
        self._recycles = registry.counter("pool.recycles")
        self._steals = registry.counter("pool.steals")
        self._stale = registry.counter("pool.stale_results")
        _POOLS.add(self)
        if not _ATEXIT_INSTALLED:
            atexit.register(_close_leftover_pools)
            _ATEXIT_INSTALLED = True

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether any warm worker process is currently running."""
        with self._lock:
            return any(p.is_alive() for p in self._workers.values())

    def worker_pids(self) -> List[int]:
        with self._lock:
            return [p.pid for p in self._workers.values() if p.is_alive()]

    def ensure_started(self) -> None:
        """Start (or top up) the worker processes; lazy and idempotent."""
        with self._lock:
            if self._closed:
                raise ToolError("worker pool is closed")
            self._cancel_idle_timer()
            if self._task_queue is None:
                self._task_queue = self._ctx.Queue()
            for worker_id in [w for w, p in self._workers.items()
                              if not p.is_alive()]:
                del self._workers[worker_id]
                self._retire_queue_locked(worker_id)
            while len(self._workers) < self.max_workers:
                self._spawn_worker_locked()
            self._workers_gauge.set(len(self._workers))

    def _spawn_worker_locked(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        result_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, self._task_queue, result_queue,
                  {"compiled_cache_size": self.compiled_cache_size,
                   "parent_pid": os.getpid()}),
            name=f"repro-pool-{worker_id}", daemon=True)
        process.start()
        self._workers[worker_id] = process
        self._worker_queues[worker_id] = result_queue
        reader = threading.Thread(target=_pump_results,
                                  args=(result_queue, self._inbox),
                                  name=f"repro-pool-reader-{worker_id}",
                                  daemon=True)
        reader.start()
        return worker_id

    def _retire_queue_locked(self, worker_id: int) -> None:
        """Drop a (dead or stopping) worker's result queue.

        The ``None`` sentinel ends the reader thread once it has
        forwarded everything the worker managed to send; if the worker
        died mid-write and wedged its own pipe, the sentinel never
        arrives and the daemon reader is simply orphaned — the rest of
        the pool keeps its own pipes.
        """
        result_queue = self._worker_queues.pop(worker_id, None)
        if result_queue is None:
            return
        try:
            result_queue.put(None)
        except Exception:
            pass
        try:
            # Never let interpreter exit block on this queue's feeder: a
            # pipe wedged by a crashed worker would never flush.
            result_queue.cancel_join_thread()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run_tasks(self, tasks: Sequence[Tuple[str, object]]
                  ) -> Iterator[Tuple[int, TaskOutcome]]:
        """Execute ``(kind, payload)`` tasks on the warm workers.

        Yields ``(task_index, outcome)`` in completion order; every task
        yields exactly once (``done``, ``error`` or — after the crash
        re-dispatch budget is spent — ``lost``).  Task ids are globally
        unique across the pool's lifetime, so a stale message from a
        previous run's re-dispatched duplicate is counted and dropped,
        never double-delivered.  Calls from several threads take turns.
        """
        if not tasks:
            return
        with self._dispatch_lock:
            yield from self._dispatch(tasks)

    def _dispatch(self, tasks: Sequence[Tuple[str, object]]
                  ) -> Iterator[Tuple[int, TaskOutcome]]:
        with self._lock:
            self.ensure_started()
            self._running = True
        run_counts: Dict[int, int] = {}
        try:
            index_by_id: Dict[int, int] = {}
            attempts: Dict[int, int] = {}
            claimed: Dict[int, int] = {}
            pending = set()
            with self._lock:
                for position, (kind, payload) in enumerate(tasks):
                    task_id = self._next_task_id
                    self._next_task_id += 1
                    index_by_id[task_id] = position
                    attempts[task_id] = 1
                    pending.add(task_id)
                    self._task_queue.put((kind, task_id, payload))
            payload_by_id = {tid: tasks[index_by_id[tid]] for tid in pending}
            while pending:
                try:
                    message = self._inbox.get(timeout=0.05)
                except queue.Empty:
                    for task_id, outcome in self._reap_dead_workers(
                            pending, claimed, attempts, payload_by_id):
                        pending.discard(task_id)
                        yield index_by_id[task_id], outcome
                    continue
                tag = message[0]
                if tag == "ready":
                    continue
                if tag == "claim":
                    _, task_id, worker_id = message
                    if task_id in pending:
                        claimed[task_id] = worker_id
                    continue
                task_id, worker_id = message[1], message[2]
                if task_id not in pending:
                    self._stale.inc()
                    continue
                pending.discard(task_id)
                claimed.pop(task_id, None)
                self.tasks_by_worker[worker_id] = \
                    self.tasks_by_worker.get(worker_id, 0) + 1
                run_counts[worker_id] = run_counts.get(worker_id, 0) + 1
                if tag == "done":
                    yield index_by_id[task_id], TaskOutcome(
                        status="done", worker_id=worker_id,
                        payload=message[3], delta=message[4])
                else:
                    yield index_by_id[task_id], TaskOutcome(
                        status="error", worker_id=worker_id,
                        error=message[3], traceback=message[4])
        finally:
            # Work stealing in numbers: tasks a worker completed beyond
            # an even pre-split's share were stolen from slower peers.
            if run_counts:
                fair_share = -(-sum(run_counts.values()) // self.max_workers)
                self._steals.inc(sum(max(0, count - fair_share)
                                     for count in run_counts.values()))
            with self._lock:
                self._running = False
                self._schedule_idle_timer()

    def _reap_dead_workers(self, pending, claimed, attempts, payload_by_id
                           ) -> List[Tuple[int, TaskOutcome]]:
        """Replace dead workers; re-dispatch or report their claimed tasks."""
        lost: List[Tuple[int, TaskOutcome]] = []
        with self._lock:
            dead = {w: p for w, p in self._workers.items()
                    if not p.is_alive()}
            if not dead:
                return lost

            def resolve(task_id, worker_id, process):
                if attempts[task_id] >= self.max_task_attempts:
                    lost.append((task_id, TaskOutcome(
                        status="lost", worker_id=worker_id,
                        error=f"worker exited with code {process.exitcode} "
                              f"while executing this task "
                              f"({attempts[task_id]} attempts)")))
                else:
                    attempts[task_id] += 1
                    kind, payload = payload_by_id[task_id]
                    self._task_queue.put((kind, task_id, payload))
                    self._redispatches.inc()

            resolved = set()
            for worker_id, process in dead.items():
                del self._workers[worker_id]
                self._retire_queue_locked(worker_id)
                self._restarts.inc()
                for task_id in [t for t, w in claimed.items()
                                if w == worker_id]:
                    claimed.pop(task_id, None)
                    if task_id in pending:
                        resolve(task_id, worker_id, process)
                        resolved.add(task_id)
            # A dying worker's *latest* claim rides its feeder thread and
            # is routinely still unflushed when SIGKILL lands — even when
            # earlier claims made it home.  Every unclaimed pending task
            # is therefore suspect once any worker died: re-enqueue them
            # all.  Tasks that were genuinely still queued just gain a
            # duplicate, which the completed-id dedup drops as stale.
            for task_id in sorted(pending):
                if (task_id not in claimed and task_id not in resolved):
                    resolve(task_id, next(iter(dead)),
                            next(iter(dead.values())))
                    resolved.add(task_id)
            while len(self._workers) < self.max_workers:
                self._spawn_worker_locked()
            self._workers_gauge.set(len(self._workers))
        return lost

    # ------------------------------------------------------------------
    def _schedule_idle_timer(self) -> None:
        if self.idle_timeout is None or self._closed:
            return
        self._cancel_idle_timer()
        timer = threading.Timer(self.idle_timeout, self._idle_recycle)
        timer.daemon = True
        timer.start()
        self._idle_timer = timer

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _idle_recycle(self) -> None:
        with self._lock:
            if self._running or self._closed:
                return
        self.stop_workers()
        self.structure_store.close()
        self._recycles.inc()

    # ------------------------------------------------------------------
    def stop_workers(self) -> None:
        """Stop the worker processes (the pool restarts lazily)."""
        with self._lock:
            self._cancel_idle_timer()
            workers, self._workers = self._workers, {}
            task_queue, self._task_queue = self._task_queue, None
            self._workers_gauge.set(0)
        if task_queue is not None:
            for _ in workers:
                try:
                    task_queue.put(None)
                except Exception:
                    break
        for process in workers.values():
            process.join(timeout=2.0)
        for process in workers.values():
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        with self._lock:
            for worker_id in list(self._worker_queues):
                self._retire_queue_locked(worker_id)
        if task_queue is not None:
            task_queue.close()
            task_queue.cancel_join_thread()

    def close(self) -> None:
        """Stop the workers and unlink every shared-memory block."""
        with self._lock:
            already = self._closed
            self._closed = True
        if already:
            return
        self.stop_workers()
        self.structure_store.close()
        _POOLS.discard(self)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Pool telemetry for :class:`~repro.obs.report.EngineReport`."""
        with self._lock:
            pids = [p.pid for p in self._workers.values() if p.is_alive()]
        return {
            "max_workers": self.max_workers,
            "warm_workers": len(pids),
            "worker_pids": pids,
            "restarts": int(self._restarts.value),
            "redispatches": int(self._redispatches.value),
            "recycles": int(self._recycles.value),
            "steals": int(self._steals.value),
            "stale_results": int(self._stale.value),
            "structures_stored": len(self.structure_store),
            "tasks_by_worker": dict(self.tasks_by_worker),
        }
