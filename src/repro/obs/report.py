"""Per-run engine telemetry: what one batch actually paid for.

:class:`EngineReport` is the reduction the :class:`~repro.service.engine.
BatchEngine` produces for every ``run()``: how many requests ran, how
they were dispatched (in-process batched fast path vs. pool chunks), the
chunk timing distribution, and — the part that used to be lost — the
metric deltas each pool worker measured while executing its chunk,
merged back with the parent's own registry delta into one mergeable
snapshot.  It is JSON round-trippable and is the payload
:meth:`~repro.service.service.StabilityService.engine_report` exposes
(the future ``/metrics`` endpoint body).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.metrics import (
    empty_snapshot,
    merge_snapshots,
)

__all__ = ["EngineReport", "REPORT_SCHEMA_VERSION"]

#: Version stamped into serialized reports; bump on layout changes.
#: v2 added the persistent-pool telemetry block (``pool``).
REPORT_SCHEMA_VERSION = 2


@dataclass
class EngineReport:
    """Outcome telemetry of one :meth:`BatchEngine.run`.

    Attributes
    ----------
    requests:
        Total requests in the run.
    fastpath_requests:
        Requests served by the in-process batched kernel (linear
        ``op``/``ac`` groups bypassing pool dispatch).
    pool_requests:
        Requests dispatched per-request over the worker pool (or run
        inline on the serial backend).
    chunks:
        Pool chunks dispatched.
    chunk_seconds:
        Worker-measured wall time of each pool chunk, in completion
        order.
    worker_metrics:
        Sum of every pool worker's metric delta (snapshot form, see
        :mod:`repro.obs.metrics`) — empty for serial runs, whose work is
        already visible in the parent registry.
    run_metrics:
        The parent process registry delta over the whole run, *including*
        the folded-in worker deltas: the total metric cost of the run.
    pool:
        Persistent-pool telemetry (:meth:`~repro.service.pool.WorkerPool.
        stats`): warm worker count and pids, restarts/re-dispatches/
        recycles, work-steal and stale-result counts, resident structure
        blocks, and lifetime tasks per worker.  ``None`` when the run
        never touched a persistent pool.
    """

    requests: int = 0
    fastpath_requests: int = 0
    pool_requests: int = 0
    chunks: int = 0
    elapsed_seconds: float = 0.0
    backend: str = "process"
    chunk_seconds: List[float] = field(default_factory=list)
    worker_metrics: dict = field(default_factory=empty_snapshot)
    run_metrics: dict = field(default_factory=empty_snapshot)
    pool: Optional[dict] = None

    # ------------------------------------------------------------------
    def add_worker_delta(self, delta: dict) -> None:
        """Fold one worker chunk's metric delta into ``worker_metrics``."""
        self.worker_metrics = merge_snapshots(self.worker_metrics, delta)

    def counter(self, name: str) -> int:
        """Convenience: a counter's value from the run-total metrics."""
        return int(self.run_metrics.get("counters", {}).get(name, 0))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA_VERSION,
                "requests": self.requests,
                "fastpath_requests": self.fastpath_requests,
                "pool_requests": self.pool_requests,
                "chunks": self.chunks,
                "elapsed_seconds": self.elapsed_seconds,
                "backend": self.backend,
                "chunk_seconds": list(self.chunk_seconds),
                "worker_metrics": self.worker_metrics,
                "run_metrics": self.run_metrics,
                "pool": self.pool}

    @classmethod
    def from_dict(cls, data: dict) -> "EngineReport":
        return cls(requests=int(data.get("requests", 0)),
                   fastpath_requests=int(data.get("fastpath_requests", 0)),
                   pool_requests=int(data.get("pool_requests", 0)),
                   chunks=int(data.get("chunks", 0)),
                   elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
                   backend=data.get("backend", "process"),
                   chunk_seconds=[float(s) for s in
                                  data.get("chunk_seconds", [])],
                   worker_metrics=data.get("worker_metrics",
                                           empty_snapshot()),
                   run_metrics=data.get("run_metrics", empty_snapshot()),
                   pool=data.get("pool"))

    def format(self) -> str:
        """A short human-readable summary (the CLI ``--stats`` footer)."""
        lines = [
            f"engine report ({self.backend} backend, "
            f"{self.elapsed_seconds:.2f}s):",
            f"  requests: {self.requests} "
            f"(fast path {self.fastpath_requests}, "
            f"pool/inline {self.pool_requests} in {self.chunks} chunks)",
        ]
        if self.chunk_seconds:
            lines.append(
                f"  chunk wall time: min {min(self.chunk_seconds):.3f}s, "
                f"max {max(self.chunk_seconds):.3f}s, "
                f"total {sum(self.chunk_seconds):.3f}s")
        if self.pool is not None:
            lines.append(
                f"  pool: {self.pool.get('warm_workers', 0)}/"
                f"{self.pool.get('max_workers', 0)} warm workers, "
                f"{self.pool.get('structures_stored', 0)} structures "
                f"resident, {self.pool.get('steals', 0)} steals, "
                f"{self.pool.get('restarts', 0)} restarts")
        counters = self.run_metrics.get("counters", {})
        if counters:
            lines.append("  counters:")
            for name in sorted(counters):
                lines.append(f"    {name}: {counters[name]}")
        return "\n".join(lines) + "\n"
