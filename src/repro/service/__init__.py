"""Batch stability-screening service: cache, process pool, Monte Carlo.

The paper's tool is push-button for one designer and one schematic; this
package turns the reproduction into a *service*: submit many circuits and
condition variants, get cached-or-fresh stability verdicts back.  It is
the "remote simulation / computer farm run capability" the paper lists as
future work, built from four pieces:

* :mod:`repro.service.requests` — the JSON request/response schema.  A
  request is content-addressed: its fingerprint is the SHA-256 of the
  canonical circuit (:mod:`repro.circuit.canonical`) plus every
  behaviour-affecting option, so identical work is identified regardless
  of element order, node aliases, hierarchy or titles.
* :mod:`repro.service.cache` — the two-tier result cache.
* :mod:`repro.service.engine` — :class:`BatchEngine`, which fans request
  batches out over a persistent warm :class:`~repro.service.pool.
  WorkerPool` (zero-copy shared-memory transport, work-stealing
  scheduling, per-request failure isolation, progress callbacks).
* :mod:`repro.service.scenarios` — Monte Carlo sampling of design
  variables and temperature into request batches, reduced to
  stability-yield statistics.
* :mod:`repro.service.jobs` — the async job layer: a priority
  :class:`~repro.service.jobs.JobQueue` with a bounded admission gate and
  :class:`~repro.service.jobs.JobManager` dispatcher threads (per-job
  failure isolation, cooperative cancel, graceful drain).
* :mod:`repro.service.gateway` — :class:`StabilityGateway`, the
  long-lived stdlib HTTP front: submit jobs, poll or stream results,
  scrape ``/metrics``; ``python -m repro.service serve`` boots it.

:class:`StabilityService` ties them together; ``python -m repro.service``
exposes the whole thing on the command line.

Cache layout
------------

The disk tier of the result cache is a content-addressed object store
rooted at the service's cache directory (by default
``<session result directory>/service_cache`` when created through the
CLI)::

    <cache root>/
        objects/
            ab/                          # first two hex chars of the key
                ab3f...e1.json           # full 64-char SHA-256 fingerprint

Each object is the strict-JSON form of an :class:`AnalysisResponse` —
status, serialized result payload (verdict-sized for the stability modes
unless the request asks for ``detail="plots"``), formatted report and
timing.  Keys are request fingerprints; the files are written atomically
(temp file + rename) so a crashed run never leaves a truncated entry, and
corrupt entries read back as cache misses.  Only successful analyses are
stored.  The in-memory tier is a bounded LRU over the same payloads;
evicted entries remain on disk and are promoted back on their next hit.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.engine import BatchEngine, execute_request
from repro.service.gateway import StabilityGateway
from repro.service.jobs import Job, JobManager, JobQueue, QueueFullError
from repro.service.pool import WorkerPool
from repro.service.requests import AnalysisRequest, AnalysisResponse, expand_corners
from repro.service.scenarios import (
    Distribution,
    OpSpread,
    Scenario,
    ScenarioSpec,
    SampleOutcome,
    StabilityCriteria,
    SweepEnvelope,
    YieldSummary,
    dc_sweep_envelope,
    generate_scenarios,
    op_spread,
    scenario_requests,
    stability_yield,
)
from repro.service.service import (
    DCSweepReport,
    MonteCarloReport,
    OpReport,
    StabilityService,
)

__all__ = [
    "AnalysisRequest",
    "AnalysisResponse",
    "BatchEngine",
    "CacheStats",
    "DCSweepReport",
    "Distribution",
    "Job",
    "JobManager",
    "JobQueue",
    "MonteCarloReport",
    "OpReport",
    "OpSpread",
    "QueueFullError",
    "ResultCache",
    "SampleOutcome",
    "Scenario",
    "ScenarioSpec",
    "StabilityCriteria",
    "StabilityGateway",
    "StabilityService",
    "SweepEnvelope",
    "WorkerPool",
    "YieldSummary",
    "dc_sweep_envelope",
    "execute_request",
    "expand_corners",
    "generate_scenarios",
    "op_spread",
    "scenario_requests",
    "stability_yield",
]
