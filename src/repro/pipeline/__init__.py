"""Composable, resumable stage pipelines (the k-Graph orchestration layer).

``repro.pipeline`` turns the monolithic "one big fit" into an
orchestratable system:

* :class:`Stage` — one named, cacheable unit of work with declared
  ``inputs`` / ``outputs`` / ``config_keys`` (:mod:`repro.pipeline.stage`);
* :class:`Pipeline` — executes a validated DAG of stages in topological
  order, timing each under ``stage:<name>`` and checkpointing outputs
  through a :class:`StageCache` under chained keys — seed inputs hashed
  by content, stage outputs named by their producer's key
  (:mod:`repro.pipeline.runner`, :mod:`repro.pipeline.cache`);
* :mod:`repro.pipeline.kgraph_stages` — the paper's five k-Graph steps as
  concrete stages plus :func:`build_kgraph_pipeline`.

A re-run with one changed parameter re-executes only the stages whose
key changed (and everything downstream).  Stages fan out through
``ctx.dispatch``; the two k-Graph stages that do, ``embed`` and
``graph_cluster``, take per-stage execution backends via
``stage_backends=`` / ``--stage-backend`` (see :func:`stage_backend_scope`).
"""

from repro.pipeline.cache import (
    DISK_CACHE_POLICIES,
    CacheEntryMeta,
    CacheStats,
    DiskStageCache,
    MemoryStageCache,
    StageCache,
    resolve_stage_cache,
)
from repro.pipeline.fingerprint import fingerprint
from repro.pipeline.kgraph_stages import (
    KGRAPH_SEED_INPUTS,
    KGRAPH_STAGE_NAMES,
    ConsensusStage,
    EmbedStage,
    GraphClusterStage,
    InterpretabilityStage,
    LengthSelectionStage,
    build_kgraph_pipeline,
)
from repro.pipeline.runner import Pipeline, PipelineReport, StageRecord
from repro.pipeline.stage import PipelineContext, Stage, stage_backend_scope

__all__ = [
    "CacheEntryMeta",
    "DISK_CACHE_POLICIES",
    "CacheStats",
    "ConsensusStage",
    "DiskStageCache",
    "EmbedStage",
    "GraphClusterStage",
    "InterpretabilityStage",
    "KGRAPH_SEED_INPUTS",
    "KGRAPH_STAGE_NAMES",
    "LengthSelectionStage",
    "MemoryStageCache",
    "Pipeline",
    "PipelineContext",
    "PipelineReport",
    "Stage",
    "StageCache",
    "StageRecord",
    "build_kgraph_pipeline",
    "fingerprint",
    "resolve_stage_cache",
    "stage_backend_scope",
]
