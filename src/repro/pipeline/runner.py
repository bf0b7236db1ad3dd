"""The :class:`Pipeline` executor: a validated DAG of cacheable stages.

``Pipeline.run`` executes its stages in declaration order (which the
constructor proves is a valid topological order of the declared
input/output dependencies), timing each stage under ``stage:<name>`` and —
when a :class:`~repro.pipeline.cache.StageCache` is supplied — replaying
checkpointed outputs instead of re-executing stages whose key is unchanged.
Keys are chained: seed inputs are hashed by content, and a value an earlier
stage produced is named by that stage's key, so graphs, partitions and
labels are never hashed.  The returned :class:`PipelineReport` records, per
stage, the cache key, whether it executed or replayed, and its wall-clock
seconds; the report is what tests assert resumability against and what the
serving manifest embeds (schema v2).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.exceptions import PipelineError
from repro.pipeline.cache import CacheEntryMeta, StageCache
from repro.pipeline.fingerprint import fingerprint
from repro.pipeline.stage import PipelineContext, Stage

_FAULT_COUNTERS = ("attempts", "timeouts", "pool_rebuilds")


def _fault_snapshot(ctx: PipelineContext, stage_name: str) -> Dict[str, int]:
    """Current cumulative fault counters attributed to ``stage_name``."""
    stats = ctx.fault_stats.get(stage_name) or {}
    return {name: int(stats.get(name, 0)) for name in _FAULT_COUNTERS}


@dataclass
class StageRecord:
    """What one stage did during one :meth:`Pipeline.run`."""

    name: str
    key: str
    cached: bool
    seconds: float
    outputs: List[str] = field(default_factory=list)
    #: Pickled payload bytes this stage shipped to a process backend (0 for
    #: serial/thread dispatches and cache replays).
    bytes_shipped: int = 0
    #: Fault-tolerance counters for this stage's dispatches (see
    #: :class:`~repro.parallel.ExecutionBackend`): job dispatches consumed,
    #: jobs whose final outcome timed out, and worker pools rebuilt.  All
    #: zero for cache replays.
    attempts: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "key": self.key,
            "cached": self.cached,
            "seconds": float(self.seconds),
            "outputs": list(self.outputs),
            "bytes_shipped": int(self.bytes_shipped),
            "attempts": int(self.attempts),
            "timeouts": int(self.timeouts),
            "pool_rebuilds": int(self.pool_rebuilds),
        }


@dataclass
class PipelineReport:
    """Per-stage outcome of one pipeline run (the resumability ledger)."""

    records: List[StageRecord] = field(default_factory=list)
    config_hash: str = ""

    @property
    def executed(self) -> List[str]:
        """Names of the stages that actually ran."""
        return [record.name for record in self.records if not record.cached]

    @property
    def cached(self) -> List[str]:
        """Names of the stages replayed from the cache."""
        return [record.name for record in self.records if record.cached]

    @property
    def stage_keys(self) -> Dict[str, str]:
        """Mapping stage name -> cache key (see :meth:`Pipeline.stage_key`)."""
        return {record.name: record.key for record in self.records}

    @property
    def stage_bytes_shipped(self) -> Dict[str, int]:
        """Mapping stage name -> pickled payload bytes shipped to workers."""
        return {record.name: int(record.bytes_shipped) for record in self.records}

    @property
    def total_attempts(self) -> int:
        """Job dispatches consumed across every stage of the run."""
        return sum(int(record.attempts) for record in self.records)

    @property
    def total_pool_rebuilds(self) -> int:
        """Worker pools rebuilt after breakage/hangs, across every stage."""
        return sum(int(record.pool_rebuilds) for record in self.records)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (embedded in the model-artifact manifest)."""
        return {
            "config_hash": self.config_hash,
            "stages": [record.as_dict() for record in self.records],
        }


class Pipeline:
    """An ordered DAG of :class:`Stage` objects with checkpoint/resume.

    The constructor validates the wiring once:

    * stage names are unique;
    * no two stages produce the same value;
    * every stage input is either a seed value (named in ``seed_inputs``)
      or the output of an *earlier* stage — i.e. the declaration order is a
      topological order of the dependency DAG.

    ``run`` then never needs to guess: a malformed pipeline fails at
    construction, not three stages into an expensive fit.
    """

    def __init__(self, stages: Sequence[Stage], *, seed_inputs: Sequence[str] = ()) -> None:
        stages = list(stages)
        if not stages:
            raise PipelineError("a pipeline needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise PipelineError(f"duplicate stage names: {sorted(names)}")
        available = set(seed_inputs)
        for stage in stages:
            missing = [name for name in stage.inputs if name not in available]
            if missing:
                raise PipelineError(
                    f"stage {stage.name!r} consumes {missing} but no earlier "
                    f"stage or seed input produces them (available: "
                    f"{sorted(available)})"
                )
            clashes = [name for name in stage.outputs if name in available]
            if clashes:
                raise PipelineError(
                    f"stage {stage.name!r} re-produces already available "
                    f"values {clashes}; every value must have one producer"
                )
            available.update(stage.outputs)
        self.stages = stages
        self.seed_inputs = tuple(seed_inputs)
        #: Total executions per stage name across every run of this
        #: instance (cache replays are *not* counted — these are the
        #: stage-run counters the resume tests assert on).
        self.run_counts: Dict[str, int] = {name: 0 for name in names}

    # ------------------------------------------------------------------ #
    def stage_key(
        self, stage: Stage, ctx: PipelineContext, produced_by: Mapping[str, str]
    ) -> str:
        """Cache key of ``stage`` in the current run.

        The key hashes the stage's name and version, its config subset and
        its inputs.  A seed input enters by its content fingerprint.  An
        input an earlier stage produced enters as that stage's key plus the
        output name (``produced_by`` maps each produced value name to its
        producer's key): equal producer keys mean equal outputs, because a
        stage is a pure function of what its key hashes.  So stage outputs
        are never hashed, and a key is stable across processes exactly when
        the seed inputs and config are.
        """
        digest = hashlib.sha256()
        digest.update(f"stage:{stage.name}:v{stage.version};".encode())
        for key in stage.config_keys:
            digest.update(f"config:{key}=".encode())
            digest.update(fingerprint(ctx.config.get(key)).encode())
        for name in stage.inputs:
            digest.update(f"input:{name}=".encode())
            if name in produced_by:
                digest.update(f"from:{produced_by[name]}:{name};".encode())
            else:
                digest.update(fingerprint(ctx.require(name)).encode())
        return digest.hexdigest()

    def run(
        self,
        ctx: PipelineContext,
        *,
        cache: Optional[StageCache] = None,
        config_hash: Optional[str] = None,
    ) -> PipelineReport:
        """Execute every stage (or replay its checkpoint) and report.

        Each stage's key comes from :meth:`stage_key`: seed inputs are
        hashed by content, produced inputs are named by their producer's
        key.  Keys derived before chaining differ, so an on-disk cache
        written by an older version misses once and is then rewritten.

        ``config_hash`` lets the driver stamp the report (and hence serve
        manifests) with a canonical config identity — e.g. the typed
        :meth:`repro.api.EstimatorConfig.config_hash` — instead of the
        ad-hoc fingerprint of the stages' config subset used as fallback.
        """
        missing_seed = [name for name in self.seed_inputs if name not in ctx.values]
        if missing_seed:
            raise PipelineError(
                f"pipeline seed inputs {missing_seed} are missing from the context"
            )
        if config_hash is None:
            config_hash = fingerprint(
                {key: ctx.config.get(key) for stage in self.stages for key in stage.config_keys}
            )
        report = PipelineReport(config_hash=config_hash)
        # Value name -> key of the stage that produced it in this run.
        produced_by: Dict[str, str] = {}
        for stage in self.stages:
            key = self.stage_key(stage, ctx, produced_by)
            produced_by.update(dict.fromkeys(stage.outputs, key))
            start = time.perf_counter()
            cached_outputs = cache.get(key) if cache is not None else None
            if cached_outputs is not None:
                with ctx.watch.section(f"stage:{stage.name}"):
                    ctx.values.update(cached_outputs)
                report.records.append(
                    StageRecord(
                        name=stage.name,
                        key=key,
                        cached=True,
                        seconds=time.perf_counter() - start,
                        outputs=sorted(cached_outputs),
                    )
                )
                continue
            bytes_before = ctx.bytes_shipped.get(stage.name, 0)
            faults_before = _fault_snapshot(ctx, stage.name)
            with ctx.watch.section(f"stage:{stage.name}"):
                outputs = dict(stage.run(ctx))
            if set(outputs) != set(stage.outputs):
                raise PipelineError(
                    f"stage {stage.name!r} returned outputs {sorted(outputs)} "
                    f"but declared {sorted(stage.outputs)}"
                )
            ctx.values.update(outputs)
            self.run_counts[stage.name] += 1
            seconds = time.perf_counter() - start
            if cache is not None:
                cache.put(
                    key,
                    outputs,
                    CacheEntryMeta(
                        key=key,
                        stage=stage.name,
                        outputs=sorted(outputs),
                        seconds=seconds,
                        created_unix=time.time(),
                    ),
                )
            faults_after = _fault_snapshot(ctx, stage.name)
            report.records.append(
                StageRecord(
                    name=stage.name,
                    key=key,
                    cached=False,
                    seconds=seconds,
                    outputs=sorted(outputs),
                    bytes_shipped=ctx.bytes_shipped.get(stage.name, 0) - bytes_before,
                    attempts=faults_after["attempts"] - faults_before["attempts"],
                    timeouts=faults_after["timeouts"] - faults_before["timeouts"],
                    pool_rebuilds=faults_after["pool_rebuilds"]
                    - faults_before["pool_rebuilds"],
                )
            )
        return report
