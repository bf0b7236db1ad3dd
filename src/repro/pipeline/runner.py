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
from repro.parallel import ProcessBackend
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
    #: Whether this stage executed as half of a fused dispatch pair.
    fused: bool = False
    #: Pickled payload bytes this stage shipped to a process backend (0 for
    #: serial/thread dispatches and cache replays; a fused pair's volume is
    #: attributed to the pair's *first* record, which ran the dispatch).
    bytes_shipped: int = 0
    #: Fault-tolerance counters for this stage's dispatches (see
    #: :class:`~repro.parallel.ExecutionBackend`): job dispatches consumed,
    #: jobs whose final outcome timed out, and worker pools rebuilt.  All
    #: zero for cache replays; a fused pair's activity is attributed to the
    #: pair's first record, like ``bytes_shipped``.
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
            "fused": self.fused,
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
    def fused(self) -> List[str]:
        """Names of the stages that executed inside a fused dispatch pair."""
        return [record.name for record in self.records if record.fused]

    @property
    def stage_bytes_shipped(self) -> Dict[str, int]:
        """Mapping stage name -> pickled payload bytes shipped to workers."""
        return {record.name: int(record.bytes_shipped) for record in self.records}

    @property
    def stage_fault_stats(self) -> Dict[str, Dict[str, int]]:
        """Mapping stage name -> its attempts/timeouts/pool_rebuilds counters."""
        return {
            record.name: {
                "attempts": int(record.attempts),
                "timeouts": int(record.timeouts),
                "pool_rebuilds": int(record.pool_rebuilds),
            }
            for record in self.records
        }

    @property
    def total_attempts(self) -> int:
        """Job dispatches consumed across every stage of the run."""
        return sum(int(record.attempts) for record in self.records)

    @property
    def total_timeouts(self) -> int:
        """Jobs whose final outcome timed out, across every stage."""
        return sum(int(record.timeouts) for record in self.records)

    @property
    def total_pool_rebuilds(self) -> int:
        """Worker pools rebuilt after breakage/hangs, across every stage."""
        return sum(int(record.pool_rebuilds) for record in self.records)

    def record_for(self, name: str) -> StageRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise PipelineError(f"no stage named {name!r} in this report")

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

    def _fusion_partner(
        self, stage: Stage, index: int, ctx: PipelineContext, fuse: Optional[bool]
    ) -> Optional[Stage]:
        """The next stage, iff ``stage`` should fuse with it this run.

        ``fuse=None`` (auto) fuses only when both stages dispatch on the
        *same* :class:`~repro.parallel.ProcessBackend` instance — that is
        when the intermediate outputs would otherwise cross the process
        boundary twice; ``fuse=True`` forces fusing every declared pair
        (any backend), ``fuse=False`` disables fusing entirely.
        """
        if fuse is False or stage.fusable_with is None:
            return None
        if index + 1 >= len(self.stages):
            return None
        partner = self.stages[index + 1]
        if partner.name != stage.fusable_with:
            return None
        if fuse is True:
            return partner
        first = ctx.backend_for(stage.name)
        return (
            partner
            if first is ctx.backend_for(partner.name)
            and isinstance(first, ProcessBackend)
            else None
        )

    def run(
        self,
        ctx: PipelineContext,
        *,
        cache: Optional[StageCache] = None,
        config_hash: Optional[str] = None,
        fuse: Optional[bool] = None,
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

        ``fuse`` controls fused dispatch of adjacent stage pairs that
        declare it (see :attr:`Stage.fusable_with`): ``None`` fuses
        automatically when the pair shares one process backend, ``True``
        forces it, ``False`` disables it.  Fusing only kicks in when the
        pair's first stage misses the cache — a hit replays unfused, so
        downstream-only re-runs keep their checkpoints — and both stages'
        entries are still keyed, stored and reported individually, so a
        fused run leaves the cache bit-identical to an unfused one.
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
        index = 0
        while index < len(self.stages):
            stage = self.stages[index]
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
                index += 1
                continue
            partner = self._fusion_partner(stage, index, ctx, fuse)
            if partner is not None:
                self._run_fused_pair(
                    stage, partner, key, ctx, cache, report, produced_by, start
                )
                index += 2
                continue
            bytes_before = ctx.bytes_shipped.get(stage.name, 0)
            faults_before = _fault_snapshot(ctx, stage.name)
            with ctx.watch.section(f"stage:{stage.name}"):
                outputs = dict(stage.run(ctx))
            self._check_outputs(stage, outputs)
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
            index += 1
        return report

    @staticmethod
    def _check_outputs(stage: Stage, outputs: Dict[str, object]) -> None:
        if set(outputs) != set(stage.outputs):
            raise PipelineError(
                f"stage {stage.name!r} returned outputs {sorted(outputs)} "
                f"but declared {sorted(stage.outputs)}"
            )

    def _run_fused_pair(
        self,
        stage: Stage,
        partner: Stage,
        key: str,
        ctx: PipelineContext,
        cache: Optional[StageCache],
        report: PipelineReport,
        produced_by: Dict[str, str],
        start: float,
    ) -> None:
        """Execute a declared stage pair through one fused dispatch.

        The cache layer still sees two independent entries: the first
        stage's outputs are stored under the key computed before running,
        the partner's under a key chained from it — exactly the keys the
        unfused path derives, because the partner's produced inputs are
        named by the same producer keys either way (and the fused job
        reproduces the stage-boundary state, including generator snapshots,
        bit-identically).  The combined wall-clock lands in the first stage's
        ``stage:<name>`` section; the worker-side sections keep the true
        split.
        """
        bytes_before = ctx.bytes_shipped.get(stage.name, 0)
        faults_before = _fault_snapshot(ctx, stage.name)
        with ctx.watch.section(f"stage:{stage.name}"):
            first_outputs, second_outputs = stage.run_fused(partner, ctx)
            first_outputs = dict(first_outputs)
            second_outputs = dict(second_outputs)
        self._check_outputs(stage, first_outputs)
        self._check_outputs(partner, second_outputs)
        ctx.values.update(first_outputs)
        self.run_counts[stage.name] += 1
        first_seconds = time.perf_counter() - start
        if cache is not None:
            cache.put(
                key,
                first_outputs,
                CacheEntryMeta(
                    key=key,
                    stage=stage.name,
                    outputs=sorted(first_outputs),
                    seconds=first_seconds,
                    created_unix=time.time(),
                ),
            )
        second_start = time.perf_counter()
        second_key = self.stage_key(partner, ctx, produced_by)
        produced_by.update(dict.fromkeys(partner.outputs, second_key))
        with ctx.watch.section(f"stage:{partner.name}"):
            ctx.values.update(second_outputs)
        self.run_counts[partner.name] += 1
        second_seconds = time.perf_counter() - second_start
        if cache is not None:
            cache.put(
                second_key,
                second_outputs,
                CacheEntryMeta(
                    key=second_key,
                    stage=partner.name,
                    outputs=sorted(second_outputs),
                    seconds=second_seconds,
                    created_unix=time.time(),
                ),
            )
        faults_after = _fault_snapshot(ctx, stage.name)
        report.records.append(
            StageRecord(
                name=stage.name,
                key=key,
                cached=False,
                seconds=first_seconds,
                outputs=sorted(first_outputs),
                fused=True,
                bytes_shipped=ctx.bytes_shipped.get(stage.name, 0) - bytes_before,
                attempts=faults_after["attempts"] - faults_before["attempts"],
                timeouts=faults_after["timeouts"] - faults_before["timeouts"],
                pool_rebuilds=faults_after["pool_rebuilds"]
                - faults_before["pool_rebuilds"],
            )
        )
        report.records.append(
            StageRecord(
                name=partner.name,
                key=second_key,
                cached=False,
                seconds=second_seconds,
                outputs=sorted(second_outputs),
                fused=True,
            )
        )
