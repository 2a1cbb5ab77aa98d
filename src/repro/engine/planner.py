"""Layer-grain sweep planning: jobs in, deduplicated sub-tasks out.

Every :func:`~repro.engine.executor.run_jobs` route plans its misses
here.  Each job is expanded into the sub-tasks its evaluation would
memoize through the ``store`` seam — mapper searches and per-layer
evaluations, enumerated by
:meth:`repro.systems.base.PhotonicSystem.enumerate_sub_tasks` — and the
expansion is deduplicated three ways:

* **within a job** by store key (repeated fusion-block flag pairs);
* **across the batch** by :meth:`~repro.systems.base.PhotonicSystem.
  sub_task_dedup_key`, a name-free identity under which same-geometry
  layers (ResNet18's repeated block shapes, jobs sharing a
  configuration) compute once and the siblings are derived by renaming;
* **against the cache**, so warm entries are never re-planned.

:class:`Planner` holds that dedup state and folds jobs in one at a
time; the in-process route computes each job's new tasks as soon as it
is folded in.  :func:`build_plan` folds a whole batch for the pool and
groups the unique remainder into :class:`TaskChunk` payloads with
configuration affinity: every task of one ``system_key`` travels in one
chunk (split at mapper-dependency boundaries only when oversized), so a
worker builds each architecture/energy table once, shares one system
instance across the chunk's tasks, and ships all results back in a
single message.  Reassembling whole-network evaluations from the warmed
cache is cheap and runs in the parent
(:func:`repro.engine.executor.run_jobs`).

Planning never changes what is computed, only where and how often:
records are bit-identical to the reference evaluator
(:func:`~repro.engine.executor.run_job`), and whole-job cache keys are
untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import obs
from repro.engine.cache import EvaluationCache, SystemStore, store_key_suffix
from repro.engine.jobs import EvaluationJob, job_system_key, system_registry

#: Namespace a sub-task kind persists into.
_TASK_NAMESPACE = {"mapper": "mappings", "layer": "layers"}


class LayerAlias(NamedTuple):
    """A layer entry derivable from a same-geometry representative by
    renaming (``entry["layer"]["name"]`` is the only difference)."""

    representative_key: str
    alias_key: str
    layer_name: str


@dataclass
class TaskChunk:
    """One phase-1 worker payload: a run of sub-tasks sharing a system.

    Tasks are ordered mapper-first, so a chunk's layer evaluations find
    their searches already in the worker-local store.  ``clusters``
    (parallel to ``tasks``, planner-internal) tags each task with the
    mapper search it produces or consumes, so splitting never separates
    a layer task from the search it depends on.
    """

    system: str
    config: Any
    system_key: str
    tasks: List[Any] = field(default_factory=list)
    clusters: List[Any] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass
class SweepPlan:
    """The planner's output: what phase 1 runs and what it skipped.

    ``batches`` are the pool dispatch units: each is a list of
    :class:`TaskChunk` segments executed back to back by one worker,
    which ships all their results in a single message.  A chunk (one
    ``system_key``'s tasks) is never divided across batches unless it
    was itself oversized, so configuration affinity survives packing.
    """

    batches: List[List[TaskChunk]]
    aliases: List[LayerAlias]
    planned: int = 0
    deduplicated: int = 0
    cache_hits: int = 0

    @property
    def chunks(self) -> List[TaskChunk]:
        return [chunk for batch in self.batches for chunk in batch]

    @property
    def phase1_tasks(self) -> int:
        return sum(len(chunk) for chunk in self.chunks)


#: Everything the two-phase path calls on a system: enumeration and
#: execution for phase 1, store-key derivation and result assembly
#: (which also reaches the fused-capacity check through ``.model``) for
#: phase 2.  The gate and the assembler test the same set, so a batch
#: that cannot be assembled parent-side never pays for planning.
_PLANNER_SEAMS = ("enumerate_sub_tasks", "compute_sub_task",
                  "sub_task_store_key", "sub_task_dedup_key",
                  "_layer_store_key", "_mapper_store_key")


def plannable(jobs: Sequence[EvaluationJob]) -> bool:
    """Whether every job's system exposes the planner seams (store +
    sub-task enumeration + parent-side assembly).  All
    :class:`~repro.systems.base.PhotonicSystem` subclasses do; a
    hand-rolled system's jobs are evaluated whole instead."""
    registry = system_registry()
    for job in jobs:
        entry = registry[job.system]
        if not entry.supports_store:
            return False
        if not all(hasattr(entry.system_type, seam)
                   for seam in _PLANNER_SEAMS):
            return False
    return True


def _expand_tasks(system: Any,
                  job: EvaluationJob) -> List[Tuple[Any, str, str, Tuple]]:
    """One job's sub-tasks with their cache namespace, entry-key suffix
    (:func:`~repro.engine.cache.store_key_suffix`) and dedup key
    precomputed."""
    return [(task, _TASK_NAMESPACE[task.kind],
             store_key_suffix(system.sub_task_store_key(task)),
             system.sub_task_dedup_key(task))
            for task in system.enumerate_sub_tasks(
                job.network, fused=job.fused, use_mapper=job.use_mapper)]


class Planner:
    """Incremental planning: jobs are folded in one at a time.

    Holds the batch-wide dedup state — representatives, alias keys, the
    configuration-free expansion memo, one store-bound system build per
    ``system_key`` and the counters — so :func:`build_plan` (fold every
    job, then balance) and the executor's in-process route (plan,
    compute and assemble job by job) share one implementation and dedup
    identically.  ``groups`` accumulates each ``system_key``'s unique
    tasks in plan order, tagged with the mapper-dependency clusters
    :func:`_split` needs.
    """

    def __init__(self, cache: EvaluationCache) -> None:
        self.cache = cache
        self.groups: Dict[str, TaskChunk] = {}
        # dedup-key -> representative entry key.
        self.representatives: Dict[Tuple[str, Tuple], str] = {}
        self.alias_keys = set()
        # (system class, network identity, fused, use_mapper) ->
        # [(task, namespace, key suffix, dedup suffix), ...].  Systems
        # declaring their task keys configuration-free (all built-ins)
        # expand each network once per batch instead of once per job;
        # the jobs keep their networks alive, so identity keying is
        # stable here.
        self.expansions: Dict[Tuple, List[Tuple[Any, str, str, Tuple]]] = {}
        self.systems: Dict[str, Any] = {}
        self.planned = self.deduplicated = self.cache_hits = 0

    def system(self, job: EvaluationJob) -> Any:
        """The run's one build of ``job``'s system, bound to the cache
        through its ``system_key`` store scope."""
        system_key = job_system_key(job)
        system = self.systems.get(system_key)
        if system is None:
            entry = system_registry()[job.system]
            with obs.span("system.build", system=job.system):
                system = entry.system_type(
                    job.config, store=SystemStore(self.cache, system_key))
            self.systems[system_key] = system
        return system

    def add(self, job: EvaluationJob) -> Tuple[List[Any], List[LayerAlias]]:
        """Fold ``job`` in; return its *new* unique sub-tasks (in
        execution order: mapper searches before their consumers) and the
        layer entries it adds that derive from a representative by
        renaming."""
        system_key = job_system_key(job)
        system = self.system(job)
        group = self.groups.get(system_key)
        if group is None:
            group = TaskChunk(system=job.system, config=job.config,
                              system_key=system_key)
            self.groups[system_key] = group
        if getattr(system, "subtask_keys_config_free", False):
            memo_key = (type(system), id(job.network), job.fused,
                        job.use_mapper)
            expansion = self.expansions.get(memo_key)
            if expansion is None:
                expansion = _expand_tasks(system, job)
                self.expansions[memo_key] = expansion
        else:
            expansion = _expand_tasks(system, job)
        contains = self.cache.contains
        representatives = self.representatives
        alias_keys = self.alias_keys
        tasks: List[Any] = []
        aliases: List[LayerAlias] = []
        self.planned += len(expansion)
        duplicates = 0
        for task, namespace, key_suffix, dedup_suffix in expansion:
            entry_key = system_key + key_suffix
            dedup_key = (system_key, dedup_suffix)
            known = representatives.get(dedup_key)
            if known is not None:
                duplicates += 1
                if (namespace == "layers" and known != entry_key
                        and entry_key not in alias_keys
                        and not contains(namespace, entry_key)):
                    # Same geometry under another name: derive after the
                    # representative is computed instead of recomputing.
                    alias_keys.add(entry_key)
                    aliases.append(LayerAlias(known, entry_key,
                                              task.layer.name))
                continue
            representatives[dedup_key] = entry_key
            if contains(namespace, entry_key):
                self.cache_hits += 1
                continue
            if task.kind == "mapper" or task.use_mapper:
                cluster = ("search", system._mapper_store_key(task.layer))
            else:
                cluster = ("solo", len(group.tasks))
            group.tasks.append(task)
            group.clusters.append(cluster)
            tasks.append(task)
        self.deduplicated += duplicates
        return tasks, aliases

    def record(self, phase1_tasks: int, batches: int) -> None:
        """Fold this planner's counters into ``cache.planner``."""
        stats = self.cache.planner
        stats.planned += self.planned
        stats.deduplicated += self.deduplicated
        stats.cache_hits += self.cache_hits
        stats.phase1_tasks += phase1_tasks
        stats.batches += batches


def build_plan(jobs: Sequence[EvaluationJob],
               cache: EvaluationCache,
               workers: int = 1) -> Optional[SweepPlan]:
    """Expand ``jobs`` into deduplicated, config-affine task chunks.

    Returns ``None`` when the batch is not plannable.  Dedup counters are
    folded into ``cache.planner`` so front-ends report them alongside the
    hit/miss statistics.
    """
    if not plannable(jobs):
        return None
    with obs.span("planner.build_plan", jobs=len(jobs)) as plan_span:
        planner = Planner(cache)
        aliases: List[LayerAlias] = []
        with obs.span("planner.expand"):
            for job in jobs:
                aliases.extend(planner.add(job)[1])
        with obs.span("planner.balance"):
            batches = _balance(
                [group for group in planner.groups.values() if group.tasks],
                workers)
        plan = SweepPlan(batches=batches, aliases=aliases,
                         planned=planner.planned,
                         deduplicated=planner.deduplicated,
                         cache_hits=planner.cache_hits)
        planner.record(plan.phase1_tasks, len(plan.batches))
        for counter in ("planned", "deduplicated", "cache_hits",
                        "phase1_tasks"):
            plan_span.set(counter, getattr(plan, counter))
        plan_span.set("batches", len(plan.batches))
    return plan


def _balance(groups: List[TaskChunk],
             workers: int) -> List[List[TaskChunk]]:
    """Pack config-affine chunks into balanced dispatch batches.

    A group much bigger than its peers (one slow network job idling the
    other workers) is first split at mapper-dependency boundaries: a
    layer task always stays in the same chunk as the search it consumes,
    so a split never makes a worker redo another chunk's mapper work.
    The chunks are then packed longest-first onto ``~ 2 x workers``
    batches (always to the lightest batch), which keeps the pool tail
    short while amortizing per-message IPC over many tasks.
    """
    if not groups:
        return []
    total = sum(len(group) for group in groups)
    # Enough batches to keep every worker fed and rebalance around a
    # slow one, but few enough that each ships a worthwhile amount of
    # work per message.
    target = max(4, math.ceil(total / max(workers * 2, 1)))
    chunks: List[TaskChunk] = []
    for group in groups:
        if len(group) <= 2 * target:
            chunks.append(group)
            continue
        chunks.extend(_split(group, target))
    chunks.sort(key=lambda chunk: -len(chunk))
    batch_count = min(len(chunks), max(workers * 2, 1))
    batches: List[List[TaskChunk]] = [[] for _ in range(batch_count)]
    loads = [0] * batch_count
    for chunk in chunks:
        lightest = loads.index(min(loads))
        batches[lightest].append(chunk)
        loads[lightest] += len(chunk)
    return [batch for batch in batches if batch]


def _split(group: TaskChunk, target: int) -> List[TaskChunk]:
    """Split a group into ~target-sized chunks at cluster boundaries.

    A cluster is a mapper task plus every layer task consuming its
    search (matched by the ``clusters`` tags computed at plan time);
    mapper-less layer tasks are singleton clusters.  Clusters are packed
    in enumeration order, preserving the mapper-before-dependents
    ordering within each chunk.
    """
    clusters: Dict[Any, List[Any]] = {}
    order: List[Any] = []
    for task, cluster in zip(group.tasks, group.clusters):
        if cluster not in clusters:
            clusters[cluster] = []
            order.append(cluster)
        clusters[cluster].append(task)
    chunks: List[TaskChunk] = []
    current: List[Any] = []
    for cluster in order:
        current.extend(clusters[cluster])
        if len(current) >= target:
            chunks.append(TaskChunk(system=group.system, config=group.config,
                                    system_key=group.system_key,
                                    tasks=current))
            current = []
    if current:
        chunks.append(TaskChunk(system=group.system, config=group.config,
                                system_key=group.system_key, tasks=current))
    return chunks
