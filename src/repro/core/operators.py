"""The four evolution operators of §3.2.2.

* **refresh** — synchronise a candidate with the real-time job status:
  drop completed jobs, shrink jobs whose batch-size limit ``R_j`` no
  longer justifies their GPU count, give every brand-new job one GPU
  (taking GPUs from the longest-running jobs if none are idle), then fill
  any remaining idle GPUs with the waiting/growing job that improves the
  remaining-utilisation objective the most (probability sampling over the
  per-job utilisation gains).
* **uniform crossover** — child schedules inherit, GPU by GPU, from one
  of two parent schedules chosen uniformly at random (Fig. 8).
* **uniform mutation** — each job of a candidate is preempted with
  probability θ and the freed GPUs are re-filled (Fig. 9).
* **reorder** — workers of the same job are packed onto contiguous GPUs
  in order of first occurrence, restoring all-reduce locality (Fig. 10).

All operators are pure: they take a :class:`Schedule` plus an
:class:`EvolutionContext` and return new :class:`Schedule` objects.

This module is the **scalar reference implementation**; the search
itself uses only :class:`EvolutionContext` from here.  The evolutionary
search runs the same operators as array ops over the stacked
``(K, num_gpus)`` genome matrix (:mod:`repro.core.evolution_batched`),
differentially tested to be move-for-move identical to the functions
below (``tests/test_core_evolution_batched.py``); when changing an
operator's semantics, change both in the same commit and let the parity
suite arbitrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import ThroughputFn
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputTable
from repro.prediction.beta import BetaDistribution
from repro.utils.rng import SeedLike, as_generator


@dataclass
class EvolutionContext:
    """Everything the operators need to know about the current cluster state.

    Attributes
    ----------
    jobs:
        Active (non-completed) jobs keyed by id.
    roster:
        The job ids candidate genomes index into (a fixed ordering of
        ``jobs``).
    limits:
        Current batch-size limits ``R_j``.
    distributions:
        Predictive progress distributions per job.
    throughput_fn:
        Estimator ``(job, schedule) -> samples/s`` for a candidate config.
        May be ``None`` when ``throughput_table`` is given, in which case
        the table's adapter is used.
    remaining_workload:
        Expected remaining samples ``Y_j`` per job (predictor mean).
    executed_time:
        ``T_processed`` per job, used by refresh to take GPUs from the
        longest-running jobs and by the scale-down policy.
    num_gpus:
        Cluster size.
    never_started:
        Ids of jobs that have not yet run at all (the "new jobs" the
        refresh operation must serve first).
    rng:
        Random generator driving all stochastic choices.
    throughput_table:
        Optional per-invocation :class:`~repro.jobs.throughput.ThroughputTable`;
        when present, selection scores the whole population through the
        vectorised engine instead of per-candidate callbacks.
    """

    jobs: Dict[str, Job]
    roster: Tuple[str, ...]
    limits: Dict[str, int]
    distributions: Dict[str, BetaDistribution]
    throughput_fn: Optional[ThroughputFn]
    remaining_workload: Dict[str, float]
    executed_time: Dict[str, float]
    num_gpus: int
    never_started: Set[str] = field(default_factory=set)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    throughput_table: Optional[ThroughputTable] = None

    def __post_init__(self) -> None:
        self.rng = as_generator(self.rng)
        if self.throughput_fn is None:
            if self.throughput_table is None:
                raise ValueError(
                    "EvolutionContext needs a throughput_fn or a throughput_table"
                )
            self.throughput_fn = self.throughput_table.as_throughput_fn()
        missing = [j for j in self.roster if j not in self.jobs]
        if missing:
            raise ValueError(f"roster references unknown jobs: {missing}")

    # -- derived helpers -------------------------------------------------------------------------

    def limit(self, job_id: str) -> int:
        """Batch-size limit of ``job_id`` (defaults to its submitted batch)."""
        job = self.jobs[job_id]
        return int(self.limits.get(job_id, job.spec.base_batch))

    def preferred_local_batch(self, job_id: str) -> int:
        """Per-GPU batch the job was tuned for (bounded by device memory)."""
        job = self.jobs[job_id]
        tuned = max(1, job.spec.base_batch // max(1, job.spec.requested_gpus))
        return int(min(tuned, job.spec.max_local_batch))

    def desired_gpus(self, job_id: str) -> int:
        """GPUs the job can usefully fill at its current limit ``R_j``.

        A job's batch-size limit translates into a worker count through
        the per-GPU batch the job was tuned for: ``c = ceil(R_j / b_j)``.
        This is the scale at which growing the batch actually buys
        throughput (adding GPUs) rather than just inflating the local
        batch on a single device.
        """
        per_gpu = self.preferred_local_batch(job_id)
        desired = math.ceil(self.limit(job_id) / per_gpu)
        return int(max(1, min(desired, self.num_gpus)))

    def _utilization_term(self, job_id: str, count: int, throughput: float) -> float:
        """The single definition of a job's Eq. 8 term at mean progress."""
        if count == 0:
            return 0.0
        if throughput <= 0:
            return float("inf")
        remaining = self.remaining_workload.get(
            job_id, float(self.jobs[job_id].dataset_size)
        )
        return remaining * count / throughput

    def marginal_utilization(self, schedule: Schedule, job_id: str) -> float:
        """The job's term of Eq. 8 under ``schedule`` with mean progress."""
        count = schedule.gpu_count(job_id)
        throughput = (
            self.throughput_fn(self.jobs[job_id], schedule) if count else 0.0
        )
        return self._utilization_term(job_id, count, throughput)

    def utilization_at(
        self, job_id: str, count: int, crosses_nodes: Optional[bool] = None
    ) -> float:
        """:meth:`marginal_utilization` at a hypothetical GPU count.

        Only available with a throughput table (where throughput depends
        on the count and placement locality alone); lets the fill
        operator evaluate moves without materialising candidate
        schedules.
        """
        if count <= 0:
            return 0.0
        throughput = self.throughput_table.throughput(job_id, count, crosses_nodes)
        return self._utilization_term(job_id, count, throughput)


# --- refresh -------------------------------------------------------------------------------------------


def refresh(schedule: Schedule, ctx: EvolutionContext) -> Schedule:
    """Bring a candidate in line with the real-time job status (§3.2.2)."""
    # (1) Completed jobs disappear because the context roster excludes them.
    candidate = schedule.reindexed(ctx.roster)
    genome = np.array(candidate.genome)

    # (2) Shrink jobs whose limit no longer justifies their GPU count.
    for job_id in candidate.placed_jobs():
        desired = ctx.desired_gpus(job_id)
        gpus = candidate.gpus_of(job_id)
        if len(gpus) > desired:
            for gpu in gpus[desired:]:
                genome[gpu] = IDLE
    candidate = candidate.with_genome(genome)

    # (3) Every brand-new job gets one GPU, taking GPUs from the
    # longest-running jobs when none are idle (starvation avoidance).
    new_jobs = [
        job_id
        for job_id in ctx.roster
        if job_id in ctx.never_started and candidate.gpu_count(job_id) == 0
    ]
    if new_jobs:
        genome = np.array(candidate.genome)
        idle = [int(g) for g in np.nonzero(genome == IDLE)[0]]
        victims = sorted(
            (j for j in candidate.placed_jobs() if j not in ctx.never_started),
            key=lambda j: ctx.executed_time.get(j, 0.0),
            reverse=True,
        )
        for job_id in new_jobs:
            if not idle:
                # Take one GPU from the job with the largest executed time
                # that still has a GPU to give.
                for victim in victims:
                    victim_gpus = [
                        int(g)
                        for g in np.nonzero(genome == ctx.roster.index(victim))[0]
                    ]
                    if victim_gpus:
                        idle.append(victim_gpus[-1])
                        genome[victim_gpus[-1]] = IDLE
                        break
            if not idle:
                break  # nothing left to take; remaining new jobs must wait
            gpu = idle.pop(0)
            genome[gpu] = ctx.roster.index(job_id)
        candidate = candidate.with_genome(genome)

    # (4) Fill remaining idle GPUs with the most beneficial resume/grow moves.
    return fill_idle_gpus(candidate, ctx)


def fill_idle_gpus(schedule: Schedule, ctx: EvolutionContext) -> Schedule:
    """Fill idle GPUs by resuming waiting jobs or growing running ones.

    Each round considers every waiting job (resumed at up to its desired
    GPU count) and every running job that can still grow, computes the
    utilisation change of the move under the expected progress (the
    ``Δφ_j·Y_j`` weights of §3.2.2), and applies the best move.  Rounds
    repeat until no GPU is idle or no job can use one.

    With a throughput table the utilisation change of a move depends
    only on the job's GPU count, so moves are evaluated arithmetically
    (no candidate schedules are materialised); without one the generic
    path below builds each prospective schedule for its callback.  Both
    paths pick the same moves in the same order.
    """
    if ctx.throughput_table is not None:
        return _fill_idle_gpus_by_count(schedule, ctx)
    candidate = schedule
    while True:
        idle = candidate.idle_gpus()
        if not idle:
            return candidate
        moves: List[Tuple[float, Schedule]] = []
        for job_id in ctx.roster:
            count = candidate.gpu_count(job_id)
            desired = ctx.desired_gpus(job_id)
            if count >= desired and count > 0:
                continue
            take = min(len(idle), desired - count) if count > 0 else min(len(idle), desired)
            if take <= 0:
                continue
            genome = np.array(candidate.genome)
            for gpu in idle[:take]:
                genome[gpu] = ctx.roster.index(job_id)
            grown = candidate.with_genome(genome)
            before = ctx.marginal_utilization(candidate, job_id)
            after = ctx.marginal_utilization(grown, job_id)
            # Lower is better: resuming a short job adds little utilisation,
            # growing a job that scales well reduces it outright.
            moves.append((after - before, grown))
        if not moves:
            return candidate
        moves.sort(key=lambda item: item[0])
        candidate = moves[0][1]


def _fill_idle_gpus_by_count(schedule: Schedule, ctx: EvolutionContext) -> Schedule:
    """Table-backed :func:`fill_idle_gpus`: same moves, no Schedule churn.

    Placement locality is tracked through per-job node sets so every
    move is priced exactly as the generic path would price the grown
    schedule (intra- vs cross-node plane of the table).
    """
    idle = schedule.idle_gpus()
    if not idle:
        return schedule
    node_of = ctx.throughput_table.node_of
    genome = np.array(schedule.genome)
    counts = schedule.gpu_counts()
    index = {job_id: i for i, job_id in enumerate(ctx.roster)}
    nodes_of_job: Dict[str, Set[int]] = {job_id: set() for job_id in ctx.roster}
    for gpu, gene in enumerate(genome):
        if gene != IDLE:
            nodes_of_job[ctx.roster[int(gene)]].add(int(node_of[gpu]))
    changed = False
    while idle:
        best: Optional[Tuple[float, str, int, Set[int]]] = None
        for job_id in ctx.roster:
            count = counts.get(job_id, 0)
            desired = ctx.desired_gpus(job_id)
            if count >= desired and count > 0:
                continue
            take = (
                min(len(idle), desired - count) if count > 0 else min(len(idle), desired)
            )
            if take <= 0:
                continue
            before_nodes = nodes_of_job[job_id]
            after_nodes = before_nodes | {int(node_of[g]) for g in idle[:take]}
            delta = ctx.utilization_at(
                job_id, count + take, len(after_nodes) > 1
            ) - ctx.utilization_at(job_id, count, len(before_nodes) > 1)
            if best is None or delta < best[0]:
                best = (delta, job_id, take, after_nodes)
        if best is None:
            break
        _, job_id, take, after_nodes = best
        genome[idle[:take]] = index[job_id]
        idle = idle[take:]
        counts[job_id] = counts.get(job_id, 0) + take
        nodes_of_job[job_id] = after_nodes
        changed = True
    if not changed:
        return schedule
    return schedule.with_genome(genome)


# --- uniform crossover -------------------------------------------------------------------------------------


def uniform_crossover(
    parent_a: Schedule, parent_b: Schedule, rng: SeedLike = None
) -> Tuple[Schedule, Schedule]:
    """Uniform crossover of two parents (Fig. 8).

    For every GPU independently, one child inherits the gene of parent A
    and the other the gene of parent B (which child gets which is a fair
    coin flip).  Parents must share the same roster and cluster size.
    """
    if parent_a.roster != parent_b.roster:
        raise ValueError("crossover parents must share the same roster")
    if parent_a.num_gpus != parent_b.num_gpus:
        raise ValueError("crossover parents must cover the same number of GPUs")
    rng = as_generator(rng)
    mask = rng.integers(0, 2, size=parent_a.num_gpus).astype(bool)
    child1 = np.where(mask, parent_a.genome, parent_b.genome)
    child2 = np.where(mask, parent_b.genome, parent_a.genome)
    return parent_a.with_genome(child1), parent_a.with_genome(child2)


# --- uniform mutation -----------------------------------------------------------------------------------------


def uniform_mutation(
    schedule: Schedule, ctx: EvolutionContext, mutation_rate: float = 0.2
) -> Schedule:
    """Uniform mutation (Fig. 9): random preemption followed by re-filling."""
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
    genome = np.array(schedule.genome)
    for job_id in schedule.placed_jobs():
        if ctx.rng.random() < mutation_rate:
            idx = ctx.roster.index(job_id) if job_id in ctx.roster else None
            if idx is not None:
                genome[genome == idx] = IDLE
    mutated = schedule.with_genome(genome)
    return fill_idle_gpus(mutated, ctx)


# --- reorder ----------------------------------------------------------------------------------------------------


def reorder(schedule: Schedule) -> Schedule:
    """Pack each job's workers contiguously in order of first occurrence (Fig. 10)."""
    order: List[int] = []
    seen: Set[int] = set()
    counts: Dict[int, int] = {}
    for value in schedule.genome:
        value = int(value)
        if value == IDLE:
            continue
        counts[value] = counts.get(value, 0) + 1
        if value not in seen:
            seen.add(value)
            order.append(value)
    packed: List[int] = []
    for value in order:
        packed.extend([value] * counts[value])
    packed.extend([IDLE] * (schedule.num_gpus - len(packed)))
    return schedule.with_genome(np.asarray(packed, dtype=np.int64))
