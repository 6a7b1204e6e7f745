"""Helpers shared by the core (ONES) test modules."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Optional, Sequence

import numpy as np

import repro.core.evolution as evolution
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution_batched import GenerationResult
from repro.core.operators import (
    EvolutionContext,
    fill_idle_gpus,
    refresh,
    reorder,
    uniform_crossover,
    uniform_mutation,
)
from repro.core.population import initial_population
from repro.core.schedule import Schedule, unique_schedules
from repro.core.scoring import select_top_k
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputModel, ThroughputTable, split_batch
from repro.prediction.beta import BetaDistribution
from tests.conftest import make_job


def make_jobs(
    num_jobs: int = 3,
    dataset_size: int = 4000,
    base_batch: int = 128,
    requested_gpus: int = 1,
) -> Dict[str, Job]:
    """A dict of pending jobs named job-0, job-1, ..."""
    jobs = {}
    for i in range(num_jobs):
        job_id = f"job-{i}"
        jobs[job_id] = make_job(
            job_id=job_id,
            dataset_size=dataset_size,
            base_batch=base_batch,
            requested_gpus=requested_gpus,
            arrival_time=float(i),
        )
    return jobs


def make_context(
    jobs: Optional[Dict[str, Job]] = None,
    num_gpus: int = 8,
    limits: Optional[Dict[str, int]] = None,
    never_started: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> EvolutionContext:
    """Build a realistic EvolutionContext over a small Longhorn cluster."""
    jobs = jobs if jobs is not None else make_jobs()
    topology = make_longhorn_cluster(num_gpus)
    model = ThroughputModel(topology)
    roster = tuple(sorted(jobs))
    limits = dict(limits) if limits is not None else {
        job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()
    }

    def throughput_fn(job: Job, schedule: Schedule) -> float:
        count = schedule.gpu_count(job.job_id)
        if count == 0:
            return 0.0
        limit = limits.get(job.job_id, job.spec.base_batch)
        global_batch = schedule.global_batch(job, limit)
        gpus = schedule.gpus_of(job.job_id)
        return model.throughput(job.spec.model, split_batch(global_batch, count), gpus)

    distributions = {
        job_id: BetaDistribution(max(1.0, job.processed_epochs()), 5.0)
        for job_id, job in jobs.items()
    }
    remaining = {
        job_id: max(job.samples_processed, 1.0) * 4.0 for job_id, job in jobs.items()
    }
    executed = {job_id: float(i * 10) for i, job_id in enumerate(sorted(jobs))}
    if never_started is None:
        never_started = {j for j, job in jobs.items() if job.first_start_time is None}
    return EvolutionContext(
        jobs=jobs,
        roster=roster,
        limits=limits,
        distributions=distributions,
        throughput_fn=throughput_fn,
        remaining_workload=remaining,
        executed_time=executed,
        num_gpus=num_gpus,
        never_started=set(never_started),
        rng=np.random.default_rng(seed),
    )


def with_throughput_table(ctx: EvolutionContext) -> EvolutionContext:
    """``ctx`` plus a :class:`ThroughputTable` over the same cluster and
    limits — the evolutionary search needs one."""
    model = ThroughputModel(make_longhorn_cluster(ctx.num_gpus))
    table = ThroughputTable(model, ctx.jobs, ctx.limits, ctx.num_gpus, roster=ctx.roster)
    return replace(ctx, throughput_table=table)


# --- the scalar oracle ---------------------------------------------------------------------------


def scalar_generation(genomes, ctx, config):
    """One generation through the scalar operators: (survivor matrix, scores, pool)."""
    roster = ctx.roster
    size = config.resolved_population_size(ctx.num_gpus)
    refreshed = [refresh(Schedule(roster=roster, genome=g), ctx) for g in genomes]
    candidates = list(refreshed)
    if config.enable_crossover and len(refreshed) >= 2:
        for _ in range(config.resolved_crossover_pairs(size)):
            i, j = ctx.rng.choice(len(refreshed), size=2, replace=False)
            child_a, child_b = uniform_crossover(
                refreshed[int(i)], refreshed[int(j)], rng=ctx.rng
            )
            candidates.append(fill_idle_gpus(child_a, ctx))
            candidates.append(fill_idle_gpus(child_b, ctx))
    if config.enable_mutation:
        for _ in range(size):
            idx = int(ctx.rng.integers(0, len(refreshed)))
            candidates.append(uniform_mutation(refreshed[idx], ctx, config.mutation_rate))
    if config.enable_reorder:
        candidates = [reorder(c) for c in candidates]
    pool = unique_schedules(candidates)
    survivors = select_top_k(
        candidates,
        ctx.jobs,
        ctx.distributions,
        ctx.throughput_fn,
        k=size,
        rng=ctx.rng,
        table=ctx.throughput_table,
    )
    matrix = np.stack([s.genome for s, _ in survivors])
    scores = np.array([score for _, score in survivors])
    return matrix, scores, len(pool)


def _scalar_run_generation(genomes, ctx, config, engine=None):
    """:func:`run_generation` computed by the scalar operators."""
    matrix, scores, pool = scalar_generation(genomes, ctx, config)
    return GenerationResult(
        population=matrix,
        scores=scores,
        best_genome=matrix[0].copy(),
        best_score=float(scores[0]),
        pool_size=pool,
    )


def _scalar_initial_genomes(ctx, size, current=None, seed=None):
    """:func:`initial_population_genomes` computed by the scalar initialiser."""
    return initial_population(ctx, size, current=current, seed=seed).genome_matrix()


@contextmanager
def scalar_oracle(monkeypatch):
    """Inside the block, every EvolutionarySearch runs the scalar operators."""
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "run_generation", _scalar_run_generation)
        patch.setattr(evolution, "initial_population_genomes", _scalar_initial_genomes)
        yield
