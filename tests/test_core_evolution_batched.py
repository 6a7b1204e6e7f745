"""Differential parity: the evolution engine vs the scalar reference.

The generation engine of the search (:mod:`repro.core.evolution_batched`
on top of :mod:`repro.core.scoring_incremental`) must be
*bit-compatible* with the scalar operators of
:mod:`repro.core.operators` / :mod:`repro.core.population`, which exist
as the oracle: identical genomes out of every operator, identical RNG
consumption, identical scores and selection order per generation, and
identical full simulation trajectories — across randomised job mixes,
capacities and seeds, including never-started jobs and zero-throughput
(``inf`` / ``nan`` utilisation) corners.

Search- and simulation-level cases run the oracle through the real
:class:`~repro.core.evolution.EvolutionarySearch` with its generation
and initialisation functions swapped for the scalar ones
(:func:`tests._core_helpers.scalar_oracle`), so the population bookkeeping around them is
shared and only the operators differ.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.evolution_batched import (
    _desired_vector,
    _refresh_decomposed,
    _remaining_vector,
    reindex_genomes,
    run_generation,
)
from repro.core.operators import (
    fill_idle_gpus,
    refresh,
    reorder,
    uniform_crossover,
    uniform_mutation,
)
from repro.core.ones_scheduler import ONESScheduler
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring_incremental import (
    build_decomposition,
    fill_idle_decomposed,
    reorder_decomposed,
)
from repro.experiments.backends import simulate_trace
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.workload.trace import TraceConfig, TraceGenerator
from tests._core_helpers import make_context, make_jobs, scalar_generation, scalar_oracle


def _table_workload(num_gpus, num_jobs, seed, never_started=(), running_fraction=0.8):
    """A randomised cluster snapshot plus a factory for table-backed contexts.

    The factory builds a fresh :class:`ThroughputTable` and RNG per call
    so the scalar and production paths can be driven from identical state.
    """
    jobs = make_jobs(num_jobs)
    rng = np.random.default_rng(seed)
    for i, (job_id, job) in enumerate(jobs.items()):
        if job_id in never_started or rng.random() > running_fraction:
            continue
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(int(rng.integers(500, 5000)), 10.0)
    model = ThroughputModel(make_longhorn_cluster(num_gpus))
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    base = make_context(
        jobs, num_gpus=num_gpus, limits=limits, seed=seed, never_started=never_started
    )

    def fresh_ctx(rng_seed):
        table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
        return replace(
            base,
            throughput_fn=None,
            throughput_table=table,
            rng=np.random.default_rng(rng_seed),
        )

    return roster, fresh_ctx


def _random_genomes(roster, num_gpus, rows, seed, idle_fraction=0.35):
    rng = np.random.default_rng(seed)
    genomes = rng.integers(0, len(roster), size=(rows, num_gpus)).astype(np.int64)
    genomes[rng.random(genomes.shape) < idle_fraction] = IDLE
    return genomes


def _decomposition(genomes, ctx):
    node_of = np.asarray(ctx.throughput_table.node_of, dtype=np.int64)
    return build_decomposition(genomes, len(ctx.roster), node_of)


def _refresh(genomes, ctx):
    """The engine's refresh over a whole genome matrix."""
    return _refresh_decomposed(
        genomes,
        ctx,
        _decomposition(genomes, ctx),
        _desired_vector(ctx),
        _remaining_vector(ctx),
    )


def _fill(genomes, ctx):
    """The engine's greedy idle-GPU fill over a whole genome matrix."""
    return fill_idle_decomposed(
        genomes,
        ctx,
        _decomposition(genomes, ctx),
        _desired_vector(ctx),
        _remaining_vector(ctx),
    )


CASES = [(8, 3, 0), (8, 5, 1), (16, 7, 2), (16, 12, 3), (32, 20, 4)]


# --- per-operator parity -------------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_refresh_bit_identical(num_gpus, num_jobs, seed):
    never = ("job-0", "job-1") if seed % 2 else ()
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed, never)
    genomes = _random_genomes(roster, num_gpus, 12, seed + 100)
    scalar = np.stack(
        [
            refresh(Schedule(roster=roster, genome=g), fresh_ctx(7)).genome
            for g in genomes
        ]
    )
    assert np.array_equal(scalar, _refresh(genomes, fresh_ctx(7)))


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_fill_idle_gpus_bit_identical(num_gpus, num_jobs, seed):
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
    genomes = _random_genomes(roster, num_gpus, 12, seed + 200, idle_fraction=0.5)
    scalar = np.stack(
        [
            fill_idle_gpus(Schedule(roster=roster, genome=g), fresh_ctx(3)).genome
            for g in genomes
        ]
    )
    assert np.array_equal(scalar, _fill(genomes, fresh_ctx(3)))


def test_fill_parity_on_zero_throughput_curves():
    """inf/nan utilisation deltas: the lockstep argmin must reproduce the
    scalar scan's first-strictly-smaller tie-breaking exactly."""
    jobs = make_jobs(3)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i], [64])
        job.advance(1000 * (i + 1), 5.0)
    roster = tuple(sorted(jobs))
    num_gpus = 8
    # job-0 never achieves throughput (all-zero curve -> inf terms);
    # job-1 healthy; job-2 zero beyond 2 GPUs.
    matrix = np.zeros((3, num_gpus + 1))
    matrix[1, 1:] = np.linspace(100.0, 220.0, num_gpus)
    matrix[2, 1:3] = [80.0, 120.0]
    table = ThroughputTable.from_matrix(roster, matrix)
    base = make_context(jobs, num_gpus=num_gpus)
    ctx_scalar = replace(base, throughput_fn=None, throughput_table=table)
    ctx_engine = replace(base, throughput_fn=None, throughput_table=table)
    genomes = _random_genomes(roster, num_gpus, 16, seed=9, idle_fraction=0.6)
    scalar = np.stack(
        [
            fill_idle_gpus(Schedule(roster=roster, genome=g), ctx_scalar).genome
            for g in genomes
        ]
    )
    assert np.array_equal(scalar, _fill(genomes, ctx_engine))


@pytest.mark.parametrize("seed", range(4))
def test_reorder_bit_identical(seed):
    roster = tuple(f"job-{i}" for i in range(6))
    genomes = _random_genomes(roster, 17, 20, seed)
    scalar = np.stack(
        [reorder(Schedule(roster=roster, genome=g)).genome for g in genomes]
    )
    node_of = np.arange(17, dtype=np.int64) // 4
    decomp = build_decomposition(genomes, len(roster), node_of)
    assert np.array_equal(scalar, reorder_decomposed(genomes, decomp, True))


def test_reindex_matches_schedule_reindexed():
    old_roster = ("job-0", "job-1", "job-2", "job-3")
    new_roster = ("job-1", "job-3", "job-4")
    genomes = _random_genomes(old_roster, 10, 8, seed=5)
    scalar = np.stack(
        [
            Schedule(roster=old_roster, genome=g).reindexed(new_roster).genome
            for g in genomes
        ]
    )
    assert np.array_equal(scalar, reindex_genomes(genomes, old_roster, new_roster))


def test_crossover_and_mutation_consume_identical_rng_stream():
    """Per-pair/member draws in the engine's loop replay the scalar calls."""
    num_gpus, num_jobs = 16, 6
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed=11)
    genomes = _refresh(_random_genomes(roster, num_gpus, 8, seed=42), fresh_ctx(0))
    schedules = [Schedule(roster=roster, genome=g) for g in genomes]

    ctx_a, ctx_b = fresh_ctx(77), fresh_ctx(77)
    scalar_children = []
    for _ in range(5):
        i, j = ctx_a.rng.choice(len(schedules), size=2, replace=False)
        child_a, child_b = uniform_crossover(
            schedules[int(i)], schedules[int(j)], rng=ctx_a.rng
        )
        scalar_children += [child_a.genome, child_b.genome]
    scalar_mutants = [
        uniform_mutation(schedules[int(ctx_a.rng.integers(0, len(schedules)))], ctx_a, 0.4).genome
        for _ in range(6)
    ]

    engine_children = []
    for _ in range(5):
        i, j = ctx_b.rng.choice(len(genomes), size=2, replace=False)
        mask = ctx_b.rng.integers(0, 2, size=num_gpus).astype(bool)
        engine_children.append(np.where(mask, genomes[int(i)], genomes[int(j)]))
        engine_children.append(np.where(mask, genomes[int(j)], genomes[int(i)]))
    engine_mutants = []
    for _ in range(6):
        member = int(ctx_b.rng.integers(0, len(genomes)))
        row = genomes[member]
        placed = np.unique(row[row != IDLE])
        coins = ctx_b.rng.random(placed.size)
        doomed = placed[coins < 0.4]
        engine_mutants.append(np.where(np.isin(row, doomed), IDLE, row))
    engine_mutants = _fill(np.stack(engine_mutants), ctx_b)

    assert np.array_equal(np.stack(scalar_children), np.stack(engine_children))
    assert np.array_equal(np.stack(scalar_mutants), engine_mutants)
    # Both paths must leave the shared generator in the same state.
    assert ctx_a.rng.integers(2**31) == ctx_b.rng.integers(2**31)


# --- generation-level parity ---------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_generation_bit_identical(num_gpus, num_jobs, seed):
    """One full generation: survivors, scores, selection order, pool size."""
    never = ("job-2",) if seed % 2 else ()
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed, never)
    config = EvolutionConfig(population_size=min(num_gpus, 12))
    genomes = _refresh(
        _random_genomes(roster, num_gpus, config.population_size, seed + 300),
        fresh_ctx(0),
    )
    ctx_a, ctx_b = fresh_ctx(seed + 1), fresh_ctx(seed + 1)
    scalar_matrix, scalar_scores, scalar_pool = scalar_generation(
        genomes, ctx_a, config
    )
    result = run_generation(genomes, ctx_b, config)
    assert np.array_equal(scalar_matrix, result.population)
    assert np.array_equal(scalar_scores, result.scores)
    assert scalar_pool == result.pool_size
    assert np.array_equal(scalar_matrix[0], result.best_genome)
    assert scalar_scores[0] == result.best_score
    assert ctx_a.rng.integers(2**31) == ctx_b.rng.integers(2**31)


@pytest.mark.parametrize(
    "config",
    [
        EvolutionConfig(population_size=8),
        EvolutionConfig(population_size=8, enable_crossover=False),
        EvolutionConfig(population_size=8, enable_mutation=False),
        EvolutionConfig(population_size=8, enable_reorder=False),
        EvolutionConfig(population_size=8, mutation_rate=0.9, crossover_pairs=2),
    ],
    ids=["default", "no-crossover", "no-mutation", "no-reorder", "hot-mutation"],
)
def test_generation_parity_across_ablation_switches(config):
    roster, fresh_ctx = _table_workload(16, 6, seed=21)
    genomes = _refresh(_random_genomes(roster, 16, 8, 55), fresh_ctx(0))
    ctx_a, ctx_b = fresh_ctx(13), fresh_ctx(13)
    scalar_matrix, scalar_scores, _ = scalar_generation(genomes, ctx_a, config)
    result = run_generation(genomes, ctx_b, config)
    assert np.array_equal(scalar_matrix, result.population)
    assert np.array_equal(scalar_scores, result.scores)


# --- search-level parity -------------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs,seed", [(8, 4, 0), (16, 9, 1), (16, 14, 2)])
def test_search_trajectories_identical_across_steps(monkeypatch, num_gpus, num_jobs, seed):
    """Multi-step EvolutionarySearch: populations and winners stay equal."""
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
    oracle = EvolutionarySearch(EvolutionConfig(), seed=99)
    search = EvolutionarySearch(EvolutionConfig(), seed=99)
    ctx_a, ctx_b = fresh_ctx(seed + 40), fresh_ctx(seed + 40)
    current = Schedule.empty(roster, num_gpus)
    for step in range(5):
        with scalar_oracle(monkeypatch):
            best_a, score_a = oracle.step(ctx_a, current=current if step == 0 else None)
        best_b, score_b = search.step(ctx_b, current=current if step == 0 else None)
        assert np.array_equal(best_a.genome, best_b.genome), f"step {step}"
        assert score_a == score_b
        assert np.array_equal(oracle.genomes, search.genomes)
    # The production search carried its score cache across the steps.
    assert search.scoring_engine.stats()["delta_generations"] == 4


def test_roster_change_reindexes_identically(monkeypatch):
    """A job completing between events: both searches re-express and
    re-seed the population the same way."""
    roster, fresh_ctx = _table_workload(16, 5, seed=31)
    oracle = EvolutionarySearch(EvolutionConfig(), seed=7)
    search = EvolutionarySearch(EvolutionConfig(), seed=7)
    ctx_a, ctx_b = fresh_ctx(50), fresh_ctx(50)
    with scalar_oracle(monkeypatch):
        oracle.step(ctx_a)
    search.step(ctx_b)

    smaller_jobs = {j: job for j, job in ctx_a.jobs.items() if j != "job-3"}
    def shrunk(ctx):
        return replace(
            ctx,
            jobs=smaller_jobs,
            roster=tuple(sorted(smaller_jobs)),
            throughput_table=ThroughputTable(
                ctx.throughput_table._model,
                smaller_jobs,
                ctx.limits,
                16,
                roster=tuple(sorted(smaller_jobs)),
            ),
            throughput_fn=None,
        )

    current = Schedule.empty(tuple(sorted(smaller_jobs)), 16)
    with scalar_oracle(monkeypatch):
        best_a, score_a = oracle.step(shrunk(ctx_a), current=current)
    best_b, score_b = search.step(shrunk(ctx_b), current=current)
    assert np.array_equal(best_a.genome, best_b.genome)
    assert score_a == score_b
    assert "job-3" not in best_b.placed_jobs()
    assert np.array_equal(oracle.genomes, search.genomes)


# --- full-simulation parity ----------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs", [(8, 6), (16, 10)])
def test_full_simulation_trajectory_identical(monkeypatch, num_gpus, num_jobs):
    """ONES end to end: the production search and the scalar oracle produce
    the same events, schedules, per-job metrics and makespan over a
    multi-event trace."""
    trace = TraceGenerator(
        TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0), seed=2021
    ).generate()

    def run():
        scheduler = ONESScheduler(seed=2021)
        result = simulate_trace(scheduler, trace, num_gpus)
        return result, scheduler.search.scoring_engine.stats()["full_rebuilds"]

    with scalar_oracle(monkeypatch):
        scalar_result, oracle_rebuilds = run()
    result, rebuilds = run()
    # Only the production run went through the score cache.
    assert oracle_rebuilds == 0 < rebuilds
    assert scalar_result.completed == result.completed
    assert scalar_result.makespan == result.makespan
    assert scalar_result.events_processed == result.events_processed
    assert scalar_result.num_reconfigurations == result.num_reconfigurations
    assert scalar_result.incomplete == result.incomplete
