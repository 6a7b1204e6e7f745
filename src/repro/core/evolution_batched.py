"""The generation engine of the evolutionary search, over the genome matrix.

One generation of the search (§3.2.2) — refresh, idle-GPU fill, uniform
crossover + repair, uniform mutation, reorder, elitist selection — runs
as array expressions over the population's ``(K, num_gpus)`` int64
genome matrix.  The per-candidate scoring inputs (GPU count and
placement locality of every job, a
:class:`~repro.core.scoring_incremental.ScoreDecomposition`) are kept in
sync through every operator by an
:class:`~repro.core.scoring_incremental.IncrementalScoringEngine`, so a
generation only pays for the (candidate, job) cells whose genome entries
changed.  No intermediate :class:`~repro.core.schedule.Schedule` objects
are materialised; the single winning candidate per scheduler event is
rebuilt through :meth:`Schedule.from_validated_genome`, which skips
``__post_init__`` re-validation on internally-produced genomes.

**Differential contract.**  Every operator here is *move-for-move and
bit-for-bit identical* to the scalar reference in
:mod:`repro.core.operators` / :mod:`repro.core.population`, which the
test suites keep as the oracle:

* identical genomes out of every operator for identical genomes in,
* identical RNG consumption — stochastic draws (crossover parent pairs
  and masks, mutation victim picks and per-job preemption coins, the
  shared progress samples of Algorithm 1) are issued in exactly the
  scalar call order, so a search driven by this engine and one driven
  by the scalar operators from the same seed produce identical
  populations, scores, selection order and full simulation trajectories,
* identical tie-breaking — the greedy fill reproduces the scalar
  first-strictly-smaller scan (including its behaviour on ``inf`` and
  ``nan`` utilisation deltas).

``tests/test_core_evolution_batched.py`` and
``tests/test_core_scoring_incremental.py`` assert all of this per
operator, per generation and over multi-event simulations.

The engine needs an :class:`EvolutionContext` with a ``throughput_table``
(the ONES scheduler always provides one), a non-empty roster and at
least one GPU; ONES never evolves otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import sample_progress
from repro.core.scoring_incremental import (
    IncrementalScoringEngine,
    ScoreDecomposition,
    build_decomposition,
    fill_idle_decomposed,
    reorder_decomposed,
    score_decomposition,
)
from repro.sim.profiling import charge, mark
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


# --- context vectors -----------------------------------------------------------------------------


def _desired_vector(ctx: EvolutionContext) -> np.ndarray:
    """``desired_gpus`` per roster job (loop-invariant within an event)."""
    return np.array([ctx.desired_gpus(j) for j in ctx.roster], dtype=np.int64)


def _remaining_vector(ctx: EvolutionContext) -> np.ndarray:
    """Expected remaining samples ``Y_j`` per roster job."""
    return np.array(
        [
            ctx.remaining_workload.get(j, float(ctx.jobs[j].dataset_size))
            for j in ctx.roster
        ],
        dtype=float,
    )


def _require_table(ctx: EvolutionContext):
    table = ctx.throughput_table
    if table is None:
        raise ValueError(
            "the evolutionary search needs an EvolutionContext with a "
            "throughput_table"
        )
    return table


# --- genome-matrix primitives --------------------------------------------------------------------


def reindex_genomes(
    genomes: np.ndarray, old_roster: Sequence[str], new_roster: Sequence[str]
) -> np.ndarray:
    """Re-express a genome matrix over ``new_roster``; missing jobs go idle.

    The batched equivalent of :meth:`Schedule.reindexed` applied to
    every row at once (completed jobs vanish from candidates).
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    old_roster = tuple(old_roster)
    new_index = {job_id: i for i, job_id in enumerate(new_roster)}
    # One extra slot so the IDLE gene (-1) maps to itself via end-indexing.
    mapping = np.full(len(old_roster) + 1, IDLE, dtype=np.int64)
    for i, job_id in enumerate(old_roster):
        mapping[i] = new_index.get(job_id, IDLE)
    return mapping[genomes]


def _place_new_jobs_row(row: np.ndarray, ctx: EvolutionContext) -> None:
    """Refresh step 3 for one genome row, in place (rare: arrival events).

    Mirrors the scalar operator exactly: every brand-new job gets one
    GPU in roster order, FIFO over the ascending idle list, stealing the
    last GPU of the longest-running victim when none are idle.
    """
    roster = ctx.roster
    counts = np.bincount(row[row != IDLE], minlength=len(roster))
    index = {job_id: i for i, job_id in enumerate(roster)}
    new_jobs = [
        job_id
        for job_id in roster
        if job_id in ctx.never_started and counts[index[job_id]] == 0
    ]
    if not new_jobs:
        return
    idle = [int(g) for g in np.flatnonzero(row == IDLE)]
    placed = [roster[int(i)] for i in np.unique(row[row != IDLE])]
    victims = sorted(
        (j for j in placed if j not in ctx.never_started),
        key=lambda j: ctx.executed_time.get(j, 0.0),
        reverse=True,
    )
    for job_id in new_jobs:
        if not idle:
            for victim in victims:
                victim_gpus = np.flatnonzero(row == index[victim])
                if victim_gpus.size:
                    idle.append(int(victim_gpus[-1]))
                    row[victim_gpus[-1]] = IDLE
                    break
        if not idle:
            break  # nothing left to take; remaining new jobs must wait
        row[idle.pop(0)] = index[job_id]


def _refresh_decomposed(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    decomp: ScoreDecomposition,
    desired: np.ndarray,
    remaining: np.ndarray,
) -> np.ndarray:
    """Batched :func:`repro.core.operators.refresh` maintaining ``decomp``.

    Shrinking every over-provisioned job to its ``desired_gpus`` (each
    job keeps its first ``desired`` GPUs, exactly like the scalar
    operator) is one occurrence-rank expression over just the rows whose
    cached counts exceed a desired share; the rare new-job placement
    runs per affected row; the final idle fill is the lockstep
    :func:`~repro.core.scoring_incremental.fill_idle_decomposed`.

    Rows must already index ``ctx.roster`` (use :func:`reindex_genomes`
    on roster changes — the search does this once per event instead of
    once per candidate).
    """
    genomes = np.array(genomes, dtype=np.int64)
    num_jobs = len(ctx.roster)
    over = decomp.counts > desired[None, :]
    if over.any():
        rows = np.flatnonzero(over.any(axis=1))
        sub = genomes[rows]
        onehot = sub[:, :, None] == np.arange(num_jobs)[None, None, :]
        occurrence = onehot.cumsum(axis=1)
        gene = np.where(sub == IDLE, 0, sub)
        rank = np.take_along_axis(occurrence, gene[:, :, None], axis=2)[:, :, 0] - 1
        sub[(sub != IDLE) & (rank >= desired[gene])] = IDLE
        genomes[rows] = sub
        decomp.rebuild_rows(genomes, rows)

    never = np.array([j in ctx.never_started for j in ctx.roster], dtype=bool)
    if never.any():
        touched = np.flatnonzero((never[None, :] & (decomp.counts == 0)).any(axis=1))
        for row in touched:
            _place_new_jobs_row(genomes[row], ctx)
        decomp.rebuild_rows(genomes, touched)

    return fill_idle_decomposed(genomes, ctx, decomp, desired, remaining)


# --- one full generation -------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of one generation."""

    #: Surviving population, ordered best → worst, ``(<=K, num_gpus)``.
    population: np.ndarray
    #: Sampled Eq. 8 scores of the survivors (same order).
    scores: np.ndarray
    #: The winning genome ``S*`` (first survivor).
    best_genome: np.ndarray
    #: Its sampled score.
    best_score: float
    #: Distinct candidates scored this generation (after de-duplication).
    pool_size: int


def run_generation(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    config,
    engine: Optional[IncrementalScoringEngine] = None,
) -> GenerationResult:
    """One evolution generation as array ops over the genome matrix.

    Refresh, crossover pairs + repair, mutation, reorder,
    de-duplication, Algorithm-1 selection — consuming ``ctx.rng`` in
    exactly the scalar operators' call order.  ``config`` is an
    :class:`~repro.core.evolution.EvolutionConfig`.

    ``engine`` carries the score decomposition across generations: it
    is reused when ``genomes`` is the population it committed last time,
    and rebuilt from scratch otherwise (a throwaway engine is used when
    none is given).  Each operator's wall-clock is charged to the active
    profile (:func:`repro.sim.profiling.charge`): ``rescore_full`` or
    ``rescore_delta``, then ``evo_fill``, ``evo_crossover``,
    ``evo_mutation`` and ``evo_selection``.
    """
    table = _require_table(ctx)
    if ctx.roster != table.roster:
        raise ValueError(
            "context and throughput table disagree on the roster: "
            f"{ctx.roster} vs {table.roster}"
        )
    if engine is None:
        engine = IncrementalScoringEngine()
    genomes = np.asarray(genomes, dtype=np.int64)
    num_gpus = genomes.shape[1]
    num_jobs = len(ctx.roster)
    size = config.resolved_population_size(ctx.num_gpus)
    desired = _desired_vector(ctx)
    remaining = _remaining_vector(ctx)

    start = mark()
    decomp, rebuilt = engine.prepare(genomes, ctx.roster, table)
    start = charge("rescore_full" if rebuilt else "rescore_delta", start)

    refreshed = _refresh_decomposed(genomes, ctx, decomp, desired, remaining)
    start = charge("evo_fill", start)
    population_rows = refreshed.shape[0]
    parts = [refreshed]
    decomp_parts = [decomp]

    # Uniform crossover of randomly chosen parent pairs (Fig. 8).  The
    # parent picks and inheritance masks are drawn per pair, exactly as
    # the scalar loop does; the children's idle-GPU repair consumes no
    # randomness, so it runs as one batched fill afterwards.
    if config.enable_crossover and population_rows >= 2:
        pairs = config.resolved_crossover_pairs(size)
        children = np.empty((2 * pairs, num_gpus), dtype=np.int64)
        for pair in range(pairs):
            first, second = ctx.rng.choice(population_rows, size=2, replace=False)
            mask = ctx.rng.integers(0, 2, size=num_gpus).astype(bool)
            parent_a = refreshed[int(first)]
            parent_b = refreshed[int(second)]
            children[2 * pair] = np.where(mask, parent_a, parent_b)
            children[2 * pair + 1] = np.where(mask, parent_b, parent_a)
        # Children mix whole parents, so roughly half their cells moved:
        # a fresh build over the 2·pairs new rows is the delta update.
        child_decomp = build_decomposition(children, num_jobs, decomp.node_of)
        parts.append(
            fill_idle_decomposed(children, ctx, child_decomp, desired, remaining)
        )
        decomp_parts.append(child_decomp)
        start = charge("evo_crossover", start)

    # Uniform mutation (Fig. 9): the member pick and the per-placed-job
    # preemption coins follow the scalar draw order (one vectorised
    # ``random`` call emits the same stream as the per-job scalar
    # draws); the refill is again one batched fill.
    if config.enable_mutation:
        mutated = np.empty((size, num_gpus), dtype=np.int64)
        mut_counts = np.empty((size, num_jobs), dtype=np.int64)
        mut_crosses = np.empty((size, num_jobs), dtype=bool)
        mut_sole = np.empty((size, num_jobs), dtype=np.int64)
        # Extra slot so the IDLE gene (-1) end-indexes a never-preempted
        # entry in the per-mutation victim mask.
        victim = np.zeros(num_jobs + 1, dtype=bool)
        for m in range(size):
            member = int(ctx.rng.integers(0, population_rows))
            row = refreshed[member]
            # Bit-identical to ``np.unique(row[row != IDLE])``: the
            # cached counts row already knows the placed jobs, sorted.
            placed = np.flatnonzero(decomp.counts[member] > 0)
            coins = ctx.rng.random(placed.size)
            preempted = placed[coins < config.mutation_rate]
            mut_counts[m] = decomp.counts[member]
            mut_crosses[m] = decomp.crosses[member]
            mut_sole[m] = decomp.sole_node[member]
            if preempted.size:
                victim[preempted] = True
                mutated[m] = np.where(victim[row], IDLE, row)
                victim[preempted] = False
                # Preempting a job empties exactly its own cells; every
                # other job's placement (and hence cell) is untouched.
                mut_counts[m, preempted] = 0
                mut_crosses[m, preempted] = False
                mut_sole[m, preempted] = -1
            else:
                mutated[m] = row
        mut_decomp = ScoreDecomposition(
            mut_counts, mut_crosses, mut_sole, decomp.node_of
        )
        parts.append(
            fill_idle_decomposed(mutated, ctx, mut_decomp, desired, remaining)
        )
        decomp_parts.append(mut_decomp)
        start = charge("evo_mutation", start)

    if len(parts) > 1:
        pool = np.concatenate(parts, axis=0)
        pool_decomp = ScoreDecomposition.concatenate(decomp_parts)
    else:
        pool = parts[0].copy()
        pool_decomp = decomp_parts[0]
    if config.enable_reorder:
        pool = reorder_decomposed(pool, pool_decomp, engine.node_monotone)

    # Selection (Algorithm 1) off the cached decomposition: dedup keeps
    # first-seen rows (identical cells regardless of which duplicate's
    # cache row survives), scoring reuses counts/crossings untouched, on
    # shared progress samples; the best K survive in stable order.
    if pool.shape[0] > 1:
        _, first_seen = np.unique(pool, axis=0, return_index=True)
        keep = np.sort(first_seen)
        if keep.size != pool.shape[0]:
            pool = pool[keep]
            pool_decomp = pool_decomp.take(keep)
    progress = sample_progress(ctx.jobs, ctx.distributions, ctx.rng)
    scores = score_decomposition(pool_decomp, ctx.roster, ctx.jobs, progress, table)
    order = np.argsort(scores, kind="stable")[:size]
    survivors = pool[order]
    engine.commit(survivors, pool_decomp.take(order))
    charge("evo_selection", start)
    return GenerationResult(
        population=survivors,
        scores=scores[order],
        best_genome=survivors[0].copy(),
        best_score=float(scores[order[0]]),
        pool_size=pool.shape[0],
    )


def initial_population_genomes(
    ctx: EvolutionContext,
    size: int,
    current: Optional[Schedule] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """``G_0`` as a genome matrix — the batched twin of
    :func:`repro.core.population.initial_population`.

    Per-candidate random job-per-GPU draws (same RNG calls, same order
    as the scalar initialiser), then one refresh + reorder over the
    stacked matrix; the currently deployed schedule, when given, is
    appended so the search can never regress below the status quo.
    """
    check_positive_int(size, "size")
    table = _require_table(ctx)
    rng = as_generator(seed if seed is not None else ctx.rng)
    num_jobs = len(ctx.roster)
    genomes = np.stack(
        [rng.integers(0, num_jobs, size=ctx.num_gpus).astype(np.int64) for _ in range(size)]
    )
    if current is not None:
        reindexed = current.reindexed(ctx.roster).genome
        genomes = np.concatenate([genomes, reindexed[None, :]], axis=0)
    node_of = np.asarray(table.node_of, dtype=np.int64)
    decomp = build_decomposition(genomes, num_jobs, node_of)
    refreshed = _refresh_decomposed(
        genomes, ctx, decomp, _desired_vector(ctx), _remaining_vector(ctx)
    )
    return reorder_decomposed(refreshed, decomp, bool(np.all(np.diff(node_of) >= 0)))
