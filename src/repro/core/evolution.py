"""The online evolutionary search loop (Fig. 5).

Each iteration takes the current population ``G_i``, derives new
candidates with the four operators (refresh, uniform crossover, uniform
mutation, reorder), scores every candidate by probability sampling over
the predicted progress distributions, and keeps the best ``K`` as
``G_{i+1}``.  The best candidate overall, ``S*``, is what ONES deploys.

Because the search is *online*, the context (job roster, limits,
progress distributions) changes between invocations; the population is
re-indexed onto the new roster and refreshed at the start of every
iteration so stale candidates never survive unexamined.

Each generation runs through :func:`repro.core.evolution_batched.run_generation`
over the stacked ``(K, num_gpus)`` genome matrix, with the score inputs
maintained incrementally across generations
(:mod:`repro.core.scoring_incremental`); a :class:`Schedule` is
materialised only for the winner.  The scalar operators of
:mod:`repro.core.operators` are the readable reference the test suites
compare this engine against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.evolution_batched import (
    initial_population_genomes,
    reindex_genomes,
    run_generation,
)
from repro.core.scoring_incremental import IncrementalScoringEngine
from repro.core.operators import EvolutionContext
from repro.core.schedule import Schedule
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyper-parameters of the evolutionary search.

    Parameters
    ----------
    population_size:
        ``K``; the paper suggests the cluster size.  ``None`` lets the
        scheduler pick ``min(num_gpus, 64)`` — with the vectorised
        scoring engine this covers the paper's 64-GPU cluster at the
        intended ``K = num_gpus`` while still bounding the (Python-level)
        operator cost on larger clusters.
    mutation_rate:
        Per-job preemption probability θ of the uniform mutation.
    crossover_pairs:
        Number of parent pairs crossed per iteration (the paper uses K
        pairs; smaller values reduce per-event cost proportionally).
    iterations_per_invocation:
        Evolution iterations executed each time the scheduler is invoked
        (the search is continuous; each event advances it a little).
    enable_crossover / enable_mutation / enable_reorder:
        Ablation switches for the operator-ablation benchmark.
    """

    population_size: Optional[int] = None
    mutation_rate: float = 0.2
    crossover_pairs: Optional[int] = None
    iterations_per_invocation: int = 1
    enable_crossover: bool = True
    enable_mutation: bool = True
    enable_reorder: bool = True

    def __post_init__(self) -> None:
        if self.population_size is not None:
            check_positive_int(self.population_size, "population_size")
        check_probability(self.mutation_rate, "mutation_rate")
        if self.crossover_pairs is not None:
            check_positive_int(self.crossover_pairs, "crossover_pairs")
        check_positive_int(self.iterations_per_invocation, "iterations_per_invocation")

    def resolved_population_size(self, num_gpus: int) -> int:
        """The effective K for a cluster of ``num_gpus`` GPUs."""
        if self.population_size is not None:
            return self.population_size
        return max(4, min(num_gpus, 64))

    def resolved_crossover_pairs(self, population_size: int) -> int:
        """The effective number of crossover pairs per iteration."""
        if self.crossover_pairs is not None:
            return self.crossover_pairs
        return max(1, population_size // 2)


class EvolutionarySearch:
    """Maintains the population across scheduler invocations.

    The population lives as a ``(K, num_gpus)`` genome matrix between
    events (:attr:`genomes`, indexed over the roster of the last step);
    :class:`~repro.core.schedule.Schedule` objects are materialised only
    for the per-event winner, through the validation-skipping
    :meth:`Schedule.from_validated_genome`.  Every context must carry a
    throughput table.
    """

    def __init__(self, config: Optional[EvolutionConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or EvolutionConfig()
        self._rng = as_generator(seed)
        self._genomes: Optional[np.ndarray] = None
        self._roster: Optional[Tuple[str, ...]] = None
        self.best_candidate: Optional[Schedule] = None
        self.best_score: float = float("inf")
        self.iterations_run: int = 0
        #: Best score of each generation in the most recent :meth:`step`
        #: call — the scheduler turns these into per-generation trace
        #: events (the search itself has no clock).
        self.last_iteration_scores: List[float] = []
        #: Delta-scoring cache carried across generations.
        self.scoring_engine = IncrementalScoringEngine()

    @property
    def genomes(self) -> Optional[np.ndarray]:
        """The current population as a genome matrix (``None`` before the first step)."""
        return self._genomes

    @property
    def population_size(self) -> int:
        """Current population size."""
        return 0 if self._genomes is None else int(self._genomes.shape[0])

    # -- population lifecycle -------------------------------------------------------------------

    def ensure_population(self, ctx: EvolutionContext, current: Optional[Schedule]) -> None:
        """(Re)initialise the population if empty or the roster changed.

        A *width* change — the schedulable GPU count differs from the
        population's genome length, which happens when fault injection
        takes nodes down or brings them back
        (:mod:`repro.faults.masking`) — discards the population: the old
        candidates describe placements on a cluster that no longer
        exists.  On a static cluster this branch never fires.
        """
        if self._genomes is not None and self._genomes.shape[1] != ctx.num_gpus:
            self._genomes = None
            # The delta-scoring cache describes a cluster that no longer
            # exists.  (prepare() would also notice via the
            # population-identity check; dropping it here is explicit.)
            self.scoring_engine.invalidate()
        if self._genomes is None:
            size = self.config.resolved_population_size(ctx.num_gpus)
            self._genomes = initial_population_genomes(
                ctx, size, current=current, seed=self._rng
            )
        elif self._roster != ctx.roster:
            genomes = reindex_genomes(self._genomes, self._roster, ctx.roster)
            if current is not None:
                reindexed = current.reindexed(ctx.roster).genome
                genomes = np.concatenate([genomes, reindexed[None, :]], axis=0)
            self._genomes = genomes
        self._roster = ctx.roster

    # -- one iteration ------------------------------------------------------------------------------

    def step(self, ctx: EvolutionContext, current: Optional[Schedule] = None) -> Tuple[Schedule, float]:
        """Run ``iterations_per_invocation`` evolution iterations.

        Returns the best candidate ``S*`` and its sampled score.
        """
        self.ensure_population(ctx, current)
        best: Optional[Tuple[Schedule, float]] = None
        self.last_iteration_scores = []
        for _ in range(self.config.iterations_per_invocation):
            result = run_generation(
                self._genomes, ctx, self.config, engine=self.scoring_engine
            )
            self._genomes = result.population
            best = (
                Schedule.from_validated_genome(ctx.roster, result.best_genome),
                result.best_score,
            )
            self.iterations_run += 1
            self.last_iteration_scores.append(float(result.best_score))
        assert best is not None
        self.best_candidate, self.best_score = best
        return best
