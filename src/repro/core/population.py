"""Population management for the evolutionary search.

The search keeps a population ``G_i`` of candidate schedules.  §3.2.2
suggests a population as large as the cluster, initialised by "running a
random job on each GPU" — i.e. each initial candidate assigns every GPU
an independently drawn random job, and the refresh/reorder operators
immediately clean the result up into something executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.operators import EvolutionContext, fill_idle_gpus, refresh, reorder
from repro.core.schedule import IDLE, Schedule, stack_genomes, unique_schedules
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


@dataclass
class Population:
    """A bag of candidate schedules with de-duplication helpers."""

    members: List[Schedule] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def add(self, candidate: Schedule) -> None:
        """Append a candidate (duplicates allowed; dedup happens at selection)."""
        self.members.append(candidate)

    def extend(self, candidates: Iterable[Schedule]) -> None:
        """Append several candidates."""
        self.members.extend(candidates)

    def unique(self) -> List[Schedule]:
        """Distinct genomes, preserving first-seen order."""
        return unique_schedules(self.members)

    def genome_matrix(self) -> np.ndarray:
        """The population's genomes stacked into a ``(K, num_gpus)`` matrix.

        This is the array the vectorised scoring engine consumes; it is
        also handy for bulk population analytics.
        """
        return stack_genomes(self.members)

    def reindexed(self, roster: Sequence[str]) -> "Population":
        """Re-express every member over a new roster (completed jobs vanish)."""
        return Population([member.reindexed(roster) for member in self.members])

    def diversity(self) -> float:
        """Fraction of members with distinct genomes (1.0 = all unique)."""
        if not self.members:
            return 0.0
        return len(self.unique()) / len(self.members)


def initial_population(
    ctx: EvolutionContext,
    size: int,
    current: Optional[Schedule] = None,
    seed: SeedLike = None,
) -> Population:
    """Build ``G_0``: random job-per-GPU candidates, refreshed and packed.

    When ``current`` (the currently deployed schedule) is given it is
    seeded into the population so the search can never regress below the
    status quo.

    The evolutionary search builds ``G_0`` directly as a genome matrix
    (:func:`repro.core.evolution_batched.initial_population_genomes`)
    with the exact same RNG draws; this scalar initialiser is the
    reference the tests compare it against.
    """
    check_positive_int(size, "size")
    rng = as_generator(seed if seed is not None else ctx.rng)
    population = Population()
    num_jobs = len(ctx.roster)
    for _ in range(size):
        if num_jobs == 0:
            genome = np.full(ctx.num_gpus, IDLE, dtype=np.int64)
        else:
            genome = rng.integers(0, num_jobs, size=ctx.num_gpus).astype(np.int64)
        candidate = Schedule(roster=ctx.roster, genome=genome)
        candidate = reorder(refresh(candidate, ctx))
        population.add(candidate)
    if current is not None:
        population.add(reorder(refresh(current.reindexed(ctx.roster), ctx)))
    return population
