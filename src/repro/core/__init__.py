"""ONES: the online evolutionary batch-size scheduler (the paper's contribution).

* :mod:`repro.core.schedule` — the schedule genome of Fig. 1 (a job per
  GPU; batch sizes derived from the per-job limit ``R_j``).
* :mod:`repro.core.scoring` — the SRUF objective (Eq. 3/8) and the
  probability-sampling selection of Algorithm 1.
* :mod:`repro.core.batch_limit` — the dynamic batch-size limit ``R_j``
  with the start / resume / scale-up / scale-down policies of §3.3.2.
* :mod:`repro.core.operators` — the four evolution operators of §3.2.2
  (refresh, uniform crossover, uniform mutation and reorder), one
  schedule at a time: the readable reference the tests compare the
  search against.
* :mod:`repro.core.population` — the matching scalar population
  initialisation and bookkeeping.
* :mod:`repro.core.evolution` — the iterative evolutionary search (Fig. 5).
* :mod:`repro.core.evolution_batched` — the search's generation engine:
  the operators as array ops over the genome matrix, bit-identical to
  the scalar reference.
* :mod:`repro.core.scoring_incremental` — the score inputs that engine
  keeps up to date across generations.
* :mod:`repro.core.ones_scheduler` — the ONES scheduler wired into the
  common scheduler interface.
"""

from repro.core.schedule import Schedule, stack_genomes, unique_schedules
from repro.core.scoring import (
    candidate_score,
    probability_sample,
    score_population,
    select_top_k,
)
from repro.core.batch_limit import BatchLimitConfig, BatchSizeLimiter
from repro.core.operators import (
    EvolutionContext,
    refresh,
    reorder,
    uniform_crossover,
    uniform_mutation,
)
from repro.core.population import Population
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.evolution_batched import GenerationResult, run_generation
from repro.core.ones_scheduler import ONESConfig, ONESScheduler

__all__ = [
    "Schedule",
    "stack_genomes",
    "unique_schedules",
    "candidate_score",
    "probability_sample",
    "score_population",
    "select_top_k",
    "BatchLimitConfig",
    "BatchSizeLimiter",
    "EvolutionContext",
    "refresh",
    "reorder",
    "uniform_crossover",
    "uniform_mutation",
    "Population",
    "EvolutionConfig",
    "EvolutionarySearch",
    "GenerationResult",
    "run_generation",
    "ONESConfig",
    "ONESScheduler",
]
