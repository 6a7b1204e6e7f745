"""Candidate scoring: the SRUF objective and Algorithm 1.

The score of a candidate schedule is the total *remaining utilisation*
of its running jobs (Eq. 8):

``score(S) = Σ_j  (Y_processed_j · c_j / X_j) · (1/ρ_j − 1)``

where ``c_j`` and ``X_j`` are the GPU count and throughput the candidate
gives job ``j`` and ``ρ_j`` is a training-progress sample drawn from the
job's predictive Beta distribution.  Algorithm 1 draws one ρ per job,
scores every candidate with those shared samples, and picks the smallest
score; selection keeps the best K candidates the same way.

Three entry points evaluate Eq. 8:

* the **scalar reference** (:func:`candidate_score` /
  :func:`score_candidates`) evaluates one candidate at a time through an
  arbitrary ``(job, schedule) -> samples/s`` callable;
* :func:`score_population` stacks a list of schedules into a
  ``(K, num_gpus)`` genome matrix, derives every per-candidate per-job
  GPU count with a single ``bincount``, gathers throughputs from a
  :class:`~repro.jobs.throughput.ThroughputTable`, and evaluates all K
  candidates in a handful of NumPy expressions (the scalar selection
  :func:`select_top_k` uses it whenever it is given a table);
* :func:`score_count_matrix` is that evaluation from precomputed counts
  and locality flags.  The evolutionary search calls it through
  :func:`repro.core.scoring_incremental.score_decomposition`, fed with
  the score inputs it keeps up to date across generations.

Given the same progress samples and the same throughput source, all
three produce bit-identical scores (the parity tests assert exact
equality).  ``score_count_matrix`` is therefore a shared contract: its
float expression must not be refactored (FP addition is
non-associative).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import IDLE, Schedule, stack_genomes, unique_schedules
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputTable
from repro.prediction.beta import (
    SAMPLE_EPS,
    BetaDistribution,
    UNIFORM_PRIOR,
    sample_many,
)
from repro.utils.rng import SeedLike, as_generator

#: Signature of the throughput estimator used during scoring:
#: ``(job, schedule) -> samples per second``.
ThroughputFn = Callable[[Job, Schedule], float]


def sample_progress(
    jobs: Mapping[str, Job],
    distributions: Mapping[str, BetaDistribution],
    rng: SeedLike = None,
) -> Dict[str, float]:
    """Draw one progress sample ρ_j per job (line 2 of Algorithm 1).

    All samples come from a single vectorised RNG call; jobs without a
    fitted distribution fall back to the shared uniform prior.
    """
    rng = as_generator(rng)
    job_ids = list(jobs)
    dists = [distributions.get(job_id) or UNIFORM_PRIOR for job_id in job_ids]
    draws = sample_many(dists, rng)
    return {job_id: float(draw) for job_id, draw in zip(job_ids, draws)}


# --- scalar reference path ------------------------------------------------------------------


def candidate_terms(
    schedule: Schedule,
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    throughput_fn: ThroughputFn,
) -> np.ndarray:
    """Per-roster-job terms of Eq. 8 for one candidate (zeros for idle jobs)."""
    terms = np.zeros(len(schedule.roster), dtype=float)
    counts = schedule.gpu_counts()
    for i, job_id in enumerate(schedule.roster):
        count = counts.get(job_id, 0)
        if count == 0:
            continue
        job = jobs[job_id]
        rho = float(np.clip(progress.get(job_id, 0.5), SAMPLE_EPS, 1.0 - SAMPLE_EPS))
        processed = job.samples_processed
        if processed <= 0:
            # Brand-new jobs have no measured history; Eq. 8's literal term
            # is zero, which is exactly the preferential treatment of new
            # jobs the refresh operation relies on.
            continue
        throughput = throughput_fn(job, schedule)
        if throughput <= 0:
            terms[i] = float("inf")
            continue
        remaining = processed * (1.0 / rho - 1.0)
        terms[i] = remaining * count / throughput
    return terms


def candidate_score(
    schedule: Schedule,
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    throughput_fn: ThroughputFn,
) -> float:
    """Remaining-utilisation score of one candidate (Eq. 8, lower is better)."""
    return float(np.sum(candidate_terms(schedule, jobs, progress, throughput_fn)))


def score_candidates(
    candidates: Sequence[Schedule],
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    throughput_fn: ThroughputFn,
) -> np.ndarray:
    """Scores of several candidates under shared progress samples."""
    return np.asarray(
        [candidate_score(c, jobs, progress, throughput_fn) for c in candidates],
        dtype=float,
    )


# --- vectorised engine ----------------------------------------------------------------------


def population_gpu_counts(genomes: np.ndarray, num_jobs: int) -> np.ndarray:
    """Per-candidate per-job GPU counts from a stacked genome matrix.

    ``genomes`` has shape ``(K, num_gpus)`` with values in
    ``{IDLE} ∪ [0, num_jobs)``; the result has shape ``(K, num_jobs)``.
    A single flattened ``bincount`` covers the whole population.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    if genomes.ndim != 2:
        raise ValueError("genomes must be a (K, num_gpus) matrix")
    num_candidates = genomes.shape[0]
    if num_jobs == 0:
        return np.zeros((num_candidates, 0), dtype=np.int64)
    placed = genomes != IDLE
    rows = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    flat = rows[placed] * num_jobs + genomes[placed]
    counts = np.bincount(flat, minlength=num_candidates * num_jobs)
    return counts.reshape(num_candidates, num_jobs)


def population_node_crossings(
    genomes: np.ndarray, num_jobs: int, node_of: np.ndarray
) -> np.ndarray:
    """Per-candidate per-job "placement spans >1 server" flags.

    ``genomes`` has shape ``(K, num_gpus)`` and ``node_of`` maps GPU id
    to server id; the result has shape ``(K, num_jobs)``.  One flattened
    ``bincount`` over (candidate, job, node) triples covers the whole
    population — this is what keeps the vectorised engine as
    locality-aware as the per-placement scalar path.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates = genomes.shape[0]
    if num_jobs == 0 or genomes.size == 0:
        return np.zeros((num_candidates, num_jobs), dtype=bool)
    node_of = np.asarray(node_of, dtype=np.int64)
    num_nodes = int(node_of.max()) + 1 if node_of.size else 1
    if num_nodes == 1:
        return np.zeros((num_candidates, num_jobs), dtype=bool)
    placed = genomes != IDLE
    rows = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    nodes = np.broadcast_to(node_of, genomes.shape)
    flat = (rows[placed] * num_jobs + genomes[placed]) * num_nodes + nodes[placed]
    present = np.bincount(flat, minlength=num_candidates * num_jobs * num_nodes) > 0
    spanned = present.reshape(num_candidates, num_jobs, num_nodes).sum(axis=2)
    return spanned > 1


def progress_vector(
    roster: Sequence[str], progress: Mapping[str, float]
) -> np.ndarray:
    """Clipped ρ_j per roster job (missing jobs use the 0.5 default)."""
    values = np.array(
        [progress.get(job_id, 0.5) for job_id in roster], dtype=float
    )
    return np.clip(values, SAMPLE_EPS, 1.0 - SAMPLE_EPS)


def score_population(
    candidates: Sequence[Schedule],
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    table: ThroughputTable,
) -> np.ndarray:
    """Eq. 8 for the whole population in one batched evaluation.

    Equivalent to :func:`score_candidates` with
    ``table.as_throughput_fn()`` — bit-identical scores on the same
    progress samples — but with one ``bincount``, one table gather and a
    handful of array expressions instead of a per-candidate Python loop.
    """
    if not candidates:
        return np.empty(0, dtype=float)
    roster = candidates[0].roster
    if roster != table.roster:
        raise ValueError(
            "candidates and throughput table disagree on the roster: "
            f"{roster} vs {table.roster}"
        )
    genomes = stack_genomes(candidates)
    counts = population_gpu_counts(genomes, len(roster))
    crossings = population_node_crossings(genomes, len(roster), table.node_of)
    return score_count_matrix(counts, roster, jobs, progress, table, crossings)


def score_count_matrix(
    counts: np.ndarray,
    roster: Sequence[str],
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    table: ThroughputTable,
    crosses_nodes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 8 from a precomputed ``(K, num_jobs)`` GPU-count matrix.

    ``crosses_nodes`` carries per-(candidate, job) placement locality;
    ``None`` assumes canonical packed placements.  This is the scoring
    entry point of the search's selection step
    (:func:`repro.core.evolution_batched.run_generation`), which already
    holds counts and crossings for its de-duplicated candidate pool.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(roster) == 0:
        return np.zeros(counts.shape[0], dtype=float)
    processed = np.array(
        [
            jobs[job_id].samples_processed if job_id in jobs else 0.0
            for job_id in roster
        ],
        dtype=float,
    )
    rho = progress_vector(roster, progress)
    # Remaining workload Y_j = Y_processed · (1/ρ − 1); new jobs cost zero.
    weights = np.where(processed > 0, processed * (1.0 / rho - 1.0), 0.0)
    throughputs = table.lookup(counts, crosses_nodes)
    active = (counts > 0) & (processed > 0)[None, :]
    safe = np.where(throughputs > 0, throughputs, 1.0)
    terms = np.where(active, (weights[None, :] * counts) / safe, 0.0)
    terms = np.where(active & (throughputs <= 0), np.inf, terms)
    return terms.sum(axis=1)


# --- Algorithm 1 ----------------------------------------------------------------------------


def _scores_for(
    candidates: Sequence[Schedule],
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    throughput_fn: Optional[ThroughputFn],
    table: Optional[ThroughputTable],
) -> np.ndarray:
    """Dispatch between the vectorised engine and the scalar reference."""
    if table is not None:
        return score_population(candidates, jobs, progress, table)
    if throughput_fn is None:
        raise ValueError("either throughput_fn or table must be provided")
    return score_candidates(candidates, jobs, progress, throughput_fn)


def probability_sample(
    candidates: Sequence[Schedule],
    jobs: Mapping[str, Job],
    distributions: Mapping[str, BetaDistribution],
    throughput_fn: Optional[ThroughputFn],
    rng: SeedLike = None,
    table: Optional[ThroughputTable] = None,
) -> Tuple[Schedule, float]:
    """Algorithm 1: pick the candidate with the smallest sampled score."""
    if not candidates:
        raise ValueError("probability_sample requires at least one candidate")
    rng = as_generator(rng)
    progress = sample_progress(jobs, distributions, rng)
    scores = _scores_for(candidates, jobs, progress, throughput_fn, table)
    best = int(np.argmin(scores))
    return candidates[best], float(scores[best])


def select_top_k(
    candidates: Sequence[Schedule],
    jobs: Mapping[str, Job],
    distributions: Mapping[str, BetaDistribution],
    throughput_fn: Optional[ThroughputFn],
    k: int,
    rng: SeedLike = None,
    table: Optional[ThroughputTable] = None,
) -> List[Tuple[Schedule, float]]:
    """Selection step: keep the K candidates with the best sampled scores.

    De-duplicates identical genomes first so the surviving population
    keeps some diversity, then returns ``[(schedule, score), ...]``
    ordered from best (smallest score) to worst.  When ``table`` is
    given the whole pool is scored by the vectorised engine.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not candidates:
        raise ValueError("select_top_k requires at least one candidate")
    rng = as_generator(rng)
    pool = unique_schedules(candidates)
    progress = sample_progress(jobs, distributions, rng)
    scores = _scores_for(pool, jobs, progress, throughput_fn, table)
    order = np.argsort(scores, kind="stable")[:k]
    return [(pool[int(i)], float(scores[int(i)])) for i in order]
