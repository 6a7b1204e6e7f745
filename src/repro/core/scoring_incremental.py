"""Incremental delta-scoring: stop re-deriving the population every generation.

One generation changes only a small fraction of each genome, so the
evolutionary search does not re-derive its scoring inputs from scratch
every generation.  This module caches those progress-independent inputs
as a :class:`ScoreDecomposition` and keeps them *incrementally
maintained* through every operator, so a generation touches only the
(candidate, job) cells whose genome entries actually changed:

* ``counts[k, j]`` — GPUs candidate ``k`` gives roster job ``j``
  (the ``c_j`` of Eq. 8),
* ``crosses[k, j]`` — whether that placement spans more than one
  server (selects the locality plane of the throughput table),
* ``sole_node[k, j]`` — the single occupied server when the placement
  is non-crossing (``-1`` otherwise), which is what lets the greedy
  fill decide in O(1) per cell whether a grown placement starts
  crossing, instead of tracking per-round node-set prefixes.

The Eq. 8 *score* itself is still evaluated fresh every generation —
Algorithm 1 draws new progress samples ρ_j each time, so the weights
change — but it is evaluated straight off the cached decomposition
(:func:`score_decomposition`), through the very same
:func:`~repro.core.scoring.score_count_matrix` expression
:func:`~repro.core.scoring.score_population` uses.  That is the parity
contract: **identical counts and crossings in, identical floats out**,
so the search is bit-for-bit the scalar reference path.

Cache lifecycle (:class:`IncrementalScoringEngine`)
---------------------------------------------------
The engine rides on :class:`~repro.core.evolution.EvolutionarySearch`
next to the genome matrix and survives across scheduler events.  Its
cache is reused only when *nothing that defines a cell has moved*: the
same population array object (identity — any population reset,
re-index, or width change yields a new array), the same roster tuple,
the same genome width, and the same GPU→server map.  Anything else —
fault masking compacting the cluster, a partition-view swap inside
:class:`~repro.core.partitioned.HierarchicalONESScheduler`, a roster
re-index — fails the check and triggers one full
vectorised rebuild (:func:`build_decomposition`), attributed to the
``rescore_full`` profiling phase; steady-state generations take the
``rescore_delta`` path.  Throughput-table churn is tracked through
:attr:`~repro.jobs.throughput.ThroughputTable.version` so the engine
can count how often its table context swapped underneath it (the
table's values feed the score gather, never the decomposition, so a
version change alone never dirties the cache).

Adding a score term — the worked recipe
---------------------------------------
Eq. 8 today is ``Σ_j weight_j · counts_j / X_j(counts_j, crosses_j)``.
To add a new per-job term (say a migration penalty, or a third
heterogeneity plane), keep the decomposition discipline:

1. **Split the term** into its *genome-derived* part (a function of one
   candidate's placement of one job — like ``counts``/``crosses``) and
   its *per-generation* part (progress samples, predictor weights).
   Only the genome-derived part belongs in :class:`ScoreDecomposition`.
2. **Add the cached array** to :class:`ScoreDecomposition` (same
   ``(K, num_jobs)`` shape) and teach the three producers about it:
   :func:`build_decomposition` (the full-rebuild reference — write this
   first, it is the oracle), the per-move update in
   :func:`fill_idle_decomposed`, and the analytic update in
   :func:`reorder_decomposed` (fall back to ``rebuild_rows`` if no
   closed form exists — correctness never depends on the fast path).
   Mutation/shrink updates live in
   :mod:`repro.core.evolution_batched` next to the operators.
3. **Consume it** in :func:`score_decomposition` by extending
   :func:`~repro.core.scoring.score_count_matrix` — *never* refactor
   the existing expression (floating-point addition is not
   associative; the parity suites pin the exact evaluation order).
4. **Pin parity**: extend ``tests/test_core_scoring_incremental.py``'s
   fuzz loop, which asserts ``decomposition == build_decomposition``
   after every operator and that trajectories with the delta cache
   equal trajectories whose cache is rebuilt every generation,
   bit-for-bit; the scalar reference in :mod:`repro.core.scoring`
   must gain the same term, and ``tests/test_core_evolution_batched.py``
   pins the search against it.  A term that cannot pass both suites
   does not ship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE
from repro.core.scoring import population_gpu_counts, score_count_matrix
from repro.jobs.throughput import ThroughputTable


# --- the cached decomposition --------------------------------------------------------------------


@dataclass
class ScoreDecomposition:
    """Per-(candidate, job) genome-derived scoring inputs, kept in sync
    with a ``(K, num_gpus)`` genome matrix as operators mutate it.

    All three arrays are ``(K, num_jobs)``; ``node_of`` is the GPU→server
    map they were derived against.  The invariant — checked exhaustively
    by the parity suite via :meth:`matches` — is that the arrays always
    equal what :func:`build_decomposition` would produce from the
    current genomes.
    """

    #: GPU count per (candidate, job) — the ``c_j`` of Eq. 8.
    counts: np.ndarray
    #: True when the placement spans more than one server.
    crosses: np.ndarray
    #: The single occupied server of a non-crossing placement, else -1.
    sole_node: np.ndarray
    #: GPU id → server id map of the cluster the rows describe.
    node_of: np.ndarray

    @property
    def num_candidates(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_jobs(self) -> int:
        return int(self.counts.shape[1])

    # -- row plumbing ---------------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "ScoreDecomposition":
        """Rows ``indices`` as a new decomposition (selection / dedup)."""
        return ScoreDecomposition(
            counts=self.counts[indices],
            crosses=self.crosses[indices],
            sole_node=self.sole_node[indices],
            node_of=self.node_of,
        )

    @staticmethod
    def concatenate(parts: Sequence["ScoreDecomposition"]) -> "ScoreDecomposition":
        """Stack several decompositions row-wise (the candidate pool)."""
        if len(parts) == 1:
            return parts[0]
        return ScoreDecomposition(
            counts=np.concatenate([p.counts for p in parts], axis=0),
            crosses=np.concatenate([p.crosses for p in parts], axis=0),
            sole_node=np.concatenate([p.sole_node for p in parts], axis=0),
            node_of=parts[0].node_of,
        )

    # -- delta maintenance ----------------------------------------------------------------------

    def rebuild_rows(self, genomes: np.ndarray, rows: np.ndarray) -> None:
        """Recompute the cells of ``rows`` from their current genomes.

        The correctness anchor every incremental update can fall back
        to: one vectorised :func:`build_decomposition` over just the
        affected rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        sub = build_decomposition(genomes[rows], self.num_jobs, self.node_of)
        self.counts[rows] = sub.counts
        self.crosses[rows] = sub.crosses
        self.sole_node[rows] = sub.sole_node

    def rescore_delta(self, genomes: np.ndarray, changed_mask: np.ndarray) -> int:
        """Refresh the decomposition after a sparse genome edit.

        ``changed_mask`` is ``(K, num_gpus)`` boolean — True where a
        genome entry changed since the decomposition was last in sync.
        Untouched rows are guaranteed reused as-is; rows with any
        changed entry are recomputed in one vectorised pass.  Returns
        the number of rows recomputed (the delta cost driver).
        """
        changed_mask = np.asarray(changed_mask, dtype=bool)
        if changed_mask.shape != genomes.shape:
            raise ValueError(
                f"changed_mask shape {changed_mask.shape} != genomes {genomes.shape}"
            )
        rows = np.flatnonzero(changed_mask.any(axis=1))
        self.rebuild_rows(genomes, rows)
        return int(rows.size)

    # -- verification ---------------------------------------------------------------------------

    def matches(self, genomes: np.ndarray) -> bool:
        """True when the cache equals a from-scratch rebuild (test hook)."""
        fresh = build_decomposition(np.asarray(genomes), self.num_jobs, self.node_of)
        return (
            np.array_equal(self.counts, fresh.counts)
            and np.array_equal(self.crosses, fresh.crosses)
            and np.array_equal(self.sole_node, fresh.sole_node)
        )


def build_decomposition(
    genomes: np.ndarray, num_jobs: int, node_of: np.ndarray
) -> ScoreDecomposition:
    """Full vectorised (re)build of a :class:`ScoreDecomposition`.

    One flattened ``bincount`` over (candidate, job, node) triples —
    the same technique as
    :func:`repro.core.scoring.population_node_crossings`, extended to
    also yield the sole occupied server of non-crossing placements.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    node_of = np.asarray(node_of, dtype=np.int64)
    counts = population_gpu_counts(genomes, num_jobs)
    crosses = np.zeros((num_candidates, num_jobs), dtype=bool)
    sole = np.full((num_candidates, num_jobs), -1, dtype=np.int64)
    if num_jobs == 0 or num_gpus == 0 or num_candidates == 0:
        return ScoreDecomposition(counts, crosses, sole, node_of)
    num_nodes = int(node_of.max()) + 1 if node_of.size else 1
    placed = genomes != IDLE
    rows = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    nodes = np.broadcast_to(node_of[None, :], genomes.shape)
    flat = (rows[placed] * num_jobs + genomes[placed]) * num_nodes + nodes[placed]
    present = np.bincount(flat, minlength=num_candidates * num_jobs * num_nodes) > 0
    present = present.reshape(num_candidates, num_jobs, num_nodes)
    distinct = present.sum(axis=2)
    crosses = distinct > 1
    sole = np.where(distinct == 1, present.argmax(axis=2), -1)
    return ScoreDecomposition(counts, crosses, sole, node_of)


# --- scoring off the cache -----------------------------------------------------------------------


def score_decomposition(
    decomp: ScoreDecomposition,
    roster: Sequence[str],
    jobs: Mapping[str, object],
    progress: Mapping[str, float],
    table: ThroughputTable,
) -> np.ndarray:
    """Eq. 8 for a whole pool straight off its cached decomposition.

    A thin alias of :func:`~repro.core.scoring.score_count_matrix` fed
    the cached counts/crossings — deliberately *not* a reimplementation,
    so the floating-point evaluation order (and hence every bit of every
    score) is shared with :func:`~repro.core.scoring.score_population`
    and the scalar reference.
    """
    return score_count_matrix(
        decomp.counts, roster, jobs, progress, table, decomp.crosses
    )


# --- incremental operators -----------------------------------------------------------------------


def fill_idle_decomposed(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    decomp: ScoreDecomposition,
    desired: np.ndarray,
    remaining: np.ndarray,
) -> np.ndarray:
    """Greedy idle-GPU fill maintaining the decomposition move-by-move.

    Move-for-move identical to
    :func:`repro.core.operators.fill_idle_gpus` applied per row (same
    table lookups, same utilisation deltas, same tie-breaking), with
    every candidate advancing in lockstep rounds.  Locality needs no
    ``(active, max_idle, num_nodes)`` node-set prefix, only an
    ``(active, max_idle)`` *span* prefix: because every round grabs a
    prefix of the row's ascending idle list, a grown placement crosses
    servers iff it already crossed, or the grabbed slots span servers
    themselves, or the job already ran on a single server different
    from the first grabbed slot's (``sole_node``).  ``decomp`` is
    updated in place and stays bit-synchronised with the returned
    genomes.
    """
    table = ctx.throughput_table
    assert table is not None
    genomes = np.array(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    num_jobs = len(ctx.roster)
    if num_candidates == 0 or num_gpus == 0 or num_jobs == 0:
        return genomes

    counts = decomp.counts
    crosses = decomp.crosses
    sole = decomp.sole_node
    node_of = decomp.node_of

    # Ragged per-row idle-GPU lists as a padded matrix: ascending
    # positions in the first n_idle[k] slots, sentinel num_gpus after.
    idle_mask = genomes == IDLE
    n_idle = idle_mask.sum(axis=1)
    slot_order = np.argsort(~idle_mask, axis=1, kind="stable")
    idle_pos = np.where(
        np.arange(num_gpus)[None, :] < n_idle[:, None], slot_order, num_gpus
    )
    node_ext = np.append(node_of, 0)  # sentinel slots masked out below

    rows = np.flatnonzero(n_idle > 0)
    while rows.size:
        counts_a = counts[rows]
        n_idle_a = n_idle[rows]
        eligible = counts_a < desired[None, :]
        has_move = eligible.any(axis=1)
        if not has_move.all():
            rows = rows[has_move]
            if not rows.size:
                break
            counts_a = counts_a[has_move]
            n_idle_a = n_idle_a[has_move]
            eligible = eligible[has_move]
        active = rows.size
        sub_ids = np.arange(active)
        crosses_a = crosses[rows]
        sole_a = sole[rows]
        take = np.minimum(n_idle_a[:, None], desired[None, :] - counts_a)
        take = np.where(eligible, take, 0)

        # Whether each row's first-t idle slots span servers, for every
        # needed t: one boolean or-prefix over the slot nodes versus the
        # first slot's node (q0).
        max_idle = int(n_idle_a.max())
        slot_nodes = node_ext[idle_pos[rows, :max_idle]]
        slot_valid = np.arange(max_idle)[None, :] < n_idle_a[:, None]
        q0 = slot_nodes[:, 0]
        spans = np.concatenate(
            [
                np.zeros((active, 1), dtype=bool),
                np.logical_or.accumulate(
                    (slot_nodes != q0[:, None]) & slot_valid, axis=1
                ),
            ],
            axis=1,
        )
        spans_t = spans[sub_ids[:, None], take]  # (active, num_jobs)
        crosses_after = (
            crosses_a
            | spans_t
            | ((take >= 1) & (counts_a > 0) & ~crosses_a & (sole_a != q0[:, None]))
        )

        # Idle jobs and masked-out entries look up count 0 (prefilled,
        # zero model calls), so lazily-filled table entries match the
        # scalar fill's exactly.
        before_counts = np.where(eligible & (counts_a > 0), counts_a, 0)
        after_counts = np.where(eligible, counts_a + take, 0)
        thr_before = table.lookup(before_counts, crosses_a)
        thr_after = table.lookup(after_counts, crosses_after)
        with np.errstate(divide="ignore", invalid="ignore"):
            util_before = np.where(
                before_counts > 0,
                np.where(
                    thr_before > 0,
                    remaining[None, :] * before_counts / thr_before,
                    np.inf,
                ),
                0.0,
            )
            util_after = np.where(
                after_counts > 0,
                np.where(
                    thr_after > 0,
                    remaining[None, :] * after_counts / thr_after,
                    np.inf,
                ),
                0.0,
            )
            delta = util_after - util_before

        ranked = np.where(np.isnan(delta) | ~eligible, np.inf, delta)
        pick = np.argmin(ranked, axis=1)
        row_min = ranked[sub_ids, pick]
        first_eligible = np.argmax(eligible, axis=1)
        keep_first = np.isnan(delta[sub_ids, first_eligible]) | np.isposinf(row_min)
        pick = np.where(keep_first, first_eligible, pick)

        for sub, row in enumerate(rows):
            job = int(pick[sub])
            grabbed = int(take[sub, job])
            slots = idle_pos[row, :grabbed]
            genomes[row, slots] = job
            was_empty = counts[row, job] == 0
            counts[row, job] += grabbed
            if crosses_after[sub, job]:
                crosses[row, job] = True
                sole[row, job] = -1
            elif was_empty:
                sole[row, job] = int(q0[sub])
            left = int(n_idle[row]) - grabbed
            idle_pos[row, :left] = idle_pos[row, grabbed : grabbed + left]
            idle_pos[row, left:] = num_gpus
            n_idle[row] = left
        rows = rows[n_idle[rows] > 0]
    return genomes


def reorder_decomposed(
    genomes: np.ndarray,
    decomp: ScoreDecomposition,
    node_monotone: bool,
) -> np.ndarray:
    """Batched reorder (Fig. 10) with an analytic decomposition update.

    Genome output is bit-identical to
    :func:`repro.core.operators.reorder` applied per row, computed via
    a scatter-min of first-occurrence positions.  Reordering never changes
    ``counts``, but it *packs* each job contiguously, so on a
    monotone GPU→server map the crossing flag reduces to "first and
    last GPU of the packed run live on different servers"; when the map
    is not monotone (never true for the star topology's
    ``arange // gpus_per_node``) the affected rows are simply rebuilt.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    if num_candidates == 0 or num_gpus == 0 or not (genomes != IDLE).any():
        return genomes.copy()
    num_jobs = decomp.num_jobs
    node_of = decomp.node_of

    # First occurrence position of every job in every row (num_gpus for
    # absent jobs), via unbuffered scatter-min.
    first_pos = np.full((num_candidates, num_jobs), num_gpus, dtype=np.int64)
    placed = genomes != IDLE
    row_ids = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    col_ids = np.broadcast_to(
        np.arange(num_gpus, dtype=np.int64)[None, :], genomes.shape
    )
    np.minimum.at(first_pos, (row_ids[placed], genomes[placed]), col_ids[placed])

    gene = np.where(genomes == IDLE, 0, genomes)
    keys = np.take_along_axis(first_pos, gene, axis=1)
    keys = np.where(genomes == IDLE, num_gpus, keys)
    order = np.argsort(keys, axis=1, kind="stable")
    out = np.take_along_axis(genomes, order, axis=1)

    if not node_monotone:
        decomp.rebuild_rows(out, np.arange(num_candidates))
        return out

    # Post-reorder, jobs occupy contiguous runs in first-occurrence
    # order: run starts are the exclusive cumsum of the sorted counts.
    job_keys = np.where(decomp.counts > 0, first_pos, num_gpus)
    job_order = np.argsort(job_keys, axis=1, kind="stable")
    counts_sorted = np.take_along_axis(decomp.counts, job_order, axis=1)
    ends = counts_sorted.cumsum(axis=1)
    starts = ends - counts_sorted
    present_sorted = counts_sorted > 0
    start_node = node_of[np.clip(starts, 0, num_gpus - 1)]
    end_node = node_of[np.clip(ends - 1, 0, num_gpus - 1)]
    crosses_sorted = present_sorted & (start_node != end_node)
    sole_sorted = np.where(present_sorted & ~crosses_sorted, start_node, -1)
    np.put_along_axis(decomp.crosses, job_order, crosses_sorted, axis=1)
    np.put_along_axis(decomp.sole_node, job_order, sole_sorted, axis=1)
    return out


# --- the engine ----------------------------------------------------------------------------------


class IncrementalScoringEngine:
    """Owns a population's :class:`ScoreDecomposition` across generations.

    Lifecycle: :meth:`prepare` at the top of a generation either reuses
    the committed cache (when the population array, roster, genome
    width, and GPU→server map are all unchanged — the ``rescore_delta``
    steady state) or performs one full rebuild (``rescore_full``: the
    automatic fallback covering fault masking, partition-view swaps,
    roster re-indexing and every other invalidation, all of which
    replace the population array).  :meth:`commit` at the bottom hands
    the survivors' rows back for the next generation.
    """

    def __init__(self) -> None:
        self._population: Optional[np.ndarray] = None
        self._decomp: Optional[ScoreDecomposition] = None
        self._roster: Optional[Tuple[str, ...]] = None
        self._node_of: Optional[np.ndarray] = None
        self.node_monotone: bool = True
        self._table_version: Optional[int] = None
        #: Generations served from the committed cache.
        self.delta_generations: int = 0
        #: Generations that needed a from-scratch decomposition build.
        self.full_rebuilds: int = 0
        #: Times the throughput table changed identity between
        #: generations (per-event rebuilds, fault masking, view swaps);
        #: table values feed only the score gather, so this never
        #: dirties the decomposition — it is attribution, not policy.
        self.table_swaps: int = 0

    def prepare(
        self,
        genomes: np.ndarray,
        roster: Tuple[str, ...],
        table: ThroughputTable,
    ) -> Tuple[ScoreDecomposition, bool]:
        """Decomposition for ``genomes``; returns ``(decomp, rebuilt)``."""
        node_of = np.asarray(table.node_of, dtype=np.int64)
        version = table.version
        if self._table_version is not None and version != self._table_version:
            self.table_swaps += 1
        self._table_version = version
        reusable = (
            self._decomp is not None
            and self._population is genomes
            and self._roster == roster
            and self._node_of is not None
            and self._node_of.shape == node_of.shape
            and np.array_equal(self._node_of, node_of)
        )
        if reusable:
            self.delta_generations += 1
            decomp = self._decomp
            assert decomp is not None
            rebuilt = False
        else:
            decomp = build_decomposition(genomes, len(roster), node_of)
            self.full_rebuilds += 1
            self._roster = roster
            self._node_of = node_of.copy()
            self.node_monotone = bool(np.all(np.diff(node_of) >= 0))
            rebuilt = True
        # Ownership passes to the running generation: the operators
        # mutate the decomposition in place, so until :meth:`commit`
        # re-attaches the survivors the cache must not be reusable (a
        # generation aborted mid-flight would otherwise leave a stale
        # cache paired with the old population array).
        self._population = None
        self._decomp = None
        return decomp, rebuilt

    def commit(self, survivors: np.ndarray, decomp: ScoreDecomposition) -> None:
        """Adopt the surviving population's rows for the next generation."""
        self._population = survivors
        self._decomp = decomp

    def invalidate(self) -> None:
        """Drop the cache (the next :meth:`prepare` does a full rebuild)."""
        self._population = None
        self._decomp = None

    def stats(self) -> Mapping[str, int]:
        """Attribution counters for ``describe_state`` / benchmarks."""
        return {
            "delta_generations": self.delta_generations,
            "full_rebuilds": self.full_rebuilds,
            "table_swaps": self.table_swaps,
        }
