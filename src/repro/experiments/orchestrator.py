"""The experiment Runner: expand a grid, execute it, cache the cells.

:class:`Runner` is the orchestration layer on top of the declarative
specs and the execution backends::

    spec = ExperimentSpec.scalability(capacities=(16, 32, 48, 64))
    runner = Runner(backend="process", workers=4, cache_dir="results/cells")
    sweep = runner.run(spec, resume=True)

* **Backends** — ``backend="serial"``, ``"process"`` or ``"queue"``
  (the durable lease-based work queue for sweeps that must survive
  worker churn — pass ``queue_dir=``; see
  :mod:`repro.experiments.backends` and
  :mod:`repro.experiments.queue`); an :class:`ExecutionBackend`
  instance is also accepted.
* **Caching** — with a ``cache_dir``, every executed cell is written to
  ``cell-<content-key>.json``.  The key hashes the *entire* cell spec, so
  any change to the grid produces different keys and can never collide
  with stale results.
* **Resume** — ``resume=True`` loads cached cells instead of re-running
  them; only the missing cells are dispatched to the backend.  A cached
  file whose embedded spec does not match the cell (corruption, hash
  collision, hand editing) is ignored and the cell re-runs.
* **Execution policy** — ``timeout_s`` bounds each cell attempt's
  wall-clock (the cell runs in a watchdogged subprocess and is killed on
  overrun) and ``max_retries`` re-runs a cell that timed out or errored,
  up to that many extra attempts.  Exhausting the budget raises
  (:class:`~repro.experiments.backends.CellTimeoutError` for timeouts);
  attempt counts land in :attr:`RunnerStats.retried_cells` /
  :attr:`RunnerStats.timed_out_cells` either way.

After :meth:`Runner.run`, :attr:`Runner.stats` says how many cells were
executed vs served from cache, how many attempts were retried or timed
out, and how long the sweep took.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.experiments.artifacts import RunArtifact, SweepArtifact
from repro.experiments.backends import (
    ExecutionBackend,
    ExecutionPolicy,
    SchedulerResolver,
    make_backend,
)
from repro.experiments.spec import ExperimentSpec, RunSpec

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RunnerStats:
    """Bookkeeping of one :meth:`Runner.run` invocation.

    ``retried_cells`` counts extra attempts the execution policy spent
    (a cell retried twice contributes two); ``timed_out_cells`` counts
    attempts that hit the per-cell timeout (a timeout that a retry then
    recovered still counts — it is a signal the budget is tight).  The
    queue backend adds its lifecycle counters: ``claimed_cells`` (worker
    claims, including re-claims after churn), ``expired_leases`` (dead
    workers whose cells were recovered) and ``dead_cells`` (cells that
    exhausted their retry budget and were reported as placeholders).
    """

    total_cells: int = 0
    executed_cells: int = 0
    cached_cells: int = 0
    wall_time: float = 0.0
    retried_cells: int = 0
    timed_out_cells: int = 0
    claimed_cells: int = 0
    expired_leases: int = 0
    dead_cells: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for logs and reports."""
        return {
            "total_cells": self.total_cells,
            "executed_cells": self.executed_cells,
            "cached_cells": self.cached_cells,
            "wall_time": self.wall_time,
            "retried_cells": self.retried_cells,
            "timed_out_cells": self.timed_out_cells,
            "claimed_cells": self.claimed_cells,
            "expired_leases": self.expired_leases,
            "dead_cells": self.dead_cells,
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        line = (
            f"{self.total_cells} cells: {self.executed_cells} executed, "
            f"{self.cached_cells} from cache in {self.wall_time:.1f}s"
        )
        parts = []
        if self.retried_cells or self.timed_out_cells:
            parts.append(f"{self.retried_cells} retried")
            parts.append(f"{self.timed_out_cells} timed out")
        if self.expired_leases:
            parts.append(f"{self.expired_leases} leases expired")
        if self.dead_cells:
            parts.append(f"{self.dead_cells} dead")
        if parts:
            line += " (" + ", ".join(parts) + ")"
        return line


class Runner:
    """Executes declarative experiment grids through a pluggable backend."""

    def __init__(
        self,
        backend: Union[str, ExecutionBackend] = "serial",
        workers: Optional[int] = None,
        cache_dir: Optional[PathLike] = None,
        resolver: Optional[SchedulerResolver] = None,
        timeout_s: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        queue_dir: Optional[PathLike] = None,
        lease_ttl: float = 30.0,
    ) -> None:
        self.backend = make_backend(
            backend,
            workers=workers,
            resolver=resolver,
            queue_dir=queue_dir,
            lease_ttl=lease_ttl,
        )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.policy = ExecutionPolicy(
            timeout_s=timeout_s,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
        )
        self.stats = RunnerStats()

    # -- public API ---------------------------------------------------------------------

    def run(self, spec: ExperimentSpec, resume: bool = False) -> SweepArtifact:
        """Execute (or resume) the grid; returns one artifact per cell, in order."""
        start = time.perf_counter()
        cells = spec.expand()
        artifacts: List[Optional[RunArtifact]] = [None] * len(cells)
        pending: List[int] = []
        for index, cell in enumerate(cells):
            cached = self._load_cached(cell) if resume else None
            if cached is not None:
                artifacts[index] = cached
            else:
                pending.append(index)
        # Cells are cached the moment they complete (not after the whole
        # batch), so an interrupted sweep keeps its finished cells and a
        # --resume only pays for what is actually missing.  Stats are
        # recorded even when a cell ultimately fails (try/finally), so a
        # raised CellTimeoutError still leaves honest attempt counts.
        try:
            fresh = self.backend.run(
                [cells[index] for index in pending],
                on_result=lambda _, artifact: self._store(artifact),
                policy=self.policy,
            )
        finally:
            self.stats = RunnerStats(
                total_cells=len(cells),
                executed_cells=len(pending),
                cached_cells=len(cells) - len(pending),
                wall_time=time.perf_counter() - start,
                retried_cells=self.backend.last_run_retries,
                timed_out_cells=self.backend.last_run_timeouts,
                claimed_cells=self.backend.last_run_claimed,
                expired_leases=self.backend.last_run_expired_leases,
                dead_cells=self.backend.last_run_dead,
            )
        for index, artifact in zip(pending, fresh):
            artifacts[index] = artifact
        return SweepArtifact(spec=spec, runs=list(artifacts))

    # -- cell cache ---------------------------------------------------------------------

    def cell_path(self, cell: RunSpec) -> Optional[Path]:
        """Where ``cell``'s artifact is cached (``None`` without a cache_dir)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"cell-{cell.cell_key()}.json"

    def _load_cached(self, cell: RunSpec) -> Optional[RunArtifact]:
        path = self.cell_path(cell)
        if path is None or not path.exists():
            return None
        try:
            artifact = RunArtifact.from_json(path.read_text())
        except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
            return None
        # Content keys make collisions astronomically unlikely, but a
        # hand-edited or truncated file must never masquerade as a result.
        if artifact.spec.to_dict() != cell.to_dict():
            return None
        return artifact

    def _store(self, artifact: RunArtifact) -> None:
        path = self.cell_path(artifact.spec)
        # Dead-cell placeholders must never enter the cache: a --resume
        # should re-attempt the cell, not re-serve the failure.
        if path is None or artifact.is_dead:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(artifact.to_json() + "\n")

