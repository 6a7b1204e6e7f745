"""Shared configuration and caching for the benchmark harness.

The main comparison (Fig. 15 / Table 4) and the scalability sweep
(Fig. 17 / 18) are expensive; several benchmark files consume the same
runs, so they are computed once per pytest session and cached here.
Both are :class:`~repro.experiments.spec.ExperimentSpec` grids run by a
:class:`~repro.experiments.orchestrator.Runner` whose serial backend
resolves scheduler names through :func:`scheduler_factories` (the DRL
baseline carries a policy trained once per session).

Scale is controlled with the ``REPRO_BENCH_SCALE`` environment variable:

* ``paper``  — the paper's setup: 64 GPUs, 50 jobs, capacities 16–64.
* ``medium`` — (default) 64 GPUs, 50 jobs, but a two-point scalability
  sweep, keeping the whole benchmark suite within a few minutes.
* ``small``  — 16 GPUs, 12 jobs, for smoke-testing the harness.
"""

from __future__ import annotations

import json
import os
import platform
from functools import lru_cache
from pathlib import Path
from typing import Dict

from repro.baselines.drl import DRLScheduler, PolicyNetwork, ReinforceTrainer
from repro.baselines.optimus import OptimusScheduler
from repro.baselines.tiresias import TiresiasScheduler
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.artifacts import SweepArtifact
from repro.experiments.backends import SerialBackend
from repro.experiments.orchestrator import Runner
from repro.experiments.spec import ExperimentSpec
from repro.workload.trace import TraceConfig

#: Where benchmark reports are written (in addition to being printed).
OUTPUT_DIR = Path(__file__).resolve().parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "medium").lower()
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2021"))

#: All benchmark scales, public so perf benches can sweep every scale in
#: one run (machine-readable perf records report each of them).
SCALES = {
    "paper": {"num_gpus": 64, "num_jobs": 50, "capacities": (16, 32, 48, 64)},
    "medium": {"num_gpus": 64, "num_jobs": 50, "capacities": (16, 64)},
    "small": {"num_gpus": 16, "num_jobs": 12, "capacities": (8, 16)},
}
if SCALE not in SCALES:
    raise ValueError(f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {SCALE!r}")

PARAMS = SCALES[SCALE]


def write_report(name: str, text: str) -> Path:
    """Print a benchmark report and persist it under ``benchmarks/results``."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print()
    print(text)
    return path


def write_perf_record(name: str, payload: Dict) -> Path:
    """Persist a machine-readable perf record as ``results/BENCH_<name>.json``.

    The payload is wrapped with the seed and platform metadata so the
    perf trajectory stays comparable across future PRs.
    """
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "bench": name,
        "seed": SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **payload,
    }
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    path = OUTPUT_DIR / f"BENCH_{name}.json"
    path.write_text(text)
    return path


@lru_cache(maxsize=1)
def trained_drl_policy() -> PolicyNetwork:
    """Train the DRL baseline's policy once per session (offline phase)."""
    trainer = ReinforceTrainer(episodes=20, jobs_per_episode=10, num_gpus=16, seed=SEED)
    return trainer.train()


def scheduler_factories() -> Dict[str, object]:
    """The four evaluated schedulers, mirroring Table 3."""
    policy = trained_drl_policy()
    return {
        "ONES": lambda seed: ONESScheduler(ONESConfig(evolution=EvolutionConfig()), seed=seed),
        "DRL": lambda seed: DRLScheduler(policy=policy, seed=seed, greedy=True),
        "Tiresias": lambda seed: TiresiasScheduler(),
        "Optimus": lambda seed: OptimusScheduler(),
    }


def _run(spec: ExperimentSpec) -> SweepArtifact:
    """Run ``spec`` serially with the benchmark's scheduler factories."""
    factories = scheduler_factories()
    backend = SerialBackend(resolver=lambda name, seed, **options: factories[name](seed))
    return Runner(backend=backend).run(spec)


def _trace() -> TraceConfig:
    return TraceConfig(num_jobs=int(PARAMS["num_jobs"]), arrival_rate=1.0 / 30.0)


@lru_cache(maxsize=1)
def main_comparison() -> SweepArtifact:
    """The shared Fig. 15 / Table 4 run at ``PARAMS["num_gpus"]`` (cached per session)."""
    return _run(ExperimentSpec.comparison(
        schedulers=tuple(scheduler_factories()),
        num_gpus=int(PARAMS["num_gpus"]),
        seed=SEED,
        trace=_trace(),
    ))


@lru_cache(maxsize=1)
def scalability_sweep() -> SweepArtifact:
    """The shared Fig. 17 / 18 sweep over ``PARAMS["capacities"]`` (cached per session)."""
    return _run(ExperimentSpec.scalability(
        schedulers=tuple(scheduler_factories()),
        capacities=tuple(PARAMS["capacities"]),
        seeds=(SEED,),
        trace=_trace(),
    ))
