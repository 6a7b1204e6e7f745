"""Generators for every figure and table of the paper's evaluation.

Each function returns plain data structures (dicts / numpy arrays) so
they can be consumed both by the benchmark harness (which prints them)
and by tests (which assert their *shape* — who wins, which curve is
monotone, where the crossover falls).

Most are *analytic* figures (throughput scaling, convergence,
overheads) that need no cluster simulation.  The simulation-driven
figures (15, 17, 18 and Table 4) run an
:class:`~repro.experiments.spec.ExperimentSpec` grid through the
:class:`~repro.experiments.orchestrator.Runner` and aggregate the
resulting :class:`~repro.experiments.artifacts.SweepArtifact`; Fig. 6
replays one trace with :func:`~repro.experiments.backends.simulate_trace`
because it needs the live ``Job`` objects of the run.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import (
    compare_results,
    completion_fraction_within,
    improvement_over,
    mean_metric,
    relative_jct,
)
from repro.analysis.stats import significance_table
from repro.baselines.base import SchedulerBase
from repro.cluster.topology import make_longhorn_cluster
from repro.core.ones_scheduler import ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.experiments.orchestrator import Runner
from repro.experiments.spec import ExperimentSpec
from repro.jobs.convergence import ConvergenceProfile, LossCurveSimulator
from repro.jobs.model_zoo import MODEL_ZOO, get_model
from repro.jobs.throughput import ThroughputModel
from repro.prediction.predictor import PredictorConfig, ProgressPredictor
from repro.scaling.overhead import OverheadModel
from repro.sim.simulator import SimulationConfig
from repro.workload.tasks import build_workload_catalog, catalog_summary, make_job_spec
from repro.workload.trace import TraceConfig, TraceGenerator


# --------------------------------------------------------------------------------------------------
# Fig. 2 — throughput scaling, elastic vs fixed batch size
# --------------------------------------------------------------------------------------------------


def figure2_throughput_scaling(
    worker_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    fixed_batch: int = 256,
    elastic_max_batch: int = 2048,
) -> Dict[str, np.ndarray]:
    """Throughput of ResNet50/CIFAR10 vs worker count, elastic vs fixed batch."""
    catalog = [t for t in build_workload_catalog() if t.dataset == "cifar10" and "resnet18" not in t.model_name]
    template = next(t for t in build_workload_catalog() if t.dataset == "cifar10" and t.model_name == "resnet18")
    # Use a ResNet-style CIFAR model (the paper trains ResNet50 on CIFAR10).
    resnet_cifar = get_model("resnet50").scaled(0.12, "@cifar10")
    topology = make_longhorn_cluster(8)
    model = ThroughputModel(topology)
    fixed = model.scaling_curve(resnet_cifar, worker_counts, global_batch=fixed_batch)
    # Elastic: the local batch stays at ``fixed_batch`` per worker until the
    # global batch hits ``elastic_max_batch``.
    elastic = []
    for count in worker_counts:
        global_batch = min(fixed_batch * count, elastic_max_batch)
        elastic.append(model.throughput_even(resnet_cifar, global_batch, list(range(count))))
    return {
        "workers": np.asarray(list(worker_counts), dtype=int),
        "fixed_batch": fixed,
        "elastic_batch": np.asarray(elastic, dtype=float),
    }


# --------------------------------------------------------------------------------------------------
# Fig. 3 — convergence vs number of GPUs at a fixed local batch size
# --------------------------------------------------------------------------------------------------


def figure3_convergence_vs_gpus(
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    local_batch: int = 256,
    epochs: int = 200,
) -> Dict[str, np.ndarray]:
    """Accuracy curves with a fixed local batch of 256 and 1/2/4/8 GPUs."""
    template = next(
        t for t in build_workload_catalog() if t.dataset == "cifar10" and t.model_name == "resnet18"
    )
    profile = template.convergence_profile()
    curves: Dict[str, np.ndarray] = {"epochs": np.arange(1, epochs + 1)}
    for count in gpu_counts:
        global_batch = local_batch * count
        curves[f"{count}_gpus"] = profile.accuracy_curve(
            epochs, global_batch, lr_scaled=False
        )
    return curves


# --------------------------------------------------------------------------------------------------
# Fig. 6 — online prediction with uncertainty
# --------------------------------------------------------------------------------------------------


def figure6_prediction_example(
    num_training_jobs: int = 12,
    seed: int = 11,
    backend: str = "gpr",
) -> Dict[str, np.ndarray]:
    """Train the progress predictor on a few completed jobs and predict a new one."""
    trace_config = TraceConfig(num_jobs=num_training_jobs, arrival_rate=1.0 / 15.0)
    trace = TraceGenerator(trace_config, seed=seed).generate()
    result = simulate_trace(
        ONESScheduler(seed=seed), trace, 16, SimulationConfig(max_time=24 * 3600.0)
    )
    predictor = ProgressPredictor(PredictorConfig(backend=backend), seed=seed)
    completed = [job for job in result.jobs.values() if job.is_completed]
    if len(completed) < 2:
        raise RuntimeError("not enough completed jobs to fit the predictor")
    holdout = completed[-1]
    for job in completed[:-1]:
        predictor.observe_completion(job)
    curve = predictor.prediction_curve(holdout)
    observed = np.asarray(
        [r.samples_processed for r in holdout.epoch_records], dtype=float
    )
    total = holdout.samples_processed
    curve["observed_samples"] = observed
    curve["observed_progress"] = observed / max(total, 1.0)
    curve["holdout_job"] = np.asarray([len(holdout.epoch_records)], dtype=float)
    return curve


# --------------------------------------------------------------------------------------------------
# Fig. 13 / Fig. 14 — abrupt vs gradual batch-size scaling
# --------------------------------------------------------------------------------------------------


def _cifar_resnet_profile() -> ConvergenceProfile:
    template = next(
        t for t in build_workload_catalog() if t.dataset == "cifar10" and t.model_name == "resnet18"
    )
    return template.convergence_profile()


def figure13_abrupt_scaling(
    initial_batch: int = 256,
    scaled_batch: int = 4096,
    switch_epoch: int = 30,
    total_epochs: int = 70,
) -> Dict[str, np.ndarray]:
    """Loss curves with an abrupt batch jump at ``switch_epoch`` vs a fixed batch."""
    profile = _cifar_resnet_profile()
    scaled = LossCurveSimulator(profile)
    scaled.run_schedule(
        [(initial_batch, switch_epoch), (scaled_batch, total_epochs - switch_epoch)]
    )
    fixed = LossCurveSimulator(profile)
    fixed.run_schedule([(initial_batch, total_epochs)])
    return {
        "epochs": np.arange(1, total_epochs + 1),
        "scaled_batch": np.asarray(scaled.losses),
        "fixed_batch": np.asarray(fixed.losses),
        "switch_epoch": np.asarray([switch_epoch]),
    }


def figure14_gradual_scaling(
    stages: Sequence[Tuple[int, int]] = ((256, 30), (1024, 30), (4096, 30)),
) -> Dict[str, np.ndarray]:
    """Loss curve when the batch size grows gradually (256 → 1024 → 4096)."""
    profile = _cifar_resnet_profile()
    sim = LossCurveSimulator(profile)
    losses = sim.run_schedule(list(stages))
    boundaries = np.cumsum([epochs for _, epochs in stages])
    return {
        "epochs": np.arange(1, len(losses) + 1),
        "loss": losses,
        "stage_boundaries": boundaries,
        "stage_batches": np.asarray([batch for batch, _ in stages]),
    }


# --------------------------------------------------------------------------------------------------
# Table 2 / Table 3
# --------------------------------------------------------------------------------------------------


def table2_workload_catalog() -> Dict[str, int]:
    """Counts of workload templates per task/dataset (must total 50)."""
    return catalog_summary()


def table3_capabilities() -> Sequence[Dict[str, str]]:
    """The scheduler-capability matrix."""
    from repro.baselines.drl import DRLScheduler
    from repro.baselines.optimus import OptimusScheduler
    from repro.baselines.tiresias import TiresiasScheduler

    schedulers: Sequence[SchedulerBase] = (
        ONESScheduler(),
        DRLScheduler(),
        TiresiasScheduler(),
        OptimusScheduler(),
    )
    return [scheduler.describe() for scheduler in schedulers]


# --------------------------------------------------------------------------------------------------
# Fig. 15 / Table 4 — the main comparison
# --------------------------------------------------------------------------------------------------


def figure15_comparison(
    spec: Optional[ExperimentSpec] = None,
) -> Dict[str, object]:
    """Run the main JCT / execution-time / queuing-time comparison.

    ``spec`` defaults to :meth:`ExperimentSpec.comparison` (the paper's
    four schedulers, 64 GPUs, 50 jobs); the figure reads its first
    capacity.  Returns the :class:`SweepArtifact` plus the per-metric
    averages and summaries and the Table-4 significance reports.
    """
    sweep = Runner().run(spec or ExperimentSpec.comparison())
    by_name = sweep.results_for(sweep.spec.capacities[0])
    results = list(by_name.values())
    payload: Dict[str, object] = {"sweep": sweep}
    for metric, key in (("jct", "jct"), ("execution_time", "execution"),
                        ("queuing_time", "queuing")):
        payload[f"averages_{key}"] = {
            name: mean_metric(result, metric) for name, result in by_name.items()
        }
        payload[f"summaries_{key}"] = compare_results(results, metric)
    payload["fraction_within_200s"] = completion_fraction_within(results, 200.0)
    ones = by_name.get("ONES")
    if ones is not None:
        baselines = {name: r for name, r in by_name.items() if name != "ONES"}
        payload["improvements"] = {
            name: improvement_over(ones, result) for name, result in baselines.items()
        }
        payload["table4"] = significance_table(ones, list(baselines.values()))
    return payload


# --------------------------------------------------------------------------------------------------
# Fig. 16 — scaling overhead
# --------------------------------------------------------------------------------------------------


def figure16_overheads(
    model_names: Sequence[str] = (
        "alexnet",
        "resnet18",
        "resnet50",
        "vgg16",
        "googlenet",
        "inceptionv3",
        "lstm",
    ),
) -> Dict[str, Dict[str, float]]:
    """Elastic vs checkpoint-based re-configuration overhead per model."""
    overheads = OverheadModel()
    return overheads.comparison_table({name: get_model(name) for name in model_names})


# --------------------------------------------------------------------------------------------------
# Fig. 17 / Fig. 18 — scalability
# --------------------------------------------------------------------------------------------------


def figure17_18_scalability(
    spec: Optional[ExperimentSpec] = None,
) -> Dict[str, object]:
    """Average JCT and relative JCT across cluster capacities.

    ``spec`` defaults to :meth:`ExperimentSpec.scalability` (16/32/48/64
    GPUs); each capacity is read on the grid's first seed and trace.
    """
    sweep = Runner().run(spec or ExperimentSpec.scalability())
    average_jct: Dict[str, list] = {}
    relative: Dict[str, list] = {}
    for capacity in sweep.spec.capacities:
        results = sweep.results_for(capacity)
        for name, result in results.items():
            average_jct.setdefault(name, []).append(mean_metric(result, "jct"))
        for name, value in relative_jct(results, "ONES").items():
            relative.setdefault(name, []).append(value)
    return {
        "capacities": list(sweep.spec.capacities),
        "average_jct": average_jct,
        "relative_jct": relative,
        "sweep": sweep,
    }
