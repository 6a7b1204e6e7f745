"""Perf records of the ONES hot paths and event loop.

Eq. 8 is evaluated for every candidate of the population at every
simulator event, so this bench first times population scoring through
the scalar reference (one Python loop per candidate, one throughput
lookup per (job, candidate) pair) against the vectorised engine (one
``bincount`` + one ``ThroughputTable`` gather) at every benchmark
scale, asserting bit-identical scores.  It then times whole simulations:
the event loop under both GPR refit policies, the fault subsystem's
dormant cost, the hierarchical scheduler at 256 GPUs and the trace
recorder's dormant cost.  Everything lands in
``benchmarks/results/BENCH_scoring.json`` so the perf trajectory is
machine-readable across changes.  Run with ``PYTHONPATH=src python -m
benchmarks.bench_perf_scoring`` or through pytest.
"""

from __future__ import annotations

import os
from functools import lru_cache
from time import perf_counter
from typing import Dict

import numpy as np

from benchmarks._shared import SCALES, SEED, write_perf_record, write_report

from repro.cluster.topology import make_longhorn_cluster
from repro.core.operators import reorder
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import score_candidates, score_population
from repro.experiments.backends import simulate_trace
from repro.experiments.registry import create_scheduler
from repro.faults import FaultConfig
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator

from tests._core_helpers import make_jobs

#: Fraction of GPUs knocked idle per candidate so the workload includes
#: idle genes (the engine must handle them, and real populations do).
IDLE_FRACTION = 0.1


def _scoring_workload(num_gpus: int, num_jobs: int, seed: int):
    """A busy cluster snapshot plus a population of K = num_gpus candidates."""
    jobs = make_jobs(num_jobs)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(1500 * (i + 1), 10.0)
    topology = make_longhorn_cluster(num_gpus)
    model = ThroughputModel(topology)
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(num_gpus):  # the paper's K = cluster size
        genome = rng.integers(0, num_jobs, size=num_gpus).astype(np.int64)
        genome[rng.random(num_gpus) < IDLE_FRACTION] = IDLE
        candidates.append(reorder(Schedule(roster=roster, genome=genome)))
    table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
    progress = {
        job_id: float(rho)
        for job_id, rho in zip(roster, rng.uniform(0.05, 0.95, size=len(roster)))
    }
    return jobs, candidates, table, progress


def _candidates_per_sec(fn, num_candidates: int, min_time: float = 0.2) -> float:
    """Candidates scored per second (repeat until ``min_time`` elapsed)."""
    fn()  # warm-up: fills the throughput table / caches
    reps = 0
    start = perf_counter()
    elapsed = 0.0
    while elapsed < min_time:
        fn()
        reps += 1
        elapsed = perf_counter() - start
    return reps * num_candidates / elapsed


#: Event-loop configurations: the 16-GPU smoke scale and the 64-GPU
#: cluster the acceptance numbers come from.
EVENT_LOOP_CONFIGS = ((16, 10), (64, 40))


def _bench_event_loop() -> Dict[str, Dict]:
    """Kernel + GPR-policy wall-clock of full ONES simulations.

    Times the simulation engine end to end under the two predictor
    policies: ``default`` is the paper-faithful full-refit-per-completion
    path (trajectory-pinned to the PR 3 baseline by the golden-trace and
    differential parity suites — only faster), ``incremental_gpr`` is the
    rank-1-update policy (``refit_policy="incremental"``), which trades
    bounded predictor staleness for long-trace throughput.  Profiling is
    on, so the GPR-refit share of every run is recorded.
    """
    records: Dict[str, Dict] = {}
    for num_gpus, num_jobs in EVENT_LOOP_CONFIGS:
        trace_config = TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0)
        trace = TraceGenerator(trace_config, seed=SEED).generate()
        row: Dict[str, Dict] = {}
        for label, options in (
            ("default", {}),
            ("incremental_gpr", {"refit_policy": "incremental"}),
        ):
            scheduler = create_scheduler("ONES", SEED, **options)
            start = perf_counter()
            result = simulate_trace(
                scheduler, trace, num_gpus, SimulationConfig(collect_profile=True)
            )
            elapsed = perf_counter() - start
            # Total GPR cost = full refits + rank-1 appends, so the share
            # is honest for the incremental policy too.
            refit = result.profile.get("gpr_refit_seconds", 0.0) + result.profile.get(
                "gpr_partial_fit_seconds", 0.0
            )
            row[label] = {
                "seconds": round(elapsed, 3),
                "events": result.events_processed,
                "events_per_sec": round(result.events_processed / elapsed, 1),
                "gpr_refit_seconds": round(refit, 3),
                "gpr_refit_share": round(refit / elapsed, 3),
                "gpr_full_fits": scheduler.predictor.fit_count,
                "gpr_partial_fits": scheduler.predictor.partial_fit_count,
                "completed": len(result.completed),
                "average_jct": round(result.average_jct, 1),
            }
        records[f"{num_gpus}x{num_jobs}"] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            **row,
            "speedup": round(row["default"]["seconds"] / row["incremental_gpr"]["seconds"], 2),
        }
    return records


def _bench_faults() -> Dict:
    """Fault-subsystem cost: dormant-config overhead + one chaotic run.

    The zero-fault contract is that merely *shipping* the fault
    subsystem (handler registration, availability checks on the advance
    and allocation paths, the runtime's empty-state queries) costs the
    event loop nothing measurable.  ``disabled_overhead`` compares a run
    with no fault config against a run whose config is enabled but
    dormant (an MTBF so large no failure lands inside the horizon) —
    the two trajectories must be identical and the wall-clock within a
    few percent (gated <5% below).  A genuinely faulted run is recorded
    alongside for the perf trajectory of recovery itself.
    """
    num_gpus, num_jobs = 16, 10
    trace_config = TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0)
    trace = TraceGenerator(trace_config, seed=SEED).generate()

    def timed_run(faults):
        scheduler = create_scheduler("ONES", SEED)
        start = perf_counter()
        result = simulate_trace(
            scheduler, trace, num_gpus, SimulationConfig(faults=faults)
        )
        return result, perf_counter() - start

    # Enabled but dormant: the first exponential failure draw lands ~1e6
    # hours out, far beyond the simulation horizon, so zero events fire.
    dormant = FaultConfig(profile="mtbf", seed=SEED, mtbf_hours=1e6)
    baseline_times, dormant_times = [], []
    baseline_result = dormant_result = None
    for _ in range(3):  # interleaved, best-of-3 per side (noise control)
        baseline_result, elapsed = timed_run(None)
        baseline_times.append(elapsed)
        dormant_result, elapsed = timed_run(dormant)
        dormant_times.append(elapsed)
    if baseline_result.completed != dormant_result.completed:
        raise AssertionError("a dormant fault config changed the trajectory")
    baseline_s, dormant_s = min(baseline_times), min(dormant_times)

    chaotic = FaultConfig(
        profile="mtbf", seed=SEED, mtbf_hours=0.5, repair_minutes=10
    )
    faulted_result, faulted_s = timed_run(chaotic)
    return {
        "num_gpus": num_gpus,
        "num_jobs": num_jobs,
        "baseline_seconds": round(baseline_s, 3),
        "dormant_seconds": round(dormant_s, 3),
        "disabled_overhead": round(dormant_s / baseline_s - 1.0, 4),
        "baseline_events_per_sec": round(
            baseline_result.events_processed / baseline_s, 1
        ),
        "faulted": {
            "seconds": round(faulted_s, 3),
            "events": faulted_result.events_processed,
            "completed": len(faulted_result.completed),
            "evictions": faulted_result.faults.get("evictions", 0.0),
            "restarts": faulted_result.faults.get("restarts", 0.0),
            "goodput": round(faulted_result.faults.get("goodput", 0.0), 3),
        },
    }


#: Hierarchical-scheduler scale tiers: ``(num_gpus, num_jobs,
#: partition_size, mean arrival interval)``.  The quick tier always runs
#: (it is the CI ``scale-smoke`` budget gate); the full tier is the
#: ISSUE acceptance scenario — 1024 GPUs / 1000 jobs, minutes not hours
#: — and only runs when ``REPRO_BENCH_FULL_SCALE`` is set, so its
#: numbers land in ``BENCH_scoring.json`` without taxing every CI run.
SCALE_TIERS = {
    "quick": (256, 120, 64, 10.0),
    "full": (1024, 1000, 64, 5.0),
}


def _bench_hierarchical_scale() -> Dict[str, Dict]:
    """Wall-clock of the partitioned scheduler at post-paper cluster sizes.

    Flat ONES is superlinear in cluster size (genome length = GPU count,
    population = cluster size), so these tiers run only the hierarchical
    configuration — the flat side of the story is covered at 64 GPUs by
    the ``event_loop`` section and pinned bit-identical to ``ONES-hier``
    with ``partitions=1`` by the differential parity suite.
    """
    tiers = ["quick"]
    if os.environ.get("REPRO_BENCH_FULL_SCALE"):
        tiers.append("full")
    records: Dict[str, Dict] = {}
    for tier in tiers:
        num_gpus, num_jobs, partition_size, interval = SCALE_TIERS[tier]
        trace_config = TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / interval)
        trace = TraceGenerator(trace_config, seed=SEED).generate()
        scheduler = create_scheduler("ONES-hier", SEED, partition_size=partition_size)
        start = perf_counter()
        result = simulate_trace(scheduler, trace, num_gpus, SimulationConfig())
        elapsed = perf_counter() - start
        summary = scheduler.describe_state()
        records[tier] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "partition_size": partition_size,
            "partitions": summary["partitions"],
            "seconds": round(elapsed, 1),
            "events": result.events_processed,
            "events_per_sec": round(result.events_processed / elapsed, 1),
            "completed": len(result.completed),
            "incomplete": len(result.incomplete),
            "wide_placements": summary.get("wide_placements", 0),
            "makespan": round(result.makespan, 1),
            "average_jct": round(result.average_jct, 1),
        }
    return records


def _bench_observability() -> Dict:
    """Trace-recorder cost at the 256x120 smoke tier: dormant + recording.

    The observability contract mirrors the fault subsystem's: merely
    *shipping* the tracer hooks (the ``active_tracer()`` global read +
    branch on every instrumentation site, the kernel's per-event
    ``enabled`` check) must cost the traced-off event loop nothing
    measurable.  ``disabled_overhead`` compares a run with no recorder
    installed against a run with a recorder installed but *disabled* —
    trajectories must be identical and the wall-clock within a few
    percent (gated <3% below).  One fully-traced run is recorded
    alongside so the cost of tracing-on (and the record volume it buys)
    stays in the perf trajectory.

    The horizon is capped at the first 600 virtual seconds of the tier's
    trace: a ~3 s measured run instead of ~12 s buys five interleaved
    rounds per side, and best-of-N over short interleaved runs is far
    more robust to background machine noise than best-of-3 over long
    ones — the dormant delta under test is a global read and a branch
    per instrumentation site, far below long-run noise amplitude.
    """
    from repro.obs.trace import TraceRecorder, install_tracer, uninstall_tracer

    num_gpus, num_jobs, partition_size, interval = SCALE_TIERS["quick"]
    trace_config = TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / interval)
    trace = TraceGenerator(trace_config, seed=SEED).generate()
    sim_config = SimulationConfig(max_time=600.0)

    def timed_run():
        scheduler = create_scheduler("ONES-hier", SEED, partition_size=partition_size)
        start = perf_counter()
        result = simulate_trace(scheduler, trace, num_gpus, sim_config)
        return result, perf_counter() - start

    uninstall_tracer()
    timed_run()  # warm-up: throughput-table and numpy caches
    # Per-round pairwise ratios, then the median across rounds: pairing
    # adjacent-in-time runs cancels slow machine drift that poisons
    # min-of-N over independent series, and the median sheds the rounds
    # a background burst landed in.
    dormant_ratios, tracing_ratios = [], []
    baseline_times, dormant_times = [], []
    baseline_result = dormant_result = traced_result = None
    recorder = None
    for round_index in range(6):
        # Alternate which side runs first so within-round drift cannot
        # systematically favour either side.
        dormant_first = bool(round_index % 2)
        if dormant_first:
            install_tracer(TraceRecorder(enabled=False))
            dormant_result, dormant_elapsed = timed_run()
            uninstall_tracer()
            baseline_result, baseline_elapsed = timed_run()
        else:
            baseline_result, baseline_elapsed = timed_run()
            install_tracer(TraceRecorder(enabled=False))
            dormant_result, dormant_elapsed = timed_run()
            uninstall_tracer()
        baseline_times.append(baseline_elapsed)
        dormant_times.append(dormant_elapsed)
        recorder = install_tracer(TraceRecorder(capacity=1 << 20))
        traced_result, traced_elapsed = timed_run()
        uninstall_tracer()
        dormant_ratios.append(dormant_elapsed / baseline_elapsed)
        tracing_ratios.append(traced_elapsed / baseline_elapsed)
    if baseline_result.completed != dormant_result.completed:
        raise AssertionError("a dormant trace recorder changed the trajectory")
    if traced_result.completed != baseline_result.completed:
        raise AssertionError("an enabled trace recorder changed the trajectory")
    return {
        "num_gpus": num_gpus,
        "num_jobs": num_jobs,
        "baseline_seconds": round(min(baseline_times), 3),
        "dormant_seconds": round(min(dormant_times), 3),
        "disabled_overhead": round(float(np.median(dormant_ratios)) - 1.0, 4),
        "tracing_overhead": round(float(np.median(tracing_ratios)) - 1.0, 4),
        "trace_records": len(recorder),
        "trace_records_dropped": recorder.dropped,
    }


@lru_cache(maxsize=1)
def run() -> Dict:
    """Benchmark every scale and persist the BENCH_scoring.json record."""
    results: Dict[str, Dict] = {}
    for scale_name, params in SCALES.items():
        num_gpus = int(params["num_gpus"])
        num_jobs = int(params["num_jobs"])
        jobs, candidates, table, progress = _scoring_workload(
            num_gpus, num_jobs, SEED
        )
        scalar_fn = table.as_throughput_fn()

        build_start = perf_counter()
        scalar_scores = score_candidates(candidates, jobs, progress, scalar_fn)
        table_build_seconds = perf_counter() - build_start

        vector_scores = score_population(candidates, jobs, progress, table)
        if not np.array_equal(scalar_scores, vector_scores):
            raise AssertionError("scalar and vectorised scores disagree")

        scalar_ops = _candidates_per_sec(
            lambda: score_candidates(candidates, jobs, progress, scalar_fn),
            len(candidates),
        )
        vector_ops = _candidates_per_sec(
            lambda: score_population(candidates, jobs, progress, table),
            len(candidates),
        )
        results[scale_name] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "population": len(candidates),
            "scalar_candidates_per_sec": round(scalar_ops, 1),
            "vectorized_candidates_per_sec": round(vector_ops, 1),
            "speedup": round(vector_ops / scalar_ops, 2),
            "table_entries": table.filled_entries,
            "table_capacity": table.capacity,
            "first_scoring_pass_seconds": round(table_build_seconds, 6),
        }

    event_loop = _bench_event_loop()
    faults = _bench_faults()
    scale = _bench_hierarchical_scale()
    observability = _bench_observability()

    lines = ["Population scoring: scalar reference vs vectorised engine", ""]
    lines.append(
        f"{'scale':<8} {'GPUs':>5} {'jobs':>5} {'K':>4} "
        f"{'scalar cand/s':>14} {'vector cand/s':>14} {'speedup':>8}"
    )
    for scale_name, row in results.items():
        lines.append(
            f"{scale_name:<8} {row['num_gpus']:>5} {row['num_jobs']:>5} "
            f"{row['population']:>4} {row['scalar_candidates_per_sec']:>14,.0f} "
            f"{row['vectorized_candidates_per_sec']:>14,.0f} "
            f"{row['speedup']:>7.1f}x"
        )
    lines += ["", "Event loop: default (paper-exact) vs incremental-GPR policy", ""]
    lines.append(
        f"{'scale':<8} {'default ev/s':>13} {'incr ev/s':>10} "
        f"{'refit share':>12} {'-> share':>9} {'speedup':>8}"
    )
    for key, row in event_loop.items():
        lines.append(
            f"{key:<8} {row['default']['events_per_sec']:>13,.0f} "
            f"{row['incremental_gpr']['events_per_sec']:>10,.0f} "
            f"{row['default']['gpr_refit_share']:>11.0%} "
            f"{row['incremental_gpr']['gpr_refit_share']:>8.0%} "
            f"{row['speedup']:>7.1f}x"
        )
    lines += [
        "",
        f"Fault subsystem ({faults['num_gpus']} GPUs, {faults['num_jobs']} jobs): "
        f"disabled-injection overhead {100 * faults['disabled_overhead']:+.1f}% "
        f"({faults['baseline_seconds']}s -> {faults['dormant_seconds']}s, "
        f"identical trajectories); chaotic MTBF run: "
        f"{faults['faulted']['evictions']:.0f} evictions, "
        f"goodput {faults['faulted']['goodput']:.0%} "
        f"in {faults['faulted']['seconds']}s",
    ]
    lines += ["", "Hierarchical partitioned ONES at scale (ONES-hier)", ""]
    lines.append(
        f"{'tier':<8} {'GPUs':>5} {'jobs':>5} {'parts':>6} "
        f"{'seconds':>8} {'ev/s':>8} {'wide':>5} {'avg JCT':>9}"
    )
    for tier, row in scale.items():
        lines.append(
            f"{tier:<8} {row['num_gpus']:>5} {row['num_jobs']:>5} "
            f"{row['partitions']:>6} {row['seconds']:>8,.1f} "
            f"{row['events_per_sec']:>8,.1f} {row['wide_placements']:>5} "
            f"{row['average_jct']:>9,.1f}"
        )
    if "full" not in scale:
        lines.append(
            "(full 1024-GPU / 1000-job tier skipped; set "
            "REPRO_BENCH_FULL_SCALE=1 to run it)"
        )
    lines += [
        "",
        f"Trace recorder ({observability['num_gpus']} GPUs, "
        f"{observability['num_jobs']} jobs, ONES-hier): "
        f"dormant overhead {100 * observability['disabled_overhead']:+.1f}% "
        f"({observability['baseline_seconds']}s -> "
        f"{observability['dormant_seconds']}s, identical trajectories); "
        f"tracing on: {observability['trace_records']:,} records "
        f"at {100 * observability['tracing_overhead']:+.1f}%",
    ]
    write_report("perf_scoring", "\n".join(lines))
    record = {
        "scales": results,
        "event_loop": event_loop,
        "faults": faults,
        "scale": scale,
        "observability": observability,
    }
    write_perf_record("scoring", record)
    return record


class TestScoringPerf:
    def test_vectorized_scoring_speedup(self):
        results = run()["scales"]
        # The acceptance target: >= 10x on medium-scale population scoring.
        assert results["medium"]["speedup"] >= 10.0
        for row in results.values():
            assert row["table_entries"] <= row["table_capacity"]

    def test_event_loop_incremental_gpr_speedup(self):
        row = run()["event_loop"]["64x40"]
        # PR 4 acceptance: the incremental-GPR policy doubles end-to-end
        # ONES wall-clock at 64 GPUs / 40 jobs.  The "default" side is
        # the PR 3 trajectory (pinned bit-identical by the parity
        # suites), itself already faster than the PR 3 build — so this
        # in-bench ratio *understates* the speedup vs the true PR 3
        # baseline.  Gated below 2.0 only for machine noise.
        assert row["speedup"] >= 1.7
        # The GPR-refit share must drop measurably.
        assert (
            row["incremental_gpr"]["gpr_refit_share"]
            < 0.5 * row["default"]["gpr_refit_share"]
        )
        # Both runs finish the whole trace.
        assert row["default"]["completed"] == row["num_jobs"]
        assert row["incremental_gpr"]["completed"] == row["num_jobs"]

    def test_hierarchical_scale_budget(self):
        row = run()["scale"]["quick"]
        # The scale-smoke gate: a 256-GPU / 120-job partitioned trace
        # must finish the whole trace inside a generous wall-clock
        # budget (observed ~14 s locally; the bound absorbs CI-runner
        # noise while still catching superlinear regressions).
        assert row["incomplete"] == 0
        assert row["completed"] == row["num_jobs"]
        assert row["partitions"] == 4
        assert row["seconds"] < 180.0

    def test_observability_dormant_overhead(self):
        row = run()["observability"]
        # PR 10 acceptance: shipping the trace-recorder hooks costs the
        # tracing-off event loop <3% at the 256x120 smoke tier (the
        # dormant run has a recorder installed but disabled, so every
        # instrumentation site takes its guard branch; trajectory
        # identity — tracing on AND off — is asserted inside the bench).
        assert row["disabled_overhead"] < 0.03
        # The traced run actually recorded the simulation.
        assert row["trace_records"] > 0
        assert row["trace_records_dropped"] == 0

    def test_fault_subsystem_disabled_overhead(self):
        row = run()["faults"]
        # PR 5 acceptance: shipping the fault subsystem costs the
        # zero-fault event loop <5% (the dormant-config run performs the
        # same work as the no-config run plus the subsystem's empty-state
        # checks; trajectory identity is asserted inside the bench).
        assert row["disabled_overhead"] < 0.05
        # The chaotic run actually exercises recovery and still finishes.
        assert row["faulted"]["completed"] == row["num_jobs"]
        assert row["faulted"]["evictions"] >= 1
        assert 0.0 < row["faulted"]["goodput"] <= 1.0


if __name__ == "__main__":
    import json

    print(json.dumps(run(), indent=2))
