"""Ablation — elastic scaling vs checkpoint-based execution inside ONES.

ONES's decisions are only cheap to act on because re-configuration is
checkpoint-free (§3.3, Fig. 16).  This ablation runs the same ONES policy
but charges checkpoint-based migration costs for every re-configuration,
quantifying how much of the end-to-end win comes from the mechanism.
"""

from repro.analysis.reporting import format_table
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.scaling.overhead import ReconfigurationKind
from repro.workload.trace import TraceConfig, TraceGenerator

from benchmarks._shared import SEED, write_report


class CheckpointONESScheduler(ONESScheduler):
    """ONES policy executed with checkpoint-based re-configuration."""

    name = "ONES-checkpoint"
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT


def _run_all():
    trace = TraceGenerator(
        TraceConfig(num_jobs=14, arrival_rate=1.0 / 20.0), seed=SEED + 3
    ).generate()
    evolution = EvolutionConfig(population_size=12)
    elastic = simulate_trace(
        ONESScheduler(ONESConfig(evolution=evolution), seed=SEED), trace, 16
    )
    checkpoint = simulate_trace(
        CheckpointONESScheduler(ONESConfig(evolution=evolution), seed=SEED), trace, 16
    )
    return {"elastic": elastic, "checkpoint": checkpoint}


def test_ablation_reconfiguration_mechanism(benchmark):
    outcomes = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = []
    for label, result in outcomes.items():
        total_overhead = sum(m["reconfig_overhead"] for m in result.completed.values())
        rows.append(
            {
                "mechanism": label,
                "avg JCT (s)": round(result.average_jct, 1),
                "avg exec (s)": round(result.average_execution_time, 1),
                "reconfigs": result.num_reconfigurations,
                "total reconfig overhead (s)": round(total_overhead, 1),
            }
        )
    write_report(
        "ablation_reconfiguration",
        "Ablation: elastic vs checkpoint-based execution of ONES decisions\n"
        + format_table(rows),
    )
    elastic, checkpoint = outcomes["elastic"], outcomes["checkpoint"]
    assert not elastic.incomplete and not checkpoint.incomplete
    elastic_overhead = sum(m["reconfig_overhead"] for m in elastic.completed.values())
    checkpoint_overhead = sum(m["reconfig_overhead"] for m in checkpoint.completed.values())
    # The same policy pays far more overhead when it has to checkpoint.
    assert checkpoint_overhead > 3.0 * elastic_overhead
    # And that overhead shows up in completion time.
    assert elastic.average_jct <= checkpoint.average_jct
