"""Figure 17 — average JCT as the cluster grows (16 → 64 GPUs)."""

from repro.analysis.metrics import mean_metric
from repro.analysis.reporting import ascii_series

from benchmarks._shared import scalability_sweep, write_report


def test_fig17_scalability(benchmark):
    sweep = benchmark.pedantic(scalability_sweep, rounds=1, iterations=1)
    capacities = sorted(sweep.spec.capacities)
    averages = {
        capacity: {
            name: mean_metric(result, "jct")
            for name, result in sweep.results_for(capacity).items()
        }
        for capacity in capacities
    }
    series = {}
    for capacity in capacities:
        for name, value in averages[capacity].items():
            series.setdefault(name, []).append(round(value, 1))
    write_report(
        "fig17_scalability",
        "Figure 17: average JCT (s) vs cluster capacity\n"
        + ascii_series(capacities, series, x_label="# GPUs"),
    )
    # Shape: every scheduler's average JCT decreases as GPUs are added,
    # and ONES stays the best at every capacity.
    for name, values in series.items():
        assert values[-1] < values[0], name
    for capacity in capacities:
        assert averages[capacity]["ONES"] == min(averages[capacity].values()), capacity
