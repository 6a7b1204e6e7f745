"""Tests of the benchmark's own arithmetic (no program process is started).

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchstats  # noqa: E402


class TestTail:
    def test_tail_percentile_leaves_ten_samples_beyond(self):
        assert benchstats.tail_percentile(100) == pytest.approx(90.0)
        assert benchstats.tail_percentile(1000) == pytest.approx(99.0)
        assert benchstats.tail_percentile(40) == pytest.approx(75.0)

    def test_no_tail_without_eleven_samples(self):
        assert benchstats.tail_percentile(10) is None
        assert benchstats.tail_percentile(11) == pytest.approx(100.0 / 11.0)

    def test_exactly_ten_samples_lie_beyond_the_tail(self):
        values = [float(v) for v in range(1, 101)]
        tail = benchstats.tail(values)
        assert tail["percentile"] == pytest.approx(90.0)
        assert tail["samples"] == 100
        assert sum(1 for v in values if v > tail["value"]) == 10

    def test_small_sample_reports_its_maximum(self):
        tail = benchstats.tail([3.0, 1.0, 2.0])
        assert tail == {"value": 3.0, "percentile": 100.0, "samples": 3}

    def test_percentile_interpolates_like_numpy(self):
        assert benchstats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert benchstats.percentile([10.0, 0.0], 25.0) == pytest.approx(2.5)


class TestSelfTime:
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
        parents = [None, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        own = benchstats.self_times(parents, starts, ends)
        assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_self_times_sum_to_root_durations(self):
        parents = [None, 0, 0, None, 3]
        starts = [0.0, 0.5, 2.0, 10.0, 10.5]
        ends = [5.0, 1.5, 4.0, 12.0, 11.0]
        assert sum(benchstats.self_times(parents, starts, ends)) == pytest.approx(7.0)


class TestOpenLoop:
    def test_latency_counts_from_the_due_time(self):
        due = [0.0, 1.0, 2.0]
        sent = [0.0, 1.5, 2.0]
        replied = [0.2, 1.7, 2.1]
        latency, lateness = benchstats.open_loop_latencies(due, sent, replied)
        assert latency == pytest.approx([0.2, 0.7, 0.1])
        assert lateness == pytest.approx([0.0, 0.5, 0.0])

    def test_lateness_is_never_negative(self):
        _latency, lateness = benchstats.open_loop_latencies([1.0], [0.9], [1.2])
        assert lateness == [0.0]

    def test_unequal_lengths_are_rejected(self):
        with pytest.raises(ValueError):
            benchstats.open_loop_latencies([0.0], [0.0, 1.0], [0.5])

    def test_server_time_waits_for_the_previous_reply(self):
        # The second request arrives at 0.1 but the server is busy until 1.0.
        busy = benchstats.server_busy_times([0.0, 0.1, 3.0], [1.0, 1.5, 3.2])
        assert busy == pytest.approx([1.0, 0.5, 0.2])

    def test_backlog_grows_when_the_server_is_never_idle(self):
        due = [0.1 * i for i in range(11)]
        # Each request takes 0.2 s of a 0.1 s slot: the queue only lengthens.
        assert benchstats.backlog_grows(due, due, [0.2 * (i + 1) for i in range(11)])
        # Each takes 0.05 s: the server idles half of every slot.
        assert not benchstats.backlog_grows(due, due, [d + 0.05 for d in due])

    def test_one_slow_last_request_is_not_a_growing_backlog(self):
        due = [0.4 * i for i in range(24)]
        replied = [d + 0.05 for d in due[:-1]] + [due[-1] + 1.5]
        assert not benchstats.backlog_grows(due, due, replied)


class TestReplaySeconds:
    def test_median_per_scheduler_then_sum(self):
        runs = [{"scheduler": "A", "run_s": 4.0}, {"scheduler": "B", "run_s": 2.0},
                {"scheduler": "A", "run_s": 6.5}, {"scheduler": "B", "run_s": 2.2},
                {"scheduler": "A", "run_s": 4.2}, {"scheduler": "B", "run_s": 1.9}]
        # The slowed second round of A (6.5 s) does not count.
        assert benchstats.replay_seconds(runs) == pytest.approx(4.2 + 2.0)

    def test_one_round_is_the_plain_sum(self):
        runs = [{"scheduler": "ONES", "run_s": 11.5}]
        assert benchstats.replay_seconds(runs) == pytest.approx(11.5)

    def test_other_key(self):
        runs = [{"scheduler": "ONES", "run_s": 11.5, "run_ref_s": 9.0}]
        assert benchstats.replay_seconds(runs, "run_ref_s") == pytest.approx(9.0)


class TestReferenceSpeed:
    SAMPLES = {"starts": [0.5, 1.5, 2.5, 3.5], "seconds": [0.05, 0.05, 0.1, 0.1]}

    def test_blocks_at_the_reference_leave_seconds_unchanged(self):
        assert benchstats.at_reference_speed(1.0, 0.0, 2.0, self.SAMPLES, 0.05) == \
            pytest.approx(1.0)

    def test_a_slower_host_is_scaled_back(self):
        # Blocks in [2, 4) took twice the reference: 2 s there is 1 s at reference speed.
        assert benchstats.at_reference_speed(2.0, 2.0, 4.0, self.SAMPLES, 0.05) == \
            pytest.approx(1.0)

    def test_speed_is_the_mean_rate_over_the_window(self):
        # Half the window at reference speed, half at half speed: 3/4 of the reference rate.
        assert benchstats.at_reference_speed(4.0, 0.0, 4.0, self.SAMPLES, 0.05) == \
            pytest.approx(3.0)

    def test_an_empty_window_uses_every_block(self):
        assert benchstats.at_reference_speed(4.0, 9.0, 9.5, self.SAMPLES, 0.05) == \
            pytest.approx(3.0)


class TestSpreadAndVerdict:
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
        q1, med, q3 = benchstats.quartiles(values)
        assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
        assert benchstats.relative_spread(values) == pytest.approx((q3 - q1) / med)

    def test_verdicts(self):
        old = [10.0, 10.1, 9.9, 10.0]
        assert benchstats.verdict(old, [10.05, 10.0, 9.95, 10.1], 0.1, "lower") == "same"
        assert benchstats.verdict(old, [12.0, 12.1, 11.9, 12.0], 0.1, "lower") == "worse"
        assert benchstats.verdict(old, [8.0, 8.1, 7.9, 8.0], 0.1, "lower") == "better"
        assert benchstats.verdict(old, [8.0, 8.1, 7.9, 8.0], 0.1, "higher") == "worse"

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        noisy = [5.0, 10.0, 15.0, 20.0]
        assert benchstats.verdict([10.0] * 4, noisy, 0.1, "lower") == "unresolved"
        assert benchstats.verdict([30.0] * 4, noisy, 0.1, "lower") == "better"


class TestChecks:
    def test_job_checks(self):
        good = {"j1": {"jct": 5.0, "execution_time": 4.0}}
        assert benchstats.check_jobs(good, [], 1) == []
        assert benchstats.check_jobs(good, ["j2"], 2) == ["j2: incomplete"]
        bad = {"j1": {"jct": 3.0, "execution_time": 4.0}}
        assert len(benchstats.check_jobs(bad, [], 1)) == 1
        nan = {"j1": {"jct": float("nan"), "execution_time": 4.0}}
        assert len(benchstats.check_jobs(nan, [], 1)) == 1

    def test_last_bit_rounding_is_not_a_failure(self):
        rounded = {"j1": {"jct": 179.72626878980878, "execution_time": 179.7262687898088}}
        assert benchstats.check_jobs(rounded, [], 1) == []

    def test_summary_checks(self):
        summary = {"completed_jobs": 3, "incomplete_jobs": 0, "average_jct": 5.0,
                   "average_execution_time": 4.0, "makespan": 20.0}
        assert benchstats.check_summary(summary, 3) == []
        assert benchstats.check_summary(summary, 4)
        assert benchstats.check_summary({**summary, "incomplete_jobs": 1}, 3)
