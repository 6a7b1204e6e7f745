"""Tests for repro.utils.stats."""

import numpy as np
import pytest

from repro.utils.stats import (
    RunningMean,
    cumulative_frequency,
    fraction_below,
    summarize,
)


class TestSummarize:
    def test_basic_statistics(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.median == pytest.approx(3.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0

    def test_quartiles_ordered(self):
        stats = summarize(np.arange(100))
        assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_dict_keys(self):
        d = summarize([1, 2, 3]).as_dict()
        assert set(d) == {"count", "mean", "std", "min", "p25", "median", "p75", "max"}


class TestCumulativeFrequency:
    def test_monotone_and_bounded(self):
        x, cf = cumulative_frequency([3, 1, 2, 5, 4], num_points=50)
        assert np.all(np.diff(cf) >= 0)
        assert cf[-1] == pytest.approx(1.0)
        assert cf[0] >= 0.0

    def test_log_space_grid(self):
        x, cf = cumulative_frequency([1, 10, 100, 1000], num_points=10, log_space=True)
        assert x[0] == pytest.approx(1.0)
        assert x[-1] == pytest.approx(1000.0)

    def test_single_value(self):
        x, cf = cumulative_frequency([7.0, 7.0])
        assert np.all(cf == 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            cumulative_frequency([])


class TestFractionBelow:
    def test_fraction(self):
        assert fraction_below([1, 2, 3, 4], 3) == pytest.approx(0.5)

    def test_all_below(self):
        assert fraction_below([1, 2], 100) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fraction_below([], 1.0)


class TestRunningMean:
    def test_matches_numpy(self, rng):
        values = rng.normal(10, 3, size=200)
        rm = RunningMean()
        for v in values:
            rm.update(float(v))
        assert rm.mean == pytest.approx(float(np.mean(values)))
        assert rm.std == pytest.approx(float(np.std(values, ddof=1)), rel=1e-6)

    def test_zero_and_one_observation(self):
        rm = RunningMean()
        assert rm.variance == 0.0
        rm.update(5.0)
        assert rm.mean == 5.0
        assert rm.variance == 0.0
