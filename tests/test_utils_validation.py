"""Tests for repro.utils.validation."""

import math

import pytest

from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-2, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive(float("inf"), "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive(True, "x")


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative(0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative(-0.1, "x")


class TestCheckProbability:
    def test_bounds_inclusive(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            check_probability(1.01, "p")

    def test_rejects_below_zero(self):
        with pytest.raises(ValueError):
            check_probability(-0.01, "p")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(5, "x", 5, 10) == 5.0
        assert check_in_range(10, "x", 5, 10) == 10.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            check_in_range(5, "x", 5, 10, inclusive=False)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range(11, "x", 5, 10)

    def test_open_ended(self):
        assert check_in_range(1e9, "x", low=0) == 1e9


class TestCheckPositiveInt:
    def test_accepts_int(self):
        assert check_positive_int(3, "n") == 3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_positive_int(0, "n")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_positive_int(3.0, "n")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "n")
