"""Tests for repro.utils.units."""

import pytest

from repro.utils.units import (
    GB,
    HOUR,
    KB,
    MB,
    MINUTE,
    format_duration,
)


class TestConstants:
    def test_byte_multiples(self):
        assert KB == 1e3
        assert MB == 1e6
        assert GB == 1e9

    def test_time_multiples(self):
        assert MINUTE == 60.0
        assert HOUR == 3600.0


class TestFormatDuration:
    def test_microseconds(self):
        assert format_duration(5e-6).endswith("us")

    def test_milliseconds(self):
        assert format_duration(0.25).endswith("ms")

    def test_seconds(self):
        assert format_duration(12.5) == "12.50s"

    def test_minutes(self):
        assert format_duration(125) == "2m05.0s"

    def test_hours(self):
        assert format_duration(3 * 3600 + 90) == "3h01.5m"

    def test_negative(self):
        assert format_duration(-12.5).startswith("-")
