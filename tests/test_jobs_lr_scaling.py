"""Tests for repro.jobs.lr_scaling."""

import pytest

from repro.jobs.lr_scaling import linear_scaled_lr, warmup_factor


class TestLinearScaling:
    def test_doubling_batch_doubles_lr(self):
        assert linear_scaled_lr(0.1, 256, 512) == pytest.approx(0.2)

    def test_identity(self):
        assert linear_scaled_lr(0.1, 256, 256) == pytest.approx(0.1)

    def test_downscale(self):
        assert linear_scaled_lr(0.1, 256, 128) == pytest.approx(0.05)

    def test_invalid(self):
        with pytest.raises(ValueError):
            linear_scaled_lr(0.0, 256, 512)
        with pytest.raises(ValueError):
            linear_scaled_lr(0.1, 0, 512)


class TestWarmup:
    def test_no_warmup(self):
        assert warmup_factor(0, 0) == 1.0

    def test_ramp(self):
        assert warmup_factor(0, 10) == pytest.approx(0.1)
        assert warmup_factor(4, 10) == pytest.approx(0.5)
        assert warmup_factor(9, 10) == pytest.approx(1.0)

    def test_capped_at_one(self):
        assert warmup_factor(100, 10) == 1.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            warmup_factor(-1, 10)
