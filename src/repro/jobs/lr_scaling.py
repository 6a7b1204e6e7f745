"""Learning-rate scaling rules for elastic batch sizes.

§3.3.2 of the paper: ONES "jointly manages the batch size and learning
rate of each job according to their initial values based on linear
scaling".  The linear scaling rule (Goyal et al.) multiplies the base
learning rate by the same factor as the batch size; a short warmup ramp
avoids instability right after a scale-up.
"""

from __future__ import annotations

from repro.utils.validation import check_non_negative, check_positive


def linear_scaled_lr(base_lr: float, base_batch: int, new_batch: int) -> float:
    """Linear scaling rule: ``lr' = base_lr * new_batch / base_batch``."""
    check_positive(base_lr, "base_lr")
    check_positive(base_batch, "base_batch")
    check_positive(new_batch, "new_batch")
    return base_lr * (new_batch / base_batch)


def warmup_factor(step: int, warmup_steps: int) -> float:
    """Linear warmup multiplier in ``[0, 1]``.

    Returns ``(step + 1) / warmup_steps`` capped at 1.  With
    ``warmup_steps == 0`` there is no warmup and the factor is always 1.
    """
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    check_non_negative(warmup_steps, "warmup_steps")
    if warmup_steps == 0:
        return 1.0
    return min(1.0, (step + 1) / float(warmup_steps))
