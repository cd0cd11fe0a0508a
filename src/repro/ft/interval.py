"""Checkpoint-interval theory: Young/Daly periods.

The paper's conclusion: "Evaluating the MTTF (mean time to failure) of the
system can significantly improve performances, since the best value for the
checkpoint wave frequency is close to the MTTF, trying to make a checkpoint
just before every failure."  This module provides the classical first-order
analysis (Young 1974; Daly 2006) used to pick that frequency, which the
MTTF experiment compares against simulation.

Notation: ``C`` = time one checkpoint wave costs the application, ``M`` =
MTTF of the whole system.
"""

from __future__ import annotations

import math

__all__ = ["young_period", "daly_period"]


def young_period(mttf: float, checkpoint_cost: float) -> float:
    """Young's first-order optimum: ``sqrt(2 * C * M)``."""
    if mttf <= 0 or checkpoint_cost < 0:
        raise ValueError("mttf must be positive and cost non-negative")
    return math.sqrt(2.0 * checkpoint_cost * mttf)


def daly_period(mttf: float, checkpoint_cost: float) -> float:
    """Daly's higher-order refinement of Young's formula.

    ``sqrt(2 C M) * (1 + sqrt(C/(2M))/3 + (C/(2M))/9) - C`` for C < 2M,
    falling back to ``M`` otherwise (checkpointing constantly).
    """
    if mttf <= 0 or checkpoint_cost < 0:
        raise ValueError("mttf must be positive and cost non-negative")
    if checkpoint_cost >= 2.0 * mttf:
        return mttf
    ratio = math.sqrt(checkpoint_cost / (2.0 * mttf))
    return (
        math.sqrt(2.0 * checkpoint_cost * mttf)
        * (1.0 + ratio / 3.0 + (ratio * ratio) / 9.0)
        - checkpoint_cost
    )
