"""Trace analysis helpers used by the harness and tests.

The slopes of the paper's time-vs-waves lines are derived here from run
statistics rather than ad-hoc in each figure script.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Sequence

__all__ = [
    "LinearFit",
    "linear_fit",
]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line y = slope * x + intercept."""

    slope: float
    intercept: float
    r2: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares fit with the coefficient of determination.

    Used to check the paper's "completion time is linear in the number of
    checkpoint waves" claims (Figs. 7-9).  The closed form over centred
    sums; ``numpy.polyfit`` is its oracle in the tests.
    """
    if len(xs) != len(ys):
        raise ValueError("x/y length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    n = len(xs)
    x_mean = fsum(xs) / n
    y_mean = fsum(ys) / n
    sxx = fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError(f"no line through points that all have x = {xs[0]!r}")
    slope = fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    intercept = y_mean - slope * x_mean
    total = fsum((y - y_mean) ** 2 for y in ys)
    residual = fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if total == 0.0 else 1.0 - residual / total
    return LinearFit(slope, intercept, r2)
