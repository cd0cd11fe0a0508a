"""Trace analysis helpers used by the harness and tests.

Everything the paper reports — completion times, checkpoint-wave counts,
overhead decompositions, slopes of time-vs-waves lines — is derived here
from run statistics and traces rather than ad-hoc in each figure script.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.ft.protocol import FTStats
from repro.sim.trace import Tracer

__all__ = [
    "LinearFit",
    "linear_fit",
    "wave_summary",
    "overhead_breakdown",
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
    checkpoint waves" claims (Figs. 7-9).
    """
    if len(xs) != len(ys):
        raise ValueError("x/y length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    import numpy as np  # here, not at import: see repro.sim.rng

    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    total = float(((y - y.mean()) ** 2).sum())
    residual = float(((y - predicted) ** 2).sum())
    r2 = 1.0 if total == 0.0 else 1.0 - residual / total
    return LinearFit(float(slope), float(intercept), r2)


def wave_summary(stats: FTStats) -> dict:
    """Waves completed, mean/max wave duration, blocked time."""
    import numpy as np  # here, not at import: see repro.sim.rng

    durations = stats.wave_durations()
    return {
        "waves": stats.waves_completed,
        "mean_wave_seconds": float(np.mean(durations)) if durations else 0.0,
        "max_wave_seconds": float(np.max(durations)) if durations else 0.0,
        "blocked_seconds": stats.blocked_seconds,
        "logged_mbytes": stats.logged_bytes / 1e6,
        "image_mbytes": stats.image_bytes_stored / 1e6,
    }


def overhead_breakdown(
    completion: float,
    baseline: float,
    stats: Optional[FTStats] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> dict:
    """Decompose a run's overhead versus its checkpoint-free baseline.

    ``stats`` supplies the wave count (the legacy interface).  A
    :mod:`repro.obs` ``metrics`` snapshot is the richer source: the wave
    count is read from the ``ft.waves_completed`` counters and the overhead
    is additionally decomposed per checkpoint-wave *phase* (markers / flush
    / stream / commit) from the ``ft.wave_phase_seconds`` histograms the
    protocols feed — so a Pcl run's overhead is visibly flush-dominated and
    a Vcl run's commit/stream-dominated, instead of one opaque number.
    At least one of ``stats`` / ``metrics`` must be given.
    """
    if stats is None and metrics is None:
        raise ValueError("overhead_breakdown needs stats and/or metrics")
    waves = stats.waves_completed if stats is not None else 0
    phases: Dict[str, float] = {}
    if metrics is not None:
        from repro.obs import metric_values, phase_totals

        phases = phase_totals(metrics)
        if stats is None:
            waves = int(sum(
                entry.get("value", 0.0)
                for _, entry in metric_values(metrics, "ft.waves_completed")
            ))
    overhead = completion - baseline
    doc = {
        "completion_seconds": completion,
        "baseline_seconds": baseline,
        "overhead_seconds": overhead,
        "overhead_percent": 100.0 * overhead / baseline if baseline > 0 else 0.0,
        "overhead_per_wave": overhead / waves if waves else 0.0,
        "waves": waves,
    }
    if phases:
        total = sum(phases.values())
        doc["phase_seconds"] = {k: phases[k] for k in sorted(phases)}
        doc["phase_share"] = {
            k: (phases[k] / total if total > 0 else 0.0) for k in sorted(phases)
        }
    return doc
