"""MTTF experiment — checkpoint frequency vs failure rate (extension).

The paper's conclusion sketches two follow-ups this experiment implements:

1. "Evaluating the MTTF of the system can significantly improve
   performances, since the best value for the checkpoint wave frequency is
   close to the MTTF" — we sweep the checkpoint period under Poisson task
   failures (averaged over several independent failure schedules) and
   compare the simulated optimum against the Young/Daly first-order
   predictions, with the per-wave cost measured from failure-free runs.
2. "Components detecting an increasing failure probability (e.g. through
   their CPU temperature probe) should also trigger a checkpoint wave" — a
   probe with a few seconds of warning requests an immediate wave before
   each failure; with a long base period this proactive mode should beat
   the same long period without the probe.
"""

from __future__ import annotations

import gc
from typing import List, Optional

from repro.apps.synthetic import burst
from repro.ft.failure import random_failures
from repro.ft.interval import daly_period, young_period
from repro.harness.config import Profile
from repro.harness.report import FigureResult, Series
from repro.harness.runner import bare_run
from repro.runtime import DeploymentSpec

__all__ = ["run", "CLAIM"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Sec. 6 (conclusion, extension)",
    "The best checkpoint frequency tracks the system MTTF "
    "(Young/Daly), and probes that see failures coming should trigger "
    "proactive waves.",
)

_N_PROCS = 8
_MTTF = 12.0
_IMAGE_BYTES = 8e6
_PERIODS = (0.3, 1.0, 3.0, 9.0, 27.0)
_PROBE_LEAD = 2.5
_WORK_ITERS = 140
_WORK_STEP = 0.25


def _one_run(seed: int, period: Optional[float], mttf: Optional[float],
             probe_lead: Optional[float] = None):
    """``(completion, stats)`` of one run; the run is not kept, and the one
    before it, cyclic garbage, is freed before this one grows."""
    gc.collect()
    app = burst(iters=_WORK_ITERS, nbytes=100_000, fan=3, compute=_WORK_STEP)
    spec = DeploymentSpec(
        n_procs=_N_PROCS, protocol="pcl" if period else None,
        channel="ft_sock", network="gige", n_servers=1,
        period=period if period else 1.0, image_bytes=_IMAGE_BYTES,
        procs_per_node=1, fork_latency=0.02, launcher="instant",
    )

    def inject(run) -> None:
        run.max_restarts = 64
        if mttf is not None:
            random_failures(run, mttf, max_failures=40,
                            probe_lead=probe_lead)

    completion, run = bare_run(spec, app, seed, name=f"mttf-s{seed}-{period}",
                               time_limit=1e6, inject=inject)
    return completion, run.stats


def run(profile: Profile) -> FigureResult:
    seeds = [profile.seed + i for i in range(1, 5)]

    # --- measure the per-wave application cost from failure-free runs ----
    base_time, _ = _one_run(profile.seed, None, None)
    busy_time, busy_stats = _one_run(profile.seed, 1.0, None)
    waves = max(1, busy_stats.waves_completed)
    wave_cost = max(1e-3, (busy_time - base_time) / waves)

    # --- period sweep under Poisson failures -----------------------------
    completions: List[float] = []
    failure_counts: List[float] = []
    for period in _PERIODS:
        times, fails = [], []
        for seed in seeds:
            completion, stats = _one_run(seed, period, _MTTF)
            times.append(completion)
            fails.append(stats.failures)
        completions.append(sum(times) / len(times))
        failure_counts.append(sum(fails) / len(fails))

    # --- proactive probe vs plain long period ----------------------------
    plain_long = completions[-1]
    proactive_times = [
        _one_run(seed, _PERIODS[-1], _MTTF, probe_lead=_PROBE_LEAD)[0]
        for seed in seeds
    ]
    proactive_time = sum(proactive_times) / len(proactive_times)

    daly = daly_period(_MTTF, wave_cost)
    best_index = completions.index(min(completions))
    best_period = _PERIODS[best_index]

    checks = {
        "checkpointing too rarely loses (right arm of the U)":
            completions[-1] > min(completions) * 1.02,
        "simulated optimum within 10x of the Daly prediction":
            0.1 <= best_period / daly <= 10.0,
        "optimum not at the longest period":
            best_index < len(_PERIODS) - 1,
        "proactive probe beats the same long period without it":
            proactive_time < plain_long,
        "failures happened in every configuration":
            all(f >= 1 for f in failure_counts),
        "any checkpointing beats none under failures": min(completions) < (
            sum(_one_run(seed, None, _MTTF)[0] for seed in seeds) / len(seeds)
        ),
    }
    return FigureResult(
        title=f"Checkpoint period vs MTTF (Poisson failures, MTTF={_MTTF:g}s,"
              " blocking protocol, mean of 4 schedules)",
        x_label="period [s]",
        y_label="completion time [s]",
        series=[
            Series("completion [s]", list(_PERIODS), completions),
            Series("mean failures", list(_PERIODS), failure_counts),
            Series(f"proactive lead={_PROBE_LEAD:g}s [s]",
                   [_PERIODS[-1]], [proactive_time]),
        ],
        checks=checks,
        notes=[
            f"measured wave cost {wave_cost:.3f}s -> Young "
            f"{young_period(_MTTF, wave_cost):.2f}s, Daly {daly:.2f}s; "
            f"simulated best {best_period:g}s",
            f"proactive: {proactive_time:.1f}s vs plain long-period "
            f"{plain_long:.1f}s",
            f"failure-free baseline {base_time:.1f}s",
        ],
    )
