"""Figure 9 — checkpoint frequency at large scale (grid, BT.B).

Paper setup: BT class B with 400 processes spread over the Grid'5000 slice,
each node using a site-local checkpoint server (4 servers), Pcl only (Vcl's
dispatcher cannot exceed ~300 processes, see the scale_limit experiment).
Left panel: completion time and wave count against the time between
checkpoints; right panel: completion time against the number of waves.

Expected shape (Sec. 5.4): even on a grid, completion time stays *linear in
the number of completed waves*, and the wave count is proportional to the
checkpoint frequency (inverse of the period).
"""

from __future__ import annotations

from repro.apps import BT
from repro.harness.config import Profile, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.table import Row, RunTable, waves_fit

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Fig. 9 (Sec. 5.4)",
    "BT.B/400 on Grid'5000: completion time is linear in the number of "
    "completed waves; the wave count is proportional to the checkpoint "
    "frequency.",
)

PARAMS = {
    "paper": dict(procs=400, periods=(30.0, 60.0, 120.0, 240.0), servers=4),
    "quick": dict(procs=144),
    "smoke": dict(procs=36, periods=(60.0, 240.0)),
}


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    p = par.procs
    table = RunTable(
        bench=BT(klass="B", scale=profile.time_scale), n_procs=p,
        protocol="pcl", profile=profile, network="grid5000",
        n_servers=par.servers, name="fig9-t{period}",
    ).add(
        period=[Row("base", protocol=None, name="fig9-base"), *par.periods],
    ).run()
    baseline, *runs = table.select()

    periods = list(par.periods)
    waves = [float(r.waves) for r in runs]
    times = [r.completion for r in runs]

    # right panel: time vs waves, with the checkpoint-free run at 0 waves
    _xs, _ys, fit = waves_fit(baseline, runs)
    # waves ~ 1/period: compare the wave count against frequency ordering
    frequency_sorted = sorted(zip(periods, waves))
    wave_monotone = all(
        frequency_sorted[i][1] >= frequency_sorted[i + 1][1] - 1e-9
        for i in range(len(frequency_sorted) - 1)
    )

    checks = {
        "completion time linear in waves (r2 > 0.8, slope > 0)":
            fit.r2 > 0.8 and fit.slope > 0,
        "shorter periods give at least as many waves": wave_monotone,
        "every run with completed waves costs time vs no-ckpt": all(
            t > baseline.completion
            for t, w in zip(times, waves) if w >= 1
        ),
        "highest frequency completed the most waves":
            max(waves) == waves[periods.index(min(periods))],
    }
    return FigureResult(
        title=f"Checkpoint frequency at large scale (BT.B, {p} procs, "
              "Grid'5000)",
        x_label="period [s, paper scale]",
        y_label="completion time [s] / waves",
        series=[
            Series("completion [s]", periods, times),
            Series("waves", periods, waves),
            Series("no-ckpt [s]", [max(periods)], [baseline.completion]),
        ],
        checks=checks,
        notes=[
            f"time-vs-waves fit: {fit.slope:.2f}s/wave from "
            f"{fit.intercept:.1f}s (r2={fit.r2:.3f})",
            "site-local checkpoint servers "
            f"({par.servers} across sites)",
        ],
    )
