"""Figure 10 — blocking checkpointing at large scale (grid, BT.B size sweep).

Paper setup: BT class B over the Grid'5000 slice at growing process counts
(up to 529), Pcl with a 60 s period against a checkpoint-free execution;
the wave count of each checkpointed run is reported alongside.

Expected shape (Sec. 5.4): BT.B is not scalable on a grid — the
checkpoint-free execution slows down at the largest size because remote
(WAN-separated) processors join — and the longer execution gives the
checkpointed run time for more waves, whose linear cost widens the gap.
"""

from __future__ import annotations

from repro.apps import BT
from repro.harness.config import Profile, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.table import Row, RunTable

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Fig. 10 (Sec. 5.4)",
    "BT.B on Grid'5000 at growing sizes, 60s period vs none: the "
    "checkpoint-free run stops scaling at the largest size (remote "
    "clusters join), giving the checkpointed run time for more waves.",
)

PARAMS = {
    "paper": dict(sizes=(100, 225, 400, 529), period=60.0, servers=4),
    "quick": dict(sizes=(64, 100, 144)),
    "smoke": dict(sizes=(16, 36)),
}


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    sizes = list(par.sizes)
    table = RunTable(
        bench=BT(klass="B", scale=profile.time_scale), profile=profile,
        network="grid5000", n_servers=par.servers,
    ).add(
        n_procs=sizes,
        kind=[Row("base", protocol=None, name="fig10-base-p{n_procs}"),
              Row("ckpt", protocol="pcl", period=par.period,
                  name="fig10-ckpt-p{n_procs}")],
    ).run()
    base_times = [r.completion for r in table.select(kind="base")]
    ckpt_times = [r.completion for r in table.select(kind="ckpt")]
    waves = [float(r.waves) for r in table.select(kind="ckpt")]

    largest = len(sizes) - 1
    checks = {
        "checkpointed run slower than no-ckpt at every size": all(
            c > b for c, b in zip(ckpt_times, base_times)
        ),
        "every checkpointed run completed at least one wave":
            all(w >= 1 for w in waves),
        "longer executions accumulate at least as many waves":
            waves[largest] >= min(waves),
    }
    if sizes[largest] > 96:
        # smaller sweeps fit inside one site and never touch the WAN, so
        # the paper's heterogeneity slowdown cannot appear
        checks["grid slowdown at the largest size (no-ckpt stops scaling)"] = (
            base_times[largest] * sizes[largest] >
            base_times[largest - 1] * sizes[largest - 1]
        )
    return FigureResult(
        title="Large-scale blocking checkpointing (BT.B on Grid'5000, "
              f"period {par.period:g}s vs none)",
        x_label="processes",
        y_label="completion time [s] / waves",
        series=[
            Series("no-ckpt [s]", sizes, base_times),
            Series(f"pcl@{par.period:g}s [s]", sizes, ckpt_times),
            Series("waves", sizes, waves),
        ],
        checks=checks,
        notes=["grid sites fill in order; the largest sizes span WAN links"],
    )
