"""Figure 8 — blocking checkpointing vs system size on Myrinet.

Paper setup: CG class C with 4 to 64 processes on the same 32-node Myrinet
cluster, Pcl over Nemesis/GM only (the best implementation for this
platform), completion time against the number of completed waves.

Expected shape (Sec. 5.3):

* every curve shows a slowdown proportional to the number of waves;
* all sizes have approximately the same slope — "the impact of taking
  checkpoints is not particularly sensitive to the number of processes",
  i.e. Pcl scales well on high-performance networks;
* the 32- and 64-process deployments nearly coincide: with two processes
  per node CG becomes I/O-bound on the shared NIC.
"""

from __future__ import annotations

from repro.apps import CG
from repro.harness.config import Profile, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.table import Row, RunTable, waves_fit

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Fig. 8 (Sec. 5.3)",
    "CG.C at 4-64 processes, Pcl/Nemesis: every size slows down "
    "proportionally to the wave count with approximately the same "
    "slope; the 32- and 64-process runs coincide (NIC sharing).",
)

PARAMS = {
    "paper": dict(procs=(4, 8, 16, 32, 64), periods=(10.0, 25.0, 80.0),
                  nodes=32),
    "quick": dict(procs=(4, 16, 32, 64), periods=(10.0, 40.0)),
    "smoke": dict(procs=(4, 16), periods=(10.0, 60.0)),
}


def _deployment(p: int, nodes: int) -> dict:
    per_node = 2 if p > nodes else 1
    return dict(procs_per_node=per_node,
                n_compute_nodes=min(nodes, -(-p // per_node)))


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    table = RunTable(
        bench=CG(klass="C", scale=profile.time_scale), protocol="pcl",
        profile=profile, network="myrinet", channel="nemesis", n_servers=2,
        name="fig8-p{p}-t{period}",
    ).add(
        p=[Row(p, n_procs=p, **_deployment(p, par.nodes)) for p in par.procs],
        period=[Row("base", protocol=None, name="fig8-p{p}-base"),
                *par.periods],
    ).run()

    series = []
    fits = {}
    for p in par.procs:
        baseline, *runs = table.select(p=p)
        xs, ys, fit = waves_fit(baseline, runs)
        series.append(Series(f"p={p}", xs, ys))
        if fit is not None:
            fits[p] = fit

    slopes = [fit.slope for fit in fits.values()]
    checks = {
        "every size slows down with more waves (all slopes > 0)":
            all(slope > 0 for slope in slopes),
        "slopes similar across sizes (max < 4x min)":
            max(slopes) < 4 * max(min(slopes), 1e-9),
    }
    if 32 in par.procs and 64 in par.procs:
        base32 = table[32, "base"].completion
        checks["32- and 64-process runs nearly coincide (shared NIC)"] = (
            abs(table[64, "base"].completion - base32) / base32 < 0.35
        )
    return FigureResult(
        title="Pcl/Nemesis: completion time vs waves at several sizes "
              "(CG.C, Myrinet)",
        x_label="completed waves",
        y_label="completion time [s]",
        series=series,
        checks=checks,
        notes=[
            f"slopes [s/wave]: " + ", ".join(
                f"p={p}: {fit.slope:.2f}" for p, fit in sorted(fits.items())),
        ],
    )
