"""Figure 5 — impact of the number of checkpoint servers.

Paper setup: BT class B on 64 processes over 32 dual-processor GigE nodes,
30 s between checkpoints, checkpoint-server-to-compute-node ratios from 1:64
to 1:8.  Top panel: completion time; bottom panel: completed waves.

Expected shape (Sec. 5.2):

* **Pcl** completion time *decreases* as servers are added — its blocked-
  then-resumed communication competes with the image transfers for NIC
  bandwidth, so shorter transfers mean less contention;
* **Vcl** completion time stays *nearly constant* — the time saved on
  transfers is spent completing *more* waves instead (bottom panel);
* at the largest server count the two implementations nearly meet, with
  MPICH2's (Pcl's) lower baseline showing.
"""

from __future__ import annotations

from repro.apps import BT
from repro.harness.config import Profile, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.table import RunTable

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Fig. 5 (Sec. 5.2)",
    "BT.B/64, 30s period, 1-8 checkpoint servers: Pcl's completion time "
    "decreases as servers are added (checkpoint transfers compete with "
    "the application for bandwidth); Vcl's stays almost constant while "
    "its number of completed waves increases.",
)

PARAMS = {
    "paper": dict(procs=64, servers=(1, 2, 4, 8), period=30.0),
    "smoke": dict(servers=(1, 4)),
}


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    p = par.procs
    table = RunTable(
        bench=BT(klass="B", scale=profile.time_scale), n_procs=p,
        profile=profile, period=par.period, procs_per_node=2,
        name="fig5-{protocol}-s{n_servers}",
    ).add(protocol=("pcl", "vcl"), n_servers=par.servers).run()
    pcl, vcl = table.select(protocol="pcl"), table.select(protocol="vcl")

    servers = list(par.servers)
    pcl_times = [r.completion for r in pcl]
    vcl_times = [r.completion for r in vcl]
    pcl_waves = [r.waves for r in pcl]
    vcl_waves = [r.waves for r in vcl]

    vcl_band = (max(vcl_times) - min(vcl_times)) / min(vcl_times)
    checks = {
        "pcl time decreases with more servers":
            pcl_times[-1] < pcl_times[0],
        "pcl gains >=2% from 1 to max servers":
            pcl_times[-1] <= 0.98 * pcl_times[0],
        "vcl time nearly constant (<8% band)": vcl_band < 0.08,
        # more servers -> shorter transfers -> shorter waves, which is what
        # lets Vcl fit more waves into its constant completion time
        "vcl wave duration shrinks with more servers":
            vcl[-1].mean_wave < vcl[0].mean_wave,
        "vcl completes at least as many waves with more servers":
            vcl_waves[-1] >= vcl_waves[0],
        "every pcl run completed at least one wave":
            all(w >= 1 for w in pcl_waves),
    }
    return FigureResult(
        title="Checkpoint servers vs completion time (BT.B, 64 procs, "
              f"period {par.period}s)",
        x_label="n_servers",
        y_label="completion time [s] / completed waves",
        series=[
            Series("pcl time [s]", servers, pcl_times),
            Series("vcl time [s]", servers, vcl_times),
            Series("pcl waves", servers, [float(w) for w in pcl_waves]),
            Series("vcl waves", servers, [float(w) for w in vcl_waves]),
        ],
        checks=checks,
        notes=[
            "paper: Pcl decreases with servers; Vcl flat with more waves",
            f"server:compute ratios 1:{p} .. 1:{p // max(par.servers)}",
        ],
    )
