"""Ablations — isolating the design choices the paper's discussion credits.

Four single-variable studies on small fixed workloads:

* ``daemon-hops``: the ch_v daemon channel versus a direct-socket channel
  under the same latency-bound workload, no checkpointing at all — how much
  of Vcl's handicap (Fig. 7) is the *architecture* (two extra Unix-socket
  hops and a serializing daemon), not the protocol.
* ``gating``: Pcl with per-channel gates (ft-sock) versus the Nemesis
  single-queue stopper request on the *same* fabric — the two blocking
  mechanisms of Sec. 4.2 should be nearly equivalent.
* ``fork``: Pcl's fork-based checkpointing versus a stop-and-copy variant
  (process frozen for the whole image write) at a fixed 64 MB image,
  quantifying what the fork buys per wave.
* ``logging-volume``: Vcl's total logged in-transit bytes as the wave
  frequency grows — the memory/traffic price of non-blocking waves.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps import CG
from repro.apps.synthetic import burst
from repro.harness.config import Profile, default_channel
from repro.harness.report import FigureResult, Series
from repro.harness.runner import bare_run
from repro.harness.table import Row, RunTable
from repro.runtime import DeploymentSpec

__all__ = ["run", "CLAIM"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Secs. 4.1/4.2/6 (design discussion)",
    "The daemon architecture (not the protocol) carries Vcl's latency "
    "cost; the Nemesis stopper request and per-channel gating are "
    "equivalent blocking mechanisms; fork-based checkpointing beats "
    "stop-and-copy; non-blocking waves pay with logged in-transit data.",
)


def _ft_run(profile: Profile, app, n_procs, protocol, period, image_bytes,
            fork_latency, name):
    spec = DeploymentSpec(
        n_procs=n_procs, protocol=protocol, channel=default_channel(protocol),
        network="gige", n_servers=2, period=period, image_bytes=image_bytes,
        procs_per_node=1, fork_latency=fork_latency, launcher="instant",
    )
    return bare_run(spec, app, profile.seed, name=name)


def run(profile: Profile) -> FigureResult:
    scale = min(profile.time_scale, 0.15)
    series: List[Series] = []
    checks: Dict[str, bool] = {}
    notes: List[str] = []

    p = 16
    # 1. daemon hops: the pure channel cost on a latency-bound workload
    cg_small = CG(klass="A", scale=min(1.0, scale * 4))
    daemon_hops = dict(bench=cg_small, network="myrinet", n_servers=1)
    # 2. gating granularity on one fabric (GigE): ft-sock gates vs stopper
    cg = CG(klass="B", scale=scale)
    gating = dict(bench=cg, protocol="pcl", network="gige", period=20.0,
                  n_servers=2)
    table = RunTable(n_procs=p, protocol=None, profile=profile).add(variant=[
        Row("daemon", channel="ch_v", name="abl-daemon-chv", **daemon_hops),
        Row("direct", channel="ft_sock", name="abl-daemon-ftsock",
            **daemon_hops),
        Row("gates", channel="ft_sock", name="abl-gates", **gating),
        Row("stopper", channel="nemesis", name="abl-stopper", **gating),
    ]).run()

    daemon, direct = table["daemon"], table["direct"]
    daemon_cost = daemon.completion / direct.completion - 1.0
    series.append(Series("daemon-hops [s]", [0.0, 1.0],
                         [direct.completion, daemon.completion],
                         meta={"x": "0=direct socket, 1=ch_v daemon"}))
    checks["ch_v daemon hops cost >5% on a latency-bound run"] = daemon_cost > 0.05
    notes.append(f"daemon-hops: +{100 * daemon_cost:.1f}% completion time")

    gates, stopper = table["gates"], table["stopper"]
    gap = abs(stopper.completion - gates.completion) / gates.completion
    series.append(Series("gating [s]", [0.0, 1.0],
                         [gates.completion, stopper.completion],
                         meta={"x": "0=per-channel gates, 1=stopper request"}))
    checks["stopper and per-channel gating within 10% on one fabric"] = gap < 0.10
    notes.append(f"gating: stopper vs gates differ by {100 * gap:.1f}%")

    # 3. fork vs stop-and-copy at a fixed 64 MB image
    image = 64e6
    scaled_period = profile.scaled_period(10.0)
    app = cg.make_app(p)
    fork_time, fork_run = _ft_run(profile, app, p, "pcl", scaled_period,
                                  image, 0.02, "abl-fork")
    freeze = image / 55e6  # the local image write with the process stopped
    sc_time, sc_run = _ft_run(profile, app, p, "pcl", scaled_period, image,
                              freeze, "abl-stopcopy")
    fork_waves = max(1, fork_run.stats.waves_completed)
    sc_waves = max(1, sc_run.stats.waves_completed)
    base_time, _ = _ft_run(profile, app, p, None, 1.0, image, 0.02,
                           "abl-base")
    fork_per_wave = (fork_time - base_time) / fork_waves
    sc_per_wave = (sc_time - base_time) / sc_waves
    series.append(Series("fork vs stop-and-copy [s/wave]", [0.0, 1.0],
                         [fork_per_wave, sc_per_wave],
                         meta={"x": "0=fork, 1=stop-and-copy"}))
    checks["fork beats stop-and-copy (per-wave overhead)"] = (
        fork_per_wave < sc_per_wave
    )
    notes.append(
        f"fork: {fork_per_wave:.2f}s/wave vs stop-and-copy "
        f"{sc_per_wave:.2f}s/wave (freeze {freeze:.2f}s)"
    )

    # 4. Vcl logging volume vs wave frequency (bursty 1 MB traffic keeps
    # messages in flight at every instant, so every wave logs something)
    traffic = burst(iters=120, nbytes=1_000_000, fan=3, compute=0.01)
    logged: List[float] = []
    wave_counts: List[float] = []
    freq_periods = [5.0, 20.0, 80.0]
    for pp in freq_periods:
        _t, log_run = _ft_run(profile, traffic, 8, "vcl",
                              profile.scaled_period(pp), 8e6, 0.02,
                              f"abl-log-{pp:g}")
        logged.append(log_run.stats.logged_bytes / 1e3)
        wave_counts.append(float(log_run.stats.waves_completed))
    series.append(Series("vcl logged KB (total)", freq_periods, logged))
    series.append(Series("vcl waves", freq_periods, wave_counts))
    checks["vcl logs in-transit data under bursty traffic"] = max(logged) > 0
    checks["higher wave frequency logs at least as much"] = (
        logged[0] >= logged[-1]
    )

    return FigureResult(
        title="Design-choice ablations",
        x_label="variant",
        y_label="seconds / KB (per series)",
        series=series,
        checks=checks,
        notes=notes,
    )
