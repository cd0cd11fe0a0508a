"""Protocol race — all three families on one axis (CG, Myrinet).

A Fig. 7-style three-way comparison with one entry per protocol *family*:
Pcl (blocking, channel-flush) over ft-sock, Vcl (non-blocking, message
logging) over ch_v, and Dcl (blocking, message-drain) over ft-sock —
the drain protocol reuses the MPICH2 device Pcl runs on, so the two
blocking families differ only in *how* they empty the network before
forking (gate-and-flush vs counter quiescence).  Completion time is
plotted against the number of completed checkpoint waves, obtained by
sweeping the checkpoint timeout; wave 0 is a checkpoint-free baseline
per channel.

Expected shape:

* both blocking families are *linear in the number of waves* — each wave
  stalls the application for the synchronization plus the image
  transfers;
* Dcl tracks Pcl closely (same channel, same fork cost): draining by
  counters costs about the same as flushing by markers at this scale;
* Vcl is much flatter versus waves but starts from a far higher
  baseline — CG is latency-bound and every message pays the ch_v
  daemon's extra hops and copies.

One entry per row of :data:`repro.harness.config.PROTOCOL_CHANNELS`, each
on its default channel: a new protocol family joins the race by being
added to that table.  The deployment and the period sweep are Fig. 7's.
"""

from __future__ import annotations

from repro.harness.config import (PROTOCOL_CHANNELS, Profile,
                                  default_channel, figure_params)
from repro.harness.figures.fig7 import PARAMS, myrinet_table
from repro.harness.report import FigureResult, Series
from repro.harness.table import Row, waves_fit

__all__ = ["run", "CLAIM"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Fig. 7 (Sec. 5.3, extension)",
    "Re-asking the paper's question against a third family: a "
    "message-drain protocol (Dcl) that blocks by counter-proven "
    "network quiescence is linear in the number of waves like Pcl "
    "(both blocking families share a failure-free baseline on the "
    "same channel), while Vcl stays flat versus waves but starts "
    "higher — the blocking/non-blocking trade-off is a property of "
    "the family, not of the flush mechanism.",
)


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    p = par.procs
    families = {protocol: default_channel(protocol)
                for protocol in PROTOCOL_CHANNELS}
    table = myrinet_table(profile, par, "race-{impl}-t{period}").add(
        # one checkpoint-free baseline per channel (Pcl and Dcl share ft-sock)
        channel=[Row(channel, channel=channel, name="race-base-{channel}")
                 for channel in dict.fromkeys(families.values())],
    ).add(
        impl=[Row(protocol, protocol=protocol, channel=channel)
              for protocol, channel in families.items()],
        period=par.periods,
    ).run()

    series = []
    fits = {}
    checkpointed_waves = []
    for protocol, channel in families.items():
        runs = table.select(impl=protocol)
        xs, ys, fits[protocol] = waves_fit(table[channel], runs)
        series.append(Series(protocol, xs, ys))
        checkpointed_waves += [r.waves for r in runs]

    pcl, vcl, dcl = fits["pcl"], fits["vcl"], fits["dcl"]
    blocking_slope = min(pcl.slope, dcl.slope)
    checks = {
        "pcl time linear in waves (slope > 0)": pcl.slope > 0,
        "dcl time linear in waves (slope > 0)": dcl.slope > 0,
        "dcl tracks pcl (same device): slopes within 2x":
            0.5 * pcl.slope < dcl.slope < 2.0 * pcl.slope,
        "blocking families share a baseline (same channel)":
            abs(dcl.intercept - pcl.intercept) < 0.05 * pcl.intercept,
        "vcl much flatter than the blocking families":
            abs(vcl.slope) < 0.60 * blocking_slope,
        "vcl baseline above the blocking families (daemon latency)":
            vcl.intercept > max(pcl.intercept, dcl.intercept),
        "every checkpointed run completed at least one wave":
            all(w >= 1 for w in checkpointed_waves),
    }
    notes = [
        "x = completed checkpoint waves (0 = checkpoint-free run)",
        f"pcl: {pcl.slope:.2f}s/wave from {pcl.intercept:.1f}s",
        f"dcl: {dcl.slope:.2f}s/wave from {dcl.intercept:.1f}s",
        f"vcl: {vcl.slope:.2f}s/wave from {vcl.intercept:.1f}s",
    ]
    return FigureResult(
        title=f"Three protocol families: completion vs waves "
              f"(CG.C, {p} procs, Myrinet)",
        x_label="completed waves",
        y_label="completion time [s]",
        series=series,
        checks=checks,
        notes=notes,
    )
