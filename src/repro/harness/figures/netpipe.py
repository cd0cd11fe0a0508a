"""NetPIPE table — raw platform performance (Sec. 5.4).

The paper measures the Grid'5000 network with NetPIPE before the large-scale
runs: "the network is up to 20 times faster between two nodes of the same
cluster than between two nodes of two distinct clusters.  Moreover, the
latency is up to two orders of magnitude greater between clusters than
between nodes."  This experiment reruns that measurement against the model
and checks both ratios.
"""

from __future__ import annotations

from repro.harness.config import Profile
from repro.harness.report import FigureResult, Series
from repro.net import grid5000
from repro.net.topology import Endpoint
from repro.sim import make_simulator
from repro.tools import run_netpipe, summarize

__all__ = ["run", "CLAIM"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Sec. 5.4 (NetPIPE)",
    "The intra-cluster network is up to 20x faster in bandwidth and "
    "about two orders of magnitude lower latency than inter-cluster "
    "links.",
)

_SIZES = (8, 64, 1024, 16 * 1024, 256 * 1024, 1024 * 1024)


def run(profile: Profile) -> FigureResult:
    sim = make_simulator(seed=profile.seed)
    grid = grid5000(sim)
    orsay = grid.clusters["orsay"].nodes
    rennes = grid.clusters["rennes"].nodes

    intra = run_netpipe(sim, grid, Endpoint(orsay[0], 0), Endpoint(orsay[1], 0),
                        sizes=_SIZES)
    inter = run_netpipe(sim, grid, Endpoint(orsay[2], 0), Endpoint(rennes[0], 0),
                        sizes=_SIZES)

    intra_head = summarize(intra)
    inter_head = summarize(inter)
    latency_ratio = inter_head["latency"] / intra_head["latency"]
    bandwidth_ratio = intra_head["bandwidth"] / inter_head["bandwidth"]

    checks = {
        "intra-cluster bandwidth ~20x inter-cluster (15-25x)":
            15.0 <= bandwidth_ratio <= 25.0,
        "inter-cluster latency ~2 orders of magnitude higher (50-200x)":
            50.0 <= latency_ratio <= 200.0,
        "bandwidth grows with message size on both paths":
            intra[-1].bandwidth > intra[0].bandwidth
            and inter[-1].bandwidth > inter[0].bandwidth,
    }
    return FigureResult(
        title="NetPIPE on the Grid'5000 model: intra- vs inter-cluster",
        x_label="message bytes",
        y_label="bandwidth [MB/s]",
        series=[
            Series("intra bw [MB/s]", [s.nbytes for s in intra],
                   [s.bandwidth / 1e6 for s in intra]),
            Series("inter bw [MB/s]", [s.nbytes for s in inter],
                   [s.bandwidth / 1e6 for s in inter]),
            Series("intra lat [us]", [s.nbytes for s in intra],
                   [s.latency * 1e6 for s in intra]),
            Series("inter lat [us]", [s.nbytes for s in inter],
                   [s.latency * 1e6 for s in inter]),
        ],
        checks=checks,
        notes=[
            f"bandwidth ratio {bandwidth_ratio:.1f}x, "
            f"latency ratio {latency_ratio:.0f}x",
        ],
    )
