"""Figure 6 — scalability of fault tolerance with the number of processes.

Paper setup: BT class B at growing process counts on the Orsay GigE cluster
(150 machines: one process per node up to 144, two per node beyond), 9
checkpoint servers, four checkpoint periods (10/30/60/120 s), compared with
checkpoint-free executions of both MPI implementations.

Expected shape (Sec. 5.2):

* without checkpoints the two implementations behave similarly, MPICH2
  slightly ahead;
* at a 10 s period the blocking protocol degrades badly (it "spends most of
  the time synchronizing"); at larger periods both protocols settle to a
  small, roughly constant overhead;
* the number of processes has no measurable impact on the checkpointing
  overhead for either protocol;
* a dip appears past 144 processes when two processes share one NIC.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps import BT
from repro.harness.config import Profile, default_channel, figure_params
from repro.harness.report import FigureResult, Series
from repro.harness.table import Row, RunTable

__all__ = ["run", "CLAIM", "PARAMS"]

#: (paper reference, the paper's qualitative claim), quoted by EXPERIMENTS.md
CLAIM = (
    "Fig. 6 (Sec. 5.2)",
    "BT.B at 16-256 processes, periods 10-120s, 9 servers: at 10s the "
    "blocking protocol degrades heavily; at longer periods both "
    "protocols cost a small constant overhead; process count has no "
    "measurable impact on the overhead; a dip appears past 144 "
    "processes when two processes share a NIC.",
)

PARAMS = {
    "paper": dict(sizes=(16, 36, 64, 100, 144, 169, 196, 256),
                  periods=(10.0, 30.0, 60.0, 120.0), nodes=150, servers=9),
    "quick": dict(sizes=(16, 64, 144, 169), periods=(10.0, 60.0)),
    "smoke": dict(sizes=(16, 64), periods=(10.0, 60.0)),
}


def _deployment(p: int, nodes: int) -> Dict:
    """One process per node up to 144; dual-processor deployments beyond
    (the paper had 150 machines)."""
    if p > 144:
        return {"procs_per_node": 2, "n_compute_nodes": -(-p // 2)}
    return {"procs_per_node": 1, "n_compute_nodes": min(p, nodes)}


def run(profile: Profile) -> FigureResult:
    par = figure_params(PARAMS, profile)
    sizes = list(par.sizes)
    periods = sorted(par.periods)
    # rows: process counts; columns: two baselines, then protocol@period
    columns = [
        Row(f"base-{channel}", channel=channel,
            name=f"fig6-base-{channel}-p{{p}}")
        for channel in ("ft_sock", "ch_v")
    ] + [
        Row(f"{protocol}@{period:g}", protocol=protocol, period=period,
            name=f"fig6-{protocol}-p{{p}}-t{period}")
        for protocol in ("pcl", "vcl") for period in par.periods
    ]
    table = RunTable(
        bench=BT(klass="B", scale=profile.time_scale), protocol=None,
        profile=profile, n_servers=par.servers,
    ).add(
        p=[Row(p, n_procs=p, **_deployment(p, par.nodes)) for p in sizes],
        column=columns,
    ).run()

    def times(column: str) -> List[float]:
        return [r.completion for r in table.select(column=column)]

    series = [
        Series("no-ckpt mpich2", sizes, times("base-ft_sock")),
        Series("no-ckpt mpich-v", sizes, times("base-ch_v")),
    ] + [
        Series(f"{protocol}@{period:g}s", sizes,
               times(f"{protocol}@{period:g}"))
        for protocol in ("pcl", "vcl") for period in periods
    ]

    def overhead(protocol: str, period: float, p: int) -> float:
        base = table[p, f"base-{default_channel(protocol)}"].completion
        return (table[p, f"{protocol}@{period:g}"].completion - base) / base

    shortest, longest = periods[0], periods[-1]
    mid = 64 if 64 in sizes else sizes[len(sizes) // 2]

    # overhead-vs-p flatness at the longest period: spread in percentage
    # points across sizes
    def spread(protocol: str) -> float:
        values = [overhead(protocol, longest, p) for p in sizes]
        return max(values) - min(values)

    checks = {
        "baselines similar (mpich2 within 10% of mpich-v)": all(
            ft <= chv * 1.10 for ft, chv in
            zip(times("base-ft_sock"), times("base-ch_v"))
        ),
        f"pcl overhead at {shortest:g}s exceeds pcl at {longest:g}s":
            overhead("pcl", shortest, mid) > overhead("pcl", longest, mid),
        f"pcl at {shortest:g}s degrades more than vcl at {shortest:g}s":
            overhead("pcl", shortest, mid) > overhead("vcl", shortest, mid),
        "process count has small impact on pcl overhead "
        f"(spread < 15 points at {longest:g}s)": spread("pcl") < 0.15,
        "process count has small impact on vcl overhead "
        f"(spread < 15 points at {longest:g}s)": spread("vcl") < 0.15,
    }
    if 144 in sizes and 169 in sizes:
        checks["dip past 144 procs (NIC sharing): t(169) > t(144)"] = (
            table[169, "base-ft_sock"].completion
            > table[144, "base-ft_sock"].completion
        )

    return FigureResult(
        title="Execution time vs process count at four checkpoint periods "
              "(BT.B, GigE cluster)",
        x_label="processes",
        y_label="completion time [s]",
        series=series,
        checks=checks,
        notes=[
            "one process per node up to 144; two per node beyond (shared NIC)",
            f"{par.servers} checkpoint servers",
        ],
    )
