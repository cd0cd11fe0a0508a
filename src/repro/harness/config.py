"""Harness profiles.

Every figure script runs under a *profile* that sets the experiment scale:

* ``paper`` — the paper's parameters (process counts, 200-iteration NAS
  runs, 10-120 s checkpoint periods).  Hours of wall time.
* ``quick`` — the default: iteration counts, checkpoint periods and image
  sizes all scaled by the same factor, so every ratio that shapes a figure
  (transfer time vs period, waves per run, compute/communication balance)
  is preserved while runs shrink ~7x.  Stall-type overheads (fork pauses,
  marker rounds) do *not* scale, so absolute overhead percentages read
  higher than the paper's; orderings and trends are unaffected.
* ``smoke`` — minimum sizes for CI and pytest-benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.ft import RECOVERY_POLICIES

__all__ = ["Profile", "PROFILES", "get_profile"]


@dataclass(frozen=True)
class Profile:
    """Scale parameters for the figure reproductions."""

    name: str
    #: multiplies NAS iteration counts, checkpoint periods and image sizes
    time_scale: float
    seed: int = 0

    # Fig. 5: BT.B/64, ratio of checkpoint servers
    fig5_procs: int = 64
    fig5_servers: Tuple[int, ...] = (1, 2, 4, 8)
    fig5_period: float = 30.0

    # Fig. 6: BT.B, process-count scaling at four periods
    fig6_sizes: Tuple[int, ...] = (16, 36, 64, 100, 144, 169, 196, 256)
    fig6_periods: Tuple[float, ...] = (10.0, 30.0, 60.0, 120.0)
    fig6_nodes: int = 150
    fig6_servers: int = 9

    # Fig. 7: CG.C/64 on Myrinet, time vs waves, three implementations
    fig7_procs: int = 64
    fig7_periods: Tuple[float, ...] = (8.0, 15.0, 25.0, 40.0, 80.0)
    fig7_servers: int = 2

    # Fig. 8: CG.C on Myrinet, Pcl/Nemesis at several sizes
    fig8_procs: Tuple[int, ...] = (4, 8, 16, 32, 64)
    fig8_periods: Tuple[float, ...] = (10.0, 25.0, 80.0)
    fig8_nodes: int = 32

    # Replication ablation (Fig. 5-style): BT.B checkpoint time vs ranks at
    # storage replication factors K, with a fixed server pool
    repl_procs: Tuple[int, ...] = (16, 36, 64)
    repl_factors: Tuple[int, ...] = (1, 2, 3)
    repl_servers: int = 3
    repl_period: float = 30.0

    # Recovery-cost ablation: time-to-recover vs concurrent node failures
    # for each recovery policy (malleable stencil; kill time is in paper
    # seconds and scaled by the figure so it always lands after a few
    # committed waves)
    recovery_procs: int = 8
    recovery_policies: Tuple[str, ...] = RECOVERY_POLICIES
    recovery_failures: Tuple[int, ...] = (1, 2, 4)
    recovery_period: float = 30.0
    recovery_spares: int = 4
    recovery_kill_time: float = 160.0
    recovery_servers: int = 2

    # Fig. 9: grid, BT.B at fixed size, period sweep
    fig9_procs: int = 400
    fig9_periods: Tuple[float, ...] = (30.0, 60.0, 120.0, 240.0)
    fig9_servers: int = 4

    # Fig. 10: grid, BT.B size sweep, 60 s period vs none
    fig10_sizes: Tuple[int, ...] = (100, 225, 400, 529)
    fig10_period: float = 60.0
    fig10_servers: int = 4

    def scaled_period(self, period: float) -> float:
        return period * self.time_scale


PAPER = Profile(name="paper", time_scale=1.0)

QUICK = Profile(
    name="quick",
    time_scale=0.15,
    fig6_sizes=(16, 64, 144, 169),
    fig6_periods=(10.0, 60.0),
    fig7_periods=(8.0, 20.0, 50.0, 120.0),
    fig8_procs=(4, 16, 32, 64),
    fig8_periods=(10.0, 40.0),
    fig9_procs=144,
    fig9_periods=(30.0, 60.0, 120.0, 240.0),
    fig10_sizes=(64, 100, 144),
)

SMOKE = Profile(
    name="smoke",
    time_scale=0.05,
    fig5_servers=(1, 4),
    fig6_sizes=(16, 64),
    fig6_periods=(10.0, 60.0),
    fig7_periods=(10.0, 60.0),
    fig7_procs=16,
    fig8_procs=(4, 16),
    fig8_periods=(10.0, 60.0),
    repl_procs=(4, 16),
    recovery_failures=(1, 2),
    recovery_spares=2,
    fig9_procs=36,
    fig9_periods=(60.0, 240.0),
    fig10_sizes=(16, 36),
)

PROFILES = {p.name: p for p in (PAPER, QUICK, SMOKE)}


def get_profile(name: str, seed: int = 0) -> Profile:
    try:
        profile = PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; have {sorted(PROFILES)}")
    return replace(profile, seed=seed) if seed != profile.seed else profile
