"""Harness profiles, per-figure parameters and the protocol→channel table.

Every figure script runs under a *profile* that sets the experiment scale:

* ``paper`` — the paper's parameters (process counts, 200-iteration NAS
  runs, 10-120 s checkpoint periods).  Hours of wall time.
* ``quick`` — the default: iteration counts, checkpoint periods and image
  sizes all scaled by the same factor, so every ratio that shapes a figure
  (transfer time vs period, waves per run, compute/communication balance)
  is preserved while runs shrink ~7x.  Stall-type overheads (fork pauses,
  marker rounds) do *not* scale, so absolute overhead percentages read
  higher than the paper's; orderings and trends are unaffected.
* ``smoke`` — minimum sizes for CI and the committed golden results.

A profile is only a name, a scale and a seed: what a figure sweeps is the
``PARAMS`` table in its own module, resolved by :func:`figure_params`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, Mapping, Optional

__all__ = ["Profile", "PROFILES", "get_profile", "figure_params",
           "PROTOCOL_CHANNELS", "default_channel", "cli_int"]


@dataclass(frozen=True)
class Profile:
    """Scale of the figure reproductions."""

    name: str
    #: multiplies NAS iteration counts, checkpoint periods and image sizes
    time_scale: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def scaled_period(self, period: float) -> float:
        return period * self.time_scale


PAPER = Profile(name="paper", time_scale=1.0)
QUICK = Profile(name="quick", time_scale=0.15)
SMOKE = Profile(name="smoke", time_scale=0.05)

PROFILES = {p.name: p for p in (PAPER, QUICK, SMOKE)}


def get_profile(name: str, seed: int = 0) -> Profile:
    try:
        profile = PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown profile {name!r}; have {sorted(PROFILES)}")
    return replace(profile, seed=seed) if seed != profile.seed else profile


def figure_params(params: Mapping[str, Dict[str, Any]], profile: Profile,
                  **overrides: Any) -> SimpleNamespace:
    """One figure's parameters at ``profile``: ``params["paper"]`` (every
    parameter, at the paper's value) overlaid by the row of values
    ``profile`` changes, then by ``overrides`` (how ``--policy`` restricts
    the recovery figure's ``policies``).  A row for an unknown profile, or
    a parameter the paper row lacks, is a typo and raises."""
    paper = params["paper"]
    layers = [*params.values(), overrides]
    unknown = ((set(params) - set(PROFILES))
               | (set().union(*layers) - set(paper)))
    if unknown:
        raise KeyError(f"unknown profile or parameter {sorted(unknown)}; "
                       f"have {sorted(PROFILES)} / {sorted(paper)}")
    return SimpleNamespace(
        **{**paper, **params.get(profile.name, {}), **overrides})


#: The paper's channel(s) for each protocol implementation, default first:
#:
#: * Pcl lives in MPICH2: ft-sock on TCP networks, Nemesis (the MPICH2
#:   shared-memory/Myrinet device) for the Fig. 7 comparison and the
#:   procs_per_node=2 chaos regime;
#: * Vcl lives in MPICH-1.2.7: always the ch_v daemon device;
#: * Dcl reuses the MPICH2 devices (same send-gate machinery as Pcl).
PROTOCOL_CHANNELS = {
    "pcl": ("ft_sock", "nemesis"),
    "vcl": ("ch_v",),
    "dcl": ("ft_sock", "nemesis"),
}


def default_channel(protocol: Optional[str]) -> str:
    """The first channel of ``protocol``'s implementation.  No-checkpoint
    baselines use the channel of the implementation they baseline (callers
    pass it explicitly), defaulting to ft-sock."""
    return PROTOCOL_CHANNELS.get(protocol, ("ft_sock",))[0]


def cli_int(minimum: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer of at least ``minimum``, so a bad
    ``--seed`` or ``--jobs`` fails at the command line with argparse naming
    the flag, not deep inside a run."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse
