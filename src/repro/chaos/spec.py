"""Scenario and campaign specifications.

A :class:`Scenario` is one fully-determined run: which protocol and channel,
how the ranks are packed onto nodes, which faults are injected and when
(:class:`~repro.ft.failure.Fault` values), and the seed.  Everything is a
plain value so scenarios round-trip through JSON and two runs of the same
scenario are byte-identical (the determinism contract of :mod:`repro.sim`).

Times follow the harness conventions: ``period`` is in *paper* seconds
(scaled by the profile's ``time_scale``, like
:func:`repro.harness.runner.execute`), while a fault's ``at`` is in
*simulated* seconds — a kill targets a point on the run's actual timeline,
e.g. inside a specific checkpoint wave.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.apps import BENCHMARKS
from repro.ft import FAULTS, RECOVERY_POLICIES, Fault
from repro.harness.config import PROTOCOL_CHANNELS, default_channel

__all__ = [
    "Scenario",
    "CampaignSpec",
    "CAMPAIGNS",
    "smoke_campaign",
    "storage_campaign",
    "dcl_campaign",
    "recovery_campaign",
    "RECOVERY_POLICIES",
]

#: the paper's two implementations: the kill grid sweeps them on every
#: channel at both packings; a later family gets :func:`_family_sweep`
_PAPER = ("pcl", "vcl")


def _combos(*protocols: str) -> Tuple[Tuple[str, str], ...]:
    """Every (protocol, channel) pairing of ``protocols`` in
    :data:`repro.harness.config.PROTOCOL_CHANNELS`."""
    return tuple((protocol, channel) for protocol in protocols
                 for channel in PROTOCOL_CHANNELS[protocol])


@dataclass(frozen=True)
class Scenario:
    """One fault-injection run, fully determined by its fields."""

    protocol: str
    channel: str
    procs_per_node: int = 1
    #: what fails and when, scheduled in order: rank faults (task/node
    #: kills — cascading ones land inside an in-progress recovery) and
    #: storage faults alike; empty for a failure-free control run
    faults: Tuple[Fault, ...] = ()
    seed: int = 0
    n_procs: int = 4
    #: checkpoint period in paper seconds (profile-scaled at run time)
    period: float = 30.0
    bench: str = "bt"
    klass: str = "B"
    scale: float = 0.05
    network: str = "gige"
    n_servers: int = 1
    #: checkpoint images stream to this many servers (quorum commit)
    replication: int = 1
    #: committed waves each server retains (GC depth)
    gc_keep: int = 1
    #: recovery strategy: "restart" (the paper's full rollback), "spare"
    #: (promote pre-allocated spares) or "shrink" (survivors re-decompose)
    policy: str = "restart"
    #: pre-allocated spare nodes for the "spare" policy
    spares: int = 0
    #: when non-empty, *these* verdicts count as ok instead of OK_VERDICTS —
    #: e.g. a K=1 server kill is expected to end "storage-unrecoverable"
    expect: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Refuse a bad field here, naming it, rather than at run time."""
        object.__setattr__(self, "faults", tuple(self.faults))
        for knob in ("procs_per_node", "n_procs", "n_servers", "gc_keep"):
            if getattr(self, knob) < 1:
                raise ValueError(f"{knob} must be >= 1, got "
                                 f"{getattr(self, knob)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for knob in ("period", "scale"):
            if not getattr(self, knob) > 0:
                raise ValueError(f"{knob} must be > 0, got "
                                 f"{getattr(self, knob)}")
        if not 1 <= self.replication <= self.n_servers:
            raise ValueError(
                f"replication must be between 1 and n_servers "
                f"({self.n_servers}), got {self.replication}")
        if self.bench not in BENCHMARKS:
            raise ValueError(f"unknown bench {self.bench!r} "
                             f"(expected one of {tuple(BENCHMARKS)})")
        if self.policy not in RECOVERY_POLICIES:
            raise ValueError(f"unknown recovery policy {self.policy!r} "
                             f"(expected one of {tuple(RECOVERY_POLICIES)})")
        if self.spares < 0:
            raise ValueError(f"spares must be >= 0, got {self.spares}")
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise TypeError(f"faults must be Fault values, got {fault!r}")
            fault.check(self.n_procs, self.n_servers)

    def _labels(self, scope: str) -> List[str]:
        return [fault.label for fault in self.faults
                if FAULTS[fault.kind].scope == scope]

    @property
    def label(self) -> str:
        """Stable human-readable identifier, unique within a campaign."""
        fault = "+".join(self._labels("rank")) or "nokill"
        if self.policy != "restart":
            fault += f"-{self.policy}"
        if self.spares:
            fault += f"-sp{self.spares}"
        storage = ""
        if self.replication != 1:
            storage += f"-K{self.replication}"
        if self.gc_keep != 1:
            storage += f"-gc{self.gc_keep}"
        storage += "".join(f"-{label}" for label in self._labels("server"))
        bench = "" if self.bench == "bt" else f"-{self.bench}"
        return (f"{self.protocol}-{self.channel}{bench}"
                f"-ppn{self.procs_per_node}"
                f"-{fault}{storage}-s{self.seed}")

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["faults"] = [fault.to_dict() for fault in self.faults]
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        data = dict(data)
        # JSON round-trips tuples as lists
        if "expect" in data:
            data["expect"] = tuple(data["expect"])
        data["faults"] = tuple(Fault(**fault)
                               for fault in data.get("faults", ()))
        return cls(**data)


@dataclass
class CampaignSpec:
    """A named, ordered collection of scenarios plus run-time policy."""

    scenarios: List[Scenario] = field(default_factory=list)
    name: str = "campaign"
    #: simulated-time budget per scenario, as a multiple of the benchmark's
    #: failure-free expected time (recovery replays lost work, so > 2)
    time_limit_factor: float = 8.0

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def _subset(self, keep: Callable[[Scenario], bool]) -> "CampaignSpec":
        return CampaignSpec(
            scenarios=[s for s in self.scenarios if keep(s)],
            name=self.name,
            time_limit_factor=self.time_limit_factor,
        )

    def filtered(self, substring: str) -> "CampaignSpec":
        """Sub-campaign of the scenarios whose label contains ``substring``."""
        return self._subset(lambda s: substring in s.label)

    def with_policy(self, policy: str) -> "CampaignSpec":
        """Sub-campaign of the scenarios using one recovery ``policy``."""
        if policy not in RECOVERY_POLICIES:
            raise ValueError(f"unknown recovery policy {policy!r} "
                             f"(expected one of {tuple(RECOVERY_POLICIES)})")
        return self._subset(lambda s: s.policy == policy)

    @classmethod
    def grid(
        cls,
        combos: Sequence[Tuple[str, str]] = _combos(*_PAPER),
        procs_per_node: Iterable[int] = (1, 2),
        kills: Iterable[Optional[str]] = ("task", "node"),
        kill_times: Iterable[float] = (1.7,),
        victims: Iterable[int] = (1,),
        seeds: Iterable[int] = (0,),
        name: str = "grid",
        **scenario_kwargs,
    ) -> "CampaignSpec":
        """Cartesian sweep over the given axes.

        ``kills`` are rank fault kinds (one ``Fault(kill, victim,
        kill_time)`` per scenario) and may include ``None`` for failure-free
        control scenarios (those collapse the kill-time/victim axes to a
        single entry).
        ``combos`` defaults to the paper's two implementations on every
        channel they run on.
        """
        scenarios = []
        for (protocol, channel), ppn, kill, seed in itertools.product(
                combos, procs_per_node, kills, seeds):
            faults = (
                [(Fault(kill, victim, at),) for at, victim
                 in itertools.product(kill_times, victims)]
                if kill is not None else [()]
            )
            for fault in faults:
                scenarios.append(Scenario(
                    protocol=protocol, channel=channel, procs_per_node=ppn,
                    faults=fault, seed=seed, **scenario_kwargs,
                ))
        return cls(scenarios=scenarios, name=name)


def _fault_rows(name: str, seed: int, protocols: Iterable[str],
                base: Dict, rows: Sequence[Dict]) -> CampaignSpec:
    """``rows`` — :class:`Scenario` fields overriding the ``base`` fault —
    for each of ``protocols`` on its default channel."""
    return CampaignSpec(name=name, scenarios=[
        Scenario(protocol=protocol, channel=default_channel(protocol),
                 seed=seed, **{**base, **row})
        for protocol in protocols for row in rows
    ])


#: the base fault of the storage and recovery slices: rank 1's node dies
#: after wave 1 commits and before wave 2 starts
_NODE_KILL = Fault("node", 1, 2.8)


def _after_node_kill(*faults: Fault) -> Dict:
    """Row fields: the base node kill, then ``faults``."""
    return dict(faults=(_NODE_KILL,) + faults)


def _corrupt(at: float) -> Fault:
    """Server 0's replica of the killed rank goes bad: its restart is the
    one that must survive the bad copy."""
    return Fault("image_corrupt", 0, at, rank=_NODE_KILL.target)


_K2 = dict(n_servers=2, replication=2)
_UNRECOVERABLE = dict(expect=("storage-unrecoverable",))
_STORAGE_ROWS = (
    dict(_K2, **_after_node_kill(Fault("server_kill", 0, 2.4))),
    dict(_K2, **_after_node_kill(Fault("server_kill", 0, 1.7))),
    dict(_K2, **_after_node_kill(_corrupt(2.4))),
    dict(gc_keep=2, faults=(Fault("node", 1, 4.6), _corrupt(4.45))),
    dict(_UNRECOVERABLE, **_after_node_kill(Fault("server_kill", 0, 2.4))),
    dict(_UNRECOVERABLE, **_after_node_kill(_corrupt(2.4))),
)


def storage_campaign(seed: int = 0) -> CampaignSpec:
    """Checkpoint-*storage* resilience sweep: 12 scenarios.

    Every scenario pairs a storage-tier fault on server 0 with a node kill
    (a server death alone never takes the job down — ranks only notice at
    restart time), over both TCP implementations.  At the smoke scale wave
    1 spans ~1.5–2.1 simulated seconds and commits at ~2.1; wave 2 commits
    at ~4.2.

    Per protocol (``_STORAGE_ROWS``, in order):

    * K=2 server kill after wave 1 commits (t=2.4) — restart must fetch the
      victim's image from the surviving replica;
    * K=2 server kill *inside* wave 1 (t=1.7) — quorum degrades mid-upload;
    * K=2 single-replica corruption (t=2.4) — checksum rejects the bad copy,
      the fetch retries the intact replica;
    * K=1, gc_keep=2 corruption after wave 2 commits (t=4.45: the commit
      lands at 4.15 for Pcl, 4.38 for Vcl) — the only wave-2 copy is bad,
      restart falls back to the retained wave 1;
    * K=1 server kill — the sole replica set is gone: the run must end in a
      clean classified ``storage-unrecoverable``, not a hang;
    * K=1 corruption of the victim's sole replica — likewise unrecoverable.
    """
    return _fault_rows("storage", seed, _PAPER, _after_node_kill(),
                       _STORAGE_ROWS)


def _family_sweep(protocol: str, seed: int) -> CampaignSpec:
    """A later protocol family's kill grid: its default channel at 1 and 2
    processes per node, its other devices only at 2 per node — where the
    shared-memory intra-node paths make them differ."""
    sweep = CampaignSpec.grid(
        combos=_combos(protocol),
        kill_times=(1.7, 2.8),
        seeds=(seed,),
        name=protocol,
    )
    return sweep._subset(lambda s: s.channel == default_channel(protocol)
                         or s.procs_per_node == 2)


def dcl_campaign(seed: int = 0) -> CampaignSpec:
    """Message-drain (Dcl) fault sweep: 12 scenarios.

    Kills land inside the first drain wave (t=1.7: wave 1 spans ~1.5–2.1
    at the smoke scale, and the drain window sits inside it) and between
    waves (t=2.8) — the inside-wave kills exercise wave abort while send
    gates are closed and counter reports are in flight.  Dcl rides the
    MPICH2 devices like Pcl: ft-sock at 1 and 2 processes per node
    (2 ppn × 2 kill kinds × 2 kill times = 8) plus Nemesis at 2 per node
    (shared-memory intra-node paths under the drain stopper; 4 more).
    """
    return _family_sweep("dcl", seed)


_SPARES = dict(policy="spare", spares=2)
_STENCIL = dict(bench="stencil", klass="A", policy="shrink")
_DEGRADED = dict(expect=("recovered-degraded",))
_RECOVERY_ROWS = (
    # double task fault, coalesced into one agreement round
    dict(_SPARES, faults=(Fault("task", 1, 2.8), Fault("task", 2, 2.8001))),
    # correlated double node fault onto the spare pool
    dict(_SPARES, **_after_node_kill(Fault("node", 2, 2.8001))),
    # node kill inside the in-progress recovery (restore midpoint)
    dict(_SPARES, **_after_node_kill(Fault("node", 2, 2.85))),
    # task kill inside the in-progress recovery
    dict(_SPARES, **_after_node_kill(Fault("task", 2, 2.85))),
    # back-to-back failures: the second hits the fresh incarnation
    dict(_SPARES, **_after_node_kill(Fault("node", 2, 3.4))),
    # spare-pool exhaustion must degrade to full restart, not hang
    dict(_DEGRADED, policy="spare", spares=1,
         **_after_node_kill(Fault("node", 2, 2.8001))),
    # shrink: survivors re-decompose the malleable stencil
    dict(_STENCIL),
    dict(_STENCIL, **_after_node_kill(Fault("node", 2, 2.8001))),
    # shrinking a non-malleable benchmark degrades to full restart
    dict(_DEGRADED, policy="shrink"),
    # kill inside the baseline full restart's own recovery
    _after_node_kill(Fault("node", 2, 2.85)),
)


def recovery_campaign(seed: int = 0) -> CampaignSpec:
    """Survivor-recovery chaos under cascading failures: 30 scenarios.

    Ten per protocol family (``_RECOVERY_ROWS``, in order).  Exercises every recovery policy under the failure shapes that a single
    kill never produces: double faults coalescing into one membership
    agreement round, kills landing *inside* an in-progress recovery (at
    the restore midpoint), back-to-back failures hitting the freshly
    relaunched incarnation, and spare-pool exhaustion — which must degrade
    gracefully to the paper's full restart (``recovered-degraded``), never
    hang.  Shrink scenarios run the malleable stencil; the shrink of a
    non-malleable benchmark is *expected* to degrade.
    """
    return _fault_rows("recovery", seed, PROTOCOL_CHANNELS,
                       _after_node_kill(), _RECOVERY_ROWS)


def smoke_campaign(seed: int = 0) -> CampaignSpec:
    """The standard CI smoke sweep: 48 scenarios, a few seconds of wall time.

    Covers all three protocol families, all three paper channels, 1 and 2
    processes per node, task and node kills, and both kill phases — inside
    the first checkpoint wave (t=1.7: wave 1 spans ~1.5–2.1 at the smoke
    scale) and between waves (t=2.8: after wave 1 commits, before wave 2
    starts at ~3.6).  3 Pcl/Vcl combos × 2 ppn × 2 kill kinds × 2 kill
    times = 24, plus the 12 storage-resilience scenarios of
    :func:`storage_campaign`, plus the 12 message-drain scenarios of
    :func:`dcl_campaign` — every family of ``PROTOCOL_CHANNELS`` beyond
    the paper's two contributes its :func:`_family_sweep`.
    """
    grid = CampaignSpec.grid(
        kill_times=(1.7, 2.8),
        seeds=(seed,),
        name="smoke",
    )
    grid.scenarios += storage_campaign(seed).scenarios
    for protocol in PROTOCOL_CHANNELS:
        if protocol not in _PAPER:
            grid.scenarios += _family_sweep(protocol, seed).scenarios
    return grid


#: CLI flag -> builder (``seed -> CampaignSpec``), default first; the CLI
#: derives its flags, their help (the builder's summary line) and dispatch
CAMPAIGNS: Dict[str, Callable[[int], CampaignSpec]] = {
    "smoke": smoke_campaign,
    "storage": storage_campaign,
    "dcl": dcl_campaign,
    "recovery": recovery_campaign,
}
