"""Failure injection: one fault vocabulary.

A failure is stated one way everywhere — a :class:`Fault` value,
``Fault(kind, target, at, **params)`` — and :data:`FAULTS` says, per kind,
what ``target`` indexes, which parameters the kind takes and how it is
carried out.  Chaos scenarios (``Scenario.faults``),
``execute(faults=)`` and :meth:`repro.ft.recovery.FTRun.schedule` all take
Fault values, so a new fault kind is one table row.

The paper emulates failures by killing the MPI *task*, not the operating
system (Sec. 4.1): the TCP connections break as soon as the task dies, so
detection is immediate, and the machine — including the local checkpoint
file on its disk — survives.  ``task`` reproduces that; ``node``
additionally takes the machine (and its local images) down.

The storage tier fails too: ``server_kill`` takes a checkpoint-server
machine down (its stored replicas die with it), and ``image_corrupt``
silently damages one rank's stored replica — the corruption surfaces only
when a restore verifies the checksum, like latent media corruption.

Every executed injection is appended to ``FTRun.injected`` as a typed
:class:`KillRecord`, which chaos reports surface verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.sim.trace import declare

__all__ = ["FAULTS", "Fault", "FaultKind", "KillRecord", "random_failures"]


declare("ft.failure", __name__, kind=str, rank=Optional[int],
        server=Optional[str], node=Optional[str])
declare("ft.image_corrupted", __name__, server=str, rank=int, wave=int)


@dataclass(frozen=True, init=False)
class Fault:
    """One failure to inject: ``kind`` (a :data:`FAULTS` key) hits
    ``target`` — a rank or a checkpoint-server index, as the kind's
    ``scope`` says — at *simulated* time ``at``.

    Construction checks everything that needs no deployment (the kind, the
    parameter names, ``target >= 0``, ``at >= 0``); :meth:`check` adds the
    ranges once the job and server counts are known.
    """

    kind: str
    target: int
    at: float
    #: the kind's keyword parameters, as sorted ``(name, value)`` pairs
    params: Tuple[Tuple[str, Any], ...]

    def __init__(self, kind: str, target: int, at: float,
                 **params: Any) -> None:
        row = FAULTS.get(kind)
        if row is None:
            raise ValueError(f"unknown fault kind {kind!r} "
                             f"(expected one of {tuple(FAULTS)})")
        if isinstance(target, bool) or not isinstance(target, int) \
                or target < 0:
            raise ValueError(f"{kind} fault target must be a non-negative "
                             f"integer, got {target!r}")
        if not at >= 0:
            raise ValueError(f"{kind} fault time must be >= 0 (simulated "
                             f"seconds), got {at!r}")
        if set(params) != set(row.params):
            raise ValueError(f"{kind} fault takes parameters {row.params}, "
                             f"got {tuple(sorted(params))}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    def param(self, name: str) -> Any:
        """The value of parameter ``name``."""
        return dict(self.params)[name]

    def check(self, n_procs: int, n_servers: int) -> None:
        """Raise ``ValueError`` unless every index fits a job of ``n_procs``
        ranks with ``n_servers`` checkpoint servers."""
        row = FAULTS[self.kind]
        size, noun = ((n_procs, f"job of {n_procs} processes")
                      if row.scope == "rank" else
                      (n_servers, f"{n_servers} checkpoint server(s)"))
        if self.target >= size:
            raise ValueError(f"{self.kind} fault target {self.target} "
                             f"outside {noun}")
        for name in row.params:
            if not 0 <= self.param(name) < n_procs:
                raise ValueError(f"{self.kind} fault {name}={self.param(name)} "
                                 f"outside job of {n_procs} processes")

    @property
    def label(self) -> str:
        """``task-r1@1.7`` / ``server_kill-cs0@2.4``: kind, target, time."""
        prefix = "r" if FAULTS[self.kind].scope == "rank" else "cs"
        return f"{self.kind}-{prefix}{self.target}@{self.at:g}"

    def to_dict(self) -> dict:
        """Plain JSON; ``Fault(**fault.to_dict())`` round-trips."""
        return {"kind": self.kind, "target": self.target, "at": self.at,
                **dict(self.params)}


class FaultKind(NamedTuple):
    """One row of :data:`FAULTS`."""

    #: what ``Fault.target`` indexes: ``"rank"`` or ``"server"``
    scope: str
    #: ``inject(run, fault)``: carry the fault out against the live state of
    #: a :class:`~repro.ft.recovery.FTRun`, now
    inject: Callable[[Any, Fault], None]
    #: the kind's keyword parameters (all required), each naming a rank
    params: Tuple[str, ...] = ()


@dataclass(frozen=True)
class KillRecord:
    """One executed fault injection.

    ``kind`` is ``task``/``node``/``server``/``corrupt``; ``target`` is the
    victim rank for task and node kills, the server name for server kills,
    and a ``(server, rank, wave)`` triple for corruptions.
    """

    time: float
    kind: str
    target: Any

    def as_dict(self) -> dict:
        target = list(self.target) if isinstance(self.target, tuple) \
            else self.target
        return {"time": self.time, "kind": self.kind, "target": target}


def _kill_task(run, fault: Fault) -> None:
    if run.job is not None and not run.completed.triggered:
        _task_dies(run, run.job, fault.target)


def _task_dies(run, job, rank: int) -> None:
    """One MPI process of ``job`` dies now.  Its sockets close; peers
    notice."""
    if job.killed or not (0 <= rank < job.size):
        return
    run.sim.trace.record(run.sim.now, "ft.failure", kind="task", rank=rank)
    run.injected.append(KillRecord(run.sim.now, "task", rank))
    channel = job.channels[rank]
    endpoint_protocol = channel.protocol
    channel.shutdown()  # breaks every socket of this task
    if endpoint_protocol is not None:
        endpoint_protocol.break_server_links()
        endpoint_protocol.detach()
    job.app_processes[rank].interrupt("task killed")
    # The runtime (dispatcher / process manager) holds a monitoring socket
    # to every process from launch, so the death is detected even if no
    # peer ever connected to this rank (Sec. 4.1: "failure detection was
    # immediate").
    job.notify_socket_closed(rank, None)


def _kill_node(run, fault: Fault) -> None:
    """The machine dies even when the job is already down — a kill landing
    inside an in-progress recovery must still take the node, its local
    images and its connections with it, or the relaunch would happily
    target a dead machine.  Only the per-task teardown is skipped for a
    killed job (those processes are already gone)."""
    # a shrink may have dropped the rank; otherwise resolve the machine
    # through the *current* placement — after a spare promotion the live
    # job's rank may sit on another node than the one the kill was aimed at
    job = run.job
    if job is None or run.completed.triggered \
            or not fault.target < min(job.size, len(run.endpoints)):
        return
    node = run.endpoints[fault.target].node
    if not node.alive:
        return
    run.sim.trace.record(run.sim.now, "ft.failure", kind="node",
                         node=node.name)
    run.injected.append(KillRecord(run.sim.now, "node", fault.target))
    run.local_images.drop_node(node.name)
    # every rank on that node dies
    for rank, endpoint in enumerate(job.endpoints):
        if endpoint.node is node:
            _task_dies(run, job, rank)
    run.net.fail_node(node)


def _kill_server(run, fault: Fault) -> None:
    """Every connection touching the server breaks (in-flight uploads and
    fetches fail over to the surviving replicas), its receiver processes
    stop, and the replicas stored on it are gone.  The compute job itself
    does not die — storage loss only matters at the next wave or
    restart."""
    server = run.servers[fault.target]
    if run.completed.triggered or not server.node.alive:
        return
    run.sim.trace.record(run.sim.now, "ft.failure", kind="server",
                         server=server.name, node=server.node.name)
    run.injected.append(KillRecord(run.sim.now, "server", server.name))
    server.shutdown()
    run.net.fail_node(server.node)


def _corrupt_image(run, fault: Fault) -> None:
    """Targets the newest *committed* wave (the one a restore would fetch),
    falling back to the newest stored wave; a no-op when the server holds
    nothing for the rank."""
    if run.completed.triggered:
        return
    server, rank = run.servers[fault.target], fault.param("rank")
    if rank in server.storage.get(server.committed_wave, {}):
        wave = server.committed_wave
    else:
        waves = [w for w in sorted(server.storage, reverse=True)
                 if rank in server.storage[w]]
        wave = waves[0] if waves else server.committed_wave
    image = server.storage.get(wave, {}).get(rank)
    if image is None:
        return
    image.corrupt()
    run.sim.trace.record(run.sim.now, "ft.image_corrupted",
                         server=server.name, rank=rank, wave=wave)
    run.injected.append(
        KillRecord(run.sim.now, "corrupt", (server.name, rank, wave)))


#: fault kind -> what it targets, what it takes, how it is injected; the
#: keys are the single source of the valid kinds
FAULTS: Dict[str, FaultKind] = {
    #: kill one MPI process; its sockets close, peers notice
    "task": FaultKind("rank", _kill_task),
    #: kill the machine hosting the rank (local images lost)
    "node": FaultKind("rank", _kill_node),
    #: kill a checkpoint-server machine and every replica on it
    "server_kill": FaultKind("server", _kill_server),
    #: silently corrupt ``rank``'s replica of the newest committed wave on
    #: the server
    "image_corrupt": FaultKind("server", _corrupt_image, params=("rank",)),
}


def random_failures(run, mttf: float, max_failures: int = 8,
                    probe_lead: Optional[float] = None,
                    stream: str = "failures") -> None:
    """Inject ``task`` faults into ``run`` as a Poisson process with the
    given MTTF.

    Failure instants and victims come from a dedicated RNG stream, so two
    runs of the same seed see the *same* failure schedule regardless of
    checkpoint settings — which is what makes checkpoint-period sweeps
    comparable (the MTTF experiment).  Each failure takes an
    ``exponential(mttf)`` delay and then an ``integers(n_procs)`` victim
    from that :class:`~repro.sim.rng.Stream`.

    ``probe_lead`` models the paper's proposed proactive trigger: a health
    probe (CPU temperature and the like) notices the impending failure
    ``probe_lead`` seconds ahead and asks the protocol for an immediate
    checkpoint wave.
    """
    if mttf <= 0:
        raise ValueError("mttf must be positive")
    rng = run.sim.rng.stream(f"{run.name}.{stream}")
    run.sim.process(_poisson(run, rng, mttf, max_failures, probe_lead),
                    name=f"{run.name}:poisson")


def _poisson(run, rng, mttf, max_failures, probe_lead):
    sim = run.sim
    for _ in range(max_failures):
        delay = rng.exponential(mttf)
        victim = rng.integers(len(run.endpoints))
        if probe_lead is not None and delay > probe_lead:
            sim.call_at(delay - probe_lead, _probe, run)
        yield sim.timeout(delay)
        if run.completed.triggered:
            return
        _kill_task(run, Fault("task", victim, sim.now))


def _probe(run) -> None:
    protocol = run.protocol
    if (protocol is not None and not protocol.detached
            and not run.completed.triggered):
        protocol.request_wave()
