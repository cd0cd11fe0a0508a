"""Failure injection.

The paper emulates failures by killing the MPI *task*, not the operating
system (Sec. 4.1): the TCP connections break as soon as the task dies, so
detection is immediate, and the machine — including the local checkpoint
file on its disk — survives.  :meth:`FailureInjector.kill_task` reproduces
that.  :meth:`FailureInjector.kill_node` additionally takes the machine (and
its local images) down, for the spare-node recovery path.

The storage tier fails too: :meth:`FailureInjector.kill_server` takes a
checkpoint-server machine down (its stored replicas die with it), and
:meth:`FailureInjector.corrupt_image` silently damages one stored replica —
the corruption surfaces only when a restore verifies the checksum, like
latent media corruption.

Every executed injection is appended to :attr:`FailureInjector.kills` as a
typed :class:`KillRecord`, which chaos reports surface verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.sim.trace import declare

__all__ = ["FailureInjector", "KillRecord"]


declare("ft.failure", __name__, kind=str, rank=Optional[int],
        server=Optional[str], node=Optional[str])
declare("ft.image_corrupted", __name__, server=str, rank=int, wave=int)


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


class FailureInjector:
    """Executes process, node and storage failures (scheduling them against
    the live incarnation is :class:`~repro.ft.recovery.FTRun`'s job)."""

    def __init__(self, sim: "Simulator", net: "BaseNetwork",
                 local_images: Optional["LocalImageStore"] = None) -> None:
        self.sim = sim
        self.net = net
        self.local_images = local_images
        self.kills: List[KillRecord] = []

    def kill_task(self, job: "MPIJob", rank: int) -> None:
        """Kill one MPI process now.  Its sockets close; peers notice."""
        if job.killed or not (0 <= rank < job.size):
            return
        self.sim.trace.record(self.sim.now, "ft.failure", kind="task", rank=rank)
        self.kills.append(KillRecord(self.sim.now, "task", rank))
        channel = job.channels[rank]
        endpoint_protocol = channel.protocol
        channel.shutdown()  # breaks every socket of this task
        if endpoint_protocol is not None:
            endpoint_protocol.break_server_links()
            endpoint_protocol.detach()
        job.app_processes[rank].interrupt("task killed")
        # The runtime (dispatcher / process manager) holds a monitoring
        # socket to every process from launch, so the death is detected
        # even if no peer ever connected to this rank (Sec. 4.1: "failure
        # detection was immediate").
        job.notify_socket_closed(rank, None)

    def kill_node(self, job: "MPIJob", rank: int,
                  node: Optional["Node"] = None) -> None:
        """Kill the whole machine hosting ``rank`` (disk contents lost).

        The machine dies even when the job is already down — a kill landing
        inside an in-progress recovery must still take the node, its local
        images and its connections with it, or the relaunch would happily
        target a dead machine.  Only the per-task teardown is skipped for a
        killed job (those processes are already gone).  ``node`` overrides
        the victim machine (the caller's current endpoint placement may
        differ from the dying incarnation's after a spare promotion).
        """
        if not (0 <= rank < job.size):
            return
        if node is None:
            node = job.endpoints[rank].node
        if not node.alive:
            return
        self.sim.trace.record(self.sim.now, "ft.failure", kind="node", node=node.name)
        self.kills.append(KillRecord(self.sim.now, "node", rank))
        if self.local_images is not None:
            self.local_images.drop_node(node.name)
        # every rank on that node dies
        for r, endpoint in enumerate(job.endpoints):
            if endpoint.node is node:
                self.kill_task(job, r)
        self.net.fail_node(node)

    def kill_server(self, server: "CheckpointServer") -> None:
        """Kill a checkpoint-server machine.

        Every connection touching it breaks (in-flight uploads and fetches
        fail over to the surviving replicas), its receiver processes stop,
        and the replicas stored on it are gone.  The compute job itself does
        not die — storage loss only matters at the next wave or restart.
        """
        if not server.node.alive:
            return
        self.sim.trace.record(self.sim.now, "ft.failure", kind="server",
                              server=server.name, node=server.node.name)
        self.kills.append(KillRecord(self.sim.now, "server", server.name))
        server.shutdown()
        self.net.fail_node(server.node)

    def corrupt_image(self, server: "CheckpointServer", rank: int,
                      wave: Optional[int] = None) -> None:
        """Silently corrupt ``rank``'s stored replica on ``server``.

        Targets the newest *committed* wave by default (the one a restore
        would fetch), falling back to the newest stored wave; a no-op when
        the server holds nothing for the rank.
        """
        if wave is None:
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
        self.sim.trace.record(self.sim.now, "ft.image_corrupted",
                              server=server.name, rank=rank, wave=wave)
        self.kills.append(
            KillRecord(self.sim.now, "corrupt", (server.name, rank, wave)))
