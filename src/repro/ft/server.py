"""Checkpoint servers.

A checkpoint server is a dedicated machine that collects the local
checkpoints of its assigned MPI processes (Sec. 4.1).  Image and log bytes
arrive over ordinary network connections, so concurrent transfers from many
ranks contend on the server's NIC — the effect behind Figure 5's
checkpoint-server scaling study.

Both implementations (Vcl and Pcl) share this server, as in the paper.

Wire protocol (payloads on the rank<->server connection):

* ``("image", rank, wave, image, final)``  rank -> server, sized ``image.nbytes``
  (legacy 4-tuples without ``final`` are accepted as ``final=True``)
* ``("log", rank, wave, packets, nbytes)`` rank -> server, sized logged bytes
* ``("fetch", rank, wave)``                rank -> server (restart)
* ``("image_data", image, status)``        server -> rank, sized ``image.nbytes``
  when ``status == "ok"``; ``status`` is one of ``ok`` / ``missing`` /
  ``partial`` / ``corrupt`` and the payload is ``None`` unless ok
* ``("ack", kind, rank, wave)``            server -> rank
* ``("commit", wave)``                     initiator -> server

Storage semantics.  The server keeps its *own copy* of every record
(:meth:`CheckpointImage.replica`) so per-replica state — arrival time,
sealing, corruption — never aliases another server's copy or the sender's
in-memory image.  A record is *sealed* once it is complete (final image
received, and any log attached); only sealed records are restorable, and a
connection that breaks mid-transfer discards that connection's unsealed
records instead of leaving a truncated upload that a racing commit could
bless.  Only *committed* waves survive garbage collection: commits keep the
newest ``gc_keep`` committed waves per server (the paper's "simple garbage
collection" is ``gc_keep=1``; replicated configurations may retain more so
recovery can fall back past a damaged wave).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ft.image import CONTROL_BYTES, CheckpointImage
from repro.net.topology import BaseNetwork, Endpoint
from repro.sim.trace import declare

__all__ = ["CheckpointServer", "assign_replicas"]


declare("ft.replica_stored", __name__, server=str, rank=int, wave=int,
        checksum=int, nbytes=float)
declare("ft.commit", __name__, server=str, wave=int, ranks=tuple)
declare("ft.wave_gc", __name__, server=str, wave=int)


class CheckpointServer:
    """One checkpoint server process on its own machine."""

    def __init__(self, sim: "Simulator", net: BaseNetwork, node: "Node",
                 name: str = "ckpt-server", gc_keep: int = 1) -> None:
        if gc_keep < 1:
            raise ValueError("gc_keep must be >= 1")
        self.sim = sim
        self.net = net
        self.node = node
        self.name = name
        self.gc_keep = gc_keep
        self.endpoint = Endpoint(node, 0)
        #: wave -> rank -> image (this server's own replica copies)
        self.storage: Dict[int, Dict[int, CheckpointImage]] = {}
        self.committed_wave: int = 0
        #: every wave this server has committed, oldest first (GC ledger)
        self.committed_waves: List[int] = []
        self.bytes_received = 0.0
        self.peak_stored_bytes = 0.0
        self._receivers: List["Process"] = []
        #: (wave, rank) -> serving connection end, for unsealed records only;
        #: lets a broken connection discard exactly its own partial uploads
        self._origin: Dict[Tuple[int, int], "ConnectionEnd"] = {}

    # ------------------------------------------------------------ connections
    def open_connection(self, rank_endpoint: Endpoint) -> "ConnectionEnd":
        """Connect a rank's daemon to this server; returns the rank-side end.

        The real daemon opens three sockets (data / messages / control); one
        modelled FIFO connection carries all three roles.
        """
        connection = self.net.connect(rank_endpoint, self.endpoint)
        self.serve_connection(connection.end_b)
        return connection.end_a

    def serve_connection(self, end: "ConnectionEnd") -> None:
        """Start serving requests arriving on ``end`` (server side)."""
        receiver = self.sim.process(self._serve(end), name=f"{self.name}:serve")
        self._receivers.append(receiver)

    def _serve(self, end: "ConnectionEnd"):
        while True:
            try:
                message = yield end.recv()
            except ConnectionError:
                # The rank died or the job was torn down mid-transfer: any
                # record this connection uploaded but never completed is a
                # truncated file — drop it so a racing commit cannot bless it.
                self._discard_partial(end)
                return
            kind = message[0]
            if kind == "image":
                if len(message) == 5:
                    _kind, rank, wave, image, final = message
                else:  # legacy sender: the image message is the whole upload
                    _kind, rank, wave, image = message
                    final = True
                record = image.replica()
                record.stored_at = self.sim.now
                self.storage.setdefault(wave, {})[rank] = record
                self.bytes_received += image.nbytes
                self._track_peak()
                if final:
                    self._seal(record)
                    self._origin.pop((wave, rank), None)
                else:
                    self._origin[(wave, rank)] = end
                end.send(("ack", "image", rank, wave), nbytes=CONTROL_BYTES)
            elif kind == "log":
                _kind, rank, wave, packets, nbytes = message
                image = self.storage.get(wave, {}).get(rank)
                if image is not None:
                    image.logged_messages = list(packets)
                    image.logged_bytes = nbytes
                    self._seal(image)
                    self._origin.pop((wave, rank), None)
                self.bytes_received += nbytes
                self._track_peak()
                end.send(("ack", "log", rank, wave), nbytes=CONTROL_BYTES)
            elif kind == "fetch":
                _kind, rank, wave = message
                image = self.storage.get(wave, {}).get(rank)
                if image is None:
                    payload, status = None, "missing"
                elif not image.sealed:
                    payload, status = None, "partial"
                elif not image.verify():
                    payload, status = None, "corrupt"
                else:
                    payload, status = image, "ok"
                end.send(("image_data", payload, status),
                         nbytes=payload.nbytes if payload else CONTROL_BYTES)
            elif kind == "commit":
                _kind, wave = message
                self.commit(wave)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown server message {kind!r}")

    # ---------------------------------------------------------------- storage
    def seal_record(self, wave: int, rank: int) -> None:
        """Seal a stored record in place (no further data expected).

        Used by Vcl's no-log fast path, whose completion notification is
        in-process (see ``VclEndpoint._ship_logs_and_ack``) rather than a
        wire message.
        """
        image = self.storage.get(wave, {}).get(rank)
        if image is not None and not image.sealed:
            self._seal(image)
            self._origin.pop((wave, rank), None)

    def _seal(self, record: CheckpointImage) -> None:
        record.seal()
        if self.sim.trace.wants("ft.replica_stored"):
            self.sim.trace.record(
                self.sim.now, "ft.replica_stored", server=self.name,
                rank=record.rank, wave=record.wave,
                checksum=record.checksum, nbytes=record.total_bytes)

    def _discard_partial(self, end: "ConnectionEnd") -> None:
        """Drop every unsealed record uploaded over ``end``."""
        for (wave, rank), origin in list(self._origin.items()):
            if origin is not end:
                continue
            del self._origin[(wave, rank)]
            record = self.storage.get(wave, {}).get(rank)
            if record is not None and not record.sealed:
                del self.storage[wave][rank]
                if not self.storage[wave]:
                    del self.storage[wave]

    def commit(self, wave: int) -> None:
        """Mark ``wave`` complete and garbage-collect older waves.

        Retains the newest ``gc_keep`` committed waves so recovery can fall
        back to an older commit when the newest one is damaged.
        """
        if wave <= self.committed_wave:
            return
        self.committed_wave = wave
        self.committed_waves.append(wave)
        if self.sim.trace.wants("ft.commit"):
            self.sim.trace.record(
                self.sim.now, "ft.commit", server=self.name, wave=wave,
                ranks=sorted(self.storage.get(wave, {})))
        retained = set(self.committed_waves[-self.gc_keep:])
        for old in [w for w in self.storage if w < wave and w not in retained]:
            del self.storage[old]
            if self.sim.trace.wants("ft.wave_gc"):
                self.sim.trace.record(self.sim.now, "ft.wave_gc",
                                      server=self.name, wave=old)

    def stored_bytes(self) -> float:
        return sum(
            image.total_bytes
            for per_rank in self.storage.values()
            for image in per_rank.values()
        )

    def _track_peak(self) -> None:
        self.peak_stored_bytes = max(self.peak_stored_bytes, self.stored_bytes())

    def shutdown(self) -> None:
        for receiver in self._receivers:
            receiver.interrupt("server shutdown")
        self._receivers.clear()


def assign_replicas(
    n_ranks: int,
    servers: List[CheckpointServer],
    replication: int = 1,
) -> Dict[int, List[CheckpointServer]]:
    """Rank -> ordered list of K replica servers.

    The primary is round-robin (the paper distributes computing nodes
    equally among the checkpoint servers, so ``replication=1`` is exactly
    the unreplicated layout) and the remaining K-1 replicas are the next
    servers in ring order — every server carries the same share of
    primaries and of secondaries.
    """
    if not servers:
        raise ValueError("at least one checkpoint server is required")
    if not 1 <= replication <= len(servers):
        raise ValueError(
            f"replication must be between 1 and the number of servers "
            f"({len(servers)}), got {replication}")
    n = len(servers)
    return {
        rank: [servers[(rank + j) % n] for j in range(replication)]
        for rank in range(n_ranks)
    }
