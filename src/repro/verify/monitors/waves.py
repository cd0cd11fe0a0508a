"""What every checkpoint protocol shares (:mod:`repro.ft.protocol`,
:mod:`repro.ft.server`): waves terminate, committed waves stay restorable.
Guarded by *any* registered protocol — a run without one emits no wave or
storage record."""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.ft import PROTOCOLS
from repro.verify.base import Monitor, on

__all__ = ["WaveLivenessMonitor", "StorageDurabilityMonitor"]


class WaveLivenessMonitor(Monitor):
    """Checkpoint waves terminate: started ⇒ completed or aborted.

    Both drivers emit ``ft.wave_started`` when markers go out and
    ``ft.wave_completed`` when every rank reported in; ``BaseProtocol.detach``
    emits ``ft.wave_aborted`` when the job dies or completes with a wave
    still in flight.  The ledger per protocol must therefore never hold two
    open waves, never complete a wave that was not started, and be empty
    when the run finishes.
    """

    name = "wave-liveness"
    protocols = PROTOCOLS.keys()

    def __init__(self) -> None:
        super().__init__()
        #: protocol name -> (open wave number, start time)
        self._open: Dict[str, Tuple[int, float]] = {}

    @on("ft.wave_started")
    def on_ft_wave_started(self, time, wave, protocol) -> None:
        stale = self._open.get(protocol)
        if stale is not None:
            self.violation(
                time,
                f"{protocol} started wave {wave} while wave {stale[0]} "
                f"(started at t={stale[1]}) is still open — the previous "
                "wave neither completed nor aborted",
            )
        self._open[protocol] = (wave, time)

    @on("ft.wave_completed")
    def on_ft_wave_completed(self, time, wave, duration, protocol) -> None:
        self._close(time, wave, protocol, "completed")

    @on("ft.wave_aborted")
    def on_ft_wave_aborted(self, time, wave, protocol) -> None:
        self._close(time, wave, protocol, "aborted")

    def _close(self, time: float, wave: int, protocol: str,
               closing: str) -> None:
        stale = self._open.pop(protocol, None)
        if stale is None or stale[0] != wave:
            self.violation(
                time,
                f"{protocol} wave {wave} {closing} but the open wave is "
                f"{stale[0] if stale else 'none'} — wave ledger out of "
                "sync",
            )

    def finish(self) -> None:
        for protocol, (wave, started_at) in sorted(self._open.items()):
            self.violation(
                started_at,
                f"{protocol} wave {wave} started at t={started_at} but the "
                "run finished without ft.wave_completed or ft.wave_aborted — "
                "the wave hung",
            )
        self._open.clear()


class StorageDurabilityMonitor(Monitor):
    """Committed checkpoint waves stay restorable; fetches return what was
    sealed.

    The ledger mirrors the storage tier from its trace records: sealed
    replicas (``ft.replica_stored``), commits (``ft.commit``), garbage
    collection (``ft.wave_gc``), server deaths (``ft.failure`` with
    ``kind="server"``) and injected corruption (``ft.image_corrupted``).
    Against it the monitor checks:

    1. at every commit, each rank of the job has at least one sealed,
       intact replica of the committed wave on a live server;
    2. with replication ≥ 2, the *first* server death still leaves the
       newest committed wave fully covered (K-way replication must
       tolerate one loss);
    3. a successful fetch (``ft.fetch_ok``) comes from a live server, is
       not a corrupted copy, and returns the sealed checksum;
    4. ``ft.storage_unrecoverable`` is only declared when no committed
       wave is fully covered by live intact replicas;
    5. a restart (``ft.restarted``) restores a wave some server committed.

    Job-wide coverage checks (1, 2, 4) need the rank count, learned from
    ``runtime.validated``; without it (bare unit tests driving a server
    directly) they are skipped rather than guessed.
    """

    name = "storage-durability"
    protocols = PROTOCOLS.keys()

    def __init__(self) -> None:
        super().__init__()
        self._replication = 1
        #: rank count of the (single) validated job; None when unknown or
        #: when several jobs of different sizes share the simulator
        self._n_ranks: Optional[int] = None
        self._ambiguous = False
        #: (wave, rank) -> {server name: sealed checksum}
        self._replicas: Dict[Tuple[int, int], Dict[str, int]] = {}
        #: (server, wave, rank) replicas corrupted by injection
        self._corrupt: Set[Tuple[str, int, int]] = set()
        self._dead: Set[str] = set()
        #: wave -> servers that committed it (and still retain it)
        self._committed: Dict[int, Set[str]] = {}

    def _covered(self, wave: int, rank: int) -> bool:
        """Does some live server hold an intact sealed replica?"""
        for server in self._replicas.get((wave, rank), ()):
            if server in self._dead:
                continue
            if (server, wave, rank) in self._corrupt:
                continue
            return True
        return False

    @on("ft.replica_stored")
    def on_ft_replica_stored(self, time, server, rank, wave, checksum,
                             nbytes) -> None:
        self._replicas.setdefault((wave, rank), {})[server] = checksum
        # a fresh upload replaces any corrupted copy
        self._corrupt.discard((server, wave, rank))

    @on("ft.commit")
    def on_ft_commit(self, time, server, wave, ranks) -> None:
        self._committed.setdefault(wave, set()).add(server)
        if self._n_ranks is None:
            return
        for rank in range(self._n_ranks):
            if not self._covered(wave, rank):
                self.violation(
                    time,
                    f"wave {wave} committed but rank {rank} has no "
                    "sealed, intact replica on a live server — the "
                    "commit is not durable",
                )

    @on("ft.wave_gc")
    def on_ft_wave_gc(self, time, server, wave) -> None:
        servers = self._committed.get(wave)
        if servers is not None:
            servers.discard(server)
            if not servers:
                del self._committed[wave]
        for (w, rank) in [k for k in self._replicas if k[0] == wave]:
            self._replicas[(w, rank)].pop(server, None)
            if not self._replicas[(w, rank)]:
                del self._replicas[(w, rank)]
            self._corrupt.discard((server, w, rank))

    @on("ft.failure")
    def on_ft_failure(self, time, kind, rank=None, server=None,
                      node=None) -> None:
        if kind != "server":
            return
        self._dead.add(server)
        if (self._replication < 2 or len(self._dead) != 1
                or self._n_ranks is None or not self._committed):
            return
        newest = max(self._committed)
        for rank in range(self._n_ranks):
            if not self._covered(newest, rank):
                self.violation(
                    time,
                    f"first server death ({server}) lost "
                    f"rank {rank} of committed wave {newest} although "
                    f"replication is {self._replication} — K-way "
                    "replication must survive one server loss",
                )

    @on("ft.image_corrupted")
    def on_ft_image_corrupted(self, time, server, rank, wave) -> None:
        self._corrupt.add((server, wave, rank))

    @on("ft.fetch_ok")
    def on_ft_fetch_ok(self, time, rank, wave, server, checksum) -> None:
        if server in self._dead:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server}, a "
                "server that already died",
            )
        if (server, wave, rank) in self._corrupt:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server} whose "
                "replica was corrupted — the checksum verification "
                "accepted a bad copy",
            )
        sealed = self._replicas.get((wave, rank), {}).get(server)
        if sealed is None:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server} but "
                "that server never sealed such a replica (or it was "
                "garbage-collected)",
            )
        elif checksum != sealed:
            self.violation(
                time,
                f"rank {rank} fetched wave {wave} from {server} with "
                f"checksum {checksum} but the sealed "
                f"replica recorded {sealed}",
            )

    @on("ft.storage_unrecoverable")
    def on_ft_storage_unrecoverable(self, time, committed,
                                    incarnation) -> None:
        if self._n_ranks is None:
            return
        for wave in sorted(self._committed, reverse=True):
            if wave <= 0:
                continue
            if all(self._covered(wave, rank)
                   for rank in range(self._n_ranks)):
                self.violation(
                    time,
                    f"run declared storage-unrecoverable although "
                    f"committed wave {wave} is fully covered by live, "
                    "intact replicas — the fetch/fallback path gave up "
                    "too early",
                )
                return

    @on("ft.restarted")
    def on_ft_restarted(self, time, wave, incarnation) -> None:
        wave = wave or 0
        if wave > 0 and self._committed and wave not in self._committed:
            self.violation(
                time,
                f"restart restored wave {wave}, which no checkpoint "
                "server ever committed",
            )

    @on("ft.storage_config")
    def on_ft_storage_config(self, time, replication, n_servers, gc_keep,
                             fetch_rounds) -> None:
        self._replication = replication

    @on("runtime.validated")
    def on_runtime_validated(self, time, n_ranks, launcher, fd_limit=None,
                             sockets_per_process=None, reserved_fds=None,
                             max_processes=None) -> None:
        if n_ranks is None or self._ambiguous:
            return
        if self._n_ranks is None:
            self._n_ranks = n_ranks
        elif self._n_ranks != n_ranks:
            # several jobs of different sizes share this simulator —
            # job-wide coverage is no longer well-defined
            self._n_ranks = None
            self._ambiguous = True
