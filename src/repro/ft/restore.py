"""Image restore: load the newest fully-restorable committed wave.

The self-contained half of a recovery, behind one call,
:meth:`ImageRestorer.restore`.  Orchestration (who is dead, where ranks are
placed, when to relaunch) lives in :mod:`repro.ft.recovery`; this module
only reads the run's current placement (``endpoints``, ``replica_map``),
which spare promotion and shrink rewrite between attempts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ft.image import CONTROL_BYTES, CheckpointImage
from repro.sim.trace import declare

__all__ = ["ImageRestorer", "StorageUnrecoverableError"]

#: the remote-fetch retry schedule.  A fetch sweeps the rank's replicas in
#: assignment order; after a full sweep fails, it backs off exponentially
#: (``BACKOFF_BASE * BACKOFF_FACTOR**round``) with multiplicative jitter
#: (``1 + JITTER * u``, ``u`` drawn from a dedicated named RNG stream), so
#: retry schedules are deterministic per seed and never synchronize across
#: ranks.  ``FETCH_ROUNDS`` sweeps total.
FETCH_ROUNDS = 3
BACKOFF_BASE = 0.05
BACKOFF_FACTOR = 2.0
JITTER = 0.25


declare("ft.wave_fallback", __name__, wave=int, incarnation=int)
declare("ft.storage_unrecoverable", __name__, committed=int, incarnation=int)
declare("ft.fetch_failed", __name__, rank=int, wave=int, replica=int,
        reason=str)
declare("ft.fetch_ok", __name__, rank=int, wave=int, server=str, checksum=int)
declare("ft.fetch_backoff", __name__, rank=int, wave=int, round=int,
        delay=float)


class StorageUnrecoverableError(RuntimeError):
    """No complete replica set of any committed wave survives.

    Raised by recovery when every restore candidate — the newest committed
    wave and every older retained one — is missing at least one rank's
    verifiable image on every surviving replica and on local disk.  The
    chaos runner classifies it as the ``storage-unrecoverable`` verdict;
    without it the run would wedge waiting for a fetch that can never
    complete.
    """


class ImageRestorer:
    """Fetches committed images back for one :class:`~repro.ft.recovery.FTRun`."""

    def __init__(self, run: "FTRun") -> None:
        self.run = run
        self.sim = run.sim

    def restore(self, committed: int, via_map=None):
        """Generator: load the newest fully-restorable committed wave.

        Returns ``(snapshots, logs, restored_wave)`` — all None/0 when
        nothing was ever committed.  Raises
        :class:`StorageUnrecoverableError` when every candidate wave is
        damaged beyond reconstruction.  ``via_map`` substitutes fetch
        endpoints per rank (shrink: a survivor streams a dead rank's image).
        """
        run = self.run
        snapshots: Optional[List] = None
        logs: Optional[Dict[int, list]] = None
        restored_wave = 0
        if committed > 0:
            images: Optional[List[CheckpointImage]] = None
            for candidate in self._restorable_candidates(committed):
                images = yield from self._fetch_wave(candidate, via_map=via_map)
                if images is not None:
                    restored_wave = candidate
                    break
                # Wave ``candidate`` is damaged beyond reconstruction —
                # fall back to the next-newest retained commit.
                run.stats.wave_fallbacks += 1
                self.sim.trace.record(self.sim.now, "ft.wave_fallback",
                                      wave=candidate,
                                      incarnation=run.incarnation)
            if images is None:
                self.sim.trace.record(self.sim.now, "ft.storage_unrecoverable",
                                      committed=committed,
                                      incarnation=run.incarnation)
                raise StorageUnrecoverableError(
                    f"{run.name}: no complete replica set of any committed "
                    f"wave <= {committed} survives")
            snapshots = [image.snapshot for image in images]
            logs = {
                rank: image.logged_messages
                for rank, image in enumerate(images)
                if image.logged_messages
            }
        return snapshots, logs, restored_wave

    def _restorable_candidates(self, committed: int) -> List[int]:
        """Committed waves worth a restore attempt, newest first.

        The newest commit is always tried; older retained commits (servers
        with ``gc_keep > 1`` keep them) and waves still present as local
        images are the fallbacks when the newest one is damaged.
        """
        candidates = {committed}
        for server in self.run.servers:
            if not server.node.alive:
                continue
            for wave in server.committed_waves:
                if 0 < wave <= committed and wave in server.storage:
                    candidates.add(wave)
        for wave in self.run.local_images.waves():
            if 0 < wave <= committed:
                candidates.add(wave)
        return sorted(candidates, reverse=True)

    def _fetch_wave(self, wave: int, via_map=None):
        """Generator: fetch every rank's image of ``wave``, concurrently.

        All-or-nothing: returns the image list, or None when any rank's
        image could not be recovered from any replica (the wave is not
        fully restorable and a consistent rollback to it is impossible).
        """
        via_map = via_map or {}
        fetchers = [
            self.sim.process(self._fetch_image(rank, wave,
                                               via=via_map.get(rank)),
                             name=f"{self.run.name}:fetch:r{rank}")
            for rank in range(len(self.run.endpoints))
        ]
        images = []
        for fetcher in fetchers:
            image = yield fetcher
            images.append(image)
        if any(image is None for image in images):
            return None
        return images

    def _note_fetch_failure(self, rank: int, wave: int, index: int,
                            reason: str) -> None:
        self.run.stats.fetch_retries += 1
        if self.sim.trace.wants("ft.fetch_failed"):
            self.sim.trace.record(self.sim.now, "ft.fetch_failed", rank=rank,
                                  wave=wave, replica=index, reason=reason)
        if self.sim.metrics is not None:
            self.sim.metrics.count("ft.fetch_failures", 1.0,
                                   rank=rank, reason=reason)

    def _fetch_image(self, rank: int, wave: int, via=None):
        """Generator: load ``rank``'s image of ``wave``, or None.

        Local disk first (same-machine restart); otherwise sweep the rank's
        replicas in assignment order, verifying the checksum of whatever
        comes back, with deterministic exponential backoff + jitter between
        sweeps (:data:`FETCH_ROUNDS` and the backoff constants).  Returns
        None once every sweep is exhausted or every replica is dead.
        ``via`` fetches through another machine's endpoint (shrink: a
        survivor pulls a dead rank's image).
        """
        run = self.run
        endpoint = run.endpoints[rank] if via is None else via
        image = run.local_images.get(endpoint.node.name, rank, wave)
        if image is not None:
            yield endpoint.node.disk.read(image.nbytes)
            self.sim.trace.count("ft.restore_local")
            return image
        replicas = run.replica_map[rank]
        rng = None
        for round_no in range(FETCH_ROUNDS):
            for index, server in enumerate(replicas):
                if not server.node.alive:
                    continue
                try:
                    connection = run.net.connect(endpoint, server.endpoint)
                except ConnectionError:
                    # the *fetching* side's machine is gone — a cascading
                    # kill landed mid-recovery; the caller re-places and
                    # retries instead of crashing the recovery process
                    self._note_fetch_failure(rank, wave, index, "connection")
                    continue
                server.serve_connection(connection.end_b)
                end = connection.end_a
                end.send(("fetch", rank, wave), nbytes=CONTROL_BYTES)
                try:
                    message = yield end.recv()
                except ConnectionError:
                    # replica died mid-fetch
                    self._note_fetch_failure(rank, wave, index, "connection")
                    continue
                connection.break_()
                _kind, image, status = message
                if image is not None and image.verify():
                    self.sim.trace.count("ft.restore_remote")
                    if self.sim.trace.wants("ft.fetch_ok"):
                        self.sim.trace.record(
                            self.sim.now, "ft.fetch_ok", rank=rank, wave=wave,
                            server=server.name, checksum=image.checksum)
                    return image
                self._note_fetch_failure(
                    rank, wave, index, status if image is None else "corrupt")
            if not any(server.node.alive for server in replicas):
                break  # nobody left to answer; backing off cannot help
            if round_no + 1 < FETCH_ROUNDS:
                if rng is None:
                    rng = self.sim.rng.stream(f"{run.name}.fetch.r{rank}")
                delay = (BACKOFF_BASE * BACKOFF_FACTOR ** round_no
                         * (1.0 + JITTER * float(rng.random())))
                if self.sim.trace.wants("ft.fetch_backoff"):
                    self.sim.trace.record(self.sim.now, "ft.fetch_backoff",
                                          rank=rank, wave=wave, round=round_no,
                                          delay=delay)
                if self.sim.metrics is not None:
                    self.sim.metrics.count("ft.fetch_backoff_rounds", 1.0,
                                           rank=rank)
                    self.sim.metrics.count("ft.fetch_backoff_seconds", delay,
                                           rank=rank)
                yield self.sim.timeout(delay)
        return None
