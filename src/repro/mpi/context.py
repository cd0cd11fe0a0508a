"""Per-rank MPI execution context with restartable-operation semantics.

The central difficulty of reproducing *process* checkpointing in a simulator
is that Python generators cannot be snapshotted.  Instead, every MPI-visible
operation an application performs (send, recv, compute, state update, and the
point-to-point constituents of collectives) is assigned an **operation id in
program order** at initiation and marked **completed** at its commit point:

========  ==========================================================
op        commit point
========  ==========================================================
send      payload enqueued on the connection (bytes will arrive or be
          captured by the wave's channel state — see DESIGN.md)
recv      message matched to the posted receive (value retained until
          the application consumes it)
compute   the modelled compute delay elapsed
update    immediately (synchronous mutation of the snapshot state)
========  ==========================================================

A checkpoint snapshot records the completed-op set, the application state
dict, the values of completed-but-unconsumed receives, and the matching
engine's unexpected queue.  On rollback, the application generator is simply
re-created and re-executed: operations in the completed set are *skipped*
(sends are not re-sent, receives return their retained value or
:data:`SKIPPED`), so execution fast-forwards to the exact logical point of
the snapshot.  Because the coordinated checkpointing protocols guarantee a
consistent cut at this operation granularity, replay composes correctly
across ranks.

Applications that carry data across a rollback must keep it in ``ctx.state``
via :meth:`RankContext.update` — mutations of plain local variables are
re-executed on replay with :data:`SKIPPED` receive values.

**Determinism rule**: operation *initiation* must be unconditional with
respect to replay-visible values.  Never write
``if x is not SKIPPED: ctx.update(...)`` — that desynchronizes the replayed
op stream from the original.  Call the op unconditionally; ops skip
themselves during replay, and a skipped ``update`` never executes its
function, so SKIPPED values cannot corrupt state.  (Replayed values that feed
a *live* op cannot be SKIPPED: a receive's retained value survives in the
snapshot exactly until the op consuming it has itself committed.)
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from repro.mpi import collectives as _collectives
from repro.mpi.consts import ANY_SOURCE, ANY_TAG, COLLECTIVE_TAG_BASE
from repro.mpi.request import Request
from repro.sim.primitives import EMPTY

__all__ = ["RankContext", "Snapshot", "SKIPPED", "CompletedSet"]


class _Skipped:
    """Sentinel returned by operations skipped during restart replay."""

    _instance: Optional["_Skipped"] = None

    def __new__(cls) -> "_Skipped":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<SKIPPED>"

    def __bool__(self) -> bool:
        return False


SKIPPED = _Skipped()


class CompletedSet:
    """A set of op ids compacted as (watermark, sparse extras).

    All ids below ``watermark`` are complete.  Completion is almost always in
    program order, so ``extras`` stays tiny (an ``isend`` that commits after
    a later op).
    """

    __slots__ = ("watermark", "extras")

    def __init__(self, watermark: int = 0,
                 extras: Union[Tuple[()], Set[int]] = EMPTY) -> None:
        self.watermark = watermark
        #: a set on demand (one per rank, copied per snapshot, almost
        #: always empty)
        self.extras: Union[Tuple[()], Set[int]] = (
            set(extras) if extras else EMPTY)

    def add(self, op_id: int) -> None:
        if op_id == self.watermark:
            self.watermark += 1
            while self.watermark in self.extras:
                self.extras.discard(self.watermark)
                self.watermark += 1
        elif op_id > self.watermark:
            if self.extras is EMPTY:
                self.extras = {op_id}
            else:
                self.extras.add(op_id)
        # op_id < watermark: already recorded; idempotent

    def __contains__(self, op_id: int) -> bool:
        return op_id < self.watermark or op_id in self.extras

    def __len__(self) -> int:
        return self.watermark + len(self.extras)

    def copy(self) -> "CompletedSet":
        return CompletedSet(self.watermark, self.extras)


class Snapshot:
    """A rank's checkpointable state at one instant."""

    __slots__ = (
        "rank",
        "wave",
        "time",
        "completed",
        "state",
        "pending_values",
        "unexpected",
        "image_bytes",
    )

    def __init__(self, rank, wave, time, completed, state, pending_values,
                 unexpected, image_bytes) -> None:
        self.rank = rank
        self.wave = wave
        self.time = time
        self.completed = completed
        self.state = state
        self.pending_values = pending_values
        self.unexpected = unexpected
        self.image_bytes = image_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Snapshot rank={self.rank} wave={self.wave} "
            f"t={self.time:.3f} ops={len(self.completed)}>"
        )


class RankContext:
    """The MPI library as one application process sees it."""

    def __init__(
        self,
        job: "MPIJob",
        rank: int,
        size: int,
        channel: "BaseChannel",
        image_bytes: float = 0.0,
    ) -> None:
        self.job = job
        self.sim = job.sim
        self.rank = rank
        self.size = size
        self.channel = channel
        #: application-visible checkpointed state (mutate via :meth:`update`)
        self.state: Dict[str, Any] = {}
        #: process image size excluding channel state (set by the app model)
        self.image_bytes = image_bytes
        self._next_op = 0
        self._completed = CompletedSet()
        self._pending_values: Dict[int, Any] = {}
        self._coll_seq = 0
        self._pending_stall = 0.0

    # ----------------------------------------------------------- op plumbing
    def _new_op(self) -> int:
        op_id = self._next_op
        self._next_op += 1
        return op_id

    def _skip(self, op_id: int) -> bool:
        return op_id in self._completed

    def _commit(self, op_id: int, value: Any = None, retain: bool = False) -> None:
        self._completed.add(op_id)
        if retain:
            self._pending_values[op_id] = value

    def _consume(self, op_id: int) -> Any:
        return self._pending_values.pop(op_id, SKIPPED)

    # ------------------------------------------------------------- compute
    def add_stall(self, seconds: float) -> None:
        """Charge a process-wide pause (e.g. the checkpoint fork) against
        the next compute phase — the cheapest faithful way to suspend a
        generator-based process that may be mid-timeout."""
        self._pending_stall += seconds

    def compute(self, seconds: float):
        """Model ``seconds`` of local computation (generator)."""
        op_id = self._new_op()
        if self._skip(op_id):
            return SKIPPED
        stall, self._pending_stall = self._pending_stall, 0.0
        if seconds + stall > 0:
            yield self.sim.timeout(seconds + stall)
        self._commit(op_id)
        return None

    def update(self, fn: Callable[[Dict[str, Any]], Any]) -> Any:
        """Atomically mutate the checkpointed state; returns ``fn``'s result.

        Skipped on replay (its effect is already in the restored state).
        """
        op_id = self._new_op()
        if self._skip(op_id):
            return SKIPPED
        result = fn(self.state)
        self._commit(op_id)
        return result

    # ---------------------------------------------------------------- sends
    def send(self, dst: int, tag: int = 0, data: Any = None, nbytes: float = 0.0):
        """Blocking send (generator): returns after the payload left the NIC.

        The op commits when the payload is accepted by the connection, i.e.
        earlier than the return — see the module docstring for why this is
        the correct cut point.
        """
        op_id = self._new_op()
        if self._skip(op_id):
            return SKIPPED
        sent = self.channel.try_fast_send(dst, tag, data, nbytes)
        if sent is None:
            sent = yield from self.channel.post_send(dst, tag, data, nbytes)
        self._commit(op_id)
        yield sent
        return None

    def isend(self, dst: int, tag: int = 0, data: Any = None, nbytes: float = 0.0) -> Request:
        """Non-blocking send; ``yield from req.wait()`` for completion."""
        op_id = self._new_op()
        if self._skip(op_id):
            return Request(None)
        sent = self.channel.try_fast_send(dst, tag, data, nbytes)
        if sent is not None:
            self._commit(op_id)
            return Request(sent)

        def _pusher():
            try:
                slow_sent = yield from self.channel.post_send(dst, tag, data, nbytes)
                self._commit(op_id)
                yield slow_sent
            except ConnectionError:
                # The pipe broke mid-send (peer death).  A blocking send
                # surfaces this in the app generator, which the job parks;
                # the pusher has no waiter to throw into, so report the
                # closure the way channel receivers do and let recovery
                # roll the op back.
                if not self.channel.down:
                    self.channel.job.notify_socket_closed(self.rank, dst)

        proc = self.sim.process(_pusher(), name=f"isend:r{self.rank}->r{dst}")
        return Request(proc)

    # ------------------------------------------------------------- receives
    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator): returns the payload data."""
        data, _status = yield from self.recv_status(source, tag)
        return data

    def recv_status(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive returning ``(data, Status)``."""
        op_id = self._new_op()
        if self._skip(op_id):
            value = self._consume(op_id)
            if value is SKIPPED:
                return SKIPPED, None
            return value
        event = self.channel.matching.post_recv(source, tag)
        event.callbacks.append(
            lambda ev: self._commit(op_id, ev.value, retain=True) if ev.ok else None
        )
        value = yield event
        self._pending_values.pop(op_id, None)
        return value

    # ----------------------------------------------------------- collectives
    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return COLLECTIVE_TAG_BASE + self._coll_seq

    def bcast(self, value: Any, root: int = 0, nbytes: float = 0.0):
        return _collectives.bcast(self, value, root, nbytes)

    def reduce(self, value: Any, op: Callable[[Any, Any], Any], root: int = 0,
               nbytes: float = 0.0):
        return _collectives.reduce(self, value, op, root, nbytes)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any], nbytes: float = 0.0):
        return _collectives.allreduce(self, value, op, nbytes)

    # -------------------------------------------------------------- snapshot
    def take_snapshot(self, wave: int) -> Snapshot:
        """Capture this rank's checkpointable state (synchronous).

        Called by the checkpoint protocol at the local-checkpoint instant.
        The image size models a BLCR-style full-process dump: the application
        memory plus the runtime's buffered channel state.
        """
        unexpected = self.channel.matching.snapshot()
        buffered_bytes = sum(p.nbytes for p in unexpected)
        return Snapshot(
            rank=self.rank,
            wave=wave,
            time=self.sim.now,
            completed=self._completed.copy(),
            state=copy.deepcopy(self.state),
            pending_values=copy.deepcopy(self._pending_values),
            unexpected=unexpected,
            image_bytes=self.image_bytes + buffered_bytes,
        )

    def restore_snapshot(self, snapshot: Snapshot) -> None:
        """Load a snapshot into a *fresh* context before the app restarts."""
        if self._next_op != 0:
            raise RuntimeError("restore_snapshot on a used context")
        self._completed = snapshot.completed.copy()
        self.state = copy.deepcopy(snapshot.state)
        self._pending_values = dict(snapshot.pending_values)
        self.channel.matching.restore(list(snapshot.unexpected))
