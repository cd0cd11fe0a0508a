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
          captured by the wave's channel state — see DESIGN.md): a send
          that can go out at once commits in the context right after
          ``end.send`` took it, inside
          :meth:`~repro.mpi.channels.base.BaseChannel.post`'s return; a
          send that has to wait commits in the step of its send chain
          that hands it over, after whatever gate, link or daemon hop it
          waited for
recv      message matched to the posted receive: the pop of the receive's
          event, which resumes the application (commit and consume are
          one step)
compute   the modelled compute delay elapsed
update    immediately (synchronous mutation of the snapshot state)
========  ==========================================================

Both sends make the same call,
:meth:`~repro.mpi.channels.base.BaseChannel.post`; a send that has to wait
is a send chain there, an ``isend`` owns no process, and a send of a rank
that dies dies with it (the op is simply not completed, so the restart
re-sends it).

A checkpoint snapshot records the completed-op set, the application state
dict and the matching engine's unexpected queue.  On rollback, the
application generator is simply re-created and re-executed: operations in
the completed set are *skipped* (sends are not re-sent, receives return
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
function, so SKIPPED values cannot corrupt state.
"""

from __future__ import annotations

import copy
from functools import partial
from typing import Any, Callable, Dict, Optional, Set, Tuple, Union

from repro.mpi import collectives as _collectives
from repro.mpi.channels.base import SendChain
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
        "unexpected",
        "image_bytes",
    )

    def __init__(self, rank, wave, time, completed, state, unexpected,
                 image_bytes) -> None:
        self.rank = rank
        self.wave = wave
        self.time = time
        self.completed = completed
        self.state = state
        self.unexpected = unexpected
        self.image_bytes = image_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Snapshot rank={self.rank} wave={self.wave} "
            f"t={self.time:.3f} ops={len(self.completed)}>"
        )


class RankContext:
    """The MPI library as one application process sees it."""

    __slots__ = ("job", "sim", "rank", "size", "channel", "state",
                 "image_bytes", "_next_op", "_completed", "_coll_seq",
                 "_pending_stall")

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
        self._coll_seq = 0
        self._pending_stall = 0.0

    #: its application process is named ``<job>:r<rank>``, derived when read
    event_name = property(lambda self: f"{self.job.name}:r{self.rank}")

    # ----------------------------------------------------------- op plumbing
    def _begin(self) -> Optional[int]:
        """Number the next operation in program order: its op id, or None
        when replay skips it (it completed before the snapshot this
        context was restored from)."""
        op_id = self._next_op
        self._next_op = op_id + 1
        if op_id in self._completed:
            return None
        return op_id

    def _commit(self, op_id: int) -> None:
        self._completed.add(op_id)

    # ------------------------------------------------------------- compute
    def add_stall(self, seconds: float) -> None:
        """Charge a process-wide pause (e.g. the checkpoint fork) against
        the next compute phase — the cheapest faithful way to suspend a
        generator-based process that may be mid-timeout."""
        self._pending_stall += seconds

    def compute(self, seconds: float):
        """Model ``seconds`` of local computation (generator)."""
        op_id = self._begin()
        if op_id is None:
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
        op_id = self._begin()
        if op_id is None:
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
        op_id = self._begin()
        if op_id is None:
            return SKIPPED
        sent = self.channel.post(dst, tag, data, nbytes)
        if isinstance(sent, SendChain):
            # It waits (post returns a chain only then): wait on whatever
            # the chain waits on, behind its callback, so this process goes
            # on in the pop where the send commits or fails.
            chain, sent = sent, None
            chain.on_commit = partial(self._sent, op_id)
            while chain.waiting is not None:
                yield chain.waiting
            if chain.error is not None:
                raise chain.error
            # hold no chain while the bytes leave
            sent, chain = chain.sent, None
        else:
            self._commit(op_id)  # it is on the connection
        yield sent
        return None

    def isend(self, dst: int, tag: int = 0, data: Any = None, nbytes: float = 0.0) -> Request:
        """Non-blocking send; ``yield from req.wait()`` for completion."""
        op_id = self._begin()
        if op_id is None:
            return Request(None)
        sent = self.channel.post(dst, tag, data, nbytes, defer=True)
        if isinstance(sent, SendChain):
            sent.on_commit = partial(self._sent, op_id)
            return Request(sent.done)
        self._commit(op_id)  # it is on the connection
        return Request(sent)

    def _sent(self, op_id: int, _dst: int, _packet: "AppPacket") -> None:
        """A chained send's commit point: its payload is on the
        connection."""
        self._completed.add(op_id)

    # ------------------------------------------------------------- receives
    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator): returns the payload data."""
        op_id = self._begin()
        if op_id is None:
            return SKIPPED
        data = yield self.channel.matching.post_recv(source, tag)
        # The receive commits when its event is popped; this process is the
        # event's one callback, so it commits and consumes in that pop.
        self._commit(op_id)
        return data

    # ----------------------------------------------------------- collectives
    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return COLLECTIVE_TAG_BASE + self._coll_seq

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
            unexpected=unexpected,
            image_bytes=self.image_bytes + buffered_bytes,
        )

    def restore_snapshot(self, snapshot: Snapshot) -> None:
        """Load a snapshot into a *fresh* context before the app restarts."""
        if self._next_op != 0:
            raise RuntimeError("restore_snapshot on a used context")
        self._completed = snapshot.completed.copy()
        self.state = copy.deepcopy(snapshot.state)
        self.channel.matching.restore(list(snapshot.unexpected))
