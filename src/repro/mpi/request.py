"""Non-blocking communication requests.

A :class:`Request` wraps the completion of an ``isend``/``irecv``.
``wait()`` is a generator to use with ``yield from``; ``test()`` polls.

Op-id bookkeeping (see :mod:`repro.mpi.context`): the underlying operation
commits at its commit point (enqueue for sends, match for receives) via the
context, independent of when — or whether — the application waits.  A request
created during restart replay is born complete and ``wait()`` returns the
retained receive value (or :data:`~repro.mpi.context.SKIPPED`).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Request"]


class Request:
    """Handle for an in-flight non-blocking operation."""

    __slots__ = ("context", "event", "kind", "_replayed", "_stored", "_op_id")

    def __init__(self, context: "RankContext", event: Optional["Event"], kind: str,
                 replayed: bool = False) -> None:
        self.context = context
        self.event = event
        self.kind = kind
        self._replayed = replayed
        self._stored: Any = None
        self._op_id: Optional[int] = None

    @property
    def complete(self) -> bool:
        if self._replayed:
            return True
        return self.event is not None and self.event.processed

    def test(self) -> bool:
        """Non-blocking completion check.  No progress is driven here: the
        channel takes deliveries from the transport by callback and
        advances communication independently, like a progress thread."""
        return self.complete

    def wait(self):
        """Generator: block until complete.

        Returns ``(data, Status)`` for receives (``(SKIPPED, None)`` when the
        value predates the restored snapshot), ``None`` for sends.
        """
        from repro.mpi.context import SKIPPED  # local import to avoid a cycle

        if self._replayed:
            if self.kind == "recv":
                if self._stored is SKIPPED or self._stored is None:
                    return SKIPPED, None
                return self._stored
            return None
        value = yield self.event
        if self._op_id is not None:
            self.context._pending_values.pop(self._op_id, None)
        return value
