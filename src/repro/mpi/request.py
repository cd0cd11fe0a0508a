"""Non-blocking send requests.

A :class:`Request` wraps the completion of an ``isend``; ``wait()`` is a
generator to use with ``yield from``.

Op-id bookkeeping (see :mod:`repro.mpi.context`): the send commits when its
payload is enqueued on the connection, independent of when — or whether —
the application waits.  A request created during restart replay is born
complete: it has no event and ``wait()`` returns at once.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Request"]


class Request:
    """Handle for an in-flight ``isend``."""

    __slots__ = ("event",)

    def __init__(self, event: Optional["Event"]) -> None:
        #: fires when the payload has left; None for a replayed send
        self.event = event

    def wait(self):
        """Generator: block until the send completes."""
        if self.event is not None:
            yield self.event
