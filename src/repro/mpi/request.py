"""Non-blocking send requests: an ``isend`` is a send waited later.

``send`` and ``isend`` are one post
(:meth:`~repro.mpi.channels.base.BaseChannel.post`: numbered and started
there, so a send keeps its place among the rank's sends to that peer), and
:func:`wait_posted` is the one wait of both: a blocking send runs it at
once, an ``isend``'s :class:`Request` holds what the post returned and
runs it in ``wait()`` (a generator to use with ``yield from``).  What the
post returned is the transmit-complete event of a send that went out
inline, or the :class:`~repro.mpi.channels.base.SendChain` of one that
waits.  A send completes in the pop of its packet's transmit-complete
event, but for an ``isend`` that had to wait: its chain's ``done`` event
succeeds in that pop, so it completes one step later, where the process
the chain replaced ended.  (Completing it in the same pop moves what its
waiter does next ahead of the instant's other events and, through
same-instant ties, Vcl's daemon order on ch_v: the figures' Vcl times.)

One failure rule holds for both: a send that fails inside the post raises
``ConnectionError`` at the post, one that fails later raises it at the
wait, and the application wrapper reports the closure
(``MPIJob._app_wrapper``), as for a failed receive.

Op-id bookkeeping (see :mod:`repro.mpi.context`): the send commits when its
payload is enqueued on the connection, independent of when — or whether —
the application waits.  A request created during restart replay is born
complete: it holds nothing and ``wait()`` returns at once.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.mpi.channels.base import SendChain

__all__ = ["Request", "wait_posted"]


def wait_posted(posted: Union["Event", SendChain, None]):
    """Generator: wait until the send :meth:`BaseChannel.post` returned
    ``posted`` for is off the NIC.  A chain is waited on through each
    event it waits on, behind its callback; then its error is raised, or
    its transmit-complete event (an ``isend``'s: its ``done``) waited
    for.  None (a replayed send) returns at once."""
    if isinstance(posted, SendChain):
        while posted.waiting is not None:
            yield posted.waiting
        if posted.error is not None:
            raise posted.error
        # hold no chain while the bytes leave; an isend completes one step
        # after its packet left
        posted = posted.sent if posted.done is None else posted.done
    if posted is not None:
        yield posted


class Request:
    """Handle for an in-flight ``isend``: its packet is numbered and on
    its way (on the wire, or in its send chain's first wait) when the
    request is returned."""

    __slots__ = ("posted",)

    def __init__(self, posted: Union["Event", SendChain, None]) -> None:
        #: what the post returned; None for a replayed send
        self.posted: Optional[Union["Event", SendChain]] = posted

    def wait(self):
        """Generator: block until the send completes (see
        :func:`wait_posted`)."""
        return wait_posted(self.posted)
