"""Executable naive spec for channel reception.

A channel takes deliveries by callback: it is the *sink* of every connection
end it attaches, and ``_Pipe`` hands each arrival over through one NORMAL
zero-delay hop (``_hop`` / ``_hand_over``).  The spec it replaced — one
generator :class:`~repro.sim.process.Process` per connection end, parked on
``end.recv()`` — lives on here as :class:`GeneratorRx` over the channel's
one ``_start_receiving`` hook, and is raced against the sink on random
programs: 3-5 ranks two to a node (shared NICs), inline- and flow-sized
sends, same-instant arrivals on one pipe and across pipes, and ``flush()``,
``break_()``, ``shutdown()`` and harvest -> kill -> flush -> adopt-into-a-
fresh-job at arbitrary instants.  An operation runs at a tick, or rides in
an application packet and runs when that packet is handled, or rides a
process-read side connection (how the protocols' ack loops and the Vcl
scheduler are reached) and runs when its reader wakes — which is how a kill
lands between an arrival and its hand-over, and a break inside a backlog.

Everything observable must agree: every ``handle_packet`` and every
``notify_socket_closed`` with its instant, every matched receive, the final
matching / freezing / pipe state, and the engine's pop stream as ``(time,
priority, label)`` once the reference's own bookkeeping — ``interrupt:rx``
wakeups and ``Process:rx`` terminations, the dead pops the sink exists to
remove — is deleted.

The negative proves the rig can tell receivers apart: a sink that handles
the packet inside ``_deliver``, skipping the hop, runs it ahead of a reader
process woken earlier in the same instant.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi import FtSockChannel, NemesisChannel
from repro.mpi.channels.base import HEADER_BYTES
from repro.net.connection import _INLINE_BYTES
from repro.sim.process import Process

from tests.races import (MAX_RANKS, JobRig, LoggingPipe, ProcessRx, Rule,
                         Rules, drop, ids, lone, normalise, pair, programs,
                         race, recording, rename)

# the protocol monitors assume a protocol; these programs kill and flush at
# will, and the pop stream is compared directly
pytestmark = pytest.mark.unmonitored


class GeneratorRx(ProcessRx):
    """The receiver as a process, whose interrupted ``get`` is told apart
    (the sink has none)."""

    def _stop_receiving(self):
        for receiver in self.__dict__.pop("_receivers", ()):
            parked = receiver._target
            receiver.interrupt("channel shut down")
            if parked is not None and not parked.triggered:
                # left behind in the inbox; a later poison() still fails it
                parked.name = f"abandoned:{parked.name}"


class SynchronousSink:
    """Broken on purpose: no hop, the packet is handled inside
    ``_deliver``."""

    class _NoHopPipe(LoggingPipe):
        __slots__ = ()

        def _hop(self, payload):
            self._handing = True
            self._hand_over(payload, self._rx_gen)

    def _start_receiving(self, peer, end):
        end._in.__class__ = self._NoHopPipe
        super()._start_receiving(peer, end)


def channel_classes(device):
    return (recording(device), recording(device, GeneratorRx),
            recording(device, SynchronousSink))


def rigs(n_ranks, device):
    """The (sink, generator receiver) rigs of ``device``."""
    return tuple(RxRig(n_ranks, channel)
                 for channel in channel_classes(device)[:2])


RULES = Rules(
    "receive",
    # the process receiver's own bookkeeping: the dead pops the sink exists
    # to remove
    drop("rx interrupt", "interrupt:rx:"),
    drop("abandoned get", "abandoned:"),
    drop("rx termination", "rx:", kind=Process.__name__),
    # its bootstrap is the start hop, its ``get`` the hand-over hop
    Rule("rx bootstrap", lambda priority, kind, label:
         label.startswith("init:rx:"), lambda label: "rx:start"),
    rename("inbox get", "get:inbox:", "hand-over:"),
    rename("hand-over call", "call:_Pipe._hand_over ", "hand-over:"),
)


class RxRig(JobRig):
    """Ranks with no protocol; a channel row also holds the delayed queue
    and the frozen sources."""

    ENDS = ()

    def do_freeze(self, a, b):
        self.job.channels[a].freeze_source(b)

    def do_thaw(self, a, _):
        self.job.channels[a].thaw_sources()

    def extra(self, c):
        return (ids(c.delayed_queue), frozenset(c._frozen_sources),
                sorted(c.conns))


# --------------------------------------------------------------- programs
#: payload sizes: inline (the last one lands exactly on the inline limit
#: once the envelope is added), just past it, and flow-sized; a small set,
#: so that equal sizes on symmetric paths — same-instant arrivals — are
#: common
SIZES = (0.0, 96.0, 992.0, _INLINE_BYTES - HEADER_BYTES,
         _INLINE_BYTES - HEADER_BYTES + 1.0, 6_000.0, 40_000.0)

_programs = programs(SIZES, 40,
                     [pair("freeze", "recv", "flush"), lone("thaw")])


#: ranks 0 and 2 share a NIC.  Rank 2's transfer is on it when rank 0's big
#: message starts (one competitor: a queueing penalty) and gone when the
#: small one behind it starts (none), so the FIFO guard lands both on one
#: instant: a same-instant burst on pipe 0->1.  The first of the two carries
#: a break of that connection, which so happens with the second still
#: waiting for its hop.
BREAK_IN_BACKLOG = [
    (0, [("send", 0, 1, 0.0, None), ("send", 2, 3, 0.0, None)]),
    (10, [("send", 2, 3, 6_000.0, None),
          ("send", 0, 1, 40_000.0, ("break", 1, 0)),
          ("send", 0, 1, 96.0, None)]),
    (30, [("send", 1, 0, 96.0, None)]),
]

#: two equal inline sends in one step on symmetric paths arrive in one
#: instant; the order riding the first (a side message, read by a process)
#: kills the rank the second was delivered to before its hand-over ran, or
#: harvests and re-adopts the connection under it
KILL_BEFORE_HAND_OVER = [
    (0, [("send", 1, 0, 0.0, None), ("send", 3, 1, 0.0, None)]),
    (10, [("side", 0, 0, 96.0, ("shutdown", 0, 0)),
          ("send", 1, 0, 96.0, None)]),
    (20, [("side", 1, 0, 96.0, ("reincarnate", 0, 0)),
          ("send", 3, 1, 96.0, None), ("send", 3, 1, 992.0, None)]),
    (30, [("send", 3, 1, 96.0, None), ("send", 1, 3, 6_000.0, None)]),
    (31, [("reincarnate", 2, 2), ("send", 1, 3, 0.0, None)]),
    (34, [("send", 1, 3, 96.0, ("thaw", 3, 0)), ("send", 4, 4, 96.0, None)]),
]

#: a "freeze source 1" order reaches rank 0 over its side connection in the
#: same instant as an application packet from rank 1, and was sent first
FREEZE_WITNESS = [
    (0, [("send", 1, 0, 0.0, None)]),
    (10, [("side", 0, 0, 96.0, ("freeze", 0, 1)),
          ("send", 1, 0, 96.0, None)]),
]


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS),
       device=st.sampled_from([FtSockChannel, NemesisChannel]))
@example(program=BREAK_IN_BACKLOG, n_ranks=4, device=FtSockChannel)
@example(program=KILL_BEFORE_HAND_OVER, n_ranks=5, device=FtSockChannel)
@example(program=FREEZE_WITNESS, n_ranks=3, device=NemesisChannel)
@settings(max_examples=150, deadline=None)
def test_sink_equals_generator_receiver(program, n_ranks, device):
    race(*rigs(n_ranks, device), program, RULES)


def test_the_only_pops_removed_are_receiver_bookkeeping():
    sink, reference, _ = channel_classes(FtSockChannel)
    _, _, _, raw = run_program(sink, 5, KILL_BEFORE_HAND_OVER)
    _, _, _, ref_raw = run_program(reference, 5, KILL_BEFORE_HAND_OVER)
    bookkeeping = len(ref_raw) - len(normalise(ref_raw, RULES)[0])
    assert bookkeeping > 0
    assert len(ref_raw) - len(raw) == bookkeeping
    assert len(normalise(raw, RULES)[0]) == len(raw)
    # and the sink side really ran without a receive process
    assert not any(label.startswith(("init:rx:", "get:inbox:conn"))
                   and "side" not in label
                   for _, _, kind, label in raw
                   if kind == Process.__name__)


def run_program(channel_cls, n_ranks, program):
    return RxRig(n_ranks, channel_cls).run(program).outcome(RULES)


def witness_races():
    for program, n_ranks, device in [(BREAK_IN_BACKLOG, 4, FtSockChannel),
                                     (KILL_BEFORE_HAND_OVER, 5, FtSockChannel),
                                     (FREEZE_WITNESS, 3, NemesisChannel)]:
        yield (*rigs(n_ranks, device), program)


def packets(log):
    return [entry for entry in log if entry[0] == "packet"]


def test_witnesses_reach_the_situations_they_name():
    sink, _, _ = channel_classes(FtSockChannel)
    log, state, _, _ = run_program(sink, 4, BREAK_IN_BACKLOG)
    burst = [entry for entry in packets(log) if entry[2:4] == (1, 0)][1:]
    assert len(burst) == 2 and burst[0][1] == burst[1][1]  # one instant
    closed = [entry for entry in log if entry[0] == "closed"]
    # both still handed over, then the closure, all in that instant
    assert [entry[1] for entry in closed] == [burst[0][1]] * 2
    assert sorted(entry[3:] for entry in closed) == [(0, 1), (1, 0)]

    log, _, _, _ = run_program(sink, 5, KILL_BEFORE_HAND_OVER)
    seen = [(entry[2], entry[3], entry[4]) for entry in packets(log)]
    # tick 10: delivered to rank 0, whose shutdown came first: never handled
    assert (0, 1, 2) not in seen
    # tick 20: delivered to job0's rank 1, harvested before its hand-over
    # and flushed: not handled by job0, not inherited by job1
    assert (1, 3, 2) not in seen and (1, 3, 3) not in seen
    # tick 30: the adopted 3<->1 link carries job1's first message (job0's
    # first, then job1's; sequence numbers restart with the job) ...
    assert [key for key in seen if key[:2] == (1, 3)] == [(1, 3, 1), (1, 3, 1)]
    # ... its 6 kB reply is on the wire when the link is harvested again and
    # flushed; adopted a second time, the link carries job2's first message
    assert [key for key in seen if key[:2] == (3, 1)] == [(3, 1, 1)]
    assert (4, 4, 1) in seen  # a self-connection's two ends both receive


def test_synchronous_hand_over_is_caught():
    """Without the hop the application packet is matched before the reader
    of the order that arrived first has woken: it escapes the freeze."""
    sink, reference, broken = channel_classes(FtSockChannel)
    good = run_program(sink, 3, FREEZE_WITNESS)
    bad = run_program(broken, 3, FREEZE_WITNESS)
    assert good[:3] == run_program(reference, 3, FREEZE_WITNESS)[:3]
    assert bad[:3] != good[:3]

    def rank0(state):
        return next(row for row in state[0] if row[1] == 0)

    # (job, rank, down, seq, unexpected, posted, delayed, frozen, conns)
    assert rank0(good[1])[4:8] == ([(1, 1)], 0, [(1, 2)], frozenset({1}))
    assert rank0(bad[1])[4:8] == ([(1, 1), (1, 2)], 0, [], frozenset({1}))
