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

from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi import FtSockChannel, MPIJob, NemesisChannel
from repro.mpi.channels.base import HEADER_BYTES
from repro.mpi.consts import ANY_TAG
from repro.net import ClusterNetwork
from repro.net.connection import _INLINE_BYTES, _Pipe
from repro.net.topology import Endpoint
from repro.sim import Simulator
from repro.sim.process import Process

# the protocol monitors assume a protocol; these programs kill and flush at
# will, and the pop stream is compared directly
pytestmark = pytest.mark.unmonitored


class Recording:
    """Logs every ``handle_packet``, then runs the operation the packet
    carries, if any — from inside the receive path, like a protocol hook."""

    def handle_packet(self, packet):
        rig = self.sim.rig
        rig.log.append(("packet", self.sim.now, self.rank, packet.src,
                        packet.seq, self.down))
        super().handle_packet(packet)
        if packet.data[1] is not None:
            rig.do(packet.data[1])


class GeneratorRx:
    """The receiver as a process: one per attached end, parked on
    ``end.recv()``, interrupted at shutdown."""

    def _start_receiving(self, peer, end):
        self.__dict__.setdefault("_receivers", []).append(self.sim.process(
            self._receiver(peer, end), name=f"rx:r{self.rank}<-r{peer}"))

    def _receiver(self, peer, end):
        while True:
            try:
                packet = yield end.recv()
            except ConnectionError:
                if not self.down:
                    self.job.notify_socket_closed(self.rank, peer)
                return
            self.handle_packet(packet)

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

    class _NoHopPipe(_Pipe):
        __slots__ = ()

        def _hop(self, payload):
            self._handing = True
            self._hand_over(payload, self._rx_gen)

    def _start_receiving(self, peer, end):
        end._in.__class__ = self._NoHopPipe
        super()._start_receiving(peer, end)


def channel_classes(device):
    sink = type("SinkChannel", (Recording, device), {})
    reference = type("GeneratorRxChannel", (Recording, GeneratorRx, device), {})
    broken = type("SynchronousSinkChannel",
                  (Recording, SynchronousSink, device), {})
    return sink, reference, broken


class PopRecorder:
    """Sits in the watchdog slot (the per-pop hook that is handed the item)
    and on the step-listener list (the one that is handed the priority)."""

    def __init__(self) -> None:
        self.pops: List[list] = []

    def observe(self, sim, now, item) -> None:
        self.pops.append([now, None, type(item).__name__,
                          item.name or item.describe()])

    def listen(self, now, priority, seq) -> None:
        self.pops[-1][1] = priority


def is_receiver_bookkeeping(kind, label):
    return (label.startswith(("interrupt:rx:", "abandoned:"))
            or (kind == Process.__name__ and label.startswith("rx:")))


def comparable_pops(pops):
    """The pop stream with the process receiver's own bookkeeping erased:
    its interrupt and termination pops dropped, its bootstrap renamed to
    the start hop, its ``get`` to the hand-over hop it became."""
    stream = []
    for now, priority, kind, label in pops:
        if is_receiver_bookkeeping(kind, label):
            continue
        if label.startswith("init:rx:"):
            label = "rx:start"
        for spelling in ("get:inbox:", "call:_Pipe._hand_over "):
            if label.startswith(spelling):
                label = "hand-over:" + label[len(spelling):]
        stream.append((now, priority, label))
    return stream


TICK = 1e-4


def app(ctx):
    yield ctx.sim.event(name="parked")  # ranks only react: the rig drives


class Rig:
    """``n_ranks`` ranks two to a node plus a service node with one side
    connection per rank, read by a process that runs what it receives."""

    def __init__(self, channel_cls, n_ranks):
        self.recorder = PopRecorder()
        self.sim = sim = Simulator(seed=0, watchdog=self.recorder)
        sim.trace.step_listeners.append(self.recorder.listen)
        sim.rig = self
        self.log: List[tuple] = []
        self.channel_cls = channel_cls
        self.n_ranks = n_ranks
        self.net = ClusterNetwork(sim, n_nodes=(n_ranks + 1) // 2 + 1)
        #: every connection ever made, broken or not (the net forgets those)
        self.connections = []
        connect = self.net.connect
        self.net.connect = lambda a, b: (
            self.connections.append(connect(a, b)) or self.connections[-1])
        service = self.net.nodes[-1]
        service.service = True
        self.endpoints = self.net.place(n_ranks, procs_per_node=2)
        self.jobs: List[MPIJob] = []
        self.serial = 0
        self.adopting = False
        self._launch({})
        self.side = []
        for rank, endpoint in enumerate(self.endpoints):
            connection = self.net.connect(Endpoint(service, 0), endpoint)
            self.side.append(connection.end_a)
            sim.process(self._side_reader(connection.end_b),
                        name=f"side:r{rank}")

    @property
    def job(self):
        return self.jobs[-1]

    def _launch(self, links):
        job = MPIJob(self.sim, self.net, self.endpoints, app, self.channel_cls,
                     name=f"job{len(self.jobs)}", inherited_links=links)
        job.failure_listener = lambda rank, peer: self.log.append(
            ("closed", self.sim.now, job.name, rank, peer))
        self.jobs.append(job)
        self.adopting = False
        job.start()

    def _side_reader(self, end):
        while True:
            self.do((yield end.recv()))

    def _connection(self, a, b):
        end = self.job.channels[a].conns.get(b)
        return None if end is None else end.connection

    def do(self, op):
        verb, a, b = op[:3]
        channel = self.job.channels[a]
        if verb in ("send", "side"):
            self.serial += 1
            data = (self.serial, op[4])
        if verb == "send":
            if channel.down:
                return
            try:
                # an isend: inline when the way is clear, else a send chain
                # (a failure it meets is reported as a socket closure)
                channel.post(b, 0, data, op[3], defer=True)
            except ConnectionError:
                self.log.append(("send-refused", self.sim.now, data[0]))
        elif verb == "side":
            self.side[a].send(op[4], op[3] + HEADER_BYTES)
        elif verb == "recv":
            if not channel.down:
                channel.matching.post_recv(b, ANY_TAG).callbacks.append(
                    lambda event: self.log.append(
                        ("matched", self.sim.now, a, event._ok,
                         event._ok and event._value[0])))
        elif verb == "freeze":
            channel.freeze_source(b)
        elif verb == "thaw":
            channel.thaw_sources()
        elif verb == "flush":
            if self._connection(a, b) is not None:
                self._connection(a, b).flush()
        elif verb == "break":
            if self._connection(a, b) is not None:
                self._connection(a, b).break_()
        elif verb == "shutdown":
            channel.shutdown()
        elif verb == "reincarnate" and not self.adopting:
            # what FTRun's survivor policies do: rank ``a`` is lost, the
            # others' sockets outlive the incarnation
            job = self.job
            links = job.harvest_links(
                [rank for rank in range(self.n_ranks)
                 if rank != a and not job.channels[rank].down])
            job.kill()
            for end_lo, _end_hi in links.values():
                end_lo.connection.flush()
            self.adopting = True
            if b:
                self.sim.call_at(b * TICK, self._launch, links)
            else:
                self._launch(links)

    def state(self):
        def ids(packets):
            return [(p.src, p.seq) for p in packets]

        channels = [
            (job.name, c.rank, c.down, c._seq, ids(c.matching.unexpected),
             len(c.matching.posted), ids(c.delayed_queue),
             frozenset(c._frozen_sources),
             sorted(c.conns))
            for job in self.jobs for c in job.channels]
        pipes = [(p.name, p.broken, p.bytes_sent, p.messages_sent,
                  len(p.inbox), p.pumping)
                 for connection in self.connections
                 for p in connection.pipes]
        return channels, pipes


def run_program(channel_cls, n_ranks, program):
    """``program`` is a list of steps ``(tick, ops)``; one step is one
    engine callback (its ops run back to back), steps sharing a tick are
    separate callbacks at the same instant."""
    rig = Rig(channel_cls, n_ranks)

    def run_step(ops):
        for op in ops:
            rig.do(op)

    for tick, ops in program:
        rig.sim.call_at(tick * TICK, run_step, ops)
    rig.sim.run()
    return rig.log, rig.state(), comparable_pops(rig.recorder.pops), \
        rig.recorder.pops


# --------------------------------------------------------------- programs
MAX_RANKS = 5
#: payload sizes: inline (the last one lands exactly on the inline limit
#: once the envelope is added), just past it, and flow-sized; a small set,
#: so that equal sizes on symmetric paths — same-instant arrivals — are
#: common
SIZES = (0.0, 96.0, 992.0, _INLINE_BYTES - HEADER_BYTES,
         _INLINE_BYTES - HEADER_BYTES + 1.0, 6_000.0, 40_000.0)

_rank = st.integers(0, MAX_RANKS - 1)
_size = st.sampled_from(SIZES)
_gentle = st.one_of(
    st.tuples(st.sampled_from(["freeze", "recv", "flush"]), _rank, _rank),
    st.tuples(st.just("thaw"), _rank, st.just(0)),
)
_harsh = st.one_of(
    st.tuples(st.just("break"), _rank, _rank),
    st.tuples(st.just("shutdown"), _rank, st.just(0)),
    st.tuples(st.just("reincarnate"), _rank, st.integers(0, 2)),
)
_plain_send = st.tuples(st.just("send"), _rank, _rank, _size, st.none())
_carried = st.one_of(_gentle, _gentle, _harsh)
_ops = st.one_of(
    _plain_send, _plain_send, _plain_send, _gentle,
    st.tuples(st.just("send"), _rank, _rank, _size, _carried),
    st.tuples(st.just("side"), _rank, st.just(0), _size, _carried),
)
#: mostly traffic — a program that only tears down compares nothing — with
#: at most one direct teardown closing a step, in one step out of five
_steps = st.tuples(
    st.integers(0, 40), st.lists(_ops, min_size=1, max_size=6),
    st.one_of(*[st.just([])] * 4, st.lists(_harsh, min_size=1, max_size=1)),
).map(lambda step: (step[0], step[1] + step[2]))
_programs = st.lists(_steps, min_size=4, max_size=24).map(
    lambda steps: sorted(steps, key=lambda step: step[0]))


def fit(program, n_ranks):
    """Fold rank indices into ``n_ranks``.  An operation carried by a packet
    runs inside the receiver, so it must not kill the rank running it: a
    process that is interrupted while it runs and then yields is outside
    what the generator reference (or any process here) defines."""
    def fold(op, runs_on=None):
        if op is None:
            return None
        verb, a, b = op[0], op[1] % n_ranks, op[2]
        if verb in ("send", "freeze", "recv", "flush", "break"):
            b %= n_ranks
        if verb == "send":
            return (verb, a, b, op[3], fold(op[4], runs_on=b))
        if verb == "side":
            return (verb, a, b, op[3], fold(op[4]))
        if runs_on is not None:
            if verb == "reincarnate":
                verb, b = "shutdown", 0
            if verb == "shutdown" and a == runs_on:
                a = (a + 1) % n_ranks
        return (verb, a, b)

    return [(tick, [fold(op) for op in ops]) for tick, ops in program]


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
    sink, reference, _ = channel_classes(device)
    program = fit(program, n_ranks)
    log, state, pops, _ = run_program(sink, n_ranks, program)
    ref_log, ref_state, ref_pops, _ = run_program(reference, n_ranks, program)
    assert log == ref_log
    assert state == ref_state
    assert pops == ref_pops


def test_the_only_pops_removed_are_receiver_bookkeeping():
    sink, reference, _ = channel_classes(FtSockChannel)
    _, _, _, raw = run_program(sink, 5, KILL_BEFORE_HAND_OVER)
    _, _, _, ref_raw = run_program(reference, 5, KILL_BEFORE_HAND_OVER)
    bookkeeping = sum(is_receiver_bookkeeping(kind, label)
                      for _, _, kind, label in ref_raw)
    assert bookkeeping > 0
    assert len(ref_raw) - len(raw) == bookkeeping
    assert not any(is_receiver_bookkeeping(kind, label)
                   for _, _, kind, label in raw)
    # and the sink side really ran without a receive process
    assert not any(label.startswith(("init:rx:", "get:inbox:conn"))
                   and "side" not in label
                   for _, _, kind, label in raw
                   if kind == Process.__name__)


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
