"""Executable naive spec for the ch_v daemon and the control fan-out.

ch_v's daemon is a single-server FIFO of hops (``ChVChannel.host_hop``): a
hop's completion is scheduled when it reaches the head of the queue, and a
connection end is read by callbacks on its ``get`` event.  The spec it
replaced — a capacity-1 ``Resource``, one receive process per connection
end, and a ``_host_cost`` generator that acquires the daemon, sleeps the
service time and releases it — lives on here as :class:`ProcessDaemon`
(with one fix: a waiter interrupted between its grant's push and pop gives
the daemon back, where the old code deadlocked it) and is raced against it
on random programs: an eager mesh of 3-5 ranks two to a node, application
sends (each one a daemon hop on the sending side) competing with
receives, same-instant arrivals on one end and across ends, equal sizes
(so equal service times), control fan-outs from a protocol endpoint, a
protocol ``detach()`` while the channel stays up, and
``shutdown()``, ``break_()`` and harvest -> kill -> flush -> adopt-into-a-
fresh-job at arbitrary instants, with the operation riding an application
packet (so it runs inside a daemon hop's completion) or a side connection.

Everything observable must agree (``tests/races.py`` runs the races): every
``handle_packet``, wire send, matched receive and
``channel.daemon_hop_seconds`` observation with its instant, the final
channel, daemon and pipe state, and the pop stream once :data:`RULES`
delete the spec's own bookkeeping and match each process bootstrap with
the start step that replaced it.

The second race holds the fan-out send chain (``BaseEndpoint._fan_out``
over :class:`repro.mpi.channels.base.SendChain`) to the helper process it
replaced (``_send_each``) on every device.  Either spec sends through the
process send path (``GeneratorSend``, shared with the send rig).

The negatives prove the rigs can tell the designs apart: a reader that
takes its next packet straight from the inbox, skipping the ``get`` pop,
reaches the daemon ahead of work queued earlier in the same instant; a
fan-out chain without its URGENT start step sends ahead of an application
send posted behind it; an ``isend`` that starts one URGENT step after its
post (``DeferredStart``) reaches the daemon behind the blocking send
posted after it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi import FtSockChannel, NemesisChannel
from repro.mpi.channels.base import HEADER_BYTES, SendChain
from repro.mpi.channels.ch_v import ChVChannel, _Reader
from repro.net.connection import _INLINE_BYTES
from repro.sim.primitives import Resource
from repro.sim.process import Process

from tests.races import (MAX_RANKS, TICK, ChainEndpoint, DeferredStart,
                         DeferredStartContext, GeneratorSend, JobRig,
                         ProcessRx, PusherContext, Rule, Rules,
                         SendEachEndpoint, drop, lone, pair, programs, race,
                         recording, rename)

# the protocol monitors assume a real protocol; these programs kill, detach
# and flush at will, and the pop stream is compared directly
pytestmark = pytest.mark.unmonitored


# ------------------------------------------------------------------ devices
class ProcessDaemon(ProcessRx):
    """The daemon as it was: a ``Resource``, one receive process per end
    that takes a daemon hop per packet, and ``_host_cost`` acquiring the
    daemon around a sleep.  (Its sleep is named after the daemon so the pop
    streams line up.)"""

    def __init__(self, job, rank):
        super().__init__(job, rank)
        self._daemon = Resource(self.sim, capacity=1, name=f"vdaemon:r{rank}")

    def _received(self, packet):
        return self._host_cost(
            self.recv_overhead(getattr(packet, "nbytes", HEADER_BYTES)))

    def _host_cost(self, seconds):
        metrics = self.sim.metrics
        start = self.sim.now if metrics is not None else 0.0
        grant = self._daemon.acquire()
        try:
            yield grant
            yield self.sim.timeout(seconds, name=self._daemon.name)
        finally:
            # The one line that differs from the daemon as it was: a waiter
            # interrupted after its grant was scheduled but before it popped
            # gives the daemon back (the old code kept it forever; see
            # test_the_old_daemon_deadlocks_where_the_spec_serves_on).
            if grant.triggered:
                self._daemon.release()
                if metrics is not None:
                    metrics.observe("channel.daemon_hop_seconds",
                                    self.sim.now - start, rank=self.rank)


class InboxReader:
    """Broken on purpose: a reader that takes its next packet straight from
    the inbox when one is waiting, skipping the ``get`` pop."""

    class _Eager(_Reader):
        __slots__ = ()

        def _take(self, _event=None):
            packet = None if self._stopped else self.end.try_recv()
            if packet is None:
                super()._take()
            else:
                self._submit(packet)

    def _start_receiving(self, peer, end):
        self._readers.append(self._Eager(self, peer, end))


# ---------------------------------------------------------------- endpoints
class NoStartEndpoint(ChainEndpoint):
    """Broken on purpose: the chain takes its first step inside
    ``_fan_out`` instead of one URGENT step later."""

    class _Synchronous(SendChain):
        __slots__ = ()

        def _defer(self):
            self._step()

    def _fan_out(self, dsts, packet_cls, wave):
        chain = self._Synchronous(
            self.channel, f"fan-out:rig:{packet_cls.__name__}:r{self.rank}",
            self._count_marker,
            ((dst, packet_cls(self.rank, wave)) for dst in dsts))
        self._helpers.append(chain)
        chain._defer()


# --------------------------------------------------------------------- rig
class ChVRig(JobRig):
    HOPS = True


HELPER = "rig:"

RULES = Rules(
    "ch_v",
    # the process daemon's and the helper processes' own pops
    drop("daemon grant", "acquire:vdaemon:"),
    drop("dead hop", "dead:vdaemon:"),
    drop("gone", "gone:"),
    drop("rx interrupt", "interrupt:rx:"),
    drop("helper interrupt", "interrupt:" + HELPER),
    drop("fan-out interrupt", "interrupt:fan-out:"),
    drop("isend interrupt", "interrupt:isend:"),
    drop("rx termination", "rx:", kind=Process.__name__),
    drop("helper termination", HELPER, kind=Process.__name__),
    # a bootstrap is the start step that replaced it
    Rule("rx bootstrap", lambda priority, kind, label:
         label.startswith("init:rx:"), lambda label: "rx:start"),
    # a handshake: its first asker names the chain
    Rule("handshake asker", lambda priority, kind, label:
         "-> fan-out:" + HELPER in label, lambda label: label.replace(
             "-> fan-out:" + HELPER, "-> " + HELPER)),
    rename("helper bootstrap", "init:" + HELPER, "start:" + HELPER),
    rename("fan-out start", "fan-out:" + HELPER, "start:" + HELPER),
)


def run_program(channel_cls, endpoint_cls, n_ranks, program, context=None):
    return ChVRig(n_ranks, channel_cls, endpoint_cls, context).run(
        program).outcome(RULES)


DAEMON = recording(ChVChannel)
PROCESS_DAEMON = recording(ChVChannel, ProcessDaemon, GeneratorSend)


def daemon_rigs(n_ranks):
    """The daemon race's (shipped, spec) rigs."""
    return (ChVRig(n_ranks, DAEMON, ChainEndpoint),
            ChVRig(n_ranks, PROCESS_DAEMON, SendEachEndpoint, PusherContext))


def fan_out_rigs(n_ranks, device):
    """The fan-out race's (shipped, spec) rigs."""
    return (ChVRig(n_ranks, recording(device), ChainEndpoint),
            ChVRig(n_ranks, recording(device, GeneratorSend),
                   SendEachEndpoint, PusherContext))


# --------------------------------------------------------------- programs
#: payload sizes: inline (the last one lands exactly on the inline limit
#: once the envelope is added), just past it, and flow-sized; a small set,
#: so that equal sizes — equal service times, and same-instant arrivals on
#: symmetric paths — are common
SIZES = (0.0, 96.0, 992.0, _INLINE_BYTES - HEADER_BYTES,
         _INLINE_BYTES - HEADER_BYTES + 1.0, 6_000.0, 40_000.0)

_programs = programs(SIZES, 60,
                     [pair("recv", "flush"), lone("fanout", "detach")],
                     extra=[lone("fanout")])


#: two packets for rank 1 reach it while its daemon serves its own send
#: and are handed over one hop apart; rank 0's fan-out is detached while
#: its first marker is in service, so the daemon moves straight on to the
#: application send queued behind it; a packet carries rank 0's shutdown
BURST_AND_DETACH = [
    (0, [("send", 3, 4, 0.0, None)]),
    (30, [("send", 0, 1, 96.0, None), ("send", 2, 1, 96.0, None)]),
    (31, [("send", 1, 0, 96.0, None), ("fanout", 0, 0),
          ("send", 0, 2, 992.0, None)]),
    (32, [("detach", 0, 0)]),
    (40, [("send", 1, 2, 96.0, ("shutdown", 0, 0)),
          ("send", 3, 2, 96.0, None)]),
]

#: once the mesh is up, rank 0 fans markers out; the helper's first grant
#: is scheduled (an URGENT bootstrap ran ahead of the tick) when the next
#: tick of the same instant detaches the protocol; a packet for rank 0
#: follows
DETACH_AT_GRANT = [
    (20, [("fanout", 0, 0)]),
    (20, [("detach", 0, 0)]),
    (30, [("send", 1, 0, 0.0, None)]),
]

#: rank 1's first packet to rank 0 carries a fan-out order for rank 0, and
#: its second is already waiting in the inbox when the first is handed
#: over: the fan-out's start step runs before the reader's next ``get``
#: pops, so its first marker reaches the daemon ahead of that packet
INBOX_WITNESS = [
    (0, [("send", 0, 0, 0.0, None)]),
    (0, [("fanout", 1, 0)]),
    (0, [("send", 0, 0, 0.0, None)]),
    (0, [("send", 1, 0, 0.0, ("fanout", 0, 0)), ("send", 1, 0, 0.0, None)]),
]

#: one step fans markers out of rank 0 and then queues a flow-sized message
#: to rank 1 on an idle, established link: the flow's pump kick was pushed
#: after the fan-out's start step but the marker is sent there, behind the
#: message already queued
FLOW_WITNESS = [
    (0, [("send", 0, 1, 0.0, None), ("send", 0, 2, 0.0, None)]),
    (20, [("fanout", 0, 0), ("send", 0, 1, 6_000.0, None)]),
]

#: ch_v: an application send posted after a fan-out in the same step
#: reaches the daemon first — it joins the daemon's queue at its post, the
#: fan-out one URGENT step later
DAEMON_WITNESS = [(20, [("fanout", 0, 0), ("send", 0, 1, 0.0, None)])]

#: once the mesh is up, rank 0's application posts an isend and then a
#: blocking send to rank 1: their hops queue at the daemon in that order
ISEND_THEN_SEND = [(20, [("isend_send", 0, 1, 96.0, None)])]


def witness_races():
    for program, n_ranks in [(BURST_AND_DETACH, 5), (INBOX_WITNESS, 3),
                             (DETACH_AT_GRANT, 3), (ISEND_THEN_SEND, 3)]:
        yield (*daemon_rigs(n_ranks), program)
    for program, n_ranks, device in [(BURST_AND_DETACH, 5, ChVChannel),
                                     (FLOW_WITNESS, 3, FtSockChannel),
                                     (DAEMON_WITNESS, 3, ChVChannel)]:
        yield (*fan_out_rigs(n_ranks, device), program)


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS))
@example(program=BURST_AND_DETACH, n_ranks=5)
@example(program=INBOX_WITNESS, n_ranks=3)
@example(program=DETACH_AT_GRANT, n_ranks=3)
@example(program=ISEND_THEN_SEND, n_ranks=3)
@settings(max_examples=150, deadline=None)
def test_daemon_equals_process_daemon(program, n_ranks):
    race(*daemon_rigs(n_ranks), program, RULES)


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS),
       device=st.sampled_from([FtSockChannel, NemesisChannel, ChVChannel]))
@example(program=BURST_AND_DETACH, n_ranks=5, device=ChVChannel)
@example(program=FLOW_WITNESS, n_ranks=3, device=FtSockChannel)
@example(program=DAEMON_WITNESS, n_ranks=3, device=ChVChannel)
@settings(max_examples=150, deadline=None)
def test_fan_out_chain_equals_send_each(program, n_ranks, device):
    race(*fan_out_rigs(n_ranks, device), program, RULES)


# ------------------------------------------------------- the one difference
class VerbatimHostCost:
    """``_host_cost`` exactly as the process daemon had it: a waiter
    interrupted after its grant was scheduled, before it popped, never
    releases the daemon."""

    def _host_cost(self, seconds):
        metrics = self.sim.metrics
        start = self.sim.now if metrics is not None else 0.0
        yield self._daemon.acquire()
        try:
            yield self.sim.timeout(seconds, name=self._daemon.name)
        finally:
            self._daemon.release()
            if metrics is not None:
                metrics.observe("channel.daemon_hop_seconds",
                                self.sim.now - start, rank=self.rank)


def test_the_old_daemon_deadlocks_where_the_spec_serves_on():
    log = race(*daemon_rigs(3), DETACH_AT_GRANT, RULES)
    assert [entry[2:5] for entry in log if entry[0] == "packet"] == [(0, 1, 1)]
    assert ("hop", 20 * TICK, 0, 0.0) in log  # the detached hop, at once

    old = recording(ChVChannel, VerbatimHostCost, ProcessDaemon,
                    GeneratorSend)
    old_log, (channels, *_), _, _ = run_program(
        old, SendEachEndpoint, 3, DETACH_AT_GRANT)
    assert not [entry for entry in old_log if entry[0] == "packet"]
    # the daemon is held by nobody, and the packet's hop waits behind it
    assert channels[0][-1] == (1, 1)


# ----------------------------------------------------------------- negatives
def first(log, kind, *key):
    return next(index for index, entry in enumerate(log)
                if entry[0] == kind and entry[2:2 + len(key)] == key)


def wire(log, what):
    return next(index for index, entry in enumerate(log)
                if entry[0] == "wire" and entry[3] == what)


def test_witnesses_reach_the_situations_they_name():
    log, _, _, _ = run_program(DAEMON, ChainEndpoint, 3, INBOX_WITNESS)
    assert wire(log, ("marker", 0, 2)) < first(log, "packet", 0, 1, 2)

    log, _, _, _ = run_program(recording(FtSockChannel), ChainEndpoint, 3,
                               FLOW_WITNESS)
    assert first(log, "packet", 1, 0, 3) < first(log, "control", 1, 0)

    log, _, _, _ = run_program(DAEMON, ChainEndpoint, 3, DAEMON_WITNESS)
    assert wire(log, ("app", 0, 1)) < wire(log, ("marker", 0, 1))


def test_a_reader_that_skips_the_get_pop_is_caught():
    """Handing the waiting packet straight to the daemon puts it ahead of
    the fan-out its predecessor started."""
    good = race(*daemon_rigs(3), INBOX_WITNESS, RULES)
    bad, _, _, _ = run_program(recording(ChVChannel, InboxReader),
                               ChainEndpoint, 3, INBOX_WITNESS)
    assert bad != good
    assert first(bad, "packet", 0, 1, 2) < wire(bad, ("marker", 0, 2))


@pytest.mark.parametrize("device, program, who_first", [
    (FtSockChannel, FLOW_WITNESS, "flow"),
    (NemesisChannel, FLOW_WITNESS, "flow"),
    (ChVChannel, DAEMON_WITNESS, "send"),
])
def test_a_chain_without_its_start_step_is_caught(device, program, who_first):
    good = race(*fan_out_rigs(3, device), program, RULES)
    bad, _, _, _ = run_program(recording(device), NoStartEndpoint, 3, program)
    assert bad != good
    if who_first == "flow":  # the marker overtakes the queued message
        assert first(bad, "control", 1, 0) < first(bad, "packet", 1, 0, 3)
    else:  # the marker takes the daemon first
        assert wire(bad, ("marker", 0, 1)) < wire(bad, ("app", 0, 1))


def done_order(log):
    """The isend's completion and the blocking send's return, in the order
    they happened (the isend carries serial 1, the send serial 2)."""
    return [entry[0] for entry in log if entry[0] == "isend-done"
            or entry[0] == "returned"]


def test_an_isend_that_starts_late_is_caught():
    """The start rule as it was: the isend takes the daemon one URGENT step
    after its post, behind the blocking send posted after it."""
    good = race(*daemon_rigs(3), ISEND_THEN_SEND, RULES)
    bad, _, _, _ = run_program(recording(ChVChannel, DeferredStart),
                               ChainEndpoint, 3, ISEND_THEN_SEND,
                               DeferredStartContext)
    assert bad != good
    assert done_order(good) == ["isend-done", "returned"]
    assert done_order(bad) == ["returned", "isend-done"]
