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
sends (each one a daemon hop on the sending side) competing with receives, same-instant arrivals on one end and across ends,
equal sizes (so equal service times), control fan-outs from a protocol
endpoint, a protocol ``detach()`` while the channel stays up, and
``shutdown()``, ``break_()`` and harvest -> kill -> flush -> adopt-into-a-
fresh-job at arbitrary instants, with the operation riding an application
packet (so it runs inside a daemon hop's completion) or a side connection.

Everything observable must agree: every ``handle_packet`` with its instant,
every wire send with its instant, every matched receive, every
``channel.daemon_hop_seconds`` observation, the final channel, daemon and
pipe state, and the engine's pop stream as ``(time, priority, label)``.
In the pop stream the spec's own bookkeeping is deleted: its grant pops,
its processes' terminations and interrupt wakeups, and daemon completions
whose waiter left (they run nothing).  A process's bootstrap is matched
with the start step that replaced it.

The second race holds the fan-out send chain (``BaseEndpoint._fan_out``
over :class:`repro.mpi.channels.base.SendChain`) to the helper process it
replaced (``_send_each``) on every device.  Either spec sends through the
process send path of ``tests/mpi/test_send_reference.py`` (pushers, the
generator send family, sends that die with their rank): a pusher's boot
and termination match a chain's start step and ``done``, and the pops a
send of a rank that is already down still spends — a pusher's
termination, a fan-out helper's boot — are deleted from both streams.

The negatives prove the rigs can tell the designs apart: a reader that
takes its next packet straight from the inbox, skipping the ``get`` pop,
reaches the daemon ahead of work queued earlier in the same instant; a
chain without its URGENT start step sends ahead of it.
"""

from typing import List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ft.protocol import BaseEndpoint, FTStats
from repro.mpi import FtSockChannel, MPIJob, NemesisChannel
from repro.mpi.channels.base import HEADER_BYTES, SendChain
from repro.mpi.channels.ch_v import ChVChannel, _Reader
from repro.mpi.consts import ANY_TAG
from repro.mpi.message import AppPacket, MarkerPacket
from repro.net import ClusterNetwork
from repro.net.connection import _INLINE_BYTES, _Pipe
from repro.net.topology import Endpoint
from repro.sim import Simulator, Watchdog
from repro.sim.events import URGENT
from repro.sim.primitives import Resource
from repro.sim.process import Process

from tests.mpi.test_send_reference import GeneratorSend, SendEachEndpoint

# the protocol monitors assume a real protocol; these programs kill, detach
# and flush at will, and the pop stream is compared directly
pytestmark = pytest.mark.unmonitored


# ------------------------------------------------------------------ devices
class Recording:
    """Logs every ``handle_packet``, then runs the operation an application
    packet carries, if any — from inside the receive path."""

    def handle_packet(self, packet):
        rig = self.sim.rig
        if isinstance(packet, AppPacket):
            rig.log.append(("packet", self.sim.now, self.rank, packet.src,
                            packet.seq, self.down))
        else:
            rig.log.append(("control", self.sim.now, self.rank, packet.src,
                            packet.wave, self.down))
        super().handle_packet(packet)
        if isinstance(packet, AppPacket) and packet.data[1] is not None:
            rig.do(packet.data[1])


class ProcessDaemon:
    """The daemon as it was: a ``Resource``, one receive process per end,
    and ``_host_cost`` acquiring the daemon around a sleep.  (Its sleep is
    named after the daemon so the pop streams line up.)"""

    def __init__(self, job, rank):
        super().__init__(job, rank)
        self._daemon = Resource(self.sim, capacity=1, name=f"vdaemon:r{rank}")
        self._receivers: List[Process] = []

    def _start_receiving(self, peer, end):
        self._receivers.append(self.sim.process(
            self._receiver(peer, end), name=f"rx:r{self.rank}<-r{peer}"))

    def _receiver(self, peer, end):
        while True:
            try:
                packet = yield end.recv()
            except ConnectionError:
                self.socket_closed(peer)
                return
            yield from self._host_cost(
                self.recv_overhead(getattr(packet, "nbytes", HEADER_BYTES)))
            self.handle_packet(packet)

    def _stop_receiving(self):
        for receiver in self._receivers:
            receiver.interrupt("channel shut down")
        self._receivers.clear()

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


def daemon_state(channel):
    """(busy, hops still waited for in its queue), whichever design runs
    the daemon."""
    daemon = getattr(channel, "_daemon", None)
    if daemon is not None:
        return daemon.in_use, sum(1 for waiter in daemon._waiters
                                  if waiter.callbacks)
    if not isinstance(channel, ChVChannel):
        return None
    return (int(channel._serving is not None),
            sum(1 for queued in channel._queue if len(queued[0].callbacks) > 1))


# ---------------------------------------------------------------- endpoints
class RigProtocol:
    """What ``BaseEndpoint`` needs of a protocol: no servers, a name, the
    stats it counts markers in."""

    protocol_name = "rig"

    def __init__(self, job):
        self.job = job
        self.sim = job.sim
        self.stats = FTStats()
        self.replica_map = {rank: [] for rank in range(job.size)}


class ChainEndpoint(BaseEndpoint):
    """The endpoint as shipped: ``_fan_out`` chains callbacks."""

    def on_control(self, packet):
        pass  # logged by the channel


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


# --------------------------------------------------------------- recording
class LoggingPipe(_Pipe):
    """Logs every send with its instant before queueing it."""

    __slots__ = ()

    def send(self, payload, nbytes, extra_latency=0.0, notify=True):
        if isinstance(payload, AppPacket):
            what = ("app", payload.src, payload.seq)
        elif isinstance(payload, MarkerPacket):
            what = ("marker", payload.src, payload.wave)
        else:
            what = ("side",)
        self.sim.rig.log.append(("wire", self.sim.now, self.name, what,
                                 nbytes, extra_latency, notify))
        return super().send(payload, nbytes, extra_latency, notify)


class HopMetrics:
    """A metrics registry that keeps only the daemon hop observations."""

    def __init__(self, sim):
        self.sim = sim

    def observe(self, name, value, **labels):
        if name == "channel.daemon_hop_seconds":
            self.sim.rig.log.append(("hop", self.sim.now, labels["rank"],
                                     value))

    def count(self, name, amount=1.0, **labels):
        pass

    def set(self, name, value, **labels):
        pass


class PopRecorder(Watchdog):
    """Sits in the watchdog slot (the per-pop hook that is handed the item;
    it still counts cascades) and on the step-listener list (the one that is
    handed the priority)."""

    def __init__(self) -> None:
        super().__init__()
        self.pops: List[list] = []

    def observe(self, sim, now, item) -> None:
        super().observe(sim, now, item)
        label = item.name or item.describe()
        if any(item is boot for boot in sim.rig.stillborn):
            label = "gone:" + label
        elif label.startswith("vdaemon:") and not self._waited(item):
            label = "dead:" + label  # a hop whose waiter left: runs nothing
        elif label.startswith("isend:") and sim.rig.owner_down(item):
            label = "gone:" + label  # a request of a rank that is down
        self.pops.append([now, None, type(item).__name__, label])

    @staticmethod
    def _waited(hop) -> bool:
        """Whether anyone but a pusher of a rank that is down waits."""
        return any(not sim_owner_down(callback) for callback in hop.callbacks)

    def listen(self, now, priority, seq) -> None:
        self.pops[-1][1] = priority


HELPER = "rig:"


def sim_owner_down(callback):
    owner = getattr(callback, "__self__", None)
    if owner is None or isinstance(owner, ChVChannel):
        return True  # the daemon's own completion callback
    return isinstance(owner, Process) and owner.sim.rig.owner_down(owner)


def is_bookkeeping(kind, label):
    """Pops of the process daemon and the helper processes themselves —
    grants, interrupt wakeups, terminations — and a daemon completion
    whose waiter left (it runs nothing; the process daemon has none for a
    waiter interrupted before its grant popped)."""
    return (label.startswith(("acquire:vdaemon:", "dead:vdaemon:", "gone:",
                              "interrupt:rx:", "interrupt:" + HELPER,
                              "interrupt:fan-out:", "interrupt:isend:"))
            or (kind == Process.__name__
                and label.startswith(("rx:", HELPER))))


def comparable_pops(pops):
    """The pop stream with the bookkeeping erased, a receive process's
    bootstrap renamed to the reader's start step and a helper process's to
    the fan-out's."""
    stream = []
    for now, priority, kind, label in pops:
        if is_bookkeeping(kind, label):
            continue
        if label.startswith("init:rx:"):
            label = "rx:start"
        if label.startswith("init:isend:"):
            label = label[len("init:"):]
        if " -> " in label:  # a handshake: its first asker names the chain
            label = label.replace("-> fan-out:" + HELPER, "-> " + HELPER)
        if label.startswith("isend:"):
            label = label.split(" -> ")[0]  # the waiter: pusher or chain
            if priority == URGENT:
                label = "start:" + label  # a pusher's start step
        for spelling in ("init:" + HELPER, "fan-out:" + HELPER):
            if label.startswith(spelling):
                label = "start:" + label[len(spelling) - len(HELPER):]
        stream.append((now, priority, label))
    return stream


# --------------------------------------------------------------------- rig
TICK = 1e-4


def app(ctx):
    yield ctx.sim.event(name="parked")  # ranks only react: the rig drives


class Rig:
    """``n_ranks`` ranks two to a node, one endpoint each, plus a service
    node with one side connection per rank, read by a process that runs
    what it receives."""

    def __init__(self, channel_cls, endpoint_cls, n_ranks):
        self.recorder = PopRecorder()
        self.sim = sim = Simulator(seed=0, watchdog=self.recorder)
        sim.trace.step_listeners.append(self.recorder.listen)
        sim.metrics = HopMetrics(sim)
        sim.rig = self
        self.log: List[tuple] = []
        self.channel_cls = channel_cls
        self.endpoint_cls = endpoint_cls
        self.n_ranks = n_ranks
        self.net = ClusterNetwork(sim, n_nodes=(n_ranks + 1) // 2 + 1)
        #: every connection ever made, broken or not (the net forgets those)
        self.connections = []
        connect = self.net.connect

        def logged_connect(a, b):
            connection = connect(a, b)
            for pipe in connection.pipes:
                pipe.__class__ = LoggingPipe
            self.connections.append(connection)
            return connection

        self.net.connect = logged_connect
        service = self.net.nodes[-1]
        service.service = True
        self.endpoints = self.net.place(n_ranks, procs_per_node=2)
        self.jobs: List[MPIJob] = []
        self.protocols = []
        #: ``(request event, channel)`` by the event's id
        self.owners = {}
        #: the bootstraps of fan-outs a rank that was already down asked for
        self.stillborn = []
        self.serial = 0
        self.wave = 0
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
        protocol = RigProtocol(job)
        protocol.endpoints = [self.endpoint_cls(protocol, rank)
                              for rank in range(job.size)]
        for channel, endpoint in zip(job.channels, protocol.endpoints):
            channel.protocol = endpoint
        self.protocols.append(protocol)
        self.adopting = False
        job.start()

    def _side_reader(self, end):
        while True:
            self.do((yield end.recv()))

    def owner_down(self, item):
        owner = self.owners.get(id(item))
        return owner is not None and owner[1].down

    def _pusher(self, channel, dst, data, nbytes):
        """The spec's ``isend`` pusher."""
        try:
            sent = yield from channel.post_send(dst, 0, data, nbytes)
            yield sent
        except ConnectionError:
            if not channel.down:
                channel.job.notify_socket_closed(channel.rank, dst)

    def _send(self, channel, dst, data, nbytes):
        """An ``isend`` through the spec's process send path, or through
        the channel's send chain."""
        if not hasattr(channel, "try_fast_send"):
            chain = channel.post(dst, 0, data, nbytes, defer=True)
            event = chain.done if isinstance(chain, SendChain) else None
        elif channel.try_fast_send(dst, 0, data, nbytes) is None:
            event = self.sim.process(
                self._pusher(channel, dst, data, nbytes),
                name=f"isend:r{channel.rank}->r{dst}")
            channel.__dict__.setdefault("pushers", []).append(event)
        else:
            return
        if event is not None:
            self.owners[id(event)] = (event, channel)

    def _connection(self, a, b):
        end = self.job.channels[a].conns.get(b)
        return None if end is None else end.connection

    def do(self, op):
        verb, a, b = op[:3]
        channel = self.job.channels[a]
        endpoint = self.protocols[-1].endpoints[a]
        if verb in ("send", "side"):
            self.serial += 1
            data = (self.serial, op[4])
        if verb == "send":
            if channel.down:
                return
            try:
                self._send(channel, b, data, op[3])
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
        elif verb == "fanout":
            self.wave += 1
            helpers = len(endpoint._helpers)
            endpoint._fan_out(
                [rank for rank in range(self.n_ranks) if rank != a],
                MarkerPacket, self.wave)
            if channel.down:
                # the helper process of a dead rank still boots, the chain
                # does not start
                self.stillborn.extend(
                    helper._target for helper in endpoint._helpers[helpers:]
                    if isinstance(helper, Process))
        elif verb == "detach":
            endpoint.detach()
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
            # protocol is detached, the others' sockets outlive the
            # incarnation
            job = self.job
            for each in self.protocols[-1].endpoints:
                each.detach()
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
             len(c.matching.posted), sorted(c.conns), daemon_state(c))
            for job in self.jobs for c in job.channels]
        markers = [protocol.stats.markers_sent for protocol in self.protocols]
        pipes = [(p.name, p.broken, p.bytes_sent, p.messages_sent,
                  len(p.inbox), p.pumping)
                 for connection in self.connections
                 for p in connection.pipes]
        return channels, markers, pipes


def run_program(channel_cls, endpoint_cls, n_ranks, program):
    """``program`` is a list of steps ``(tick, ops)``; one step is one
    engine callback (its ops run back to back), steps sharing a tick are
    separate callbacks at the same instant."""
    rig = Rig(channel_cls, endpoint_cls, n_ranks)

    def run_step(ops):
        for op in ops:
            rig.do(op)

    for tick, ops in program:
        rig.sim.call_at(tick * TICK, run_step, ops)
    try:
        rig.sim.run()
    except ConnectionError as error:
        # a rank shut down under its job's mesh builder: both designs must
        # get there, at the same instant
        rig.log.append(("raised", rig.sim.now, repr(error)))
    return rig.log, rig.state(), comparable_pops(rig.recorder.pops), \
        rig.recorder.pops


def chv_classes():
    daemon = type("DaemonChV", (Recording, ChVChannel), {})
    spec = type("ProcessDaemonChV",
                (Recording, ProcessDaemon, GeneratorSend, ChVChannel), {})
    broken = type("InboxReaderChV", (Recording, InboxReader, ChVChannel), {})
    return daemon, spec, broken


def recording(device):
    return type(f"Recording{device.__name__}", (Recording, device), {})


def spec_device(device):
    """``device`` sending through the process send path."""
    return type(f"Generator{device.__name__}",
                (Recording, GeneratorSend, device), {})


# --------------------------------------------------------------- programs
MAX_RANKS = 5
#: payload sizes: inline (the last one lands exactly on the inline limit
#: once the envelope is added), just past it, and flow-sized; a small set,
#: so that equal sizes — equal service times, and same-instant arrivals on
#: symmetric paths — are common
SIZES = (0.0, 96.0, 992.0, _INLINE_BYTES - HEADER_BYTES,
         _INLINE_BYTES - HEADER_BYTES + 1.0, 6_000.0, 40_000.0)

_rank = st.integers(0, MAX_RANKS - 1)
_size = st.sampled_from(SIZES)
_gentle = st.one_of(
    st.tuples(st.sampled_from(["recv", "flush"]), _rank, _rank),
    st.tuples(st.sampled_from(["fanout", "detach"]), _rank, st.just(0)),
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
    st.tuples(st.just("fanout"), _rank, st.just(0)),
    st.tuples(st.just("send"), _rank, _rank, _size, _carried),
    st.tuples(st.just("side"), _rank, st.just(0), _size, _carried),
)
#: mostly traffic — a program that only tears down compares nothing — with
#: at most one direct teardown closing a step, in one step out of five
_steps = st.tuples(
    st.integers(0, 60), st.lists(_ops, min_size=1, max_size=6),
    st.one_of(*[st.just([])] * 4, st.lists(_harsh, min_size=1, max_size=1)),
).map(lambda step: (step[0], step[1] + step[2]))
_programs = st.lists(_steps, min_size=4, max_size=24).map(
    lambda steps: sorted(steps, key=lambda step: step[0]))


def fit(program, n_ranks):
    """Fold rank indices into ``n_ranks``.  An operation carried by a packet
    runs inside the receiver, so it must not kill the rank running it: a
    process that is interrupted while it runs and then yields is outside
    what the process daemon (or any process here) defines."""
    def fold(op, runs_on=None):
        if op is None:
            return None
        verb, a, b = op[0], op[1] % n_ranks, op[2]
        if verb in ("send", "recv", "flush", "break"):
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


def race(left, right, n_ranks, program):
    program = fit(program, n_ranks)
    log, state, pops, _ = run_program(*left, n_ranks, program)
    ref_log, ref_state, ref_pops, _ = run_program(*right, n_ranks, program)
    assert log == ref_log
    assert state == ref_state
    assert pops == ref_pops
    return log


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

#: ch_v: an application send spawned before the fan-out reaches the daemon
#: first — its process bootstrap is the older URGENT step
DAEMON_WITNESS = [(20, [("send", 0, 1, 0.0, None), ("fanout", 0, 0)])]


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS))
@example(program=BURST_AND_DETACH, n_ranks=5)
@example(program=INBOX_WITNESS, n_ranks=3)
@example(program=DETACH_AT_GRANT, n_ranks=3)
@settings(max_examples=150, deadline=None)
def test_daemon_equals_process_daemon(program, n_ranks):
    daemon, spec, _ = chv_classes()
    race((daemon, ChainEndpoint), (spec, SendEachEndpoint), n_ranks, program)


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS),
       device=st.sampled_from([FtSockChannel, NemesisChannel, ChVChannel]))
@example(program=BURST_AND_DETACH, n_ranks=5, device=ChVChannel)
@example(program=FLOW_WITNESS, n_ranks=3, device=FtSockChannel)
@example(program=DAEMON_WITNESS, n_ranks=3, device=ChVChannel)
@settings(max_examples=150, deadline=None)
def test_fan_out_chain_equals_send_each(program, n_ranks, device):
    race((recording(device), ChainEndpoint),
         (spec_device(device), SendEachEndpoint), n_ranks, program)


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
    daemon, spec, _ = chv_classes()
    log = race((daemon, ChainEndpoint), (spec, SendEachEndpoint), 3,
               DETACH_AT_GRANT)
    assert [entry[2:5] for entry in log if entry[0] == "packet"] == [(0, 1, 1)]
    assert ("hop", 20 * TICK, 0, 0.0) in log  # the detached hop, at once

    old = type("OldDaemonChV",
               (Recording, VerbatimHostCost, ProcessDaemon, GeneratorSend,
                ChVChannel), {})
    old_log, (channels, _, _), _, _ = run_program(
        old, SendEachEndpoint, 3, fit(DETACH_AT_GRANT, 3))
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
    daemon, _, _ = chv_classes()
    log, _, _, _ = run_program(daemon, ChainEndpoint, 3, INBOX_WITNESS)
    assert wire(log, ("marker", 0, 2)) < first(log, "packet", 0, 1, 2)

    log, _, _, _ = run_program(recording(FtSockChannel), ChainEndpoint, 3,
                               FLOW_WITNESS)
    assert first(log, "packet", 1, 0, 3) < first(log, "control", 1, 0)

    log, _, _, _ = run_program(daemon, ChainEndpoint, 3, DAEMON_WITNESS)
    assert wire(log, ("app", 0, 1)) < wire(log, ("marker", 0, 1))


def test_a_reader_that_skips_the_get_pop_is_caught():
    """Handing the waiting packet straight to the daemon puts it ahead of
    the fan-out its predecessor started."""
    daemon, spec, broken = chv_classes()
    good = race((daemon, ChainEndpoint), (spec, SendEachEndpoint), 3,
                INBOX_WITNESS)
    bad, _, _, _ = run_program(broken, ChainEndpoint, 3, INBOX_WITNESS)
    assert bad != good
    assert first(bad, "packet", 0, 1, 2) < wire(bad, ("marker", 0, 2))


@pytest.mark.parametrize("device, program, who_first", [
    (FtSockChannel, FLOW_WITNESS, "flow"),
    (NemesisChannel, FLOW_WITNESS, "flow"),
    (ChVChannel, DAEMON_WITNESS, "send"),
])
def test_a_chain_without_its_start_step_is_caught(device, program, who_first):
    channel = recording(device)
    good = race((channel, ChainEndpoint),
                (spec_device(device), SendEachEndpoint), 3, program)
    bad, _, _, _ = run_program(channel, NoStartEndpoint, 3, program)
    assert bad != good
    if who_first == "flow":  # the marker overtakes the queued message
        assert first(bad, "control", 1, 0) < first(bad, "packet", 1, 0, 3)
    else:  # the marker takes the daemon first
        assert wire(bad, ("marker", 0, 1)) < wire(bad, ("app", 0, 1))
