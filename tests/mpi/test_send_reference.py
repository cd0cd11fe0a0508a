"""Executable naive spec for the send path.

The spec is the send path as processes: a blocking ``send`` runs the
``post_send`` generator inside the application process, an ``isend`` that
misses the inline ``try_fast_send`` spawns a ``_pusher`` process, and a
protocol fan-out is a ``_send_each`` helper process over the
``send_control`` generator.  It lives on here as :class:`GeneratorSend`
(channel), :class:`PusherContext` and :class:`SendEachEndpoint`, with two
deliberate fixes: a rank's shutdown interrupts its pushers and helpers
(sends die with their rank), and the handshake is the job's, not its first
asker's (:class:`AbortingHandshake` keeps how it was, and
``test_the_old_handshake_died_with_its_first_asker`` pins the difference).
It is
raced against the shipped send path on random job-level programs over
ft-sock, Nemesis and ch_v: 3-5 ranks two to a node, blocking sends from
each rank's application process, ``isend`` s and control fan-outs; lazy
connects and ch_v's eager mesh; per-peer gates and the Nemesis stopper
closing and opening; the checkpoint transfer tax (a flow-sized stream on
a rank's side connection); and ``detach()``, ``break_()``, task kills
(``shutdown()`` + the application's interrupt) and harvest -> kill ->
flush -> adopt-into-a-fresh-job at arbitrary instants — so mid-gate,
mid-hop and mid-handshake.  An operation runs at a tick, rides an
application packet (and runs inside the receive path), or rides a side
connection read by a process.

Everything observable must agree: every wire send, every commit (op id and
instant), every transmit-complete of an ``isend`` request, every handled
packet and matched receive, every ``notify_socket_closed``, the final
channel (gates, links, sequence numbers), pipe and daemon state, and the
engine's pop stream as ``(time, priority, label)`` modulo start and
termination bookkeeping: a helper's process bootstrap is matched with the
start step that replaced it, its termination and interrupt wakeups are
deleted, and so is whatever a send of a rank that is already down still
pops (a pusher's termination, a daemon hop nobody will use).
"""

from typing import Dict, List

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ft.protocol import BaseEndpoint, FTStats
from repro.mpi import FtSockChannel, MPIJob, NemesisChannel, Request
from repro.mpi.channels.base import HEADER_BYTES, ChannelDownError, SendChain
from repro.mpi.channels.ch_v import ChVChannel
from repro.mpi.consts import ANY_TAG
from repro.mpi.context import SKIPPED, RankContext
from repro.mpi.message import AppPacket, MarkerPacket
from repro.net import ClusterNetwork
from repro.net.connection import _INLINE_BYTES, _Pipe
from repro.net.topology import Endpoint
from repro.sim import Simulator
from repro.sim.events import URGENT
from repro.sim.primitives import Store
from repro.sim.process import Interrupt, Process

# the protocol monitors assume a real protocol; these programs kill, detach
# and flush at will, and the pop stream is compared directly
pytestmark = pytest.mark.unmonitored

_HANDSHAKE_RTTS = 2.0


# --------------------------------------------------------------------- spec
class GeneratorSend:
    """The channel's send family as generators, verbatim but for the one
    call that connects (:meth:`_establish`) and a :meth:`shutdown` that
    stops the rank's sends."""

    def post_send(self, dst, tag, data, nbytes):
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        packet = self._number(tag, data, nbytes)
        sent = yield from self._send_packet(dst, packet, gated=True)
        self.sim.trace.count("mpi.messages")
        self.sim.trace.count("mpi.bytes", nbytes)
        self._trace_send(packet, dst)
        if self.sim.metrics is not None:
            self._metrics_sent(packet, dst)
        if self.protocol is not None:
            self.protocol.on_app_sent(packet, dst)
        return sent

    def send_control(self, dst, packet):
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        yield from self._send_packet(dst, packet, gated=False)

    def _send_packet(self, dst, packet, gated):
        while True:
            if gated and not self._gates_open(dst):
                yield self.send_gate(dst).wait()
                yield self.global_send_gate.wait()
                continue
            end = self.conns.get(dst)
            if end is None:
                end = yield from self._establish(dst)
                if self.down:
                    raise ChannelDownError(f"rank {self.rank} channel is down")
                continue
            break
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        nbytes = getattr(packet, "nbytes", HEADER_BYTES)
        overhead = self.send_overhead(nbytes)
        if gated:
            overhead += self.transfer_tax()
        if overhead > 0.0 and not self.defer_send_overhead:
            yield from self._host_cost(overhead)
            overhead = 0.0
            if self.down:
                raise ChannelDownError(f"rank {self.rank} channel is down")
        return end.send(packet, nbytes, extra_latency=overhead, notify=gated)

    def try_fast_send(self, dst, tag, data, nbytes):
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        end = self.conns.get(dst)
        if end is None or not self._gates_open(dst):
            return None
        wire_bytes = nbytes + HEADER_BYTES
        overhead = self.send_overhead(wire_bytes) + self.transfer_tax()
        if overhead > 0.0 and not self.defer_send_overhead:
            return None
        packet = self._number(tag, data, nbytes)
        self.sim.trace.count("mpi.messages")
        self.sim.trace.count("mpi.bytes", nbytes)
        self._trace_send(packet, dst)
        if self.sim.metrics is not None:
            self._metrics_sent(packet, dst)
        if self.protocol is not None:
            self.protocol.on_app_sent(packet, dst)
        return end.send(packet, wire_bytes, extra_latency=overhead)

    def _host_cost(self, seconds):
        hop = self.host_hop(seconds)
        try:
            yield hop
        except Interrupt:
            self.abandon_hop(hop)
            raise

    def shutdown(self, error=None):
        """The spec's sends die with their rank, as a send chain does: its
        pushers and its endpoint's helper processes are interrupted.  (A
        pusher that outlived its rank went on past an opened gate, held
        ch_v's daemon until its hop was served and broke off with
        ``ChannelDownError`` only then; none of that reached the wire
        since PR 29, and the chain does none of it.)"""
        if not self.down:
            helpers = getattr(self.protocol, "_helpers", ())
            for sender in (*self.__dict__.pop("pushers", ()), *helpers):
                if isinstance(sender, Process):
                    sender.interrupt("channel shut down")
        super().shutdown(error)

    def _establish(self, dst):
        """Connect through ``MPIJob.establish``: the handshake is the
        job's (see :class:`AbortingHandshake` for how it was)."""
        link = self.job.establish(self.rank, dst)
        if link is not None:
            yield link
        end = self.conns.get(dst)
        if end is None:
            raise ConnectionResetError(
                f"link {self.rank}<->{dst} vanished during establish")
        return end


class AbortingHandshake:
    """``MPIJob.establish`` as the generator it was: the first asker ran
    the handshake, so interrupting it (a task kill of a rank whose blocking
    send was connecting) aborted the handshake for every rank queued
    behind it.  The spec takes the job's handshake instead, which runs to
    its end whoever asked; a pusher or the mesh builder never was
    interrupted, so only this one case moves."""

    def _establish(self, dst):
        job, a, b = self.job, self.rank, dst
        key = (a, b) if a < b else (b, a)
        ready = job._links.get(key)
        if ready is None:
            ready = job.sim.event(name=f"{job.name}:link{key}")
            job._links[key] = ready
            lo, hi = key
            try:
                connection = job.net.connect(job.endpoints[lo],
                                             job.endpoints[hi])
                yield job.sim.timeout(
                    _HANDSHAKE_RTTS * connection.end_a.latency)
                if job.killed:
                    connection.break_()
                    raise ConnectionResetError(
                        f"job {job.name} killed during connect")
            except BaseException as error:
                del job._links[key]
                if not ready.triggered:
                    ready.defused = True
                    if isinstance(error, Exception):
                        ready.fail(error)
                    else:
                        ready.fail(ConnectionResetError("connect aborted"))
                raise
            job.channels[lo].attach(hi, connection.end_a)
            job.channels[hi].attach(lo, connection.end_b)
            ready.succeed()
        elif not ready.processed:
            yield ready
        end = job.channels[a].conns.get(b)
        if end is None:
            raise ConnectionResetError(
                f"link {a}<->{b} vanished during establish")
        return end


class PusherContext(RankContext):
    """``send`` / ``isend`` as they were: the slow path of a blocking send
    runs inside the application process, an ``isend`` that misses the
    inline path spawns a ``_pusher`` process."""

    __slots__ = ()

    def send(self, dst, tag=0, data=None, nbytes=0.0):
        op_id = self._begin()
        if op_id is None:
            return SKIPPED
        sent = self.channel.try_fast_send(dst, tag, data, nbytes)
        if sent is None:
            sent = yield from self.channel.post_send(dst, tag, data, nbytes)
        self._commit(op_id)
        yield sent
        return None

    def isend(self, dst, tag=0, data=None, nbytes=0.0):
        op_id = self._begin()
        if op_id is None:
            return Request(None)
        sent = self.channel.try_fast_send(dst, tag, data, nbytes)
        if sent is not None:
            self._commit(op_id)
            return Request(sent)

        def _pusher():
            try:
                slow_sent = yield from self.channel.post_send(dst, tag, data,
                                                              nbytes)
                self._commit(op_id)
                yield slow_sent
            except ConnectionError:
                if not self.channel.down:
                    self.channel.job.notify_socket_closed(self.rank, dst)

        proc = self.sim.process(_pusher(), name=f"isend:r{self.rank}->r{dst}")
        self.channel.__dict__.setdefault("pushers", []).append(proc)
        return Request(proc)


class ChainEndpoint(BaseEndpoint):
    """The endpoint as shipped."""

    def on_control(self, packet):
        pass  # logged by the channel


class SendEachEndpoint(ChainEndpoint):
    """The spec fan-out: always the helper process."""

    def _fan_out(self, dsts, packet_cls, wave):
        self._spawn(self._send_each(dsts, packet_cls, wave),
                    f"{self.protocol.protocol_name}:{packet_cls.__name__}"
                    f":r{self.rank}")

    def _send_each(self, dsts, packet_cls, wave):
        for dst in dsts:
            try:
                yield from self.channel.send_control(
                    dst, packet_cls(self.rank, wave))
            except ConnectionError:
                return
            if packet_cls is MarkerPacket:
                self.protocol.stats.markers_sent += 1


# ---------------------------------------------------------------- recording
class Recording:
    """Logs every ``handle_packet``, then runs the operation an application
    packet carries, if any — from inside the receive path."""

    def handle_packet(self, packet):
        rig = self.sim.rig
        if isinstance(packet, AppPacket):
            rig.log.append(("packet", self.sim.now, self.job.name, self.rank,
                            packet.src, packet.seq, self.down))
        else:
            rig.log.append(("control", self.sim.now, self.job.name,
                            self.rank, packet.src, packet.wave, self.down))
        super().handle_packet(packet)
        if isinstance(packet, AppPacket) and packet.data[1] is not None:
            rig.do(packet.data[1])


class LoggingCommit:
    """Logs every commit with its op id and instant (a shipped send
    commits through ``_sent``, the spec's through ``_commit``)."""

    __slots__ = ()  # swapped onto a slotted RankContext

    def _log(self, op_id):
        self.sim.rig.log.append(("commit", self.sim.now, self.job.name,
                                 self.rank, op_id))

    def _commit(self, op_id):
        self._log(op_id)
        super()._commit(op_id)

    def _sent(self, op_id, dst, packet):
        self._log(op_id)
        super()._sent(op_id, dst, packet)


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


class PopRecorder:
    """Sits in the watchdog slot (the per-pop hook that is handed the item)
    and on the step-listener list (the one that is handed the priority)."""

    def __init__(self, rig) -> None:
        self.rig = rig
        self.pops: List[list] = []

    def observe(self, sim, now, item) -> None:
        label = item.name or type(item).__name__
        if any(item is boot for boot in self.rig.stillborn):
            label = "gone:" + label
        elif label.startswith("vdaemon:") and not self._waited(item):
            label = "dead:" + label  # a hop no live send will use
        elif label.startswith("isend:") and self.rig.owner_down(item):
            label = "gone:" + label  # a request of a rank that is down
        self.pops.append([now, None, type(item).__name__, label])

    def _waited(self, hop) -> bool:
        for callback in hop.callbacks[1:]:
            owner = getattr(callback, "__self__", None)
            if not (isinstance(owner, Process)
                    and self.rig.owner_down(owner)):
                return True
        return False

    def listen(self, now, priority, seq) -> None:
        self.pops[-1][1] = priority


def is_bookkeeping(kind, label, helper):
    """A helper's termination or interrupt wakeup, a stopped chain's
    wakeup, and what a rank that is down still pops."""
    return (label.startswith(("dead:", "gone:", "interrupt:isend:",
                              "interrupt:send:", "interrupt:fan-out:",
                              "interrupt:" + helper))
            or (kind == Process.__name__ and label.startswith(helper)))


def comparable_pops(pops, protocol_name):
    helper = protocol_name + ":"
    stream = []
    for now, priority, kind, label in pops:
        if is_bookkeeping(kind, label, helper):
            continue
        for spelling in ("init:", "fan-out:"):
            if label.startswith(spelling):
                label = "start:" + label[len(spelling):]
        if label.startswith("isend:") and priority == URGENT:
            label = "start:" + label  # a deferred send's start step
        stream.append((now, priority, label))
    return stream


# ---------------------------------------------------------------------- rig
TICK = 1e-4


def app(ctx):
    """A rank's application: blocking sends, in the order they are
    posted to its mailbox."""
    rig = ctx.sim.rig
    box = rig.boxes[ctx.job.name][ctx.rank]
    while True:
        dst, nbytes, data = yield box.get()
        yield from ctx.send(dst, 0, data, nbytes)
        rig.log.append(("returned", ctx.sim.now, ctx.job.name, ctx.rank,
                        data[0]))


class RigProtocol:
    """What ``BaseEndpoint`` needs of a protocol: no servers, a name, the
    stats it counts markers in."""

    protocol_name = "rig"

    def __init__(self, job):
        self.job = job
        self.sim = job.sim
        self.stats = FTStats()
        self.replica_map = {rank: [] for rank in range(job.size)}
        self.detached = False


class Rig:
    """``n_ranks`` ranks two to a node, one endpoint each, plus a service
    node with one side connection per rank: read by a process that runs
    what it receives one way, carrying the rank's transfer-tax stream the
    other."""

    def __init__(self, design, n_ranks):
        self.channel_cls, self.context_cls, self.endpoint_cls = design
        self.recorder = PopRecorder(self)
        self.sim = sim = Simulator(seed=0, watchdog=self.recorder)
        sim.trace.step_listeners.append(self.recorder.listen)
        sim.rig = self
        self.log: List[tuple] = []
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
        self.boxes: Dict[str, List[Store]] = {}
        self.protocols = []
        #: ``(request event, channel)`` by the event's id: the channel
        #: behind every request and pusher process
        self.owners: Dict[int, tuple] = {}
        #: the bootstraps of fan-outs a rank that was already down asked for
        self.stillborn: List[object] = []
        self.serial = 0
        self.wave = 0
        self.adopting = False
        self._launch({})
        self.side = []
        self.tax = []
        for rank, endpoint in enumerate(self.endpoints):
            connection = self.net.connect(Endpoint(service, 0), endpoint)
            self.side.append(connection.end_a)
            self.tax.append(connection.end_b)
            sim.process(self._side_reader(connection.end_b),
                        name=f"side:r{rank}")

    @property
    def job(self):
        return self.jobs[-1]

    def owner_down(self, item):
        owner = self.owners.get(id(item))
        return owner is not None and owner[1].down

    def _launch(self, links):
        job = MPIJob(self.sim, self.net, self.endpoints, app, self.channel_cls,
                     name=f"job{len(self.jobs)}", inherited_links=links)
        for context in job.contexts:
            context.__class__ = self.context_cls
        job.failure_listener = lambda rank, peer: self.log.append(
            ("closed", self.sim.now, job.name, rank, peer))
        self.boxes[job.name] = [Store(self.sim, name=f"box:r{rank}")
                                for rank in range(job.size)]
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

    def _connection(self, a, b):
        end = self.job.channels[a].conns.get(b)
        return None if end is None else end.connection

    def _isend(self, a, b, nbytes, data):
        context = self.job.contexts[a]
        try:
            request = context.isend(b, 0, data, nbytes)
        except ConnectionError:
            self.log.append(("refused", self.sim.now, data[0]))
            return
        event = request.event
        self.owners[id(event)] = (event, context.channel)
        serial = data[0]

        def completed(done):
            if not context.channel.down:  # else the rank is gone with it
                self.log.append(("isend-done", self.sim.now, serial,
                                 done._ok))

        event.callbacks.append(completed)

    def _task_kill(self, a):
        """What a task kill does to a rank of the live job."""
        job = self.job
        channel = job.channels[a]
        if channel.down:
            return
        endpoint = channel.protocol
        channel.shutdown()
        if endpoint is not None:
            endpoint.detach()
        job.app_processes[a].interrupt("task killed")

    def do(self, op):
        verb, a, b = op[:3]
        job = self.job
        channel = job.channels[a]
        endpoint = self.protocols[-1].endpoints[a]
        if verb in ("send", "isend", "side"):
            self.serial += 1
            data = (self.serial, op[4])
        if verb == "send":
            self.boxes[job.name][a].put((b, op[3], data))
        elif verb == "isend":
            if not channel.down:
                self._isend(a, b, op[3], data)
        elif verb == "side":
            self.side[a].send(op[4], op[3] + HEADER_BYTES)
        elif verb == "tax":
            # a checkpoint image streaming out of rank ``a``
            self.tax[a].send("image", nbytes=b)
            channel.active_transfer_end = self.tax[a]
        elif verb == "recv":
            if not channel.down:
                channel.matching.post_recv(b, ANY_TAG).callbacks.append(
                    lambda event: self.log.append(
                        ("matched", self.sim.now, a, event._ok,
                         event._ok and event._value[0])))
        elif verb == "freeze":
            channel.freeze_sends([b])
        elif verb == "resume":
            channel.resume_sends()
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
        elif verb == "break":
            if self._connection(a, b) is not None:
                self._connection(a, b).break_()
        elif verb == "kill":
            self._task_kill(a)
        elif verb == "reincarnate" and not self.adopting:
            # what FTRun's survivor policies do: rank ``a`` is lost, the
            # protocol is detached, the others' sockets outlive the
            # incarnation
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

        def gates(channel):
            return (channel.global_send_gate.is_open,
                    sorted((dst, gate.is_open)
                           for dst, gate in channel._send_gates.items()))

        channels = [
            (job.name, c.rank, c.down, c._seq, ids(c.matching.unexpected),
             len(c.matching.posted), sorted(c.conns), gates(c),
             daemon_state(c))
            for job in self.jobs for c in job.channels]
        markers = [protocol.stats.markers_sent for protocol in self.protocols]
        pipes = [(p.name, p.broken, p.bytes_sent, p.messages_sent,
                  len(p.inbox), p.pumping)
                 for connection in self.connections
                 for p in connection.pipes]
        return channels, markers, pipes


def daemon_state(channel):
    """(busy, hops still waited for in its queue) of a ch_v daemon."""
    if not isinstance(channel, ChVChannel):
        return None
    return (int(channel._serving is not None),
            sum(1 for queued in channel._queue if len(queued[0].callbacks) > 1))


def run_program(design, n_ranks, program):
    """``program`` is a list of steps ``(tick, ops)``; one step is one
    engine callback (its ops run back to back), steps sharing a tick are
    separate callbacks at the same instant."""
    rig = Rig(design, n_ranks)

    def run_step(ops):
        for op in ops:
            rig.do(op)

    for tick, ops in program:
        rig.sim.call_at(tick * TICK, run_step, ops)
    try:
        rig.sim.run()
    except ConnectionError as error:
        # a rank died under its job's mesh builder: both designs must get
        # there, at the same instant
        rig.log.append(("raised", rig.sim.now, repr(error)))
    return (rig.log, rig.state(),
            comparable_pops(rig.recorder.pops, RigProtocol.protocol_name),
            rig)


def recording(device):
    return type(f"Recording{device.__name__}", (Recording, device), {})


def designs(device):
    """(shipped, spec) for ``device``."""
    shipped = (recording(device),
               type("ShippedContext", (LoggingCommit, RankContext),
                    {"__slots__": ()}),
               ChainEndpoint)
    spec = (type(f"Generator{device.__name__}",
                 (Recording, GeneratorSend, device), {}),
            type("SpecContext", (LoggingCommit, PusherContext),
                 {"__slots__": ()}),
            SendEachEndpoint)
    return shipped, spec


# ----------------------------------------------------------------- programs
MAX_RANKS = 5
#: payload sizes: inline (the last one lands exactly on the inline limit
#: once the envelope is added), just past it, and flow-sized
SIZES = (0.0, 96.0, _INLINE_BYTES - HEADER_BYTES,
         _INLINE_BYTES - HEADER_BYTES + 1.0, 40_000.0)

_rank = st.integers(0, MAX_RANKS - 1)
_size = st.sampled_from(SIZES)
_gentle = st.one_of(
    st.tuples(st.sampled_from(["recv", "freeze"]), _rank, _rank),
    st.tuples(st.sampled_from(["resume", "fanout", "detach"]), _rank,
              st.just(0)),
    st.tuples(st.just("tax"), _rank, st.sampled_from([2e5, 2e6])),
)
_harsh = st.one_of(
    st.tuples(st.just("break"), _rank, _rank),
    st.tuples(st.just("kill"), _rank, st.just(0)),
    st.tuples(st.just("reincarnate"), _rank, st.integers(0, 2)),
)
_send = st.tuples(st.sampled_from(["send", "isend"]), _rank, _rank, _size,
                  st.none())
_carried = st.one_of(_gentle, _gentle, _harsh)
_ops = st.one_of(
    _send, _send, _send, _gentle, _gentle,
    st.tuples(st.sampled_from(["send", "isend"]), _rank, _rank, _size,
              _carried),
    st.tuples(st.just("side"), _rank, st.just(0), _size, _carried),
)
#: mostly traffic and gates, with at most one direct teardown closing a
#: step, in one step out of five
_steps = st.tuples(
    st.integers(0, 40), st.lists(_ops, min_size=1, max_size=6),
    st.one_of(*[st.just([])] * 4, st.lists(_harsh, min_size=1, max_size=1)),
).map(lambda step: (step[0], step[1] + step[2]))
_programs = st.lists(_steps, min_size=4, max_size=24).map(
    lambda steps: sorted(steps, key=lambda step: step[0]))


def fit(program, n_ranks):
    """Fold rank indices into ``n_ranks``; an operation carried by a packet
    runs inside the receiver, so it does not kill the rank running it."""
    def fold(op, runs_on=None):
        if op is None:
            return None
        verb, a, b = op[0], op[1] % n_ranks, op[2]
        if verb in ("send", "isend", "recv", "freeze", "break"):
            b %= n_ranks
        if verb in ("send", "isend"):
            return (verb, a, b, op[3], fold(op[4], runs_on=b))
        if verb == "side":
            return (verb, a, b, op[3], fold(op[4]))
        if runs_on is not None:
            if verb == "reincarnate":
                verb, b = "kill", 0
            if verb == "kill" and a == runs_on:
                a = (a + 1) % n_ranks
        return (verb, a, b)

    return [(tick, [fold(op) for op in ops]) for tick, ops in program]


def race(left, right, n_ranks, program):
    program = fit(program, n_ranks)
    log, state, pops, _ = run_program(left, n_ranks, program)
    ref_log, ref_state, ref_pops, _ = run_program(right, n_ranks, program)
    assert log == ref_log
    assert state == ref_state
    assert pops == ref_pops
    return log


#: ft-sock: rank 0 freezes its sends to rank 1 and posts a blocking send
#: and an isend to it (a lazy connect each way first), rank 2 is killed
#: while rank 1's send to it is in its handshake, then rank 0 resumes
GATES_AND_HANDSHAKE = [
    (0, [("send", 0, 1, 0.0, None), ("isend", 1, 2, 96.0, None)]),
    (0, [("kill", 2, 0)]),
    (10, [("freeze", 0, 1), ("send", 0, 1, 96.0, None),
          ("isend", 0, 1, 40_000.0, None), ("tax", 0, 2e6)]),
    (12, [("resume", 0, 0), ("send", 1, 0, 0.0, None)]),
]

#: ch_v: rank 0's isend waits for its daemon hop when rank 2 is lost and
#: the survivors' links are harvested into a new incarnation at once
HOP_AND_HARVEST = [
    (20, [("isend", 0, 1, 96.0, None)]),
    (21, [("reincarnate", 2, 0)]),
    (40, [("send", 1, 0, 0.0, None)]),
]

#: Nemesis: the stopper closes with sends queued behind it on two links,
#: a fan-out passes it, and the rank is killed before it reopens
STOPPER = [
    (0, [("send", 0, 1, 0.0, None), ("send", 0, 2, 0.0, None)]),
    (10, [("freeze", 0, 1), ("isend", 0, 2, 96.0, None),
          ("send", 0, 1, 96.0, None), ("fanout", 0, 0)]),
    (11, [("resume", 0, 0), ("freeze", 0, 2), ("isend", 0, 1, 0.0, None)]),
    (12, [("kill", 0, 0)]),
]


@given(program=_programs, n_ranks=st.integers(3, MAX_RANKS),
       device=st.sampled_from([FtSockChannel, NemesisChannel, ChVChannel]))
@example(program=GATES_AND_HANDSHAKE, n_ranks=3, device=FtSockChannel)
@example(program=HOP_AND_HARVEST, n_ranks=3, device=ChVChannel)
@example(program=STOPPER, n_ranks=3, device=NemesisChannel)
@settings(max_examples=150, deadline=None)
def test_send_chain_equals_process_sends(program, n_ranks, device):
    shipped, spec = designs(device)
    race(shipped, spec, n_ranks, program)


#: ft-sock: rank 0's blocking send to rank 1 is connecting when rank 1's
#: isend to rank 0 (carried over a side connection) queues behind the same
#: handshake, and rank 0 is killed before it ends
KILL_MID_HANDSHAKE = [
    (0, [("send", 0, 1, 0.0, None),
         ("side", 1, 0, 0.0, ("isend", 1, 0, 0.0, None)),
         ("side", 2, 0, 1000.0, ("kill", 0, 0))]),
]

#: ft-sock: rank 0's send waits at its closed gate to rank 1 when the link
#: breaks; the gate reopens on the broken link
BROKEN_AT_GATE = [
    (0, [("send", 0, 1, 0.0, None)]),
    (10, [("freeze", 0, 1), ("send", 0, 1, 96.0, None)]),
    (11, [("break", 0, 1)]),
    (12, [("resume", 0, 0)]),
]


# ------------------------------------------------------- the one difference
def aborting(device):
    _, spec = designs(device)
    return (type(f"Aborting{device.__name__}",
                 (Recording, AbortingHandshake, GeneratorSend, device), {}),
            ) + spec[1:]


def test_the_old_handshake_died_with_its_first_asker():
    """Killing the rank whose blocking send ran the handshake aborted it,
    and threw that rank's ``Interrupt`` into the rank queued behind the
    link: its pusher died without a word.  The job's handshake runs to its
    end, and the queued ``isend`` goes out."""
    shipped, _ = designs(FtSockChannel)
    log = race(shipped, designs(FtSockChannel)[1], 3, KILL_MID_HANDSHAKE)
    assert [entry[3] for entry in log if entry[0] == "isend-done"] == [True]

    old_log, (channels, _, _), _, _ = run_program(
        aborting(FtSockChannel), 3, fit(KILL_MID_HANDSHAKE, 3))
    assert [entry[3] for entry in old_log if entry[0] == "isend-done"] \
        == [False]
    assert [entry for entry in old_log if entry[0] == "wire"
            and entry[3][0] == "app"] == []
    assert channels[1][6] == []  # rank 1 has no link


# ----------------------------------------------------------------- negatives
class EarlyCommit:
    """Broken on purpose: a chained send commits before the connection
    takes its packet."""

    class _Chain(SendChain):
        __slots__ = ()

        def _put(self, end, extra_latency):
            on_commit, self.on_commit = self.on_commit, None
            on_commit(self._dst, self._packet)
            try:
                super()._put(end, extra_latency)
            finally:
                self.on_commit = on_commit

    def post(self, *args, **kwargs):
        chain = super().post(*args, **kwargs)
        if isinstance(chain, SendChain):  # not a send that went out inline
            chain.__class__ = self._Chain
        return chain


class Unstoppable:
    """Broken on purpose: ``shutdown()`` does not stop a send chain."""

    class _Chain(SendChain):
        __slots__ = ()

        def stop(self):
            pass

    def post(self, *args, **kwargs):
        chain = super().post(*args, **kwargs)
        if isinstance(chain, SendChain):  # not a send that went out inline
            chain.__class__ = self._Chain
        return chain


def broken(mixin, device):
    shipped, _ = designs(device)
    return (type(f"{mixin.__name__}{device.__name__}",
                 (Recording, mixin, device), {}),) + shipped[1:]


def test_witnesses_reach_the_situations_they_name():
    shipped, _ = designs(FtSockChannel)
    log, _, _, rig = run_program(shipped, 3, fit(GATES_AND_HANDSHAKE, 3))
    # rank 0's blocking send and isend waited at the gate until it opened
    assert ("commit", 12 * TICK, "job0", 0, 1) in log
    log, _, _, rig = run_program(shipped, 3, fit(BROKEN_AT_GATE, 3))
    assert ("closed", 12 * TICK, "job0", 0, None) in log
    shipped, _ = designs(ChVChannel)
    log, (channels, _, _), _, _ = run_program(shipped, 3,
                                              fit(HOP_AND_HARVEST, 3))
    assert channels[0][2] and 1 in channels[3][6]  # job1 adopted 0<->1


def test_a_chain_that_commits_before_the_connection_takes_it_is_caught():
    """A send that waited at its gate while its link broke never reached
    the wire: the spec does not commit it."""
    _, spec = designs(FtSockChannel)
    good = race(designs(FtSockChannel)[0], spec, 3, BROKEN_AT_GATE)
    bad, _, _, _ = run_program(broken(EarlyCommit, FtSockChannel), 3,
                               fit(BROKEN_AT_GATE, 3))
    assert bad != good
    assert ("commit", 12 * TICK, "job0", 0, 1) in bad
    assert ("commit", 12 * TICK, "job0", 0, 1) not in good


def test_a_chain_that_shutdown_does_not_stop_is_caught():
    """PR 29's send on a harvested link: an ``isend`` of the killed
    incarnation, waiting for its daemon hop, puts its packet on a survivor
    link the next incarnation adopted."""
    _, spec = designs(ChVChannel)
    good = race(designs(ChVChannel)[0], spec, 3, HOP_AND_HARVEST)
    bad, _, _, _ = run_program(broken(Unstoppable, ChVChannel), 3,
                               fit(HOP_AND_HARVEST, 3))
    assert bad != good
    stale = [entry for entry in bad if entry[0] == "packet"
             and entry[2] == "job1" and entry[4] == 0]
    assert stale and not [entry for entry in good if entry[0] == "packet"
                          and entry[2] == "job1" and entry[4] == 0]
