"""What the four reference races (pump, receive, ch_v, send) share.

A race runs one program on two rigs, the shipped callback design's and the
process spec's, and :func:`race` asserts equal logs, end states and pop
streams once each rig's table of named :class:`Rule` s normalised the
spec's bookkeeping away.  Each rule counts the pops it touched per side;
:data:`TALLY` sums them over a session, which prints them.  The process
specs two rigs share live here too: :class:`ProcessRx` (receive, ch_v),
:class:`GeneratorSend`, :class:`PusherContext` and
:class:`SendEachEndpoint` (ch_v, send), the negative those two rigs
share, :class:`DeferredStart`, and the send rig's :class:`EarlyIsend`.
Not collected; the rig modules import it.
"""

from collections import Counter, defaultdict
from functools import partial
from typing import Callable, List, NamedTuple, Optional

from hypothesis import strategies as st

from repro.ft.protocol import BaseEndpoint, FTStats
from repro.mpi import MPIJob
from repro.mpi.channels.base import (_START, HEADER_BYTES, ChannelDownError,
                                     SendChain)
from repro.mpi.channels.ch_v import ChVChannel
from repro.mpi.consts import ANY_TAG
from repro.mpi.context import SKIPPED, RankContext
from repro.mpi.message import AppPacket, MarkerPacket
from repro.mpi.request import Request
from repro.net import ClusterNetwork
from repro.net.connection import _Pipe
from repro.net.topology import Endpoint
from repro.sim import Simulator, Watchdog
from repro.sim.events import Event
from repro.sim.primitives import Store
from repro.sim.process import Interrupt, Process

TICK = 1e-4
MAX_RANKS = 5


# ------------------------------------------------------------ normalisation
class Rule(NamedTuple):
    """A pop that ``matches(priority, kind, label)`` is dropped, or, when
    ``to`` is given, relabelled ``to(label)``."""

    name: str
    matches: Callable[[object, str, str], bool]
    to: Optional[Callable[[str], str]] = None


def drop(name, *prefixes, kind=None):
    """Drop the pops labelled ``prefix...`` (of type ``kind`` only)."""
    return Rule(name, lambda priority, of, label: label.startswith(prefixes)
                and kind in (None, of))


def rename(name, prefix, to, priority=None):
    """Relabel ``prefix + rest`` as ``to + rest`` (at ``priority`` only)."""
    return Rule(name, lambda at, kind, label: label.startswith(prefix)
                and priority in (None, at),
                lambda label: to + label[len(prefix):])


class Rules(tuple):
    """A rig's rules, in the order they run, named for the tally; what they
    make of a ``(priority, type, label)`` is worked out once."""

    def __new__(cls, name, *rules):
        table = super().__new__(cls, rules)
        table.name, table.seen = name, {}
        return table

    def apply(self, key):
        """``(label, or None if dropped; the names of the rules that
        fired)`` for the pop ``key = (priority, type, label)``."""
        if key not in self.seen:
            priority, kind, label = key
            fired = []
            for rule in self:
                if rule.matches(priority, kind, label):
                    fired.append(rule.name)
                    if rule.to is None:
                        label = None
                        break
                    label = rule.to(label)
            self.seen[key] = label, fired
        return self.seen[key]


#: ``{rules: Counter({(rule name, side): pops})}`` over every race run
TALLY = defaultdict(Counter)


def normalise(pops, rules):
    """``(stream, counts)``: the ``(time, priority, label)`` stream once
    ``rules`` ran over every pop in order, and the pops each rule dropped
    or relabelled."""
    counts = Counter()
    stream = []
    for now, priority, kind, label in pops:
        label, fired = rules.apply((priority, kind, label))
        for name in fired:
            counts[name] += 1
        if label is not None:
            stream.append((now, priority, label))
    return stream, counts


def race(left, right, program, rules):
    """Run ``program`` on ``left`` (the shipped design's rig) and ``right``
    (the spec's); their logs, end states and normalised pop streams must be
    equal.  Returns the left log."""
    log, state, pops, _ = left.run(program).outcome(rules)
    ref_log, ref_state, ref_pops, _ = right.run(program).outcome(rules)
    for side, rig in (("shipped", left), ("spec", right)):
        TALLY[rules].update({(k, side): n for k, n in rig.counts.items()})
    assert log == ref_log
    assert state == ref_state
    assert pops == ref_pops
    return log


# --------------------------------------------------------------------- rigs
class PopRecorder(Watchdog):
    """In the watchdog slot (handed each popped item; still counts cascades)
    and on the step listeners (handed its priority); the rig labels it."""

    def __init__(self, rig) -> None:
        super().__init__()
        self.rig = rig
        self.pops: List[list] = []

    def observe(self, sim, now, item) -> None:
        super().observe(sim, now, item)
        self.pops.append([now, None, type(item).__name__,
                          self.rig.label(item)])

    def listen(self, now, priority, seq) -> None:
        self.pops[-1][1] = priority


class Rig:
    """A recorded simulator driven by a program, a list of steps ``(tick,
    ops)``.  One step is one engine callback (its ops run back to back, like
    a process that does not yield in between); steps sharing a tick are
    separate callbacks at the same instant."""

    TICK = TICK
    ENDS = ()  # errors run() logs (both designs must meet them, at once)
    DESCRIBE = True  # label an unnamed pop describe(), else by its type

    def __init__(self) -> None:
        self.recorder = PopRecorder(self)
        self.sim = Simulator(seed=0, watchdog=self.recorder)
        self.sim.trace.step_listeners.append(self.recorder.listen)
        self.sim.rig = self
        self.log: List[tuple] = []

    def label(self, item) -> str:
        return item.name or (item.describe() if self.DESCRIBE
                             else type(item).__name__)

    def run(self, program):
        for step, (tick, ops) in enumerate(program):
            self.sim.call_at(tick * self.TICK, self.step, step, ops)
        try:
            self.sim.run()
        except self.ENDS as error:
            self.log.append(("raised", self.sim.now, repr(error)))
        return self

    def step(self, step, ops) -> None:
        for op in ops:
            self.do(op)

    def outcome(self, rules):
        """``(log, state, normalised pops, raw pops)``; sets ``counts``."""
        pops, self.counts = normalise(self.recorder.pops, rules)
        return self.log, self.state(), pops, self.recorder.pops


def mailbox(ctx):
    """A rank's application: the blocking sends posted to its mailbox, in
    order, each just behind the ``isend`` it may bring (the rig drives
    everything else)."""
    rig = ctx.sim.rig
    box = rig.boxes[ctx.job.name][ctx.rank]
    while True:
        dst, nbytes, data, first = yield box.get()
        if first is not None:
            rig.isend(ctx, dst, nbytes, first)
        yield from ctx.send(dst, 0, data, nbytes)
        rig.log.append(("returned", ctx.sim.now, ctx.job.name, ctx.rank,
                        data[0]))


def ids(packets):
    return [(p.src, p.seq) for p in packets]


def gates(channel):
    """Whether the stopper (Nemesis) is open, and each frozen destination
    with the sends still waiting for it, in the order they were frozen."""
    stopper = getattr(channel, "stopper", None)
    return (stopper is None or stopper.is_open,
            [(dst, sum(1 for waiter in waiters if waiter.callbacks))
             for dst, waiters in dict(channel._frozen_dsts).items()])


def daemon_state(channel):
    """(busy, hops still waited for), whichever design runs ch_v's daemon."""
    daemon = getattr(channel, "_daemon", None)
    if daemon is not None:
        return daemon.in_use, sum(1 for waiter in daemon._waiters
                                  if waiter.callbacks)
    if not isinstance(channel, ChVChannel):
        return None
    return (int(channel._serving is not None),
            sum(1 for queued in channel._queue if len(queued[0].callbacks) > 1))


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


class Recording:
    """Logs every ``handle_packet``, then runs the operation an application
    packet carries, if any — from inside the receive path, like a protocol
    hook."""

    def handle_packet(self, packet):
        rig = self.sim.rig
        app = isinstance(packet, AppPacket)
        rig.log.append(("packet" if app else "control", self.sim.now,
                        *rig.who(self), packet.src,
                        packet.seq if app else packet.wave, self.down))
        super().handle_packet(packet)
        if app and packet.data[1] is not None:
            rig.do(packet.data[1])


def recording(device, *mixins):
    """``device`` under ``mixins``, logging every packet it handles."""
    return type("".join(m.__name__ for m in mixins) + device.__name__,
                (Recording, *mixins, device), {})


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


class ChainEndpoint(BaseEndpoint):
    """The endpoint as shipped: ``_fan_out`` chains callbacks."""

    def on_control(self, packet):
        pass  # logged by the channel


class JobRig(Rig):
    """``n_ranks`` ranks two to a node (with an ``endpoint`` each and a
    rank ``context`` class, if given) and a service node with one side
    connection per rank: a process runs what it reads, the other way
    carries the rank's transfer-tax stream.  An op ``(verb, rank, ...)``
    runs ``do_<verb>``; one carried by a packet runs when it is handled.
    Each rank's application makes the blocking sends posted to its
    mailbox."""

    app = staticmethod(mailbox)
    HOPS = False  # log ch_v's daemon hops: the rig is the metrics registry
    ENDS = (ConnectionError,)  # a rank shut down under its job's mesh builder
    #: what a reincarnation carried by a packet folds to
    KILL = "shutdown"

    def __init__(self, n_ranks, channel, endpoint=None, context=None):
        super().__init__()
        if self.HOPS:
            self.sim.metrics = self
        self.channel_cls, self.endpoint_cls = channel, endpoint
        self.context_cls = context
        self.n_ranks = n_ranks
        self.net = ClusterNetwork(self.sim, n_nodes=(n_ranks + 1) // 2 + 1)
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
        #: ``(request event, channel)`` by the event's id: the channel
        #: behind every request and pusher process
        self.owners = {}
        #: ``(serial, what the post returned)`` of every isend made
        self.isends = []
        #: the bootstraps of fan-outs a rank that was already down asked for
        self.stillborn = []
        self.serial = self.wave = 0
        self.adopting = False
        self.boxes = defaultdict(lambda: [Store(self.sim, name=f"box:r{rank}")
                                          for rank in range(n_ranks)])
        self._launch({})
        self.side, self.tax = [], []
        for rank, endpoint in enumerate(self.endpoints):
            connection = self.net.connect(Endpoint(service, 0), endpoint)
            self.side.append(connection.end_a)
            self.tax.append(connection.end_b)
            self.sim.process(self._side_reader(connection.end_b),
                             name=f"side:r{rank}")

    @property
    def job(self):
        return self.jobs[-1]

    def _launch(self, links):
        job = MPIJob(self.sim, self.net, self.endpoints, self.app,
                     self.channel_cls, name=f"job{len(self.jobs)}",
                     inherited_links=links)
        if self.context_cls is not None:
            for context in job.contexts:
                context.__class__ = self.context_cls
        job.failure_listener = lambda rank, peer: self.log.append(
            ("closed", self.sim.now, job.name, rank, peer))
        self.jobs.append(job)
        if self.endpoint_cls is not None:
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

    def run(self, program):
        return super().run(fit(program, self.n_ranks, self.KILL))

    def do(self, op):
        getattr(self, "do_" + op[0])(*op[1:])

    def who(self, channel):
        """How a logged packet names the rank that handled it."""
        return (channel.rank,)

    def observe(self, name, value, **labels):
        if name == "channel.daemon_hop_seconds":
            self.log.append(("hop", self.sim.now, labels["rank"], value))

    def count(self, name, amount=1.0, **labels):
        pass  # the metrics registry keeps only the daemon hops

    set = count

    # ------------------------------------------------------- pop labels
    def label(self, item):
        label = super().label(item)
        if self.stillborn and any(item is boot for boot in self.stillborn):
            return "gone:" + label
        if label.startswith("vdaemon:") and not self._waited(item):
            return "dead:" + label  # a hop whose waiter left: runs nothing
        if label.startswith("isend:") and (
                self.owner_down(item) or getattr(item, "error", None)):
            # a request of a rank that is down, or a pusher whose send
            # failed before it left (a chain makes no done event then)
            return "gone:" + label
        return label

    def owner_down(self, item):
        owner = self.owners.get(id(item))
        return owner is not None and owner[1].down

    def _waited(self, hop) -> bool:
        """Whether anyone but the daemon and the pushers of ranks that are
        down waits for ``hop``."""
        for callback in hop.callbacks:
            owner = getattr(callback, "__self__", None)
            if not (owner is None or isinstance(owner, ChVChannel)
                    or isinstance(owner, Process) and self.owner_down(owner)):
                return True
        return False

    # ------------------------------------------------------------- verbs
    def do_send(self, a, b, nbytes, carried):
        """An ``isend`` nobody waits for: inline, else a send chain (the
        spec: a pusher); a failure inside the post is logged, a later one
        is kept where a wait would raise it."""
        self.serial += 1
        data = (self.serial, carried)
        channel = self.job.channels[a]
        if channel.down:
            return
        try:
            self._isend(channel, b, data, nbytes)
        except ConnectionError:
            self.log.append(("send-refused", self.sim.now, data[0]))

    def _isend(self, channel, dst, data, nbytes):
        if not hasattr(channel, "try_fast_send"):
            posted = channel.post(dst, 0, data, nbytes)
            if isinstance(posted, SendChain):
                posted.label = "isend"
        else:
            posted = channel.try_fast_send(dst, 0, data, nbytes)
            if posted is None:
                posted = push(channel, dst, 0, data, nbytes)
        self.isends.append((data[0], posted))
        self.when_done(posted, channel)

    def do_isend_send(self, a, b, nbytes, carried):
        """Rank ``a``'s application posts an ``isend`` and then a blocking
        send to ``b``, back to back; the send carries the op."""
        self.serial += 2
        self.boxes[self.job.name][a].put(
            (b, nbytes, (self.serial, carried), (self.serial - 1, None)))

    def isend(self, context, dst, nbytes, data):
        """``context.isend``; its completion is logged while its rank
        lives."""
        try:
            request = context.isend(dst, 0, data, nbytes)
        except ConnectionError:
            self.log.append(("refused", self.sim.now, data[0]))
            return
        self.isends.append((data[0], request.posted))

        def completed(done):
            # else the rank is gone with it, or (a pusher) its send failed
            # before it left
            if (not context.channel.down
                    and getattr(done, "error", None) is None):
                self.log.append(("isend-done", self.sim.now, data[0],
                                 done._ok))

        self.when_done(request.posted, context.channel, completed)

    def when_done(self, posted, channel, callback=None):
        """Note the event that completes the ``isend`` a post returned
        ``posted`` for (its transmit-complete event, a chain's ``done``
        once made, a pusher) as ``channel``'s, and run ``callback`` in its
        pop."""
        def note(event):
            self.owners[id(event)] = (event, channel)
            if callback is not None:
                event.callbacks.append(callback)

        if isinstance(posted, SendChain):
            commit = posted.on_commit

            def committed(dst, packet):
                if commit is not None:
                    commit(dst, packet)
                note(posted.sent if posted.done is None else posted.done)

            posted.on_commit = committed
        else:
            note(posted)

    def do_side(self, a, b, nbytes, carried):
        self.serial += 1
        self.side[a].send(carried, nbytes + HEADER_BYTES)

    def do_recv(self, a, b):
        channel = self.job.channels[a]
        if not channel.down:
            channel.matching.post_recv(b, ANY_TAG).callbacks.append(
                lambda event: self.log.append(
                    ("matched", self.sim.now, a, event._ok,
                     event._ok and event._value[0])))

    def do_flush(self, a, b):
        if self._connection(a, b) is not None:
            self._connection(a, b).flush()

    def do_break(self, a, b):
        if self._connection(a, b) is not None:
            self._connection(a, b).break_()

    def do_shutdown(self, a, _):
        self.job.channels[a].shutdown()

    def do_detach(self, a, _):
        self.protocols[-1].endpoints[a].detach()

    def do_fanout(self, a, _):
        channel = self.job.channels[a]
        endpoint = self.protocols[-1].endpoints[a]
        self.wave += 1
        helpers = len(endpoint._helpers)
        endpoint._fan_out([rank for rank in range(self.n_ranks) if rank != a],
                          MarkerPacket, self.wave)
        if channel.down:
            # the helper process of a dead rank still boots, the chain does
            # not start
            self.stillborn.extend(
                helper._target for helper in endpoint._helpers[helpers:]
                if isinstance(helper, Process))

    def do_reincarnate(self, a, b):
        """What FTRun's survivor policies do: rank ``a`` is lost, the
        protocol is detached, the others' sockets outlive the
        incarnation."""
        if self.adopting:
            return
        job = self.job
        for endpoint in self.protocols[-1].endpoints if self.protocols else ():
            endpoint.detach()
        links = job.harvest_links(
            [rank for rank in range(self.n_ranks)
             if rank != a and not job.channels[rank].down])
        job.kill()
        for end_lo, _end_hi in links.values():
            end_lo.connection.flush()
        self.adopting = True
        if b:
            self.sim.call_at(b * self.TICK, self._launch, links)
        else:
            self._launch(links)

    # ------------------------------------------------------------- state
    def state(self):
        channels = [
            (job.name, c.rank, c.down, c._seq, ids(c.matching.unexpected),
             len(c.matching.posted), *self.extra(c))
            for job in self.jobs for c in job.channels]
        markers = [protocol.stats.markers_sent for protocol in self.protocols]
        pipes = [(p.name, p.broken, p.bytes_sent, p.messages_sent,
                  len(p.inbox), p.pumping)
                 for connection in self.connections
                 for p in connection.pipes]
        # what a wait on each isend would raise
        failed = [(serial, type(posted.error).__name__)
                  for serial, posted in self.isends
                  if getattr(posted, "error", None) is not None]
        return channels, markers, pipes, failed

    def extra(self, channel):
        """The rig's own columns of a channel's state row."""
        return sorted(channel.conns), gates(channel), daemon_state(channel)


def fit(program, n_ranks, kill="shutdown"):
    """Fold rank indices into ``n_ranks``.  An operation carried by a packet
    runs inside the receiver, so it must not kill the rank running it: a
    process that is interrupted while it runs and then yields is outside
    what the spec (or any process here) defines."""
    def fold(op, runs_on=None):
        if op is None:
            return None
        verb, a, b = op[0], op[1] % n_ranks, op[2]
        if verb in ("send", "isend", "isend_send", "freeze", "recv", "flush",
                    "break"):
            b %= n_ranks
        if verb in ("send", "isend", "isend_send"):
            return (verb, a, b, op[3], fold(op[4], runs_on=b))
        if verb == "side":
            return (verb, a, b, op[3], fold(op[4]))
        if runs_on is not None:
            if verb == "reincarnate":
                verb, b = kill, 0
            if verb == kill and a == runs_on:
                a = (a + 1) % n_ranks
        return (verb, a, b)

    return [(tick, [fold(op) for op in ops]) for tick, ops in program]


# ----------------------------------------------------------------- programs
RANK = st.integers(0, MAX_RANKS - 1)


def pair(*verbs):
    """Ops ``(verb, rank, rank)``."""
    return st.tuples(st.sampled_from(verbs), RANK, RANK)


def lone(*verbs):
    """Ops ``(verb, rank, 0)``."""
    return st.tuples(st.sampled_from(verbs), RANK, st.just(0))


def by_tick(steps, min_size, max_size):
    return st.lists(steps, min_size=min_size, max_size=max_size).map(
        lambda steps: sorted(steps, key=lambda step: step[0]))


def programs(sizes, ticks, gentle, kill="shutdown", sends=("send",),
             weight=1, extra=()):
    """Programs of a rig's ``gentle`` ops (``weight`` times, plus ``extra``),
    ``sends`` of ``sizes`` and teardowns up to tick ``ticks``: mostly
    traffic — a program that only tears down compares nothing — with at
    most one direct teardown closing a step, in one step out of five."""
    size = st.sampled_from(sizes)
    gentle = st.one_of(*gentle)
    harsh = st.one_of(
        pair("break"), lone(kill),
        st.tuples(st.just("reincarnate"), RANK, st.integers(0, 2)))
    send = st.tuples(st.sampled_from(sends), RANK, RANK, size, st.none())
    carried = st.one_of(gentle, gentle, harsh)
    ops = st.one_of(
        send, send, send, *[gentle] * weight, *extra,
        st.tuples(st.sampled_from(sends), RANK, RANK, size, carried),
        st.tuples(st.just("side"), RANK, st.just(0), size, carried),
    )
    steps = st.tuples(
        st.integers(0, ticks), st.lists(ops, min_size=1, max_size=6),
        st.one_of(*[st.just([])] * 4, st.lists(harsh, min_size=1, max_size=1)),
    ).map(lambda step: (step[0], step[1] + step[2]))
    return by_tick(steps, 4, 24)


# ------------------------------------------------------------ process specs
class ProcessRx:
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
                self.socket_closed(peer)
                return
            yield from self._received(packet)
            self.handle_packet(packet)

    def _received(self, packet):
        """Between taking ``packet`` and handling it: nothing."""
        return iter(())

    def _stop_receiving(self):
        for receiver in self.__dict__.pop("_receivers", ()):
            receiver.interrupt("channel shut down")


class GeneratorSend:
    """The channel's send family as generators, as it was (its commit
    step is the channel's ``_commit_send``: the connection takes the
    packet, then it is accounted) but for the one call that connects
    (:meth:`_establish`) and a :meth:`shutdown` that stops the rank's
    sends.  A held send waits on the one thing that holds it
    (``dst_open``, or its link), and a send posted while an earlier one to
    its destination is held waits on the same event (:meth:`_hold`).  A
    send whose destination froze during its daemon hop waits for the
    freeze and takes no second hop."""

    def post_send(self, dst, tag, data, nbytes):
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        packet = self._number(tag, data, nbytes)
        end, overhead = yield from self._send_packet(dst, packet, gated=True)
        return self._commit_send(end, packet, dst, nbytes, overhead)

    def send_control(self, dst, packet):
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        end, overhead = yield from self._send_packet(dst, packet,
                                                     gated=False)
        end.send(packet, HEADER_BYTES, extra_latency=overhead, notify=False)

    def _send_packet(self, dst, packet, gated):
        """Wait until ``packet`` may go: ``(end, extra latency)``."""
        ahead = self._held_to(dst) if gated else None
        if ahead is not None:
            _, _, event, link = ahead
            yield from self._hold(dst, packet, event, link)
            if link and dst not in self.conns:
                raise ConnectionResetError(f"link to r{dst} gone")
        while True:
            if gated and not self.send_open(dst):
                yield from self._hold(dst, packet, self.dst_open(dst), False)
                continue
            end = self.conns.get(dst)
            if end is None:
                end = yield from self._establish(dst,
                                                 packet if gated else None)
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
            while gated and not self.send_open(dst):
                # frozen during the hop: wait, and take no second hop
                yield self.dst_open(dst)
        return end, overhead

    def _hold(self, dst, packet, event, link):
        """Wait for ``event`` as a send its link (``link``) or a freeze
        holds: a send posted to ``dst`` meanwhile waits behind it."""
        entry = (packet.seq, dst, event, link)
        held = self.__dict__.setdefault("held", [])
        held.append(entry)
        try:
            yield event
        finally:
            held.remove(entry)

    def _held_to(self, dst):
        """The last posted send to ``dst`` a send posted now must wait
        behind, as ``(seq, dst, event, link)``: one waiting for its link,
        or one a lifted freeze has woken; or None."""
        return max((entry for entry in self.__dict__.get("held", ())
                    if entry[1] == dst
                    and (entry[3] or entry[2].triggered)), default=None,
                   key=lambda entry: entry[0])

    def try_fast_send(self, dst, tag, data, nbytes):
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        end = self.conns.get(dst)
        if (end is None or not self.send_open(dst)
                or self._held_to(dst) is not None):
            return None
        overhead = self.send_overhead(nbytes + HEADER_BYTES) \
            + self.transfer_tax()
        if overhead > 0.0 and not self.defer_send_overhead:
            return None
        packet = self._number(tag, data, nbytes)
        return self._commit_send(end, packet, dst, nbytes, overhead)

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
        ``ChannelDownError`` only then; none of that reached the wire,
        and the chain does none of it.)"""
        if not self.down:
            helpers = getattr(self.protocol, "_helpers", ())
            for sender in (*self.__dict__.pop("pushers", ()), *helpers):
                if isinstance(sender, Process):
                    sender.interrupt("channel shut down")
        super().shutdown(error)

    def _establish(self, dst, packet=None):
        """Connect through ``MPIJob.establish``: the handshake is the
        job's (see ``AbortingHandshake`` in the send rig for how it
        was); an application ``packet`` is held there."""
        link = self.job.establish(self.rank, dst)
        if link is not None:
            if packet is None:
                yield link
            else:
                yield from self._hold(dst, packet, link, True)
        end = self.conns.get(dst)
        if end is None:
            raise ConnectionResetError(
                f"link {self.rank}<->{dst} vanished during establish")
        return end


class Posted(Process):
    """A process whose first step runs inside the call that makes it (a
    :class:`Process` takes it one URGENT step later): a send started where
    it is posted.  Its failure, and the ``error`` of a send that failed
    before it left, are raised where it is waited for."""

    def __init__(self, sim, generator, name):
        Event.__init__(self, sim, name=name)
        self.generator = generator
        self._target = None
        self.defused = True
        self.error = None
        go = Event(sim)
        go._ok, go._value = True, None
        self._resume(go)


def push(channel, dst, tag, data, nbytes, commit=None):
    """The spec's ``isend`` pusher process, started inside its post: the
    process send path (so its packet is numbered and its first wait joined
    there, as a blocking send's), the send's ``commit``, then the wait for
    the wire; it ends one step after the packet left, or fails with its
    pipe.  A failure before the wire is raised here when it happens inside
    the post, else kept in the pusher's ``error``."""
    def pusher():
        try:
            sent = yield from channel.post_send(dst, tag, data, nbytes)
        except ConnectionError as error:
            process.error = error
            return
        if commit is not None:
            commit()
        yield sent

    channel.__dict__.setdefault("pushers", [])
    process = Posted(channel.sim, pusher(),
                     name=f"isend:r{channel.rank}->r{dst}")
    if process.error is not None:
        raise process.error
    channel.pushers.append(process)
    return process


class PusherContext(RankContext):
    """``send`` / ``isend`` as they were: the slow path of a blocking send
    runs inside the application process, an ``isend`` that misses the
    inline path is a pusher process."""

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
        return Request(push(self.channel, dst, tag, data, nbytes,
                            lambda: self._commit(op_id)))


# ---------------------------------------------------------------- negatives
class DeferredStart:
    """Broken on purpose: the start rule as it was.  An ``isend`` (a post
    with ``defer``, which :class:`DeferredStartContext` makes) that has to
    wait takes its sequence number and its first step one URGENT step
    after the post, so a send posted behind it can leave first."""

    class _Chain(SendChain):
        __slots__ = ()

        def _step(self, event=None):
            if self._stage != _START:
                return super()._step(event)
            self.waiting = None
            self._packet = self.channel._number(*self._packet, self.nbytes)
            try:
                self._go()
            except ConnectionError as error:
                self._fail(error)

    def post(self, dst, tag, data, nbytes, defer=False):
        if not defer or (dst in self.conns and self.defer_send_overhead
                         and self.send_open(dst)):
            return super().post(dst, tag, data, nbytes)
        if self.down:
            raise ChannelDownError(f"rank {self.rank} channel is down")
        chain = self._Chain(self, "send", None)
        chain._dst, chain._packet, chain.nbytes = dst, (tag, data), nbytes
        chain._defer()
        return chain


class DeferredStartContext(RankContext):
    """The ``isend`` that asks :class:`DeferredStart` for its old rule."""

    __slots__ = ()

    def isend(self, dst, tag=0, data=None, nbytes=0.0):
        op_id = self._begin()
        if op_id is None:
            return Request(None)
        posted = self.channel.post(dst, tag, data, nbytes, defer=True)
        if isinstance(posted, SendChain):
            posted.label = "isend"
            posted.on_commit = partial(self._sent, op_id)
        else:
            self._commit(op_id)
        return Request(posted)


class EarlyIsend(RankContext):
    """Broken on purpose: an ``isend`` that has to wait completes in the
    pop of its packet's transmit-complete event, as a blocking send
    returns, not one step later where the pusher ends."""

    __slots__ = ()

    def isend(self, dst, tag=0, data=None, nbytes=0.0):
        request = super().isend(dst, tag, data, nbytes)
        if isinstance(request.posted, SendChain):
            request.posted.label = "early"  # makes no done event
        return request


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
