"""Tests of the hot-path shortcuts: they must be *transparent* — same
semantics and (for the inline network path) same timing as the general
machinery."""

import pytest

from repro.mpi import ChVChannel, FtSockChannel
from repro.mpi.channels.base import HEADER_BYTES, SendChain
from repro.mpi.message import MarkerPacket
from repro.net import ClusterNetwork
from repro.sim import Simulator
from repro.sim.events import Event

from tests.mpi.conftest import make_job, run_job


# ------------------------------------------------------- channel fast send
def goes_inline(channel, dst):
    """Post a non-blocking send: True when it goes out inside the call (its
    transmit-complete event comes back), False when it is chained (it waits
    for something, one URGENT step later)."""
    sent = channel.post(dst, 1, None, 8, defer=True)
    assert isinstance(sent, (Event, SendChain))
    return not isinstance(sent, SendChain)


def test_fast_send_requires_connection(sim):
    def app(ctx):
        yield from ctx.compute(0.0)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert not goes_inline(job.channels[0], 1)


def test_fast_send_respects_closed_gate(sim):
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1, None, 8)
        else:
            yield from ctx.recv(0, 1)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)  # connection now established
    channel = job.channels[0]
    assert goes_inline(channel, 1)
    channel.send_gate(1).close()
    assert not goes_inline(channel, 1)
    channel.resume_sends()
    channel.global_send_gate.close()
    assert not goes_inline(channel, 1)
    sim.run()


def test_fast_send_declined_by_blocking_overhead_channel(sim):
    """ch_v serializes through its daemon, so it must take the slow path."""
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1, None, 8)
        else:
            yield from ctx.recv(0, 1)

    job, _ = make_job(sim, app, size=2, channel_cls=ChVChannel)
    run_job(sim, job)
    assert not goes_inline(job.channels[0], 1)


class _CountedChV(ChVChannel):
    """ch_v, counting the send overheads it works out."""

    __slots__ = ()
    calls = []

    def send_overhead(self, nbytes):
        self.calls.append(nbytes)
        return super().send_overhead(nbytes)


def test_ch_v_works_out_each_send_overhead_once(sim):
    """``post`` leaves a channel that does not defer its overhead to the
    chain, which works it out once to choose between a hop and a put."""
    rounds, size = 10, 8
    _CountedChV.calls = []

    def app(ctx):
        for _ in range(rounds):
            if ctx.rank == 0:
                yield from ctx.send(1, 1, None, 8)
                yield from ctx.recv(size - 1, 1)
            else:
                yield from ctx.recv(ctx.rank - 1, 1)
                yield from ctx.send((ctx.rank + 1) % size, 1, None, 8)

    job, _ = make_job(sim, app, size=size, channel_cls=_CountedChV)
    run_job(sim, job)
    sends = sum(channel._seq for channel in job.channels)
    assert sends == rounds * size
    assert len(_CountedChV.calls) == sends


def test_ch_v_control_packets_work_out_one_header_overhead_each(sim):
    """A control fan-out on ch_v works out one envelope-sized overhead per
    packet, and a marker with no protocol to claim it is dropped."""
    def app(ctx):
        for peer in range(ctx.size):  # bring every link up
            if peer != ctx.rank:
                yield from ctx.send(peer, 1, None, 8)
        for peer in range(ctx.size):
            if peer != ctx.rank:
                yield from ctx.recv(peer, 1)

    job, _ = make_job(sim, app, size=3, channel_cls=_CountedChV)
    run_job(sim, job)
    _CountedChV.calls = []
    job.channels[0].post_control(
        [(1, MarkerPacket(0, 1)), (2, MarkerPacket(0, 1))], "markers")
    sim.run()
    assert _CountedChV.calls == [HEADER_BYTES, HEADER_BYTES]
    assert sim.trace["job.unclaimed_control"] == 2


class _NoHop(FtSockChannel):
    """A channel that does not defer its send overhead but has none: its
    chain puts every packet over a link that is up without a hop."""

    __slots__ = ()
    defer_send_overhead = False


def test_a_chain_that_puts_inside_post_is_committed(sim):
    """``post`` returns a chain only while it waits, so a chain that put its
    packet inside the call cannot miss the context's commit."""
    def app(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, 1, None, 8)  # brings the link up
            yield from ctx.send(1, 1, None, 8)  # chained, put inside post
        else:
            yield from ctx.recv(0, 1)
            yield from ctx.recv(0, 1)

    job, _ = make_job(sim, app, size=2, channel_cls=_NoHop)
    run_job(sim, job)
    assert 1 in job.contexts[0]._completed


def test_transfer_tax_zero_without_transfer(sim):
    def app(ctx):
        yield from ctx.compute(0.0)

    job, _ = make_job(sim, app, size=2)
    run_job(sim, job)
    assert job.channels[0].transfer_tax() == 0.0


# ------------------------------------------------- inline network shortcut
def test_inline_and_flow_paths_agree_on_timing():
    """A small message must take exactly the same time whether it goes
    through the inline shortcut or the fluid-flow pump."""
    def measure(nbytes):
        sim = Simulator(seed=1)
        net = ClusterNetwork(sim, n_nodes=2)
        a, b = net.place(2)
        conn = net.connect(a, b)
        ea, eb = conn.end_a, conn.end_b

        def roundtrip():
            ea.send("m", nbytes=nbytes)
            yield eb.recv()
            return sim.now

        return sim.run_until_complete(sim.process(roundtrip()))

    # 2048 B rides the inline path; compare with the pump path by stuffing
    # the pipe first so the inline check fails.
    def measure_pumped(nbytes):
        sim = Simulator(seed=1)
        net = ClusterNetwork(sim, n_nodes=2)
        a, b = net.place(2)
        conn = net.connect(a, b)
        ea, eb = conn.end_a, conn.end_b
        ea.send("first", nbytes=nbytes)  # occupies the pump

        def roundtrip():
            ea.send("m", nbytes=nbytes)
            yield eb.recv()
            first = sim.now
            yield eb.recv()
            return sim.now - first

        return sim.run_until_complete(sim.process(roundtrip()))

    inline_time = measure(1000.0)
    gap = measure_pumped(1000.0)
    bandwidth = ClusterNetwork(Simulator(), 2).fabric.bandwidth
    assert inline_time == pytest.approx(
        ClusterNetwork(Simulator(), 2).fabric.latency + 1000.0 / bandwidth)
    # back-to-back pumped messages are spaced by their serialization time
    assert gap == pytest.approx(1000.0 / bandwidth, rel=1e-6)


def test_large_message_skips_inline_path():
    sim = Simulator(seed=1)
    net = ClusterNetwork(sim, n_nodes=2)
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    ea.send("big", nbytes=1e6)
    assert ea._out.pumping  # flow machinery engaged

    def reader():
        yield eb.recv()
        return sim.now

    t = sim.run_until_complete(sim.process(reader()))
    assert t == pytest.approx(net.fabric.latency + 1e6 / net.fabric.bandwidth,
                              rel=1e-6)


def test_inline_path_respects_fifo_after_big_message():
    sim = Simulator(seed=1)
    net = ClusterNetwork(sim, n_nodes=2)
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    ea.send("big", nbytes=5e6)

    received = []

    def reader():
        received.append((yield eb.recv()))
        received.append((yield eb.recv()))

    proc = sim.process(reader())
    # small message sent later while the big flow occupies the link: must
    # not overtake
    sim.call_at(0.001, ea.send, "small", 8.0)
    sim.run_until_complete(proc)
    assert received == ["big", "small"]


def test_inline_send_event_fires(sim):
    net = ClusterNetwork(sim, n_nodes=2)
    a, b = net.place(2)
    ea = net.connect(a, b).end_a

    def sender():
        yield ea.send("x", nbytes=8.0)
        return sim.now

    assert sim.run_until_complete(sim.process(sender())) >= 0.0
