"""Unit tests for TCP-like connections."""

import pytest

from repro.net import BrokenConnectionError, ClusterNetwork
from repro.sim import Simulator


def small_net(n_nodes=4):
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=n_nodes)
    return sim, net


def pending(end):
    """Delivered messages ``end`` has not yet had read or handed over."""
    return 0 if end._in._inbox is None else len(end._in._inbox)


def test_send_recv_roundtrip():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b

    def sender():
        yield ea.send("hello", nbytes=1000)

    def receiver():
        msg = yield eb.recv()
        return (sim.now, msg)

    sim.process(sender())
    proc = sim.process(receiver())
    t, msg = sim.run_until_complete(proc)
    assert msg == "hello"
    # latency + 1000B at 117 MB/s
    expected = net.fabric.latency + 1000 / net.fabric.bandwidth
    assert t == pytest.approx(expected, rel=1e-6)


def test_fifo_ordering():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    for i in range(20):
        ea.send(i, nbytes=100 * (20 - i))  # shrinking sizes must not reorder

    def receiver():
        out = []
        for _ in range(20):
            out.append((yield eb.recv()))
        return out

    proc = sim.process(receiver())
    assert sim.run_until_complete(proc) == list(range(20))


def test_duplex_is_independent():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    ea.send("ping", nbytes=10)
    eb.send("pong", nbytes=10)

    def recv_both():
        x = yield eb.recv()
        y = yield ea.recv()
        return (x, y)

    assert sim.run_until_complete(sim.process(recv_both())) == ("ping", "pong")


def test_try_recv_and_pending():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    assert eb.try_recv() is None
    ea.send("m", nbytes=1)
    sim.run()
    assert pending(eb) == 1
    assert eb.try_recv() == "m"
    assert pending(eb) == 0


def test_break_wakes_blocked_reader():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    eb = conn.end_b

    def reader():
        with pytest.raises(BrokenConnectionError):
            yield eb.recv()
        return sim.now

    proc = sim.process(reader())
    sim.call_at(3.0, conn.break_)
    assert sim.run_until_complete(proc) == 3.0


def test_send_on_broken_connection_raises():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea = conn.end_a
    conn.break_()
    with pytest.raises(BrokenConnectionError):
        ea.send("x", nbytes=1)


def test_break_drops_in_flight_messages():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    ea.send("big", nbytes=117e6)  # ~1 s of transfer

    def reader():
        with pytest.raises(BrokenConnectionError):
            yield eb.recv()

    proc = sim.process(reader())
    sim.call_at(0.1, conn.break_)
    sim.run_until_complete(proc)
    assert conn.broken


def test_break_is_idempotent():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    conn.break_()
    conn.break_()
    assert conn.broken


def test_fail_node_breaks_its_connections_only():
    sim, net = small_net(n_nodes=4)
    eps = net.place(4)
    c01 = net.connect(eps[0], eps[1])
    c23 = net.connect(eps[2], eps[3])
    broken = net.fail_node(eps[0].node)
    assert c01 in broken
    assert c01.broken and not c23.broken
    assert not eps[0].node.alive


def test_connect_to_dead_node_refused():
    sim, net = small_net()
    eps = net.place(2)
    net.fail_node(eps[1].node)
    with pytest.raises(ConnectionRefusedError):
        net.connect(eps[0], eps[1])


def test_sent_event_fires_at_transmit_completion():
    sim, net = small_net()
    a, b = net.place(2)
    ea = net.connect(a, b).end_a

    def sender():
        yield ea.send("x", nbytes=net.fabric.bandwidth)  # exactly 1 s
        return sim.now

    assert sim.run_until_complete(sim.process(sender())) == pytest.approx(1.0)


def test_nic_sharing_between_two_connections():
    """Two simultaneous bulk sends from one node share its NIC."""
    sim, net = small_net(n_nodes=3)
    eps = net.place(3)
    e1 = net.connect(eps[0], eps[1]).end_a
    e2 = net.connect(eps[0], eps[2]).end_a
    nbytes = net.fabric.bandwidth  # 1 s alone

    def sender(end):
        yield end.send("bulk", nbytes=nbytes)
        return sim.now

    p1 = sim.process(sender(e1))
    p2 = sim.process(sender(e2))
    sim.run()
    # Shared NIC: each flow at half rate -> ~2 s.
    assert p1.value == pytest.approx(2.0, rel=1e-3)
    assert p2.value == pytest.approx(2.0, rel=1e-3)


def test_same_node_connection_uses_memory_link():
    sim, net = small_net(n_nodes=1)
    eps = net.place(2)  # two slots on the single node
    assert eps[0].node is eps[1].node
    conn = net.connect(eps[0], eps[1])
    ea, eb = conn.end_a, conn.end_b

    def roundtrip():
        ea.send("m", nbytes=0)
        msg = yield eb.recv()
        return (sim.now, msg)

    t, _msg = sim.run_until_complete(sim.process(roundtrip()))
    assert t == pytest.approx(net.shm_fabric.latency)


# ------------------------------------------------------------------ sinks
class Sink:
    """Records what a connection end hands over, with the instant."""

    def __init__(self, sim):
        self.sim = sim
        self.seen = []

    def handle_packet(self, payload):
        self.seen.append((self.sim.now, payload))

    def socket_closed(self, tag):
        self.seen.append((self.sim.now, "closed", tag))


def test_sink_takes_deliveries_one_step_after_arrival():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    sink = Sink(sim)
    eb.set_sink(sink, tag="b")
    ea.send("first", nbytes=100)
    ea.send("second", nbytes=100)
    order = []
    arrival = net.fabric.latency + 100 / net.fabric.bandwidth
    # scheduled before the message is even delivered, for the instant it
    # arrives in: still runs first, because the hand-over is its own step
    sim.call_at(arrival, lambda: order.append(list(sink.seen)))
    sim.run()
    assert [payload for _, payload in sink.seen] == ["first", "second"]
    assert sink.seen[0][0] == arrival and order == [[]]
    assert pending(eb) == 0


def test_reading_an_end_that_has_a_sink_is_refused():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    eb.set_sink(Sink(sim))
    for read in (eb.recv, eb.try_recv):
        with pytest.raises(RuntimeError, match=r"pipe conn1\.ab.*sink"):
            read()
    with pytest.raises(RuntimeError, match=r"pipe conn1\.ab already"):
        eb.set_sink(Sink(sim))
    ea.recv()  # the other direction has no sink: still a reader's
    eb.clear_sink()
    eb.recv()


def test_sink_is_handed_what_was_already_delivered_and_pending_counts_it():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    for i in range(3):
        ea.send(i, nbytes=10)
    sim.run()
    assert pending(eb) == 3
    sink = Sink(sim)
    eb.set_sink(sink)
    assert pending(eb) == 2  # one is on its hop, two wait behind it
    sim.run()
    assert [payload for _, payload in sink.seen] == [0, 1, 2]
    assert pending(eb) == 0


def test_closure_reaches_the_sink_after_everything_delivered():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    ea.send("in-flight", nbytes=10)
    ea.send("behind", nbytes=10)
    sim.run()
    sink = Sink(sim)
    eb.set_sink(sink, tag=7)
    conn.break_()  # with one hand-over scheduled and one message behind it
    ea_sink = Sink(sim)
    ea.set_sink(ea_sink, tag=8)  # registering on a broken pipe: told at once
    sim.run()
    assert [entry[1:] for entry in sink.seen] == [
        ("in-flight",), ("behind",), ("closed", 7)]
    assert [entry[1:] for entry in ea_sink.seen] == [("closed", 8)]
    eb.recv()  # a closure ends the registration


def test_clear_sink_loses_the_scheduled_hand_over_and_keeps_the_rest():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b
    for i in range(3):
        ea.send(i, nbytes=10)
    sim.run()
    first, second = Sink(sim), Sink(sim)
    eb.set_sink(first)
    eb.clear_sink()  # message 0 was taken for `first`: lost with it
    eb.set_sink(second)
    sim.run()
    assert first.seen == []
    assert [payload for _, payload in second.seen] == [1, 2]


def test_sink_may_stop_receiving_from_inside_a_hand_over():
    sim, net = small_net()
    a, b = net.place(2)
    conn = net.connect(a, b)
    ea, eb = conn.end_a, conn.end_b

    class OneShot(Sink):
        def handle_packet(self, payload):
            super().handle_packet(payload)
            eb.clear_sink()

    for i in range(3):
        ea.send(i, nbytes=10)
    sim.run()
    sink = OneShot(sim)
    eb.set_sink(sink)
    sim.run()
    assert [payload for _, payload in sink.seen] == [0]
    assert pending(eb) == 2 and eb.try_recv() == 1
