"""Unit tests for the fluid-flow bandwidth model."""

import pytest

from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim import Simulator


def make(capacity=100.0):
    sim = Simulator()
    return sim, FlowScheduler(sim), Link("l", capacity)


def finish_time(sim, flow):
    sim.run_until_complete(flow.done)
    return sim.now


def test_single_flow_full_capacity():
    sim, sched, link = make(100.0)
    flow = sched.start([link], 1000.0)
    assert finish_time(sim, flow) == pytest.approx(10.0)


def test_zero_byte_flow_completes_immediately():
    sim, sched, link = make()
    flow = sched.start([link], 0.0)
    assert flow.finished
    sim.run()
    assert sim.now == 0.0


def test_empty_path_completes_immediately():
    sim, sched, _ = make()
    flow = sched.start([], 1e9)
    assert flow.finished


def test_negative_size_rejected():
    sim, sched, link = make()
    with pytest.raises(ValueError):
        sched.start([link], -1.0)


def test_two_flows_share_capacity():
    sim, sched, link = make(100.0)
    f1 = sched.start([link], 1000.0)
    f2 = sched.start([link], 1000.0)
    sim.run()
    # Both at 50 B/s -> both finish at t=20.
    assert f1.finished and f2.finished
    assert sim.now == pytest.approx(20.0)


def test_late_second_flow_slows_first():
    sim, sched, link = make(100.0)
    f1 = sched.start([link], 1000.0)
    done_times = {}
    f1.done.callbacks.append(lambda ev: done_times.setdefault("f1", sim.now))

    def second():
        yield sim.timeout(5.0)
        f2 = sched.start([link], 250.0)
        yield f2.done
        done_times["f2"] = sim.now

    sim.process(second())
    sim.run()
    # f1: 500 B in first 5 s, then shares: both run at 50 B/s.
    # f2 finishes at 5 + 250/50 = 10; f1 then has 250 B left at full rate
    # -> finishes at 10 + 250/100 = 12.5.
    assert done_times["f2"] == pytest.approx(10.0)
    assert done_times["f1"] == pytest.approx(12.5)


def test_flow_rate_capped():
    sim, sched, link = make(100.0)
    flow = sched.start([link], 100.0, cap=10.0)
    assert finish_time(sim, flow) == pytest.approx(10.0)


def test_bottleneck_is_slowest_link():
    sim = Simulator()
    sched = FlowScheduler(sim)
    fast = Link("fast", 1000.0)
    slow = Link("slow", 10.0)
    flow = sched.start([fast, slow], 100.0)
    assert finish_time(sim, flow) == pytest.approx(10.0)


def test_shared_middle_link():
    """Two flows sharing only a middle link each get half of it."""
    sim = Simulator()
    sched = FlowScheduler(sim)
    a_tx, b_tx = Link("a.tx", 1000.0), Link("b.tx", 1000.0)
    wan = Link("wan", 100.0)
    c_rx, d_rx = Link("c.rx", 1000.0), Link("d.rx", 1000.0)
    f1 = sched.start([a_tx, wan, c_rx], 500.0)
    f2 = sched.start([b_tx, wan, d_rx], 500.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)
    assert f1.finished and f2.finished


def test_cancel_frees_bandwidth():
    sim, sched, link = make(100.0)
    f1 = sched.start([link], 1000.0)
    f2 = sched.start([link], 1000.0)
    f2.done.defused = True

    def canceller():
        yield sim.timeout(10.0)
        sched.cancel(f2)
        yield f1.done
        return sim.now

    proc = sim.process(canceller())
    # 10 s at 50 B/s leaves f1 500 B; then full rate -> +5 s.
    assert sim.run_until_complete(proc) == pytest.approx(15.0)


def test_cancel_fails_done_event():
    sim, sched, link = make(100.0)
    flow = sched.start([link], 1000.0)

    def waiter():
        with pytest.raises(ConnectionError):
            yield flow.done
        return "ok"

    proc = sim.process(waiter())
    sim.call_at(1.0, sched.cancel, flow)
    assert sim.run_until_complete(proc) == "ok"
    assert flow.cancelled and not flow.finished


def test_cancel_finished_flow_is_noop():
    sim, sched, link = make(100.0)
    flow = sched.start([link], 100.0)
    sim.run()
    assert flow.finished
    sched.cancel(flow)
    assert flow.finished and not flow.cancelled


def test_links_emptied_after_completion():
    sim, sched, link = make(100.0)
    sched.start([link], 100.0)
    sim.run()
    assert not link.flows
    assert not sched.active


def test_many_flows_conserve_throughput():
    sim, sched, link = make(100.0)
    flows = [sched.start([link], 100.0) for _ in range(10)]
    sim.run()
    assert all(f.finished for f in flows)
    # 1000 bytes over a 100 B/s link: exactly 10 s regardless of sharing.
    assert sim.now == pytest.approx(10.0)


def test_link_capacity_validation():
    with pytest.raises(ValueError):
        Link("bad", 0.0)
