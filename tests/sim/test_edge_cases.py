"""Edge-case coverage for the kernel: cancelled waiters, stale callbacks,
condition corner cases."""

import pytest

from repro.sim import Interrupt, Simulator, Store, Resource
from repro.sim.primitives import Gate


def test_store_skips_interrupted_waiter():
    """An interrupted getter must not swallow the next item."""
    sim = Simulator()
    store = Store(sim, "s")
    got = []

    def victim():
        yield store.get()  # will be interrupted before anything arrives

    def survivor():
        item = yield store.get()
        got.append(item)

    victim_proc = sim.process(victim())
    sim.process(survivor())
    sim.call_at(1.0, victim_proc.interrupt)
    sim.call_at(2.0, store.put, "payload")
    sim.run()
    assert got == ["payload"]


def test_resource_skips_interrupted_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="r")
    order = []

    def holder():
        yield res.acquire()
        yield sim.timeout(5.0)
        res.release()

    def victim():
        yield res.acquire()
        order.append("victim")  # pragma: no cover - must not happen

    def survivor():
        yield sim.timeout(1.0)
        yield res.acquire()
        order.append("survivor")
        res.release()

    sim.process(holder())
    victim_proc = sim.process(victim())
    sim.process(survivor())
    sim.call_at(2.0, victim_proc.interrupt)
    sim.run()
    assert order == ["survivor"]


def test_gate_skips_interrupted_waiter():
    sim = Simulator()
    gate = Gate(sim, open=False)
    passed = []

    def walker(tag):
        yield gate.wait()
        passed.append(tag)

    victim_proc = sim.process(walker("victim"))
    sim.process(walker("ok"))
    sim.call_at(1.0, victim_proc.interrupt)
    sim.call_at(2.0, gate.open)
    sim.run()
    assert passed == ["ok"]


def test_timer_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    timer = sim.call_at(5.0, fired.append, "x")
    sim.call_at(7.0, fired.append, "y")
    timer.cancel()
    timer.cancel()  # idempotent
    sim.run()
    assert fired == ["y"]
    assert sim.now == 7.0
    # the tombstone is discarded without advancing the clock or counting
    # as a processed event
    assert sim.events_processed == 1


def test_interrupt_cause_none():
    sim = Simulator()
    causes = []

    def worker():
        try:
            yield sim.timeout(10.0)
        except Interrupt as exc:
            causes.append(exc.args[0])

    proc = sim.process(worker())
    sim.call_at(1.0, proc.interrupt)
    sim.run()
    assert causes == [None]


def test_condition_duplicate_children():
    sim = Simulator()
    t = sim.timeout(1.0, value="v")
    cond = sim.all_of([t, t])
    sim.run()
    assert cond.processed and cond.ok
    assert cond.value == {t: "v"}


def test_nested_conditions():
    sim = Simulator()
    inner = sim.any_of([sim.timeout(1.0, value="a"), sim.timeout(9.0)])
    outer = sim.all_of([inner, sim.timeout(2.0, value="b")])

    def waiter():
        value = yield outer
        return sim.now

    assert sim.run_until_complete(sim.process(waiter())) == 2.0


def test_process_joining_interrupted_process_sees_failure():
    sim = Simulator()

    def child():
        yield sim.timeout(100.0)

    kid = sim.process(child())

    def parent():
        try:
            yield kid
        except Interrupt:
            return "child was killed"

    proc = sim.process(parent())
    sim.call_at(1.0, kid.interrupt)
    assert sim.run_until_complete(proc) == "child was killed"


def test_timeout_zero_fires_at_now():
    sim = Simulator()
    times = []

    def worker():
        yield sim.timeout(0.0)
        times.append(sim.now)

    sim.process(worker())
    sim.run()
    assert times == [0.0]
