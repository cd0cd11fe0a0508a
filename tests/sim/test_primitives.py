"""Unit tests for Store, Resource and Gate."""

import pytest

from repro.sim import Simulator, Store, Resource
from repro.sim.primitives import Gate


# ----------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim, "s")
    store.put("a")
    store.put("b")

    def reader():
        first = yield store.get()
        second = yield store.get()
        return [first, second]

    proc = sim.process(reader())
    assert sim.run_until_complete(proc) == ["a", "b"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim, "s")
    times = []

    def reader():
        item = yield store.get()
        times.append((sim.now, item))

    sim.process(reader())
    sim.call_at(4.0, store.put, "late")
    sim.run()
    assert times == [(4.0, "late")]


def test_store_fifo_waiter_order():
    sim = Simulator()
    store = Store(sim, "s")
    got = []

    def reader(tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(reader("r1"))
    sim.process(reader("r2"))
    sim.call_at(1.0, store.put, "x")
    sim.call_at(1.0, store.put, "y")
    sim.run()
    assert got == [("r1", "x"), ("r2", "y")]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim, "s")
    assert store.try_get() is None
    store.put(1)
    assert store.try_get() == 1
    assert len(store) == 0


def test_store_poison_fails_blocked_getter():
    sim = Simulator()
    store = Store(sim, "s")

    def reader():
        with pytest.raises(ConnectionError):
            yield store.get()
        return "survived"

    proc = sim.process(reader())
    sim.call_at(1.0, store.poison, ConnectionError("broken"))
    assert sim.run_until_complete(proc) == "survived"


def test_store_poison_fails_future_getter():
    sim = Simulator()
    store = Store(sim, "s")
    store.poison(ConnectionError("down"))

    def reader():
        with pytest.raises(ConnectionError):
            yield store.get()

    sim.run_until_complete(sim.process(reader()))


def test_store_put_after_poison_raises():
    sim = Simulator()
    store = Store(sim, "s")
    store.poison(ConnectionError("down"))
    with pytest.raises(RuntimeError):
        store.put("x")


def test_store_drain():
    sim = Simulator()
    store = Store(sim, "s")
    for i in range(3):
        store.put(i)
    assert list(store.drain()) == [0, 1, 2]
    assert len(store) == 0


# --------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2, name="r")
    order = []

    def user(tag, hold):
        yield res.acquire()
        order.append((sim.now, tag, "in"))
        yield sim.timeout(hold)
        res.release()
        order.append((sim.now, tag, "out"))

    sim.process(user("a", 5.0))
    sim.process(user("b", 5.0))
    sim.process(user("c", 1.0))
    sim.run()
    # c waits for a slot until t=5
    assert (0.0, "a", "in") in order and (0.0, "b", "in") in order
    assert (5.0, "c", "in") in order
    assert (6.0, "c", "out") in order


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="r")

    def holder():
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    def waiter():
        yield sim.timeout(1.0)
        yield res.acquire()
        res.release()

    sim.process(holder())
    sim.process(waiter())
    sim.run(until=2.0)
    assert res.in_use == 1
    assert len(res._waiters) == 1
    sim.run()
    assert res.in_use == 0


# ------------------------------------------------------------------- Gate
def test_gate_open_passes_immediately():
    sim = Simulator()
    gate = Gate(sim, open=True, name="g")

    def walker():
        yield gate.wait()
        return sim.now

    assert sim.run_until_complete(sim.process(walker())) == 0.0


def test_gate_closed_blocks_until_open():
    sim = Simulator()
    gate = Gate(sim, open=False, name="g")

    def walker():
        yield gate.wait()
        return sim.now

    proc = sim.process(walker())
    sim.call_at(7.0, gate.open)
    assert sim.run_until_complete(proc) == 7.0


def test_gate_reusable():
    sim = Simulator()
    gate = Gate(sim, open=True)
    passes = []

    def walker():
        yield gate.wait()
        passes.append(sim.now)
        yield sim.timeout(1.0)
        yield gate.wait()
        passes.append(sim.now)

    sim.process(walker())
    sim.call_at(0.5, gate.close)
    sim.call_at(3.0, gate.open)
    sim.run()
    assert passes == [0.0, 3.0]


def test_gate_open_releases_all_waiters():
    sim = Simulator()
    gate = Gate(sim, open=False)
    released = []

    def walker(tag):
        yield gate.wait()
        released.append(tag)

    for tag in "abc":
        sim.process(walker(tag))
    sim.call_at(1.0, gate.open)
    sim.run()
    assert sorted(released) == ["a", "b", "c"]
