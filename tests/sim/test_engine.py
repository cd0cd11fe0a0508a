"""Unit tests for the simulator event loop."""

import pytest

from repro.sim import Simulator, make_simulator
from repro.sim.engine import DeadlockError, SimulationError
from repro.sim.events import URGENT


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_does_not_process_later_events():
    sim = Simulator()
    fired = []
    sim.call_at(5.0, fired.append, "late")
    sim.run(until=3.0)
    assert fired == []
    assert sim.now == 3.0
    sim.run()
    assert fired == ["late"]
    assert sim.now == 5.0


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.call_at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_events_at_same_time_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.call_at(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_call_at_passes_arguments():
    sim = Simulator()
    seen = []
    sim.call_at(0.5, lambda a, b: seen.append((a, b)), 1, 2)
    sim.run()
    assert seen == [(1, 2)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises((SimulationError, ValueError)):
        sim.timeout(-1.0)


def test_step_on_empty_heap_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    sim.timeout(2.0)
    assert sim.peek() == 2.0


def test_run_until_complete_returns_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(3.0)
        return 42

    proc = sim.process(worker())
    assert sim.run_until_complete(proc) == 42
    assert sim.now == 3.0


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    never = sim.event()

    def worker():
        yield never

    proc = sim.process(worker())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(proc)


def test_run_until_complete_respects_limit():
    sim = Simulator()

    def worker():
        yield sim.timeout(100.0)

    proc = sim.process(worker())
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_complete(proc, limit=10.0)


def test_run_until_complete_raises_process_exception():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    proc = sim.process(worker())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_complete(proc)


def test_determinism_same_seed_same_trajectory():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        log = []

        def worker(i):
            rng = sim.rng.stream(f"w{i}")
            for _ in range(5):
                yield sim.timeout(float(rng.uniform(0.1, 1.0)))
                log.append((round(sim.now, 12), i))

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        return log

    assert build_and_run(7) == build_and_run(7)
    assert build_and_run(7) != build_and_run(8)


# ------------------------------------------------------- end of an instant
# Both kernels implement the seam; every test runs on each.
KERNELS = pytest.mark.parametrize("kernel", ["fast", "reference"])


def _closing_log(sim, log, label):
    return lambda: log.append((label, sim.now))


@KERNELS
def test_instant_end_runs_after_every_event_of_the_instant(kernel):
    sim = make_simulator(kernel=kernel)
    log = []
    pops = []
    sim.trace.step_listeners.append(lambda *pop: pops.append(pop))

    def first():
        log.append(("first", sim.now))
        sim.at_instant_end(_closing_log(sim, log, "end"))
        urgent = sim.event()
        urgent.callbacks.append(lambda _e: log.append(("urgent", sim.now)))
        urgent.succeed(priority=URGENT)

    sim.call_at(1.0, first)
    sim.call_at(1.0, lambda: log.append(("second", sim.now)))
    sim.call_at(2.0, lambda: log.append(("later", sim.now)))
    sim.run()
    assert log == [("first", 1.0), ("urgent", 1.0), ("second", 1.0),
                   ("end", 1.0), ("later", 2.0)]
    # not an event: four pops, four listener calls
    assert sim.events_processed == len(pops) == 4


@KERNELS
def test_instant_end_work_scheduled_at_the_instant_runs_before_the_clock_moves(kernel):
    sim = make_simulator(kernel=kernel)
    log = []

    def close():
        log.append(("end", sim.now))
        sim.call_at(0.0, lambda: log.append(("more", sim.now)))
        sim.at_instant_end(_closing_log(sim, log, "end-again"))

    sim.call_at(1.0, sim.at_instant_end, close)
    sim.call_at(3.0, lambda: log.append(("later", sim.now)))
    sim.run()
    assert log == [("end", 1.0), ("more", 1.0), ("end-again", 1.0),
                   ("later", 3.0)]


@KERNELS
def test_instant_end_runs_before_run_until_jumps_the_clock(kernel):
    sim = make_simulator(kernel=kernel)
    log = []
    sim.call_at(1.0, sim.at_instant_end, _closing_log(sim, log, "end"))
    sim.call_at(9.0, lambda: log.append(("late", sim.now)))
    sim.run(until=5.0)
    assert log == [("end", 1.0)]
    assert sim.now == 5.0
    # with nothing scheduled at all, the clock still waits for the callback
    sim.at_instant_end(_closing_log(sim, log, "idle-end"))
    sim.run(until=6.0)
    assert log == [("end", 1.0), ("idle-end", 5.0)]


@KERNELS
def test_instant_end_runs_before_a_drained_heap_deadlocks(kernel):
    sim = make_simulator(kernel=kernel)
    rescued, never = sim.event(), sim.event()
    sim.call_at(2.0, sim.at_instant_end, lambda: rescued.succeed("ok"))
    assert sim.run_until_complete(rescued) == "ok"
    assert sim.now == 2.0
    log = []
    sim.at_instant_end(_closing_log(sim, log, "end"))
    with pytest.raises(DeadlockError):
        sim.run_until_complete(never)
    assert log == [("end", 2.0)]


@KERNELS
def test_step_closes_the_instant_before_advancing(kernel):
    sim = make_simulator(kernel=kernel)
    log = []
    sim.call_at(1.0, lambda: log.append(("event", sim.now)))
    sim.at_instant_end(_closing_log(sim, log, "end"))
    sim.step()
    assert log == [("end", 0.0), ("event", 1.0)]
    sim.at_instant_end(_closing_log(sim, log, "last"))
    assert sim.peek() == float("inf")   # peek never closes an instant
    with pytest.raises(SimulationError):
        sim.step()
    assert log[-1] == ("last", 1.0)
