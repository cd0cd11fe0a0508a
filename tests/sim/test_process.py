"""Unit tests for generator processes and interruption."""

import pytest

from repro.sim import Interrupt, Simulator


def test_process_runs_at_spawn_time():
    sim = Simulator()
    marks = []

    def worker():
        marks.append(sim.now)
        yield sim.timeout(1.0)
        marks.append(sim.now)

    sim.process(worker())
    sim.run()
    assert marks == [0.0, 1.0]


def test_process_return_value_is_event_value():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(worker())
    sim.run()
    assert proc.processed and proc.ok and proc.value == "done"


def test_join_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 7

    def parent():
        value = yield sim.process(child())
        return value + 1

    proc = sim.process(parent())
    assert sim.run_until_complete(proc) == 8


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "x"

    kid = sim.process(child())

    def parent():
        yield sim.timeout(5.0)
        value = yield kid
        return value

    proc = sim.process(parent())
    assert sim.run_until_complete(proc) == "x"


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def parent():
        try:
            yield sim.process(child())
        except KeyError:
            return "caught"

    proc = sim.process(parent())
    assert sim.run_until_complete(proc) == "caught"


def test_unjoined_exception_raises_from_run():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise KeyError("nobody listens")

    sim.process(child())
    with pytest.raises(KeyError):
        sim.run()


def test_interrupt_wakes_process_with_cause():
    sim = Simulator()
    outcome = []

    def worker():
        try:
            yield sim.timeout(100.0)
        except Interrupt as exc:
            outcome.append((sim.now, exc.args[0]))

    proc = sim.process(worker())
    sim.call_at(3.0, proc.interrupt, "node failure")
    sim.run()
    assert outcome == [(3.0, "node failure")]


def test_unhandled_interrupt_kills_process_silently():
    sim = Simulator()

    def worker():
        yield sim.timeout(100.0)

    proc = sim.process(worker())
    sim.call_at(1.0, proc.interrupt)
    sim.run()  # must not raise
    assert proc.processed and not proc.ok
    assert isinstance(proc.value, Interrupt)


def test_interrupt_dead_process_is_noop():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    proc = sim.process(worker())
    sim.run()
    proc.interrupt()  # no effect, no raise
    sim.run()
    assert proc.ok


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            log.append(("interrupted", sim.now))
        yield sim.timeout(1.0)
        log.append(("resumed", sim.now))

    proc = sim.process(worker())
    sim.call_at(2.0, proc.interrupt)
    sim.run()
    # The abandoned 100 s timeout still drains from the heap later, but it
    # must not affect the process.
    assert log == [("interrupted", 2.0), ("resumed", 3.0)]


def test_alive_flag():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)

    proc = sim.process(worker())
    assert proc.alive
    sim.run()
    assert not proc.alive


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def worker():
        yield 42

    proc = sim.process(worker())
    with pytest.raises(TypeError):
        sim.run()
    assert proc.processed and not proc.ok


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_interrupt_does_not_leak_target_event_wakeup():
    """After an interrupt, the originally awaited event must not resume us."""
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(5.0)
            log.append("timeout fired into worker")
        except Interrupt:
            log.append("interrupted")
            yield sim.timeout(10.0)
            log.append("second wait done")

    proc = sim.process(worker())
    sim.call_at(1.0, proc.interrupt)
    sim.run()
    assert log == ["interrupted", "second wait done"]
