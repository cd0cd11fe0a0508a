"""TimerHandle semantics and tombstone compaction.

The kernel's cancellable timers are the hot path of the flow scheduler:
cancellation must be O(1) and absolute (the callback never runs), lazy
tombstones must never perturb the clock, the watchdog or the monitors, and
compaction must bound the heap so a cancel-heavy workload cannot grow it
without bound.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import SimulationError, Simulator, TimerHandle, Watchdog


def test_call_at_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    handle = sim.call_at(1.0, fired.append, "a")
    assert isinstance(handle, TimerHandle)
    assert handle.time == 1.0
    assert not handle.cancelled
    sim.run()
    assert fired == ["a"]


def test_cancelled_timer_never_fires_and_skips_clock():
    sim = Simulator()
    fired = []
    victim = sim.call_at(1.0, fired.append, "victim")
    sim.call_at(2.0, fired.append, "kept")
    victim.cancel()
    sim.run()
    assert fired == ["kept"]
    # the tombstone at t=1 is discarded without the clock ever being 1.0
    assert sim.now == 2.0
    assert sim.events_processed == 1


def test_cancel_from_inside_callback():
    """Cancelling a same-timestamp sibling from a callback must prevent it."""
    sim = Simulator()
    fired = []
    second = [None]

    def first():
        fired.append("first")
        second[0].cancel()

    sim.call_at(1.0, first)
    second[0] = sim.call_at(1.0, fired.append, "second")
    sim.run()
    assert fired == ["first"]


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_at(-0.5, lambda: None)


def test_peek_skips_tombstones():
    sim = Simulator()
    t1 = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    t1.cancel()
    assert sim.peek() == 2.0


def test_run_until_complete_skips_tombstones_before_limit_check():
    """A cancelled timer past the limit must not raise TimeLimitError."""
    sim = Simulator()
    late = sim.call_at(100.0, lambda: None)
    done = sim.event()
    sim.call_at(1.0, done.succeed)
    late.cancel()
    sim.run_until_complete(done, limit=10.0)
    assert sim.now == 1.0


def test_step_on_tombstone_only_heap_raises():
    sim = Simulator()
    sim.call_at(1.0, lambda: None).cancel()
    with pytest.raises(SimulationError):
        sim.step()


def test_compaction_bounds_heap_growth():
    """A cancel-heavy workload keeps the heap proportional to *live* timers:
    tombstones never exceed live entries once past the compaction floor."""
    sim = Simulator()
    live = [sim.call_at(1e6 + i, lambda: None) for i in range(10)]
    for i in range(10_000):
        sim.call_at(10.0 + i * 1e-3, lambda: None).cancel()
        # invariant after every cancel: heap <= live + max(floor, live + 1)
        assert len(sim._heap) <= len(live) + max(
            Simulator.COMPACT_MIN_TOMBSTONES, len(live) + 1
        )
    assert len(sim._heap) < 2 * (len(live) + Simulator.COMPACT_MIN_TOMBSTONES)


def test_compaction_preserves_order_and_liveness():
    """Compacting mid-run drops no live timer and keeps firing order."""
    sim = Simulator()
    fired = []
    handles = [sim.call_at(float(i + 1), fired.append, i) for i in range(300)]
    for i, handle in enumerate(handles):
        if i % 3 != 0:  # cancel 2/3 -> crosses the compaction threshold
            handle.cancel()
    assert sim._tombstones < 200  # compaction ran at least once
    sim.run()
    assert fired == [i for i in range(300) if i % 3 == 0]


def test_watchdog_report_excludes_tombstones():
    sim = Simulator()
    for i in range(5):
        sim.call_at(1.0 + i, lambda: None, name=f"live-{i}")
    for i in range(5):
        sim.call_at(0.5 + i, lambda: None, name=f"dead-{i}").cancel()
    report = Watchdog._waiting_report(sim)
    assert len(report) == 5
    assert all("live-" in line for line in report)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_random_cancellation_only_live_timers_fire(schedule):
    """For any schedule/cancel pattern: exactly the non-cancelled timers
    fire, in (time, creation order), and never after cancellation."""
    sim = Simulator()
    fired = []
    expected = []
    for index, (delay, keep) in enumerate(schedule):
        handle = sim.call_at(delay, fired.append, index)
        if keep:
            expected.append((delay, index))
        else:
            handle.cancel()
    sim.run()
    assert fired == [index for _delay, index in sorted(expected)]
    assert sim._tombstones == 0
    assert not sim._heap


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_random_mid_run_cancellation(data):
    """Cancels issued *during* the run (from other timers) still guarantee
    the victim never fires."""
    n = data.draw(st.integers(min_value=2, max_value=25))
    delays = data.draw(st.lists(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        min_size=n, max_size=n))
    sim = Simulator()
    fired = []
    handles = {}
    for index, delay in enumerate(delays):
        handles[index] = sim.call_at(delay, fired.append, index)
    # pair up (canceller_time, victim): victims whose fire time is after the
    # canceller must not fire
    n_cancels = data.draw(st.integers(min_value=1, max_value=n // 2))
    cancelled = set()
    for _ in range(n_cancels):
        victim = data.draw(st.integers(min_value=0, max_value=n - 1))
        at = data.draw(st.floats(min_value=0.0, max_value=20.0,
                                 allow_nan=False))
        if at < delays[victim] and victim not in cancelled:
            cancelled.add(victim)
            sim.call_at(at, handles[victim].cancel)
    sim.run()
    assert set(fired) == set(range(n)) - cancelled


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_slot_reuse_never_resurrects_cancelled_timer(data):
    """Re-armable slots take sequence numbers from the same counter that
    cancelled timers' tombstones were issued from, and every re-arm leaves
    a superseded entry behind for the loop or a compaction to discard.  No
    interleaving of cancels with re-arm churn on *other* slots may ever
    resurrect a cancelled timer — and every live slot still fires exactly
    once, at its final position."""
    sim = Simulator()
    fired = []
    n = data.draw(st.integers(min_value=3, max_value=20))
    handles = [sim.call_at(
        data.draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False)),
        fired.append, index) for index in range(n)]
    alive = set(range(n))
    for _ in range(data.draw(st.integers(min_value=5, max_value=80))):
        index = data.draw(st.integers(min_value=0, max_value=n - 1))
        if index in alive and data.draw(st.booleans()):
            handles[index].cancel()
            alive.discard(index)
        elif index in alive:
            # churn: moves later and moves earlier, both legal
            handles[index].rearm(data.draw(st.floats(
                min_value=0.0, max_value=30.0, allow_nan=False)))
    sim.run()
    assert sorted(fired) == sorted(alive)          # no resurrection, no loss
    assert len(fired) == len(set(fired))           # and exactly once each
    expected = sorted(alive, key=lambda i: (handles[i].time, handles[i].seq))
    assert fired == expected                       # at the final position


def test_compaction_bounds_memory_under_100k_churn():
    """100k short-lived timers — a third cancelled, a third re-armed, a
    third fired — with a small persistent live set: the heap (live entries
    plus tombstones) stays bounded by a small multiple of the live set,
    never accumulating the churn."""
    sim = Simulator()
    fired = []
    persistent = [sim.call_at(1e9 + i, fired.append, -1 - i)
                  for i in range(32)]
    floor = Simulator.COMPACT_MIN_TOMBSTONES
    live_churn = 0
    for i in range(100_000):
        handle = sim.call_at(0.5 + (i % 512) * 1e-4, fired.append, i)
        if i % 3 == 0:
            handle.cancel()
        elif i % 3 == 1:
            handle.rearm(0.25)      # earlier: tombstones the first entry
            handle.cancel()
        else:
            live_churn += 1         # left to fire
        if i % 512 == 511:
            before = len(fired)
            sim.run(until=sim.now + 1.0)   # drain the pending churn slice
            live_churn -= len(fired) - before
        # the memory invariant: live entries plus tombstones, bounded by
        # the live set and the compaction policy's floor — never by the
        # 100k timers churned through
        live_now = len(persistent) + live_churn
        assert len(sim._heap) <= 2 * live_now + 2 * floor + 4
        assert sim._tombstones <= max(floor, len(sim._heap) // 2 + 1)
    assert sim._tombstones_total > 60_000   # the churn really happened
    assert sim.compactions > 0
    sim.run(until=2e9)
    assert len(fired) == 32 + sum(1 for i in range(100_000) if i % 3 == 2)
    assert sim._tombstones == 0
