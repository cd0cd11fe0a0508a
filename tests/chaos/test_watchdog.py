"""Engine progress watchdog: livelocks trip, legitimate bursts do not."""

import pytest

from repro.sim import LivelockError, Simulator, Watchdog
from repro.sim.engine import DEFAULT_MAX_SAME_TIME_EVENTS
from repro.verify import InvariantViolation, MonitorBus
from repro.verify.monitors.engine import LivelockMonitor


def _spinner(sim):
    """A process that reschedules itself at zero delay forever."""

    def spin():
        while True:
            yield sim.timeout(0.0, name="spin-step")

    return sim.process(spin(), name="spinner")


# ----------------------------------------------------------- cascade trips
@pytest.mark.unmonitored
def test_zero_time_cascade_trips_livelock_error():
    sim = Simulator(watchdog=Watchdog(max_same_time_events=500))
    _spinner(sim)
    with pytest.raises(LivelockError) as exc_info:
        sim.run(until=10.0)
    error = exc_info.value
    assert error.kind == "zero-time-cascade"
    assert error.time == 0.0
    assert error.cascade_length >= 500
    # The repeating cycle names the event and the waiting process.
    assert error.cycle_exact
    assert any("spin-step" in entry for entry in error.cycle)
    message = str(error)
    assert "repeating event cycle" in message
    assert "spinner" in message


@pytest.mark.unmonitored
def test_waiting_report_names_heap_head():
    """With other processes parked on the heap, the trip message lists who
    is waiting."""
    sim = Simulator(watchdog=Watchdog(max_same_time_events=500))

    def sleeper():
        yield sim.timeout(1e9, name="long-sleep")

    sim.process(sleeper(), name="parked-process")
    _spinner(sim)
    with pytest.raises(LivelockError) as exc_info:
        sim.run(until=10.0)
    message = str(exc_info.value)
    assert "who is waiting" in message
    assert "parked-process" in message


@pytest.mark.unmonitored
def test_two_process_cycle_is_reported():
    sim = Simulator(watchdog=Watchdog(max_same_time_events=200))

    def ping(other_name):
        while True:
            yield sim.timeout(0.0, name=f"step:{other_name}")

    sim.process(ping("b"), name="proc-a")
    sim.process(ping("a"), name="proc-b")
    with pytest.raises(LivelockError) as exc_info:
        sim.run()
    cycle = exc_info.value.cycle
    assert exc_info.value.cycle_exact
    assert len(cycle) == 2
    assert {entry.split(" -> ")[1] for entry in cycle} == {"proc-a", "proc-b"}


@pytest.mark.unmonitored
def test_cascade_through_a_pipe_names_the_pipe():
    """The pipe pump is callbacks, not a process; a cascade that spins
    through it must still say which pipe: the kick and ``flow.done`` events
    resolve their ``_Pipe`` owner's name."""
    from repro.net import ClusterNetwork

    sim = Simulator(watchdog=Watchdog(max_same_time_events=200,
                                      sample_window=16))
    net = ClusterNetwork(sim, n_nodes=3)
    a, b, c = net.place(3)
    bulk = net.connect(a, b).end_a
    chatty = net.connect(a, c).end_a
    bulk.send("image", nbytes=1e9)  # a flow in flight keeps a's NIC busy,
    # so even empty messages take the flow path: kick -> flow-done -> sent

    def send_again(_event):
        chatty.send("spin", nbytes=0.0).callbacks.append(send_again)

    sim.call_at(1.0, send_again, None)
    with pytest.raises(LivelockError) as exc_info:
        sim.run(until=10.0)
    error = exc_info.value
    assert error.time == 1.0 and error.cycle_exact
    assert set(error.cycle) == {
        "sent:conn2.ab", "pump:conn2.ab -> conn2.ab", "flow-done -> conn2.ab"}
    assert bulk.active_flow is not None and bulk.active_flow.active


@pytest.mark.unmonitored
def test_waiting_report_names_the_pipe_of_a_pending_hand_over():
    """Reception is callbacks too: a delivery waiting for its hand-over is
    a bare timer on the heap, and the who-is-waiting report must still say
    which pipe — what ``get:inbox:conn1.ab -> rx:r1<-r0`` said when a
    process read the pipe."""
    from repro.net import ClusterNetwork

    class Sink:
        def handle_packet(self, payload):
            pass

    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=2)
    a, b = net.place(2)
    conn = net.connect(a, b)
    sender, receiver = conn.end_a, conn.end_b
    receiver.set_sink(Sink())
    sender.send("packet", nbytes=10.0)
    assert [entry.split(" ", 3)[3] for entry in Watchdog._waiting_report(sim)
            ] == ["sent:conn1.ab", "call:_Pipe._deliver conn1.ab"]
    sim.step()
    sim.step()  # delivered: the hand-over hop is all that is left
    (entry,) = Watchdog._waiting_report(sim)
    assert entry.endswith(" prio=1 seq=3 call:_Pipe._hand_over conn1.ab")


@pytest.mark.unmonitored
def test_waiting_report_skips_garbage_before_truncating():
    """Garbage at the heap head — cancelled timers, entries superseded by a
    re-arm — must not crowd live waiters out of the report, however much
    of it there is."""
    sim = Simulator()
    for i in range(60):
        sim.call_at(1.0, lambda: None, name=f"dead-{i}").cancel()
    moved = [sim.call_at(1.5, lambda: None, name=f"moved-{i}")
             for i in range(60)]
    for timer in moved:
        timer.rearm(50.0)
    for i in range(100):
        sim.call_at(2.0 + i, lambda: None, name=f"live-{i}")
    report = Watchdog._waiting_report(sim, limit=12)
    assert [entry.split(" ", 3)[3] for entry in report] == [
        f"live-{i}" for i in range(12)]


@pytest.mark.unmonitored
def test_watchdog_reset_forgets_streak():
    watchdog = Watchdog(max_same_time_events=50)
    sim = Simulator(watchdog=watchdog)
    _spinner(sim)
    with pytest.raises(LivelockError):
        sim.run(until=1.0)
    watchdog.reset()
    sim2 = Simulator(watchdog=watchdog)
    for i in range(30):
        sim2.call_at(float(i), lambda: None)
    sim2.run()  # clock advances every pop: no trip
    assert sim2.now >= 29.0


def test_watchdog_parameter_validation():
    with pytest.raises(ValueError):
        Watchdog(max_same_time_events=0)
    with pytest.raises(ValueError):
        Watchdog(sample_window=2)
    with pytest.raises(ValueError):
        Watchdog(wall_stall_seconds=0.0)


# --------------------------------------------------- legitimate bursts pass
def test_large_barrier_burst_does_not_trip():
    """A 337-process barrier releases every waiter in one zero-time cascade;
    that legitimate burst (~1.3k pops) must stay far below the default
    budget."""
    sim = Simulator(watchdog=Watchdog())  # default threshold
    n = 337
    barrier = sim.event(name="barrier")
    done = []

    def worker(rank):
        yield barrier
        # a few more zero-time hops after the release, like a real barrier
        # exit path (fan-out of sends at the same timestamp)
        yield sim.timeout(0.0)
        yield sim.timeout(0.0)
        done.append(rank)

    for rank in range(n):
        sim.process(worker(rank), name=f"w{rank}")
    sim.call_at(5.0, barrier.succeed)
    sim.run()
    assert len(done) == n


def test_default_threshold_matches_engine_constant():
    assert Watchdog().max_same_time_events == DEFAULT_MAX_SAME_TIME_EVENTS
    assert LivelockMonitor().max_same_time_events == DEFAULT_MAX_SAME_TIME_EVENTS


# ------------------------------------------------------------- wall stall
@pytest.mark.unmonitored
def test_wall_stall_trips_with_injected_clock():
    ticks = iter(range(10_000))
    watchdog = Watchdog(
        max_same_time_events=10**9,  # never trip on the cascade counter
        wall_stall_seconds=5.0,
        clock=lambda: float(next(ticks)),  # 1 "second" per check
    )
    sim = Simulator(watchdog=watchdog)
    _spinner(sim)
    with pytest.raises(LivelockError) as exc_info:
        sim.run(until=1.0)
    assert exc_info.value.kind == "wall-stall"


@pytest.mark.unmonitored
def test_wall_clock_not_consulted_when_disabled():
    def boom():  # the default watchdog must never read the host clock
        raise AssertionError("wall clock consulted")

    sim = Simulator(watchdog=Watchdog(max_same_time_events=100, clock=boom))
    _spinner(sim)
    with pytest.raises(LivelockError) as exc_info:
        sim.run(until=1.0)
    assert exc_info.value.kind == "zero-time-cascade"


# ------------------------------------------------- the monitor-side twin
@pytest.mark.unmonitored
def test_livelock_monitor_reports_cascade():
    sim = Simulator()
    bus = MonitorBus([LivelockMonitor(max_same_time_events=300)],
                     raise_on_violation=True)
    bus.attach(sim)
    _spinner(sim)
    with pytest.raises(InvariantViolation, match="livelock"):
        sim.run(until=1.0)


@pytest.mark.unmonitored
def test_livelock_monitor_quiet_on_progress():
    sim = Simulator()
    monitor = LivelockMonitor(max_same_time_events=100)
    bus = MonitorBus([monitor], raise_on_violation=True)
    bus.attach(sim)
    for i in range(500):
        sim.call_at(float(i) * 0.01, lambda: None)
    sim.run()
    bus.finish()
    assert bus.ok
    assert monitor.checked == 500


@pytest.mark.unmonitored
def test_waiting_report_names_the_waiters_of_a_chv_daemon_hop():
    """ch_v's daemon readers and the markers' fan-out are callbacks, not
    processes; a daemon hop on the heap must still say whose it is — what
    ``Timeout -> rx:r1<-r0`` said when processes waited on the daemon."""
    from repro.mpi import ChVChannel
    from tests.ft.conftest import build_ft_run, ring_app_factory

    sim = Simulator(seed=7)
    run, _net = build_ft_run(sim, ring_app_factory(iters=8), 3,
                             protocol="vcl", channel_cls=ChVChannel,
                             period=0.2)
    run.start()
    seen = set()
    while sim.peek() < 2.0 and len(seen) < 2:
        for entry in Watchdog._waiting_report(sim, limit=64):
            label = entry.split(" ", 3)[3]
            if label.startswith("vdaemon:r1 -> rx:r1<-r"):
                seen.add("reader")
            if label == "vdaemon:r1 -> fan-out:vcl:MarkerPacket:r1":
                seen.add("fan-out")
        sim.step()
    assert seen == {"reader", "fan-out"}


@pytest.mark.unmonitored  # the second run is left stuck at a closed gate
def test_waiting_report_names_the_send_chains():
    """A send is a chain of callbacks, not a process: the event it waits
    on names it — an ``isend`` and a fan-out at ch_v's daemon; at a closed
    gate, a blocking send's chain and, behind it, the application process
    that waits on the same event."""
    from repro.mpi import ChVChannel
    from tests.ft.conftest import build_ft_run, ring_app_factory

    sim = Simulator(seed=7)
    run, _net = build_ft_run(sim, ring_app_factory(iters=8), 3,
                             protocol="vcl", channel_cls=ChVChannel,
                             period=0.2)
    run.start()
    seen = set()
    while sim.peek() < 2.0 and len(seen) < 2:
        for entry in Watchdog._waiting_report(sim, limit=64):
            label = entry.split(" ", 3)[3]
            if label == "vdaemon:r1 -> isend:r1->r2":
                seen.add("isend")
            if label == "vdaemon:r2 -> fan-out:vcl:MarkerPacket:r2":
                seen.add("fan-out")
        sim.step()
    assert seen == {"isend", "fan-out"}

    sim = Simulator(seed=7)
    run, _net = build_ft_run(sim, ring_app_factory(iters=8), 3,
                             protocol=None)
    run.start()
    while 1 not in run.job.channels[0].conns:
        sim.step()
    run.job.channels[0].send_gate(1).close()
    blocked = "gate:g:r0->r1 -> send:r0->r1,ftrun#1:r0"
    labels = set()
    while sim.peek() < 2.0 and blocked not in labels:
        sim.step()
        labels = {event.describe()
                  for event in run.job.channels[0].send_gate(1)._waiters}
    assert blocked in labels
