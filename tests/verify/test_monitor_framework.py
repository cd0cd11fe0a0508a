"""Framework-level tests: bus routing, violation windows, tracer plumbing,
the offline CLI, and monitor unit behaviour on synthetic record streams."""

import pytest

from repro.sim import Simulator
from repro.sim.trace import TraceRecord, Tracer, dump_jsonl, load_jsonl
from repro.verify import InvariantViolation, Monitor, MonitorBus, all_monitors
from repro.verify.cli import check_trace, main
from repro.verify.monitors.engine import MonotoneClockMonitor
from repro.verify.monitors.pcl import PclFlushMonitor
from repro.verify.monitors.transport import FdBudgetMonitor, FifoDeliveryMonitor
from repro.verify.monitors.vcl import VclLoggingMonitor, VclNoOrphanMonitor

pytestmark = pytest.mark.unmonitored


def rec(time, category, **fields):
    return TraceRecord(time, category, tuple(fields.items()))


# --------------------------------------------------------------------- tracer
def test_tracer_subscription_delivers_matching_categories():
    tracer = Tracer(enabled=False)
    seen = []
    tracer.subscribe(seen.append, ["a", "b"])
    assert tracer.wants("a") and tracer.wants("b") and not tracer.wants("c")
    tracer.record(1.0, "a", x=1)
    tracer.record(2.0, "c", x=2)
    tracer.record(3.0, "b", x=3)
    assert [r.category for r in seen] == ["a", "b"]
    assert tracer.records == []  # storage disabled, delivery still live
    tracer.unsubscribe(seen.append)
    tracer.record(4.0, "a", x=4)
    assert len(seen) == 2 and not tracer.wants("a")


def test_tracer_wildcard_subscription_sees_everything():
    tracer = Tracer(enabled=False)
    seen = []
    tracer.subscribe(seen.append)  # categories=None
    tracer.record(1.0, "whatever", n=1)
    assert tracer.wants("anything") and len(seen) == 1


def test_jsonl_roundtrip(tmp_path):
    records = [rec(0.5, "mpi.send", src=0, dst=1, seq=3),
               rec(0.7, "ft.marker_recv", rank=1, src=0, wave=1)]
    path = str(tmp_path / "trace.jsonl")
    assert dump_jsonl(records, path) == 2
    loaded = list(load_jsonl(path))
    assert loaded[0].get("seq") == 3
    assert loaded[1].category == "ft.marker_recv"
    assert loaded[1].time == 0.7


# ------------------------------------------------------------------------ bus
def test_bus_routes_by_category_and_reports_window():
    class OnlyA(Monitor):
        name = "only-a"
        categories = ("a",)

        def on_record(self, record):
            self.checked += 1
            if record.get("bad"):
                self.violation(record.time, "bad record")

    monitor = OnlyA()
    bus = MonitorBus([monitor], window=4)
    bus.dispatch(rec(1.0, "b", bad=True))  # wrong category: ignored
    bus.dispatch(rec(2.0, "a"))
    assert monitor.checked == 1
    with pytest.raises(InvariantViolation) as err:
        bus.dispatch(rec(3.0, "a", bad=True))
    violation = err.value
    assert violation.monitor == "only-a"
    assert [r.time for r in violation.window] == [1.0, 2.0, 3.0]
    assert "event window" in str(violation)
    assert not bus.ok


def test_bus_collect_mode_and_verdicts():
    class Grumpy(Monitor):
        name = "grumpy"
        categories = ("x",)

        def on_record(self, record):
            self.checked += 1
            self.violation(record.time, "always unhappy")

    bus = MonitorBus([Grumpy()], raise_on_violation=False)
    bus.dispatch(rec(1.0, "x"))
    bus.dispatch(rec(2.0, "x"))
    assert len(bus.finish()) == 2
    verdict = bus.verdicts()["grumpy"]
    assert verdict == {"ok": False, "checked": 2,
                       "violations": ["always unhappy", "always unhappy"]}


@pytest.mark.unmonitored  # the listener list is read whole
def test_bus_hooks_only_the_monitors_that_want_steps():
    """The per-pop listener list holds each stepping monitor's bound
    ``on_step`` and nothing else: with every shipped monitor that is the
    clock monitor's alone, and a bus of record-only monitors adds none."""
    sim = Simulator(seed=1)
    bus = MonitorBus(all_monitors())
    bus.attach(sim)
    steppers = [m for m in bus.monitors if m.wants_steps]
    assert [m.name for m in steppers] == ["monotone-clock"]
    assert sim.trace.step_listeners == [steppers[0].on_step]
    bus.detach()

    bus = MonitorBus([FifoDeliveryMonitor(), PclFlushMonitor()])
    bus.attach(sim)
    assert sim.trace.step_listeners == []
    bus.detach()


def test_bus_attach_detach_on_simulator():
    sim = Simulator(seed=1)
    bus = MonitorBus(all_monitors())
    bus.attach(sim)
    assert sim.trace.step_listeners  # the clock monitor wants steps
    sim.call_at(1.0, lambda: None)
    sim.run()
    clock = bus.monitors[0]
    assert isinstance(clock, MonotoneClockMonitor) and clock.checked > 0
    bus.detach()
    assert not sim.trace.step_listeners
    bus.attach(sim)  # re-attach after detach is allowed
    with pytest.raises(RuntimeError):
        bus.attach(sim)  # double attach is not


def test_standalone_monitor_raises_without_bus():
    monitor = FdBudgetMonitor()
    with pytest.raises(InvariantViolation):
        monitor.on_record(rec(0.0, "runtime.validated", n_ranks=400,
                              launcher="Dispatcher", fd_limit=1024,
                              sockets_per_process=3, reserved_fds=16,
                              max_processes=336))


# ------------------------------------------------------------ monitors (unit)
def test_monotone_clock_accepts_urgent_events_scheduled_in_place():
    monitor = MonotoneClockMonitor()
    monitor.on_step(1.0, 1, 5)
    monitor.on_step(1.0, 0, 9)   # pushed during seq 5's processing: legal
    monitor.on_step(1.0, 1, 10)
    monitor.on_step(2.0, 1, 2)   # later time, recycled-looking seq: legal


def test_monotone_clock_rejects_clock_regression_and_stale_urgent():
    monitor = MonotoneClockMonitor()
    monitor.on_step(2.0, 1, 5)
    with pytest.raises(InvariantViolation):
        monitor.on_step(1.0, 1, 6)
    monitor = MonotoneClockMonitor()
    monitor.on_step(1.0, 1, 7)
    with pytest.raises(InvariantViolation):
        # seq 3 was pushed before seq 7 at equal urgency, yet popped after
        monitor.on_step(1.0, 1, 3)


def test_fifo_monitor_rejects_out_of_order_and_unsent_deliveries():
    monitor = FifoDeliveryMonitor()
    monitor.on_record(rec(0.1, "net.sent", pipe="conn1.ab", msg=1, nbytes=8))
    monitor.on_record(rec(0.2, "net.sent", pipe="conn1.ab", msg=2, nbytes=8))
    monitor.on_record(rec(0.3, "net.delivered", pipe="conn1.ab", msg=1))
    with pytest.raises(InvariantViolation):  # duplicate / regression
        monitor.on_record(rec(0.4, "net.delivered", pipe="conn1.ab", msg=1))
    with pytest.raises(InvariantViolation):  # never sent
        monitor.on_record(rec(0.5, "net.delivered", pipe="conn1.ab", msg=9))


def test_fifo_monitor_rejects_out_of_order_channel_delivery():
    monitor = FifoDeliveryMonitor()
    monitor.on_record(rec(0.1, "mpi.deliver", job=1, rank=1, src=0, seq=2))
    with pytest.raises(InvariantViolation):
        monitor.on_record(rec(0.2, "mpi.deliver", job=1, rank=1, src=0, seq=1))
    # distinct jobs have independent sequence spaces
    monitor.on_record(rec(0.3, "mpi.deliver", job=2, rank=1, src=0, seq=1))


def test_orphan_monitor_flags_post_snapshot_send_delivered_pre_snapshot():
    monitor = VclNoOrphanMonitor()
    monitor.on_record(rec(1.0, "ft.local_checkpoint", rank=0, wave=1,
                          protocol="vcl"))
    monitor.on_record(rec(1.1, "mpi.send", job=1, src=0, dst=1, seq=4,
                          nbytes=100, wave=1, state="normal", protocol="vcl"))
    with pytest.raises(InvariantViolation) as err:
        # rank 1 has not checkpointed wave 1 yet
        monitor.on_record(rec(1.2, "mpi.deliver", job=1, rank=1, src=0, seq=4))
    assert "orphan" in str(err.value)


def test_orphan_monitor_accepts_marker_first_order():
    monitor = VclNoOrphanMonitor()
    monitor.on_record(rec(1.0, "ft.local_checkpoint", rank=0, wave=1,
                          protocol="vcl"))
    monitor.on_record(rec(1.1, "mpi.send", job=1, src=0, dst=1, seq=4,
                          nbytes=100, wave=1, state="normal", protocol="vcl"))
    monitor.on_record(rec(1.2, "ft.local_checkpoint", rank=1, wave=1,
                          protocol="vcl"))
    monitor.on_record(rec(1.3, "mpi.deliver", job=1, rank=1, src=0, seq=4))


def test_logging_monitor_requires_log_before_cut_crossing_delivery():
    monitor = VclLoggingMonitor()
    monitor.on_record(rec(1.0, "ft.logging_open", rank=1, wave=1, peers=(0,)))
    monitor.on_record(rec(1.1, "ft.logged", rank=1, src=0, seq=7, wave=1,
                          nbytes=64))
    monitor.on_record(rec(1.1, "mpi.deliver", job=1, rank=1, src=0, seq=7))
    with pytest.raises(InvariantViolation):  # seq 8 crosses the cut unlogged
        monitor.on_record(rec(1.2, "mpi.deliver", job=1, rank=1, src=0, seq=8))


def test_logging_monitor_replay_must_be_exactly_once():
    monitor = VclLoggingMonitor()
    monitor.on_record(rec(1.0, "ft.logging_open", rank=1, wave=1, peers=(0,)))
    monitor.on_record(rec(1.1, "ft.logged", rank=1, src=0, seq=7, wave=1,
                          nbytes=64))
    monitor.on_record(rec(2.0, "ft.restarted", wave=1, incarnation=1))
    monitor.on_record(rec(2.1, "ft.replayed", rank=1, src=0, seq=7, wave=1))
    with pytest.raises(InvariantViolation):  # twice
        monitor.on_record(rec(2.2, "ft.replayed", rank=1, src=0, seq=7, wave=1))
    monitor.finish()  # session complete: no missing replays


def test_logging_monitor_flags_lost_log_at_session_end():
    monitor = VclLoggingMonitor()
    monitor.on_record(rec(1.0, "ft.logging_open", rank=1, wave=1, peers=(0,)))
    monitor.on_record(rec(1.1, "ft.logged", rank=1, src=0, seq=7, wave=1,
                          nbytes=64))
    monitor.on_record(rec(2.0, "ft.restarted", wave=1, incarnation=1))
    with pytest.raises(InvariantViolation) as err:
        monitor.finish()  # wave-1 log never replayed
    assert "never replayed" in str(err.value)


def test_pcl_monitor_flags_send_and_frozen_delivery_while_checkpointing():
    monitor = PclFlushMonitor()
    monitor.on_record(rec(1.0, "ft.enter_wave", rank=0, wave=1))
    with pytest.raises(InvariantViolation):
        monitor.on_record(rec(1.1, "mpi.send", job=1, src=0, dst=1, seq=3,
                              nbytes=64, wave=1, state="checkpointing",
                              protocol="pcl"))
    monitor = PclFlushMonitor()
    monitor.on_record(rec(1.0, "ft.enter_wave", rank=1, wave=1))
    monitor.on_record(rec(1.1, "ft.marker_recv", rank=1, src=0, wave=1,
                          protocol="pcl"))
    with pytest.raises(InvariantViolation):
        monitor.on_record(rec(1.2, "mpi.deliver", job=1, rank=1, src=0, seq=9))
    # after the resume the very same delivery is the delayed queue draining
    monitor = PclFlushMonitor()
    monitor.on_record(rec(1.0, "ft.enter_wave", rank=1, wave=1))
    monitor.on_record(rec(1.1, "ft.marker_recv", rank=1, src=0, wave=1,
                          protocol="pcl"))
    monitor.on_record(rec(1.5, "ft.resume", rank=1, wave=1))
    monitor.on_record(rec(1.5, "mpi.deliver", job=1, rank=1, src=0, seq=9))


def test_fd_budget_monitor_boundary():
    monitor = FdBudgetMonitor()
    budget = dict(launcher="Dispatcher", fd_limit=1024, sockets_per_process=3,
                  reserved_fds=16, max_processes=336)
    monitor.on_record(rec(0.0, "runtime.validated", n_ranks=336, **budget))
    with pytest.raises(InvariantViolation):
        monitor.on_record(rec(0.0, "runtime.validated", n_ranks=337, **budget))
    # launchers without an fd wall are not judged
    monitor.on_record(rec(0.0, "runtime.validated", n_ranks=10_000,
                          launcher="InstantLauncher"))


# ------------------------------------------------------------------- offline
def test_offline_cli_flags_bad_trace_and_accepts_good_one(tmp_path, capsys):
    good = str(tmp_path / "good.jsonl")
    dump_jsonl([
        rec(0.1, "net.sent", pipe="conn1.ab", msg=1, nbytes=8),
        rec(0.2, "net.delivered", pipe="conn1.ab", msg=1),
    ], good)
    bad = str(tmp_path / "bad.jsonl")
    dump_jsonl([
        rec(0.1, "net.sent", pipe="conn1.ab", msg=1, nbytes=8),
        rec(0.2, "net.delivered", pipe="conn1.ab", msg=1),
        rec(0.3, "net.delivered", pipe="conn1.ab", msg=1),
    ], bad)
    assert main([good]) == 0
    assert check_trace(good).ok
    assert main([bad, "--keep-going"]) == 1
    out = capsys.readouterr().out
    assert "good.jsonl: OK" in out
    assert "bad.jsonl: FAIL" in out and "fifo-delivery" in out


def test_offline_cli_checks_a_real_simulation_dump(tmp_path):
    """End-to-end: dump a monitored categories trace of a real run, then
    re-check it offline."""
    from tests.ft.conftest import build_ft_run, ring_app_factory

    tracer = Tracer(enabled=True, categories=MonitorBus(all_monitors()).categories())
    sim = Simulator(seed=7, trace=tracer)
    run, _ = build_ft_run(sim, ring_app_factory(iters=10), size=2,
                          protocol="vcl", period=0.2)
    run.start()
    sim.run_until_complete(run.completed, limit=1e5)
    path = str(tmp_path / "run.jsonl")
    assert dump_jsonl(tracer.records, path) > 0
    bus = check_trace(path)
    assert bus.ok, [str(v) for v in bus.violations]
    assert sum(m.checked for m in bus.monitors) > 0
