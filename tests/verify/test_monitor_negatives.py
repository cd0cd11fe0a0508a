"""Verifier verification: every shipped monitor fires on a corrupted trace.

`test_deliberate_breaks` proves the monitors catch *protocol* sabotage
end-to-end; this suite proves each monitor's own state machine is sound:
for every monitor in :func:`repro.verify.all_monitors` it synthesizes a
minimal trace (or engine pop stream), shows the clean variant passes, then
applies one surgical corruption — a reordered event, a FIFO inversion, an
orphan message, an unlogged in-transit message, a payload crossing a
flushed/draining channel, a non-empty network at fork, a stalled drain, a
blown fd budget, a zero-time cascade, a dangling wave, a lying fetch — and
asserts exactly that monitor raises.

The case table is keyed by monitor name, so
``test_every_shipped_monitor_has_a_negative`` fails the moment a new
monitor ships without a negative here.
"""

import pytest

from repro.ft.dcl import DRAIN_BUDGET
from repro.sim import Simulator
from repro.sim.trace import SCHEMAS, TraceRecord
from repro.verify import InvariantViolation, MonitorBus, all_monitors
from repro.verify.monitors.dcl import (
    DclDrainLivenessMonitor,
    DclNetworkEmptyMonitor,
)
from repro.verify.monitors.engine import MonotoneClockMonitor
from repro.verify.monitors.pcl import PclFlushMonitor
from repro.verify.monitors.survivors import (
    MembershipAgreementMonitor,
    SpareConsistencyMonitor,
)
from repro.verify.monitors.transport import FdBudgetMonitor, FifoDeliveryMonitor
from repro.verify.monitors.vcl import VclLoggingMonitor, VclNoOrphanMonitor
from repro.verify.monitors.waves import (
    StorageDurabilityMonitor,
    WaveLivenessMonitor,
)

pytestmark = pytest.mark.unmonitored  # no simulator runs here at all


def rec(time, category, **fields):
    return TraceRecord(time, category, tuple(fields.items()))


#: the two entry points onto a monitor's handlers: ``on_record`` with a
#: materialised record (offline CLI, unit tests), and the live route — a
#: real tracer's positional plan into the bus closure, with the pop-stream
#: monitor attached beside it as in every monitored run
TRANSPORTS = ("on_record", "positional")


def feed(monitor, records=(), steps=(), finish=False, transport="on_record"):
    if transport == "on_record":
        for step in steps:
            monitor.on_step(*step)
        for record in records:
            monitor.on_record(record)
        if finish:
            monitor.finish()
        return
    monitors = [monitor] if type(monitor) is MonotoneClockMonitor \
        else [MonotoneClockMonitor(), monitor]
    sim = Simulator()
    bus = MonitorBus(monitors)
    bus.attach(sim)
    for step in steps:
        for listener in sim.trace.step_listeners:
            listener(*step)
    for record in records:
        values = SCHEMAS[record.category].values(record.as_dict())
        sim.trace.probes[record.category](record.time, *values)
    if finish:
        bus.finish()


# --------------------------------------------------------------- case table
#
# Each case: the clean stream must pass (including finish()), and the
# corrupt stream must raise an InvariantViolation matching ``match``.
# ``steps`` feeds the engine's raw (time, priority, seq) pop stream.
CASES = {
    "monotone-clock": [
        dict(
            label="reordered-record",
            clean=dict(records=[rec(0.5, "mpi.send"), rec(1.0, "mpi.send")]),
            corrupt=dict(records=[rec(1.0, "mpi.send"), rec(0.5, "mpi.send")]),
            match="clock ran backwards",
        ),
        dict(
            label="reordered-pop",
            # seq 3 was pushed before seq 5 at equal priority, so popping it
            # *after* seq 5 at the same timestamp breaks the total order
            clean=dict(steps=[(1.0, 1, 3), (1.0, 1, 5)]),
            corrupt=dict(steps=[(1.0, 1, 5), (1.0, 1, 3)]),
            match="total order broken",
        ),
    ],
    "fifo-delivery": [
        dict(
            label="fifo-inversion",
            clean=dict(records=[
                rec(1.0, "mpi.deliver", job="j", rank=0, src=1, seq=1),
                rec(1.1, "mpi.deliver", job="j", rank=0, src=1, seq=2),
            ]),
            corrupt=dict(records=[
                rec(1.0, "mpi.deliver", job="j", rank=0, src=1, seq=2),
                rec(1.1, "mpi.deliver", job="j", rank=0, src=1, seq=1),
            ]),
            match="FIFO delivery order broken",
        ),
        dict(
            label="pipe-duplicate",
            clean=dict(records=[
                rec(1.0, "net.sent", pipe="a->b", msg=1),
                rec(1.1, "net.delivered", pipe="a->b", msg=1),
            ]),
            corrupt=dict(records=[
                rec(1.0, "net.sent", pipe="a->b", msg=1),
                rec(1.1, "net.delivered", pipe="a->b", msg=1),
                rec(1.2, "net.delivered", pipe="a->b", msg=1),
            ]),
            match="out-of-order",
        ),
    ],
    "vcl-no-orphan": [
        dict(
            label="orphan-message",
            # clean: the receiver snapshots wave 1 before the delivery
            clean=dict(records=[
                rec(1.0, "mpi.send", protocol="vcl", job="j", src=1, seq=4,
                    wave=1),
                rec(1.1, "ft.local_checkpoint", protocol="vcl", rank=0,
                    wave=1),
                rec(1.2, "mpi.deliver", job="j", rank=0, src=1, seq=4),
            ]),
            # corrupt: a post-snapshot send delivered pre-snapshot
            corrupt=dict(records=[
                rec(1.0, "mpi.send", protocol="vcl", job="j", src=1, seq=4,
                    wave=1),
                rec(1.2, "mpi.deliver", job="j", rank=0, src=1, seq=4),
            ]),
            match="orphan message",
        ),
    ],
    "vcl-logging": [
        dict(
            label="unlogged-in-transit",
            # clean: the in-transit message is copied to the daemon log
            clean=dict(records=[
                rec(1.0, "ft.logging_open", rank=0, peers=(1,), wave=1),
                rec(1.1, "ft.logged", rank=0, src=1, seq=2, wave=1),
                rec(1.2, "mpi.deliver", job="j", rank=0, src=1, seq=2),
            ]),
            # corrupt: same delivery crossing the cut, but no log entry
            corrupt=dict(records=[
                rec(1.0, "ft.logging_open", rank=0, peers=(1,), wave=1),
                rec(1.2, "mpi.deliver", job="j", rank=0, src=1, seq=2),
            ]),
            match="not logged",
        ),
    ],
    "pcl-flush": [
        dict(
            label="send-while-checkpointing",
            # clean: the rank resumes before committing the next payload
            clean=dict(records=[
                rec(1.0, "ft.enter_wave", rank=0, wave=1),
                rec(1.2, "ft.resume", rank=0, wave=1),
                rec(1.3, "mpi.send", job="j", src=0, dst=1, seq=3,
                    nbytes=100.0),
            ]),
            corrupt=dict(records=[
                rec(1.0, "ft.enter_wave", rank=0, wave=1),
                rec(1.1, "mpi.send", job="j", src=0, dst=1, seq=3,
                    nbytes=100.0),
            ]),
            match="while checkpointing",
        ),
    ],
    "dcl-network-empty": [
        dict(
            label="send-while-draining",
            clean=dict(records=[
                rec(1.0, "mpi.send", protocol="dcl", job="j", src=0, dst=1,
                    seq=3, wave=1, state="normal", nbytes=100.0),
            ]),
            corrupt=dict(records=[
                rec(1.0, "mpi.send", protocol="dcl", job="j", src=0, dst=1,
                    seq=3, wave=1, state="draining", nbytes=100.0),
            ]),
            match="while draining",
        ),
        dict(
            label="network-not-empty-at-fork",
            # clean: the pre-wave send is delivered before any rank forks
            clean=dict(records=[
                rec(1.0, "mpi.send", protocol="dcl", job="j", src=1, dst=0,
                    seq=9, wave=0, state="normal", nbytes=100.0),
                rec(1.4, "mpi.deliver", job="j", rank=0, src=1, seq=9),
                rec(1.5, "ft.local_checkpoint", protocol="dcl", rank=0,
                    wave=1),
            ]),
            corrupt=dict(records=[
                rec(1.0, "mpi.send", protocol="dcl", job="j", src=1, dst=0,
                    seq=9, wave=0, state="normal", nbytes=100.0),
                rec(1.5, "ft.local_checkpoint", protocol="dcl", rank=0,
                    wave=1),
            ]),
            match="still in flight",
        ),
    ],
    "dcl-drain-liveness": [
        dict(
            label="drain-over-budget",
            clean=dict(records=[
                rec(0.0, "ft.wave_started", protocol="dcl", wave=1),
                rec(0.5, "ft.drain_quiesced", wave=1),
                rec(1.0, "ft.wave_completed", protocol="dcl", wave=1),
            ]),
            corrupt=dict(records=[
                rec(0.0, "ft.wave_started", protocol="dcl", wave=1),
                rec(DRAIN_BUDGET + 1.0, "ft.drain_quiesced", wave=1),
            ]),
            match="over the drain budget",
        ),
        dict(
            label="fork-before-quiescence",
            clean=dict(records=[
                rec(0.0, "ft.wave_started", protocol="dcl", wave=1),
                rec(0.5, "ft.drain_quiesced", wave=1),
                rec(0.6, "ft.local_checkpoint", protocol="dcl", rank=0,
                    wave=1),
                rec(1.0, "ft.wave_completed", protocol="dcl", wave=1),
            ]),
            corrupt=dict(records=[
                rec(0.0, "ft.wave_started", protocol="dcl", wave=1),
                rec(0.4, "ft.local_checkpoint", protocol="dcl", rank=0,
                    wave=1),
            ]),
            match="outran the drain",
        ),
        dict(
            label="stalled-drain",
            # clean: an aborted wave legally ends the run mid-drain
            clean=dict(records=[
                rec(0.0, "ft.wave_started", protocol="dcl", wave=1),
                rec(0.4, "ft.wave_aborted", protocol="dcl", wave=1),
            ], finish=True),
            corrupt=dict(records=[
                rec(0.0, "ft.wave_started", protocol="dcl", wave=1),
            ], finish=True),
            match="stalled drain",
        ),
    ],
    "fd-budget": [
        dict(
            label="select-wall",
            clean=dict(records=[
                rec(0.0, "runtime.validated", launcher="dispatcher",
                    fd_limit=1024, sockets_per_process=3, reserved_fds=10,
                    n_ranks=300),
            ]),
            corrupt=dict(records=[
                rec(0.0, "runtime.validated", launcher="dispatcher",
                    fd_limit=1024, sockets_per_process=3, reserved_fds=10,
                    n_ranks=400),
            ]),
            match="fd limit",
        ),
    ],
    "wave-liveness": [
        dict(
            label="overlapping-waves",
            clean=dict(records=[
                rec(0.0, "ft.wave_started", protocol="pcl", wave=1),
                rec(1.0, "ft.wave_completed", protocol="pcl", wave=1),
                rec(2.0, "ft.wave_started", protocol="pcl", wave=2),
                rec(3.0, "ft.wave_completed", protocol="pcl", wave=2),
            ], finish=True),
            corrupt=dict(records=[
                rec(0.0, "ft.wave_started", protocol="pcl", wave=1),
                rec(2.0, "ft.wave_started", protocol="pcl", wave=2),
            ]),
            match="still open",
        ),
        dict(
            label="dangling-wave",
            clean=dict(records=[
                rec(0.0, "ft.wave_started", protocol="pcl", wave=1),
                rec(1.0, "ft.wave_aborted", protocol="pcl", wave=1),
            ], finish=True),
            corrupt=dict(records=[
                rec(0.0, "ft.wave_started", protocol="pcl", wave=1),
            ], finish=True),
            match="the wave hung",
        ),
    ],
    "storage-durability": [
        dict(
            label="fetch-checksum-mismatch",
            clean=dict(records=[
                rec(1.0, "ft.replica_stored", server="cs0", wave=1, rank=0,
                    checksum=111),
                rec(2.0, "ft.fetch_ok", server="cs0", wave=1, rank=0,
                    checksum=111),
            ]),
            corrupt=dict(records=[
                rec(1.0, "ft.replica_stored", server="cs0", wave=1, rank=0,
                    checksum=111),
                rec(2.0, "ft.fetch_ok", server="cs0", wave=1, rank=0,
                    checksum=222),
            ]),
            match="sealed replica recorded",
        ),
        dict(
            label="fetch-from-dead-server",
            clean=dict(records=[
                rec(1.0, "ft.replica_stored", server="cs0", wave=1, rank=0,
                    checksum=111),
                rec(1.5, "ft.failure", kind="server", server="cs1"),
                rec(2.0, "ft.fetch_ok", server="cs0", wave=1, rank=0,
                    checksum=111),
            ]),
            corrupt=dict(records=[
                rec(1.0, "ft.replica_stored", server="cs0", wave=1, rank=0,
                    checksum=111),
                rec(1.5, "ft.failure", kind="server", server="cs0"),
                rec(2.0, "ft.fetch_ok", server="cs0", wave=1, rank=0,
                    checksum=111),
            ]),
            match="already died",
        ),
    ],
    "membership-agreement": [
        dict(
            label="survivors-disagree",
            # clean: ballot 1 proposes failed={2}, every survivor commits
            # exactly that set, then recovery begins
            clean=dict(records=[
                rec(1.0, "ft.membership_round", ballot=1, coordinator=0,
                    failed=(2,), survivors=3),
                rec(1.1, "ft.membership_commit", rank=0, ballot=1,
                    failed=(2,)),
                rec(1.1, "ft.membership_commit", rank=1, ballot=1,
                    failed=(2,)),
                rec(1.1, "ft.membership_commit", rank=3, ballot=1,
                    failed=(2,)),
                rec(1.2, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=1, incarnation=1),
            ]),
            # corrupt: rank 1 commits a different failed set — a partial view
            corrupt=dict(records=[
                rec(1.0, "ft.membership_round", ballot=1, coordinator=0,
                    failed=(2,), survivors=3),
                rec(1.1, "ft.membership_commit", rank=0, ballot=1,
                    failed=(2,)),
                rec(1.1, "ft.membership_commit", rank=1, ballot=1,
                    failed=(3,)),
            ]),
            match="survivors disagree",
        ),
        dict(
            label="recovery-without-full-commit",
            clean=dict(records=[
                rec(1.0, "ft.membership_round", ballot=1, coordinator=0,
                    failed=(2,), survivors=3),
                rec(1.1, "ft.membership_commit", rank=0, ballot=1,
                    failed=(2,)),
                rec(1.1, "ft.membership_commit", rank=1, ballot=1,
                    failed=(2,)),
                rec(1.1, "ft.membership_commit", rank=3, ballot=1,
                    failed=(2,)),
                rec(1.2, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=1, incarnation=1),
            ]),
            # corrupt: recovery acts before survivor 3 committed the ballot
            corrupt=dict(records=[
                rec(1.0, "ft.membership_round", ballot=1, coordinator=0,
                    failed=(2,), survivors=3),
                rec(1.1, "ft.membership_commit", rank=0, ballot=1,
                    failed=(2,)),
                rec(1.1, "ft.membership_commit", rank=1, ballot=1,
                    failed=(2,)),
                rec(1.2, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=1, incarnation=1),
            ]),
            match="not exactly the survivors",
        ),
    ],
    "spare-consistency": [
        dict(
            label="stale-wave-restore",
            # clean: the promoted spare restores the newest committed wave
            clean=dict(records=[
                rec(1.0, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=2, incarnation=1),
                rec(1.1, "ft.promoted", rank=2, node="spare-0",
                    incarnation=1),
                rec(1.2, "ft.spare_restore", rank=2, wave=2, node="spare-0"),
                rec(1.3, "ft.restarted", wave=2, incarnation=1),
            ]),
            # corrupt: it restores an older wave without a recorded fallback
            corrupt=dict(records=[
                rec(1.0, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=2, incarnation=1),
                rec(1.1, "ft.promoted", rank=2, node="spare-0",
                    incarnation=1),
                rec(1.2, "ft.spare_restore", rank=2, wave=1, node="spare-0"),
            ]),
            match="newest committed image",
        ),
        dict(
            label="promoted-surviving-rank",
            # clean: a cascading node kill inside the recovery legitimizes
            # promoting a rank outside the agreed failed set
            clean=dict(records=[
                rec(1.0, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=2, incarnation=1),
                rec(1.05, "ft.failure", kind="node", node="cluster-001"),
                rec(1.1, "ft.promoted", rank=1, node="spare-0",
                    incarnation=1),
                rec(1.2, "ft.spare_restore", rank=1, wave=2, node="spare-0"),
                rec(1.3, "ft.restarted", wave=2, incarnation=1),
            ]),
            # corrupt: same promotion with no casualty — a surviving rank
            # was evicted from its engine
            corrupt=dict(records=[
                rec(1.0, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=2, incarnation=1),
                rec(1.1, "ft.promoted", rank=1, node="spare-0",
                    incarnation=1),
            ]),
            match="surviving rank lost its engine",
        ),
        dict(
            label="restore-outside-recovery",
            clean=dict(records=[
                rec(1.0, "ft.recovery_begin", policy="spare", ballot=1,
                    failed=(2,), n_ranks=4, committed=2, incarnation=1),
                rec(1.2, "ft.spare_restore", rank=2, wave=2, node="spare-0"),
                rec(1.3, "ft.restarted", wave=2, incarnation=1),
            ]),
            corrupt=dict(records=[
                rec(1.2, "ft.spare_restore", rank=2, wave=2, node="spare-0"),
            ]),
            match="outside an open spare recovery",
        ),
    ],
}

_MONITOR_CLASSES = {
    "monotone-clock": MonotoneClockMonitor,
    "fifo-delivery": FifoDeliveryMonitor,
    "vcl-no-orphan": VclNoOrphanMonitor,
    "vcl-logging": VclLoggingMonitor,
    "pcl-flush": PclFlushMonitor,
    "dcl-network-empty": DclNetworkEmptyMonitor,
    "dcl-drain-liveness": DclDrainLivenessMonitor,
    "fd-budget": FdBudgetMonitor,
    "wave-liveness": WaveLivenessMonitor,
    "storage-durability": StorageDurabilityMonitor,
    "membership-agreement": MembershipAgreementMonitor,
    "spare-consistency": SpareConsistencyMonitor,
}

# every case through every transport; the on_record ids are the bare case
# labels (what they were before the live route was added to the table)
_ALL_CASES = [
    pytest.param(name, case, transport,
                 id=f"{name}-{case['label']}"
                    + ("" if transport == "on_record" else f"-{transport}"))
    for name, cases in CASES.items() for case in cases
    for transport in TRANSPORTS
]


def _make(name):
    monitor = _MONITOR_CLASSES[name]()
    assert monitor.name == name
    return monitor


@pytest.mark.parametrize("name,case,transport", _ALL_CASES)
def test_clean_stream_passes(name, case, transport):
    """The uncorrupted twin of each negative is accepted (minimality)."""
    monitor = _make(name)
    clean = dict(case["clean"])
    clean.setdefault("finish", True)
    feed(monitor, **clean, transport=transport)  # must not raise
    assert monitor.checked > 0


@pytest.mark.parametrize("name,case,transport", _ALL_CASES)
def test_corrupted_stream_fires(name, case, transport):
    monitor = _make(name)
    with pytest.raises(InvariantViolation, match=case["match"]) as err:
        feed(monitor, **case["corrupt"], transport=transport)
    assert err.value.monitor == name


def test_every_shipped_monitor_has_a_negative():
    shipped = {monitor.name for monitor in all_monitors()}
    assert shipped == set(CASES), (
        "every monitor in all_monitors() needs a negative case here "
        f"(missing: {shipped - set(CASES)}, stale: {set(CASES) - shipped})"
    )
