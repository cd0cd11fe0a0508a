"""Property-based tests (hypothesis) of the core invariants.

These encode the correctness arguments the protocols rest on:

* the event heap is a deterministic total order and time is monotone;
* connections deliver FIFO under arbitrary send schedules;
* MPI matching obeys posting order and wildcard rules;
* the fluid-flow model conserves bytes and never exceeds link capacity;
* CompletedSet is equivalent to a plain set of ints;
* **snapshot consistency**: random programs snapshotted at random times and
  replayed produce exactly the failure-free results (no lost, duplicated or
  reordered effects) — the op-granular analogue of "the global checkpoint
  is a consistent cut".
"""

import operator

from hypothesis import given, settings, strategies as st

from repro.mpi import ANY_SOURCE, ANY_TAG, FtSockChannel, MPIJob
from repro.mpi.context import CompletedSet
from repro.mpi.matching import MatchingEngine
from repro.mpi.message import AppPacket
from repro.net import ClusterNetwork
from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim import Simulator
from repro.sim.primitives import EMPTY


# ------------------------------------------------------------ event order
@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_event_processing_time_is_monotone(delays):
    sim = Simulator()
    seen = []
    for delay in delays:
        sim.call_at(delay, lambda d=delay: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


@given(st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_same_time_events_fire_in_schedule_order(delays):
    sim = Simulator()
    order = []
    for index, _ in enumerate(delays):
        sim.call_at(5.0, order.append, index)
    sim.run()
    assert order == list(range(len(delays)))


# ------------------------------------------------------------------ FIFO
@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_connection_fifo_for_any_size_schedule(sizes):
    sim = Simulator()
    net = ClusterNetwork(sim, n_nodes=2)
    a, b = net.place(2)
    ea, eb = net.connect(a, b).ends()
    for index, nbytes in enumerate(sizes):
        ea.send(index, nbytes=nbytes)

    received = []

    def reader():
        for _ in sizes:
            received.append((yield eb.recv()))

    sim.run_until_complete(sim.process(reader()))
    assert received == list(range(len(sizes)))


# -------------------------------------------------------------- matching
_envelopes = st.tuples(st.integers(0, 3), st.integers(0, 3))  # (src, tag)


@given(
    st.lists(_envelopes, min_size=1, max_size=25),
    st.lists(st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
             min_size=1, max_size=25),
)
@settings(max_examples=60, deadline=None)
def test_matching_never_loses_or_duplicates(messages, recvs):
    """Every message is consumed at most once; unconsumed ones remain
    queued; receives complete iff a compatible message exists."""
    sim = Simulator()
    engine = MatchingEngine(sim, 0)
    for seq, (src, tag) in enumerate(messages):
        engine.deliver(AppPacket(src, tag, ("m", seq), 8.0, seq))
    results = []
    for source, tag in recvs:
        event = engine.post_recv(source, tag)
        if event.triggered:
            results.append(event.value[0])
    # no duplicates
    assert len(results) == len(set(results))
    # conservation: consumed + queued == delivered
    assert len(results) + len(engine.unexpected) == len(messages)
    engine.fail_all(ConnectionError("end"))


@given(st.lists(_envelopes, min_size=1, max_size=15))
@settings(max_examples=40, deadline=None)
def test_matching_fifo_per_source_tag(messages):
    sim = Simulator()
    engine = MatchingEngine(sim, 0)
    for seq, (src, tag) in enumerate(messages):
        engine.deliver(AppPacket(src, tag, seq, 8.0, seq))
    # drain with wildcards: must come back in delivery order
    drained = []
    for _ in messages:
        event = engine.post_recv(ANY_SOURCE, ANY_TAG)
        assert event.triggered
        drained.append(event.value[0])
    assert drained == sorted(drained)


# ------------------------------------------------------------------ flows
@given(st.lists(st.tuples(st.floats(min_value=1.0, max_value=1e6,
                                    allow_nan=False),
                          st.floats(min_value=0.0, max_value=5.0,
                                    allow_nan=False)),
                min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_fluid_flows_conserve_bytes_and_respect_capacity(flows):
    """Total bytes / total time >= capacity is impossible; every flow
    finishes; the busy period is at least total_bytes / capacity."""
    capacity = 1000.0
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    link = Link("l", capacity)
    started = []

    def starter(nbytes, delay):
        yield sim.timeout(delay)
        flow = scheduler.start([link], nbytes)
        started.append(flow)
        yield flow.done

    processes = [sim.process(starter(nbytes, delay))
                 for nbytes, delay in flows]
    sim.run()
    assert all(f.finished for f in started)
    total_bytes = sum(nbytes for nbytes, _delay in flows)
    min_busy = total_bytes / capacity
    # completion cannot beat the capacity bound
    assert sim.now >= min_busy - 1e-6


# ------------------------------------------------------------ CompletedSet
@given(st.lists(st.integers(0, 50), max_size=60))
@settings(max_examples=80, deadline=None)
def test_completed_set_equivalent_to_plain_set(ids):
    cs = CompletedSet()
    reference = set()
    out_of_order = False
    for op_id in ids:
        out_of_order = out_of_order or op_id > cs.watermark
        cs.add(op_id)
        reference.add(op_id)
        assert len(cs) == len(reference)
        # ``extras`` is a set on demand: the shared EMPTY until the first
        # out-of-order completion, and never an empty set in a copy
        assert (cs.extras is EMPTY) == (not out_of_order)
        snapshot = cs.copy()
        assert snapshot.extras is EMPTY or snapshot.extras
        assert snapshot.extras is EMPTY or snapshot.extras is not cs.extras
        assert (snapshot.watermark, set(snapshot.extras), len(snapshot)) == \
            (cs.watermark, set(cs.extras), len(cs))
    for probe in range(55):
        assert (probe in cs) == (probe in reference) == (probe in cs.copy())


# ----------------------------------------------- snapshot consistency
def _random_program(schedule):
    """Build a deterministic app from a hypothesis-drawn schedule of
    (kind, arg) steps.  All state lives in ctx.state, restart-safe."""

    def app(ctx):
        for step, (kind, arg) in enumerate(schedule):
            if kind == "compute":
                yield from ctx.compute(0.01 + arg * 0.01)
            elif kind == "ring":
                right = (ctx.rank + 1) % ctx.size
                left = (ctx.rank - 1) % ctx.size
                request = ctx.isend(right, tag=step, data=(ctx.rank, step),
                                    nbytes=10.0 + arg * 1000.0)
                value = yield from ctx.recv(left, tag=step)
                yield from request.wait()
                ctx.update(lambda s, v=value: s.__setitem__(
                    "ring", s.get("ring", 0) + 1))
            elif kind == "reduce":
                total = yield from ctx.allreduce(1, operator.add, nbytes=8.0)
                ctx.update(lambda s, t=total, i=step: s.__setitem__(
                    f"sum{i}", t))
        ctx.update(lambda s: s.__setitem__("done", True))

    return app


_steps = st.lists(
    st.tuples(st.sampled_from(["compute", "ring", "reduce"]),
              st.integers(0, 3)),
    min_size=2, max_size=8,
)


@given(schedule=_steps, cut=st.floats(min_value=0.005, max_value=0.5),
       size=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_snapshot_replay_equals_failure_free_execution(schedule, cut, size):
    """Kill-and-replay at an arbitrary quiescent-or-not instant must yield
    the same per-rank state as running straight through."""
    app = _random_program(schedule)

    # reference: failure-free
    sim = Simulator(seed=5)
    net = ClusterNetwork(sim, n_nodes=size)
    job = MPIJob(sim, net, net.place(size), app, FtSockChannel, name="ref")
    job.start()
    sim.run_until_complete(job.completed, limit=1e6)
    reference = [dict(ctx.state) for ctx in job.contexts]

    # snapshot mid-run, kill, restore, rerun
    sim2 = Simulator(seed=5)
    net2 = ClusterNetwork(sim2, n_nodes=size)
    job2 = MPIJob(sim2, net2, net2.place(size), app, FtSockChannel, name="a")
    job2.start()
    sim2.run(until=cut)
    if job2.completed.triggered:
        return  # program finished before the cut; nothing to test
    # NOTE: an uncoordinated instantaneous cut is only consistent when no
    # payload is mid-flight; emulate the coordinated protocols' guarantee by
    # quiescing in-flight traffic first (drain the network for a moment with
    # app processes frozen is not expressible here, so restrict to the
    # op-level cut the protocols provide: snapshot *between* deliveries).
    snapshots = [ctx.take_snapshot(wave=1) for ctx in job2.contexts]
    for ctx, snapshot in zip(job2.contexts, snapshots):
        # the isend completes after the recv posted behind it: ``extras``
        # (a set on demand) is really in play, and is copied only when
        # there is something in it
        live, copied = ctx._completed, snapshot.completed
        assert (copied.watermark, set(copied.extras)) == \
            (live.watermark, set(live.extras))
        assert copied.extras is EMPTY or (
            copied.extras and copied.extras is not live.extras)
    in_flight = any(
        pipe.egress or pipe._current_flow is not None or len(pipe.inbox)
        for conn in net2.connections for pipe in conn.pipes
    )
    if in_flight:
        return  # the cut is not a consistent one; protocols never do this
    job2.kill()
    sim2.run(until=cut + 1e-6)
    job3 = MPIJob(sim2, net2, net2.place(size), app, FtSockChannel, name="b")
    job3.start(snapshots=snapshots)
    sim2.run_until_complete(job3.completed, limit=1e6)
    restored = [dict(ctx.state) for ctx in job3.contexts]
    assert restored == reference
