"""FlowScheduler vs. a naive reference implementation.

The production scheduler is incremental: per-flow cancellable finish
timers, cancel-and-re-arm rescheduling, merged per-link neighbour lists.
The reference below is deliberately dumb — at every change point it settles
*every* flow and rescans *all* of them for the next completion — so any
bookkeeping bug in the fast path (a timer that should have been cancelled,
a re-arm that was dropped, a neighbour missed by the merge) shows up as a
divergence in completion times or byte accounting.

Random programs (hypothesis) drive both through identical start/cancel
schedules over shared links — often several flows joining or leaving in
one instant, and with mid-instant ``rate()`` reads that flush early;
finish times and remaining-byte counts must agree to float tolerance,
cancelled flows must never complete, and the engine ends every run with a
clean heap (no tombstone debt).  The production scheduler settles and
re-rates once per instant, so a group of equal flows started together
finishes at one timestamp (a strict property below), and a scheduler that
forgets a link dirtied after an early flush is rejected by the oracle.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim import Simulator

#: matches repro.net.flows._EPSILON_BYTES
EPSILON_BYTES = 1e-6

#: float-drift tolerance when comparing the two models
REL = 1e-6


class ReferenceScheduler:
    """Event-free fluid model, recomputed from scratch at every change.

    Mirrors the production model's semantics: rate = min over the path of
    ``capacity / n_flows`` (and the flow cap); every change point settles
    every flow; a flow finishes when its remaining bytes fall to (float)
    zero at the piecewise-linear breakpoint.
    """

    def __init__(self, capacities):
        self.capacity = dict(capacities)
        self.flows = []
        self.now = 0.0
        self.finished = {}  # flow id -> finish time
        self.cancelled_remaining = {}  # flow id -> bytes left at cancel

    def _rates(self):
        counts = {}
        for flow in self.flows:
            for link in flow["links"]:
                counts[link] = counts.get(link, 0) + 1
        rates = {}
        for flow in self.flows:
            rate = min(self.capacity[l] / counts[l] for l in flow["links"])
            if flow["cap"] is not None:
                rate = min(rate, flow["cap"])
            rates[flow["id"]] = rate
        return rates

    def _advance(self, until):
        while self.flows:
            rates = self._rates()
            next_finish, next_flow = None, None
            for flow in self.flows:
                rate = rates[flow["id"]]
                if rate <= 0:
                    continue
                at = self.now + flow["remaining"] / rate
                if next_finish is None or at < next_finish:
                    next_finish, next_flow = at, flow
            if next_finish is None or next_finish > until:
                break
            elapsed = next_finish - self.now
            for flow in self.flows:
                flow["remaining"] = max(
                    0.0, flow["remaining"] - rates[flow["id"]] * elapsed)
            self.now = next_finish
            self.finished[next_flow["id"]] = self.now
            self.flows.remove(next_flow)
        if until < math.inf:
            rates = self._rates()
            elapsed = until - self.now
            if elapsed > 0:
                for flow in self.flows:
                    flow["remaining"] = max(
                        0.0, flow["remaining"] - rates[flow["id"]] * elapsed)
            self.now = until

    def start(self, at, flow_id, links, nbytes, cap):
        self._advance(at)
        if nbytes <= EPSILON_BYTES or not links:
            self.finished[flow_id] = at
            return
        self.flows.append({"id": flow_id, "links": tuple(links),
                           "remaining": float(nbytes), "cap": cap})

    def cancel(self, at, flow_id):
        self._advance(at)
        for flow in self.flows:
            if flow["id"] == flow_id:
                self.cancelled_remaining[flow_id] = flow["remaining"]
                self.flows.remove(flow)
                return

    def drain(self):
        self._advance(math.inf)


#: a gap of zero is weighted: several flows join or leave in one instant
GAP = st.one_of(st.just(0.0),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False))

program = st.lists(
    st.tuples(
        GAP,                                                       # start gap
        st.one_of(st.sampled_from([1e4, 5e4]),                     # bytes
                  st.floats(min_value=1.0, max_value=5e5, allow_nan=False)),
        st.sampled_from([None, 2e4, 1e5]),                         # cap
        st.sets(st.integers(min_value=0, max_value=2),             # link path
                min_size=1, max_size=3),
        st.one_of(st.none(), GAP),                                 # cancel gap
        st.booleans(),                                             # read rate()
    ),
    min_size=1, max_size=12,
)

CAPACITIES = {0: 1e5, 1: 5e4, 2: 2e5}


def check_against_reference(spec, scheduler_cls=FlowScheduler):
    """Run ``spec`` on ``scheduler_cls`` and on the oracle; assert they
    agree (AssertionError names the first disagreement)."""
    links = {i: Link(f"l{i}", CAPACITIES[i]) for i in CAPACITIES}

    sim = Simulator()
    scheduler = scheduler_cls(sim)
    reference = ReferenceScheduler(CAPACITIES)

    begun = {}
    finished = {}
    cancelled = {}  # flow id -> (cancel time, bytes remaining at cancel)
    cancel_ats = {}
    ops = []  # (time, schedule seq, kind, payload) — engine tie-break order
    at = 0.0
    for flow_id, (gap, nbytes, cap, path, cancel_gap, read) in enumerate(spec):
        at += gap
        path = sorted(path)

        def begin(flow_id=flow_id, nbytes=nbytes, cap=cap, path=path,
                  read=read):
            flow = scheduler.start([links[i] for i in path], nbytes, cap=cap)
            begun[flow_id] = flow
            flow.done.callbacks.append(
                lambda _ev, flow_id=flow_id: finished.setdefault(
                    flow_id, sim.now))
            if read:
                scheduler.rate(flow)

        sim.call_at(at, begin)
        ops.append((at, len(ops), "start", (flow_id, path, nbytes, cap)))
        if cancel_gap is not None:
            cancel_at = at + cancel_gap
            cancel_ats[flow_id] = cancel_at

            def do_cancel(flow_id=flow_id):
                flow = begun.get(flow_id)
                if flow is not None and flow.active:
                    scheduler.cancel(flow)
                    cancelled[flow_id] = (sim.now, flow.bytes_remaining)

            sim.call_at(cancel_at, do_cancel)
            ops.append((cancel_at, len(ops), "cancel", flow_id))

    sim.run()
    # Replay the same ops into the reference in event order — (time, seq) is
    # exactly how the engine breaks same-timestamp ties between the timers
    # scheduled above.
    for op_at, _seq, kind, payload in sorted(ops, key=lambda op: op[:2]):
        if kind == "start":
            flow_id, path, nbytes, cap = payload
            reference.start(op_at, flow_id, path, nbytes, cap)
        else:
            reference.cancel(op_at, payload)
    reference.drain()
    assert not scheduler.active

    for flow_id in range(len(spec)):
        ref_done = reference.finished.get(flow_id)
        if flow_id in cancelled:
            # the production run cancelled this flow: it must never complete,
            # and both models must agree (to drift) on the bytes left behind
            flow = begun[flow_id]
            assert flow.cancelled and not flow.finished
            ref_left = reference.cancelled_remaining.get(flow_id)
            if ref_left is not None:
                got_left = cancelled[flow_id][1]
                assert got_left == pytest.approx(ref_left, rel=REL, abs=1e-3)
            else:
                # tie: the reference completed exactly at the cancel point
                assert ref_done == pytest.approx(cancel_ats[flow_id],
                                                 rel=REL, abs=1e-9)
            continue
        got_done = finished.get(flow_id)
        if ref_done is None:
            # only a cancel-time tie (production finished at the instant the
            # reference cancelled) may explain a production completion
            assert got_done is not None
            assert got_done == pytest.approx(cancel_ats[flow_id],
                                             rel=REL, abs=1e-9)
        else:
            assert got_done is not None, (
                f"flow {flow_id} never finished; reference says {ref_done}")
            assert got_done == pytest.approx(ref_done, rel=REL, abs=1e-9)

    # heap hygiene: a fully drained run leaves no tombstone debt behind
    assert not sim._heap
    assert sim._tombstones == 0


#: flow 0 starts and is read (an early flush), flow 1 joins its link in
#: the same instant; both must run at half the link from then on
READ_THEN_JOIN = [(0.0, 1e4, None, {0}, None, True),
                  (0.0, 1e4, None, {0}, None, False)]


@given(program)
@example(READ_THEN_JOIN)
@settings(max_examples=100, deadline=None)
def test_scheduler_matches_reference(spec):
    check_against_reference(spec)


class ForgetfulScheduler(FlowScheduler):
    """Treats a read-triggered flush as the instant's last: links dirtied
    after it in the same instant are never flushed, so a late joiner is
    never rated and its neighbours keep their stale rates."""

    _read_at = None

    def rate(self, flow):
        self._read_at = self.sim.now
        return super().rate(flow)

    def _touch(self, links):
        if self._read_at == self.sim.now:
            return  # BUG under test: this instant was already flushed
        super()._touch(links)


def test_oracle_rejects_a_flush_that_forgets_late_joiners():
    with pytest.raises(AssertionError):
        check_against_reference(READ_THEN_JOIN, ForgetfulScheduler)


def test_rate_is_the_oracles_fair_share():
    """One flow gets the whole link, k flows a k-th of it (and a cap wins
    when lower): ``rate()`` read mid-instant is the oracle's rate."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    link = Link("l0", CAPACITIES[0])
    reference = ReferenceScheduler(CAPACITIES)
    flows = []
    for flow_id, cap in enumerate([None, None, 2e4, None]):
        flows.append(scheduler.start([link], 1e6, cap=cap))
        reference.start(0.0, flow_id, [0], 1e6, cap)
        rates = reference._rates()
        assert [scheduler.rate(flow) for flow in flows] == [
            rates[i] for i in range(len(flows))]
        if flow_id == 0:
            assert rates == {0: CAPACITIES[0]}
    assert rates == {0: 2.5e4, 1: 2.5e4, 2: 2e4, 3: 2.5e4}


@given(
    k=st.integers(min_value=2, max_value=8),
    nbytes=st.floats(min_value=1.0, max_value=1e7, allow_nan=False),
    at=st.one_of(st.just(73.04674683093843),
                 st.floats(min_value=0.0, max_value=1e4, allow_nan=False)),
    capacity=st.sampled_from([1.25e8, 1e9, 3.0e7]),
)
@settings(max_examples=60, deadline=None)
def test_equal_flows_started_together_finish_together(k, nbytes, at, capacity):
    """k equal flows started in one instant on a shared link (each behind
    its own faster NIC) finish at one timestamp: the first departure does
    not re-rate the rest while they are still due at that instant."""
    sim = Simulator()
    scheduler = FlowScheduler(sim)
    shared = Link("switch", capacity)
    finished = []

    def begin():
        for i in range(k):
            flow = scheduler.start([Link(f"nic{i}", 2 * capacity), shared],
                                   nbytes)
            flow.done.callbacks.append(lambda _ev: finished.append(sim.now))

    sim.call_at(at, begin)
    sim.run()
    assert len(finished) == k
    assert len(set(finished)) == 1, sorted(set(finished))
