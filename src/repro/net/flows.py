"""Fair-share fluid-flow bandwidth model.

Every byte transfer in the simulation is a :class:`Flow` over a path of
:class:`~repro.net.link.Link` objects.  A flow's instantaneous rate is::

    rate = min(cap, min over links of link.capacity / len(link.flows))

This is a standard simplification of max-min fair sharing: it does not
cascade freed bandwidth to flows on other links, but it is monotone,
deterministic and captures the contention effects the paper's experiments
depend on (checkpoint image transfers competing with MPI traffic on NICs and
WAN uplinks).

Rates are piecewise constant and change only at the end of a simulated
instant.  A start, finish or cancel updates its links' membership at once
(the pipes' queueing penalty and inline-path test read it) and marks the
links dirty; after the last event due at the instant
(:meth:`~repro.sim.engine.Simulator.at_instant_end`) one flush *settles*
every flow on a dirty link (advances its remaining bytes at the rate it
had since its last settle) and re-rates it.  So k flows that start or
finish together cost one re-rate pass, not k, and a flow whose finish
timer falls due at an instant finishes at that instant: nothing re-rated
it since the timer was armed.  :meth:`FlowScheduler.rate` flushes early
for a reader inside the instant.

Completions are driven by re-armable engine timer slots
(:class:`~repro.sim.engine.TimerHandle`): each active flow owns one finish
timer for its whole lifetime, and every re-rate moves it with
:meth:`~repro.sim.engine.TimerHandle.rearm`, which allocates nothing and
pushes one fresh heap entry.  Each re-arm burns a fresh heap sequence
number, because that number is part of the deterministic event total
order (same-instant completions tie-break on it): a "keep the live timer's
sequence when the fire time is unchanged" shortcut was tried once and
reverted for reordering same-timestamp events (see ``_schedule_finish``).
Per-link flow membership is an insertion-ordered dict, already sorted by
creation index, so the flush's union of the dirty links' flows is a few
sorted runs.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.net.link import Link

__all__ = ["Flow", "FlowScheduler"]

#: bytes below which a flow counts as finished (guards float drift)
_EPSILON_BYTES = 1e-6

_flow_index = operator.attrgetter("index")


class FlowCancelled(ConnectionError):
    """Failure value of ``flow.done`` when the flow is cancelled."""


class Flow:
    """One in-flight transfer across a path of links.  ``done`` succeeds
    with no value: a flow is not a cycle with its event, so a finished
    one is freed when its last reference goes."""

    __slots__ = (
        "links",
        "bytes_total",
        "bytes_remaining",
        "cap",
        "rate",
        "last_settle",
        "done",
        "finished",
        "cancelled",
        "_timer",
        "index",
    )

    def __init__(self, links: Sequence[Link], nbytes: float, cap: Optional[float], done) -> None:
        self.links = tuple(links)
        #: scheduler-assigned creation index; the deterministic iteration
        #: key wherever flows are collected across links
        self.index = 0
        self.bytes_total = float(nbytes)
        self.bytes_remaining = float(nbytes)
        self.cap = cap
        #: bytes/s since ``last_settle``; 0 until a flush first rates it
        self.rate = 0.0
        self.last_settle = 0.0
        self.done = done
        self.finished = False
        self.cancelled = False
        #: the live finish timer (a TimerHandle), or None
        self._timer = None

    @property
    def active(self) -> bool:
        return not (self.finished or self.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else ("cancelled" if self.cancelled else "active")
        return (
            f"<Flow {state} {self.bytes_remaining:.0f}/{self.bytes_total:.0f}B "
            f"@{self.rate:.3g}B/s over {[l.name for l in self.links]}>"
        )


class FlowScheduler:
    """Coordinates all active flows of a simulation."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.active: Set[Flow] = set()
        self._counter = 0
        #: links whose membership changed since the last flush (ordered set)
        self._dirty: Dict[Link, None] = {}
        #: True while a flush is registered for the end of this instant
        self._flush_due = False

    # ----------------------------------------------------------------- start
    def start(
        self,
        links: Sequence[Link],
        nbytes: float,
        cap: Optional[float] = None,
    ) -> Flow:
        """Begin a transfer; returns the flow whose ``done`` event fires when
        the last byte has crossed the path."""
        if nbytes < 0:
            raise ValueError(f"negative flow size {nbytes!r}")
        done = self.sim.event(name="flow-done")
        flow = Flow(links, nbytes, cap, done)
        self._counter += 1
        flow.index = self._counter
        if nbytes <= _EPSILON_BYTES or not links:
            flow.finished = True
            done.succeed()
            return flow
        # The flow moves no byte before the flush rates it and arms its
        # finish timer (its rate is 0 until then).
        for link in flow.links:
            link.flows[flow] = None
        flow.last_settle = self.sim.now
        self.active.add(flow)
        self._touch(flow.links)
        return flow

    # ---------------------------------------------------------------- cancel
    def cancel(self, flow: Flow) -> None:
        """Abort a flow (broken connection); its ``done`` event fails.  Its
        ``bytes_remaining`` is what was left at the cancel."""
        if not flow.active:
            return
        self._settle(flow, self.sim.now)
        flow.cancelled = True
        self._detach(flow)
        if not flow.done.triggered:
            flow.done.defused = True
            flow.done.fail(FlowCancelled("flow cancelled"))

    # ------------------------------------------------------------------ rate
    def rate(self, flow: Flow) -> float:
        """``flow``'s rate now, with every change made so far in this
        instant applied (flushes early if one is pending)."""
        if self._dirty:
            self._flush()
        return flow.rate

    # -------------------------------------------------------------- internals
    def _touch(self, links: Iterable[Link]) -> None:
        """Mark ``links`` dirty; the end of this instant flushes them."""
        dirty = self._dirty
        for link in links:
            dirty[link] = None
        if not self._flush_due:
            self._flush_due = True
            self.sim.at_instant_end(self._end_of_instant)

    def _end_of_instant(self) -> None:
        self._flush_due = False
        if self._dirty:
            self._flush()

    def _flush(self) -> None:
        """Settle and re-rate every flow on a dirty link, once."""
        dirty = self._dirty
        self._dirty = {}
        self._settle_and_rerate(self._neighbours(dirty), self.sim.now)

    def _neighbours(self, links: Iterable[Link]) -> List[Flow]:
        """Flows sharing any of ``links``, ascending creation index.

        Each link's flow dict is already in ascending index order (flows
        join links only at creation, with a fresh highest index, and dicts
        preserve insertion order across deletions), so their union is a
        few ascending runs, which ``sorted`` merges in near-linear time —
        several times faster than a merge loop in Python once a flush
        spans dozens of links.
        """
        streams = [link.flows for link in links if link.flows]
        if len(streams) == 1:
            return list(streams[0])
        merged: Dict[Flow, None] = {}
        for flows in streams:
            merged.update(flows)
        return sorted(merged, key=_flow_index)

    def _settle(self, flow: Flow, now: float) -> None:
        if flow.rate > 0.0:
            elapsed = now - flow.last_settle
            if elapsed > 0.0:
                flow.bytes_remaining = max(
                    0.0, flow.bytes_remaining - flow.rate * elapsed
                )
        flow.last_settle = now

    def _settle_and_rerate(self, flows: Iterable[Flow], now: float) -> None:
        # ``flows`` arrives in creation-index order (see _neighbours): the
        # order finish timers are re-armed assigns event seq numbers, and
        # same-instant completions must tie-break the same way every run or
        # traces stop being reproducible.  Settling and re-rating fuse into
        # one pass because a settle reads only its own flow's fields at the
        # flow's *old* rate — an earlier flow's re-rate cannot disturb it.
        # The loop body inlines _settle (this is the hottest loop in the
        # simulator), so keep the two in step.
        inf = math.inf
        for flow in flows:
            old_rate = flow.rate
            if old_rate > 0.0:
                elapsed = now - flow.last_settle
                if elapsed > 0.0:
                    remaining_bytes = flow.bytes_remaining - old_rate * elapsed
                    flow.bytes_remaining = (
                        remaining_bytes if remaining_bytes > 0.0 else 0.0
                    )
            flow.last_settle = now
            rate = inf
            for link in flow.links:
                n = len(link.flows)
                share = link.capacity if n <= 1 else link.capacity / n
                if share < rate:
                    rate = share
            cap = flow.cap
            if cap is not None and cap < rate:
                rate = cap
            flow.rate = rate
            self._schedule_finish(flow)

    def _schedule_finish(self, flow: Flow) -> None:
        timer = flow._timer
        if flow.rate <= 0.0:  # pragma: no cover - capacities are positive
            if timer is not None:
                timer.cancel()
                flow._timer = None
            return
        remaining = flow.bytes_remaining / flow.rate
        now = self.sim.now
        if now + remaining <= now and flow.bytes_remaining > _EPSILON_BYTES:
            # The residual transfer time is below the clock's float
            # resolution (at t~73 one ulp is ~1.4e-14 s) but the residue is
            # real bytes: round the delay up to one ulp so they drain in
            # simulated time.  (A timer that fired at the same timestamp
            # once settled zero elapsed time and rescheduled forever — the
            # Pcl procs_per_node=2 livelock.)  A residue at or below
            # _EPSILON_BYTES is float noise: its timer falls due now.
            remaining = math.nextafter(now, math.inf) - now
        # Re-arm the flow's slot in place.  Every re-rate still burns a
        # fresh heap sequence number — rearm() is seq-for-seq equivalent to
        # the cancel()+call_at() pair it replaced, because the sequence
        # number is part of the deterministic total order (same-instant
        # completions tie-break on it) and freezing it was measured to
        # reorder same-timestamp events (last-ulp drift in figure rows).
        if timer is not None:
            timer.rearm(remaining)
        else:
            flow._timer = self.sim.call_at(
                remaining, self._on_timer, flow, name="flow-finish"
            )

    def _on_timer(self, flow: Flow) -> None:
        # Only a flush changes a rate, and it re-arms the timer when it
        # does: the rate this timer was armed at held until now, so the
        # flow is done (cancel() cancels the timer of a flow it aborts).
        flow._timer = None
        flow.finished = True
        flow.bytes_remaining = 0.0
        self._detach(flow)
        flow.done.succeed()

    def _detach(self, flow: Flow) -> None:
        self.active.discard(flow)
        timer = flow._timer
        if timer is not None:
            timer.cancel()
            flow._timer = None
        for link in flow.links:
            link.flows.pop(flow, None)
        self._touch(flow.links)
