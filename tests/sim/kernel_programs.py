"""Shared machinery for the differential kernel-equivalence rig.

A *program* is a flat list of op tuples — schedule a timer, cancel one,
re-arm one, fire a same-instant event burst, start or cancel a flow, spawn
or kill a process, defer a callback to the end of the instant, advance
time — interpreted identically on any kernel.
:func:`run_program` executes a program on a named kernel and returns every
observable the simulation produces:

* the raw engine pop stream ``(time, priority, seq)`` (via a step
  listener — the same channel the online monitors use),
* the application-level log (which callback fired, when, in what order),
* the final clock and ``events_processed``.

Two kernels are equivalent on a program iff their observations are equal
— compared both structurally and by ``repr`` so a ``-0.0``/``0.0`` or an
int/float divergence cannot hide behind ``==``.

The op vocabulary is deliberately aimed at the optimised kernel's sharp
edges: ``rearm`` supersedes a queued entry (or re-queues a fired timer),
``cancel`` the tombstone path, ``burst`` same-instant tie-breaks (both priorities), ``flow`` /
``flow_cancel`` the inlined re-rate loop and its end-of-instant flush,
``spawn`` / ``kill`` the urgent interrupt machinery, ``defer`` the
end-of-instant callbacks (optionally scheduling more work at that
instant), and heavy churn drives compaction.

Used by ``test_kernel_differential.py`` (Hypothesis equivalence) and
``test_kernel_rig_negatives.py`` (deliberately broken kernels must be
caught by exactly this comparison).
"""

from __future__ import annotations

from functools import partial
from typing import Any, List, Tuple

from hypothesis import strategies as st

from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim import Interrupt, Watchdog, make_simulator
from repro.sim.events import NORMAL, URGENT

__all__ = ["DELAYS", "OPS", "PROGRAMS", "run_program", "observations_match"]

# Delays mix a small discrete set (to force same-instant collisions, the
# hardest ordering case) with arbitrary floats (to catch ulp-level drift).
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
)

OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("timer"), DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("rearm"), st.integers(0, 63), DELAYS),
    st.tuples(st.just("burst"), st.integers(1, 6), st.booleans()),
    st.tuples(st.just("flow"),
              st.sampled_from([10.0, 1e3, 5e4, 2e6]),
              st.booleans(), st.integers(1, 7)),
    st.tuples(st.just("flow_cancel"), st.integers(0, 63)),
    st.tuples(st.just("spawn"), DELAYS),
    st.tuples(st.just("kill"), st.integers(0, 63)),
    st.tuples(st.just("defer"), st.booleans()),
)

PROGRAMS = st.lists(OPS, min_size=1, max_size=30)


def _driver(sim, scheduler, links, program: List[Tuple], log: List) -> Any:
    timers: List = []
    flows: List = []
    procs: List = []
    tags = iter(range(1_000_000))

    def timer_fired(tag):
        log.append(("timer", tag, sim.now))

    def burst_fired(event):
        log.append(("burst", event.value, sim.now))

    def flow_done(event):
        # A cancelled flow fails its done event; acknowledge so the
        # failure does not (correctly, on both kernels) crash the run.
        event.defused = True
        log.append(("flow", bool(event.ok), sim.now))

    def child(delay):
        try:
            yield sim.timeout(delay)
            log.append(("child-done", sim.now))
        except Interrupt:
            log.append(("child-interrupted", sim.now))

    def deferred(tag, extend):
        # End of an instant; ``extend`` schedules more work *at* it, which
        # runs before the clock moves, then closes the instant again.
        log.append(("deferred", tag, sim.now))
        if extend:
            sim.call_at(0.0, timer_fired, next(tags))
            sim.at_instant_end(partial(deferred, next(tags), False))

    for op in program:
        kind = op[0]
        if kind == "sleep":
            yield sim.timeout(op[1])
        elif kind == "timer":
            timers.append(sim.call_at(op[1], timer_fired, next(tags)))
        elif kind == "cancel":
            if timers:
                timers[op[1] % len(timers)].cancel()
        elif kind == "rearm":
            if timers:
                timer = timers[op[1] % len(timers)]
                if not timer.cancelled:
                    timer.rearm(op[2])
        elif kind == "burst":
            count, urgent = op[1], op[2]
            priority = URGENT if urgent else NORMAL
            for _ in range(count):
                event = sim.event(name="burst")
                event.callbacks.append(burst_fired)
                event.succeed(next(tags), priority=priority)
        elif kind == "flow":
            nbytes, capped, mask = op[1], op[2], op[3]
            path = [links[i] for i in range(len(links)) if mask >> i & 1]
            flow = scheduler.start(path or [links[0]], nbytes,
                                   cap=nbytes / 4.0 if capped else None)
            flow.done.callbacks.append(flow_done)
            flows.append(flow)
        elif kind == "flow_cancel":
            if flows:
                scheduler.cancel(flows[op[1] % len(flows)])
        elif kind == "spawn":
            procs.append(sim.process(child(op[1]),
                                     name=f"child{len(procs)}"))
        elif kind == "kill":
            if procs:
                procs[op[1] % len(procs)].interrupt()
        elif kind == "defer":
            sim.at_instant_end(partial(deferred, next(tags), op[1]))
        else:  # pragma: no cover - strategy and ops must stay in sync
            raise AssertionError(f"unknown op {op!r}")


def run_program(program: List[Tuple], kernel: str = "fast",
                sim_factory=None) -> Tuple:
    """Execute ``program`` on ``kernel``; return all observables.

    ``sim_factory`` (used by the rig-negative tests) bypasses the kernel
    registry to construct a deliberately broken simulator class.
    """
    if sim_factory is not None:
        sim = sim_factory()
    else:
        sim = make_simulator(seed=5, watchdog=Watchdog(), kernel=kernel)
    pops: List[Tuple[float, int, int]] = []
    sim.trace.step_listeners.append(
        lambda time, priority, seq: pops.append((time, priority, seq))
    )
    links = (
        Link("backbone", 100.0),
        Link("nic-a", 75.0),
        Link("nic-b", 50.0),
    )
    scheduler = FlowScheduler(sim)
    log: List = []
    sim.process(_driver(sim, scheduler, links, program, log), name="driver")
    sim.run()
    return (tuple(pops), tuple(log), sim.now, sim.events_processed)


def observations_match(a: Tuple, b: Tuple) -> bool:
    """Structural and repr equality (repr catches -0.0 vs 0.0, 1 vs 1.0)."""
    return a == b and repr(a) == repr(b)
