"""Verification of the differential rig itself.

A differential test that compares a kernel against a reference is only as
good as its power to *reject*: if a broken kernel sails through, the green
checkmark on the real kernel means nothing.  Mirroring
``tests/verify/test_monitor_negatives.py`` (which feeds doctored traces to
every monitor), this suite implements deliberately broken kernels — each a
minimal twist on :class:`ReferenceSimulator` realising one of the failure
modes the optimised engine's machinery could plausibly introduce — and
asserts the rig's observation comparison catches every one on a
hand-picked witness program.

The witness programs are deliberately tiny.  If the rig can catch each
bug on a four-line program, the 200-example Hypothesis sweep over the same
comparison has real teeth.
"""

from __future__ import annotations

import pytest

from repro.sim import Watchdog
from repro.sim.engine import _live
from repro.sim.reference import ReferenceSimulator
from tests.sim.kernel_programs import observations_match, run_program

pytestmark = pytest.mark.unmonitored


class UnstableTieBreakSimulator(ReferenceSimulator):
    """Breaks same-timestamp determinism: at equal ``(time, priority)``
    the *newest* item fires first (sequence order reversed) — the bug a
    frozen or reused sequence number would cause."""

    def _scan_next(self):
        return min(filter(_live, self._heap), default=None,
                   key=lambda entry: (entry[0], entry[1], -entry[2]))


class ResurrectingSimulator(ReferenceSimulator):
    """Fires cancelled items: the bug a missed tombstone check (or a
    freelist slot reused without invalidating its old heap entry) would
    cause."""

    def _scan_next(self):
        # BUG under test: no `item.cancelled` check.
        return min((entry for entry in self._heap
                    if entry[3].seq == entry[2]), default=None)


class SupersededEntrySimulator(ReferenceSimulator):
    """Fires a re-armed timer's *superseded* entry, one whose seq no longer
    matches its timer's: the bug a live test that forgot the seq clause
    would cause."""

    def _scan_next(self):
        # BUG under test: every uncancelled entry counts as live.
        return min((entry for entry in self._heap
                    if not entry[3].cancelled), default=None)


class SwallowingSimulator(ReferenceSimulator):
    """Silently drops one scheduled item (the third pop never fires): the
    bug an over-eager compaction pass discarding a live entry would
    cause."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._pops_seen = 0

    def _scan_next(self):
        entry = super()._scan_next()
        if entry is None:
            return None
        self._pops_seen += 1
        if self._pops_seen == 3:
            self._heap.remove(entry)        # BUG under test: drop it
            return super()._scan_next()
        return entry


class LateInstantEndSimulator(ReferenceSimulator):
    """Runs the end-of-instant callbacks *after* advancing the clock to the
    next event: the bug of closing an instant on the pop that leaves it
    (a flow flush would then settle at the wrong time)."""

    def _scan_live(self):
        while True:
            entry = self._scan_next()
            if not self._instant_end or (
                    entry is not None and entry[0] <= self._now):
                return entry
            if entry is not None:
                self._now = entry[0]        # BUG under test: clock first
            self._end_instant()


#: broken kernel -> witness program that must expose it.  Each witness is
#: the smallest program whose observations depend on the invariant the
#: kernel breaks.
BROKEN_KERNELS = {
    "unstable_tie_break": (
        UnstableTieBreakSimulator,
        [("burst", 3, False), ("timer", 0.0), ("sleep", 1.0)],
    ),
    "resurrects_cancelled": (
        ResurrectingSimulator,
        [("timer", 1.0), ("cancel", 0), ("timer", 2.0), ("sleep", 3.0)],
    ),
    "fires_superseded_entry": (
        SupersededEntrySimulator,
        # timer armed at 1.0, moved to 2.0; a timeout at 1.5 must fire in
        # between — the broken kernel fires the timer first, at its
        # superseded position.
        [("timer", 1.0), ("rearm", 0, 2.0), ("sleep", 1.5), ("sleep", 1.5)],
    ),
    "swallows_live_event": (
        SwallowingSimulator,
        [("timer", 0.5), ("timer", 1.0), ("timer", 1.5), ("sleep", 2.0)],
    ),
    "ends_instant_late": (
        LateInstantEndSimulator,
        # the deferred callback must log t=0, not the program's next
        # wake-up at t=1
        [("defer", False), ("sleep", 1.0)],
    ),
}


def _observe(program, sim_cls):
    """Observations of ``program`` on ``sim_cls``; a crash is folded into
    the observation value, so the rig test can tell it from a divergence."""
    factory = lambda: sim_cls(seed=5, watchdog=Watchdog())  # noqa: E731
    try:
        return run_program(program, sim_factory=factory)
    except Exception as exc:  # a broken kernel may also simply blow up
        return ("crashed", type(exc).__name__, str(exc))


@pytest.mark.parametrize("name", sorted(BROKEN_KERNELS))
def test_rig_catches_broken_kernel(name):
    sim_cls, witness = BROKEN_KERNELS[name]
    fast = run_program(witness, kernel="fast")
    broken = _observe(witness, sim_cls)
    # A crash would prove only that the broken kernel is incompatible with
    # the engine, not that the comparison has teeth.
    assert broken[0] != "crashed", f"{name} crashed instead: {broken!r}"
    assert not observations_match(fast, broken), (
        f"rig failed to catch {name}: {fast!r}"
    )


@pytest.mark.parametrize("name", sorted(BROKEN_KERNELS))
def test_witnesses_pass_on_clean_kernels(name):
    """The witnesses discriminate on the *bug*, not on kernel identity:
    the honest reference kernel matches the fast kernel on every one."""
    _, witness = BROKEN_KERNELS[name]
    assert observations_match(
        run_program(witness, kernel="fast"),
        run_program(witness, kernel="reference"),
    )


def test_every_broken_kernel_differs_from_reference():
    """The broken kernels genuinely override behaviour (guards against a
    refactor quietly making a subclass a no-op, which would turn
    test_rig_catches_broken_kernel into a tautology... backwards)."""
    for name, (sim_cls, _) in BROKEN_KERNELS.items():
        assert (sim_cls._scan_next is not ReferenceSimulator._scan_next
                or sim_cls._scan_live is not ReferenceSimulator._scan_live), name
