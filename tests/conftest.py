"""Suite-wide fixtures: every test runs under the online invariant monitors.

The ``monitored_engine`` autouse fixture patches ``Simulator`` so each
simulator any test constructs gets the full :mod:`repro.verify` monitor set
attached, raising :class:`~repro.verify.InvariantViolation` at the first
protocol-invariant breach, and an engine :class:`~repro.sim.Watchdog` at
its default budget when it was built without one, so a zero-time cascade
raises :class:`~repro.sim.LivelockError` instead of hanging the suite;
end-of-run completeness checks fire at teardown.
Mark a test ``@pytest.mark.unmonitored`` to opt out (tests that break the
protocols on purpose attach their own bus and assert the violation).
"""

import sys

import pytest

from repro.sim.engine import Simulator, Watchdog
from repro.verify import MonitorBus, all_monitors


@pytest.fixture(autouse=True)
def monitored_engine(request, monkeypatch):
    """Every shipped protocol-invariant monitor, on for every simulator."""
    if request.node.get_closest_marker("unmonitored"):
        yield []
        return
    buses = []
    unpatched = Simulator.__init__

    def monitored_init(self, *args, **kwargs):
        unpatched(self, *args, **kwargs)
        if self._watchdog is None:
            self._watchdog = Watchdog()
        bus = MonitorBus(all_monitors(), raise_on_violation=True)
        bus.attach(self)
        buses.append(bus)

    monkeypatch.setattr(Simulator, "__init__", monitored_init)
    yield buses
    # End-of-stream completeness checks (e.g. every logged message replayed)
    # raise here if the run ended in a state no correct protocol can reach.
    for bus in buses:
        bus.finish()


def pytest_terminal_summary(terminalreporter):
    """The pops each reference-race rule dropped or relabelled, per side,
    when any race ran (``tests/races.py``)."""
    races = sys.modules.get("tests.races")
    if races is None or not races.TALLY:
        return
    terminalreporter.section("reference races: pops each rule dropped or "
                             "relabelled (shipped, spec)")
    for rules, counts in races.TALLY.items():
        for rule in rules:
            terminalreporter.write_line(
                f"{rules.name:8} {rule.name:20} "
                f"{counts[rule.name, 'shipped']:>7} "
                f"{counts[rule.name, 'spec']:>7}")
