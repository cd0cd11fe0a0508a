"""A sequential driver frees a finished run before the next one starts.

A finished run's simulation is cyclic garbage (processes, events and their
callbacks refer to one another) that only the cyclic collector frees; left
to the collector's own schedule, runs pile up and a driver's peak memory
creeps upward run by run (docs/PERF.md "A finished run is freed").  Each
test records, whenever a run's simulator is built, whether the simulator of
any earlier run is still alive.
"""

import weakref

import pytest

from repro.chaos import CAMPAIGNS, run_campaign
from repro.harness import runner
from repro.harness.config import get_profile
from repro.harness.figures import mttf


@pytest.fixture
def alive_at_build(monkeypatch):
    """How many earlier simulators were alive as each run's was built."""
    built, alive = [], []
    make_simulator = runner.make_simulator

    def recording(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in built))
        sim = make_simulator(*args, **kwargs)
        built.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(runner, "make_simulator", recording)
    return alive


@pytest.mark.unmonitored  # bare runs: nothing to monitor
def test_the_mttf_loop_frees_each_run(alive_at_build, monkeypatch):
    monkeypatch.setattr(mttf, "_PERIODS", (3.0,))
    monkeypatch.setattr(mttf, "_WORK_ITERS", 6)
    mttf.run(get_profile("smoke", seed=0))
    assert len(alive_at_build) == 14  # 2 calibration + 3 x 4 seeds
    assert alive_at_build == [0] * 14


def test_a_campaign_frees_each_scenario(alive_at_build):
    campaign = CAMPAIGNS["smoke"](0)
    campaign.scenarios = campaign.scenarios[:2]
    result = run_campaign(campaign, jobs=1)
    assert len(result.results) == 2
    assert alive_at_build == [0, 0]
