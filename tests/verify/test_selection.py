"""``monitors_for(spec)``: dropping a monitor never drops a finding.

``execute()`` attaches only the monitors that can fire on the deployment.
That is sound only if every monitor it leaves out would have ridden along
with nothing to say — proven here by running the same configurations with
*all* monitors attached — and complete only if every shipped monitor is
still attached somewhere, so a new one cannot ship unreachable.
"""

import pytest

from repro.chaos.spec import recovery_campaign, smoke_campaign
from repro.harness import runner
from repro.runtime import DeploymentSpec
from repro.verify import all_monitors, monitors_for
from tests.verify.test_trace_plans import run

pytestmark = pytest.mark.unmonitored  # execute() attaches its own bus

PROTOCOLS = ("pcl", "vcl", "dcl")
POLICIES = ("restart", "spare", "shrink")


def verdicts(protocol, policy, kill):
    result = run(protocol, policy, kill)
    assert result.stats.restarts == (1 if kill else 0)
    return result.meta["monitors"]["verdicts"]


@pytest.mark.parametrize("protocol,policy,kill", [
    (None, "restart", False),
    *[(protocol, policy, True)
      for protocol in PROTOCOLS for policy in POLICIES],
])
def test_unselected_monitors_have_nothing_to_report(
        protocol, policy, kill, monkeypatch):
    selected = verdicts(protocol, policy, kill)
    kept = {}  # the full set's instances, by name, for the state check

    def everything(spec):
        kept.update((m.name, m) for m in all_monitors())
        return list(kept.values())

    monkeypatch.setattr(runner, "monitors_for", everything)
    full = verdicts(protocol, policy, kill)
    assert list(full) == [m.name for m in all_monitors()]
    # the monitors that were kept report exactly what they report alone
    assert {name: full[name] for name in selected} == selected
    assert [name for name in full if name in selected] == list(selected)
    fresh = {m.name: m for m in all_monitors()}
    for name in set(full) - set(selected):
        assert full[name]["ok"] and not full[name]["violations"], name
        # no open state either: after finish() the dropped monitor's mirrors
        # are what a fresh instance starts with (counters aside)
        assert _state(kept[name]) == _state(fresh[name]), name


def _state(monitor):
    quiet = {"bus", "checked",
             # configuration learned from records, not open state
             "_replication", "_n_ranks", "_ambiguous"}
    return {key: value for key, value in vars(monitor).items()
            if key not in quiet}


def test_every_shipped_monitor_is_selected_by_some_campaign_spec():
    """The twin of ``test_every_shipped_monitor_has_a_negative``: each
    monitor of ``all_monitors()`` rides at least one scenario of the chaos
    smoke + recovery grids."""
    reached = set()
    for campaign in (smoke_campaign(), recovery_campaign()):
        for scenario in campaign.scenarios:
            spec = DeploymentSpec(
                n_procs=scenario.n_procs, protocol=scenario.protocol,
                channel=scenario.channel, n_servers=scenario.n_servers,
                ckpt_replication=scenario.replication,
                recovery_policy=scenario.policy, spares=scenario.spares)
            reached.update(m.name for m in monitors_for(spec))
    shipped = {m.name for m in all_monitors()}
    assert reached == shipped, (
        f"never selected on the chaos grids: {shipped - reached}")
