"""Cascading-failure recovery campaign: spec shape, verdicts, and the
never-hang property.

The acceptance property of the survivor-recovery subsystem
(docs/RECOVERY.md): *any* sequence of kills — double faults, kills landing
inside an in-progress recovery, spare-pool exhaustion, back-to-back
failures — under every recovery policy and protocol family ends in a
classified verdict, never a hang, a crash, or a wrong result.  Policies
that cannot proceed degrade to the paper's full restart
(``recovered-degraded``).
"""

from hypothesis import example, given, settings, strategies as st

from repro.chaos import (
    Fault,
    OK_VERDICTS,
    Scenario,
    run_scenario,
    recovery_campaign,
)
from repro.chaos.spec import RECOVERY_POLICIES


# ---------------------------------------------------------------- the spec
def test_recovery_campaign_shape():
    campaign = recovery_campaign()
    scenarios = list(campaign)
    assert len(scenarios) == 30
    assert {s.protocol for s in scenarios} == {"pcl", "vcl", "dcl"}
    assert {s.policy for s in scenarios} == set(RECOVERY_POLICIES)
    # cascading slices: every non-restart scenario injects a node/task kill,
    # and the campaign exercises kills *inside* an in-progress recovery
    assert any(len(s.faults) == 2 for s in scenarios)
    # spare exhaustion and non-malleable shrink expect graceful degradation
    assert any(s.expect == ("recovered-degraded",) and s.policy == "spare"
               for s in scenarios)
    assert any(s.expect == ("recovered-degraded",) and s.policy == "shrink"
               for s in scenarios)
    labels = [s.label for s in scenarios]
    assert len(set(labels)) == len(labels)


def test_recovery_scenario_dict_states_its_policy_and_faults():
    scenario = Scenario(protocol="pcl", channel="ft_sock", policy="spare",
                        spares=2, faults=(Fault("node", 1, 2.8),
                                          Fault("node", 2, 2.85)))
    assert scenario.to_dict()["policy"] == "spare"
    assert scenario.to_dict()["faults"] == [
        {"kind": "node", "target": 1, "at": 2.8},
        {"kind": "node", "target": 2, "at": 2.85}]


def test_recovery_scenario_validation():
    import pytest

    with pytest.raises(ValueError, match="policy"):
        Scenario(protocol="pcl", channel="ft_sock", policy="abandon-ship")
    with pytest.raises(ValueError, match="spares"):
        Scenario(protocol="pcl", channel="ft_sock", spares=-1)
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        Scenario(protocol="pcl", channel="ft_sock",
                 faults=(Fault("meteor", 1, 2.0),))


def test_with_policy_filter():
    campaign = recovery_campaign()
    shrink = campaign.with_policy("shrink")
    assert len(shrink) > 0
    assert all(s.policy == "shrink" for s in shrink)


# ------------------------------------------------------------- the verdicts
def test_kill_inside_spare_recovery_recovers_cleanly():
    scenario = Scenario(protocol="pcl", channel="ft_sock", policy="spare",
                        spares=2, faults=(Fault("node", 1, 2.8),
                                          Fault("node", 2, 2.85)))
    result = run_scenario(scenario)
    assert result.verdict in OK_VERDICTS, result.detail
    assert result.monitors_ok is True
    # the injected-kill audit trail surfaces in the result
    kinds = {k["kind"] for k in result.injected_kills}
    assert "node" in kinds


def test_spare_exhaustion_is_degraded_not_dead():
    scenario = Scenario(protocol="pcl", channel="ft_sock", policy="spare",
                        spares=1, faults=(Fault("node", 1, 2.8),
                                          Fault("node", 2, 2.8001)),
                        expect=("recovered-degraded",))
    result = run_scenario(scenario)
    assert result.verdict == "recovered-degraded"
    assert result.ok
    assert "policy degradation" in result.detail


# ------------------------------------------------------------- the property
_KILL = st.tuples(st.sampled_from(["task", "node"]),
                  st.integers(min_value=0, max_value=3),
                  st.floats(min_value=0.0, max_value=110.0,
                            allow_nan=False, allow_infinity=False))


@given(
    protocol_channel=st.sampled_from([("pcl", "ft_sock"), ("vcl", "ch_v"),
                                      ("dcl", "ft_sock")]),
    policy=st.sampled_from(list(RECOVERY_POLICIES)),
    spares=st.integers(min_value=0, max_value=2),
    kills=st.lists(_KILL, min_size=1, max_size=3),
)
# Falsifying example Hypothesis found and we fixed: a node kill during the
# eager-mesh bootstrap used to escape the mesh builder as
# ConnectionRefusedError while a survivor policy deferred job.kill() past
# the membership agreement round.
@example(protocol_channel=("vcl", "ch_v"), policy="spare", spares=0,
         kills=[("node", 0, 0.0)])
# And another: an isend pusher of the killed incarnation, still waiting
# for its ch_v daemon hop at the kill, sent on a harvested survivor link
# afterwards; the next incarnation adopted the link and received the dead
# job's packet (fifo-delivery, a hung wave).
@example(protocol_channel=("vcl", "ch_v"), policy="spare", spares=0,
         kills=[("task", 0, 56.109375)])
@settings(max_examples=12, deadline=None)
def test_random_kill_sequences_always_classify(
        protocol_channel, policy, spares, kills):
    """Random kill sequences — including back-to-back failures and pool
    exhaustion — always end in an OK verdict under every policy (the
    non-malleable default bench makes every shrink degrade, legally)."""
    protocol, channel = protocol_channel
    scenario = Scenario(
        protocol=protocol,
        channel=channel,
        faults=tuple(Fault(*kill) for kill in kills),
        policy=policy,
        spares=spares,
        seed=1,
    )
    result = run_scenario(scenario)
    assert result.verdict in OK_VERDICTS, (
        f"{scenario.label}: {result.verdict} — {result.detail}")
    for rank, state in enumerate(result.app_state):
        assert state["iteration"] == 10, (rank, state)  # BT at scale 0.05
