"""Storage-resilience campaign: spec shape, verdicts, and the durability
property.

The property mirrors the replication contract of :mod:`repro.ft.server`:
with replication >= 2, killing any *single* checkpoint server at any time
never loses a committed wave — every rank of the newest committed wave
keeps a sealed, checksum-intact replica on a surviving server.
"""

from hypothesis import given, settings, strategies as st

from repro.chaos import (
    BAD_VERDICTS,
    Fault,
    OK_VERDICTS,
    Scenario,
    run_scenario,
    smoke_campaign,
    storage_campaign,
)
from repro.sim import Simulator

from tests.ft.conftest import build_ft_run, ring_app_factory


# ---------------------------------------------------------------- the spec
def test_storage_campaign_shape():
    campaign = storage_campaign()
    scenarios = list(campaign)
    assert len(scenarios) == 12
    assert {s.protocol for s in scenarios} == {"pcl", "vcl"}
    assert {s.faults[-1].kind for s in scenarios} == \
        {"server_kill", "image_corrupt"}
    # a corruption damages the killed rank's replica: the one its restart
    # must get past
    assert all(s.faults[-1].param("rank") == s.faults[0].target
               for s in scenarios if s.faults[-1].kind == "image_corrupt")
    # replicated scenarios must pass outright; the K=1 ones expect the
    # classified unrecoverable verdict
    assert any(s.replication == 2 and not s.expect for s in scenarios)
    assert any(s.replication == 1 and s.expect == ("storage-unrecoverable",)
               for s in scenarios)
    labels = [s.label for s in scenarios]
    assert len(set(labels)) == len(labels)
    # the storage slice rides along in the CI smoke campaign
    smoke_labels = {s.label for s in smoke_campaign()}
    assert set(labels) <= smoke_labels


def test_storage_scenario_round_trips_through_dict():
    scenario = Scenario(protocol="pcl", channel="ft_sock", n_servers=2,
                        replication=2, expect=("storage-unrecoverable",),
                        faults=(Fault("node", 1, 2.8),
                                Fault("image_corrupt", 1, 2.4, rank=1)))
    assert Scenario.from_dict(scenario.to_dict()) == scenario


def test_storage_scenario_validation():
    import pytest

    with pytest.raises(ValueError, match="outside 1 checkpoint server"):
        Scenario(protocol="pcl", channel="ft_sock",
                 faults=(Fault("server_kill", 3, 2.4),))
    with pytest.raises(ValueError, match="rank=7 outside job of 4"):
        Scenario(protocol="pcl", channel="ft_sock",
                 faults=(Fault("image_corrupt", 0, 2.4, rank=7),))
    with pytest.raises(ValueError, match="replication"):
        Scenario(protocol="pcl", channel="ft_sock", replication=2)


# ------------------------------------------------------------- the verdicts
def test_replicated_server_kill_scenario_passes():
    scenario = Scenario(protocol="pcl", channel="ft_sock", n_servers=2,
                        replication=2,
                        faults=(Fault("node", 1, 2.8),
                                Fault("server_kill", 0, 2.4)))
    result = run_scenario(scenario)
    assert result.verdict in OK_VERDICTS, result.detail
    assert result.ok
    assert result.restarts == 1
    assert result.monitors_ok is True


def test_k1_server_kill_is_classified_unrecoverable_and_expected_ok():
    scenario = Scenario(protocol="pcl", channel="ft_sock",
                        faults=(Fault("node", 1, 2.8),
                                Fault("server_kill", 0, 2.4)),
                        expect=("storage-unrecoverable",))
    result = run_scenario(scenario)
    assert result.verdict == "storage-unrecoverable"
    assert result.verdict in BAD_VERDICTS  # fails any campaign not expecting it
    assert result.ok  # ...but this scenario expects exactly that
    assert "no complete replica set" in result.detail


# ------------------------------------------------------------- the property
@given(
    victim=st.integers(min_value=0, max_value=2),
    kill_time=st.floats(min_value=0.0, max_value=2.0,
                        allow_nan=False, allow_infinity=False),
)
@settings(max_examples=15, deadline=None)
def test_single_server_kill_at_k2_never_loses_a_committed_wave(
        victim, kill_time):
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30), size=4,
                          protocol="pcl", n_servers=3, period=0.6,
                          image_bytes=2e5, replication=2)
    run.start()
    run.schedule(Fault("server_kill", victim, kill_time))
    sim.run_until_complete(run.completed, limit=1e5)
    live = [s for s in run.servers if s.node.alive]
    assert len(live) >= 2
    committed = max((s.committed_wave for s in live), default=0)
    if committed == 0:
        return  # killed before any commit: nothing to lose
    for rank in range(4):
        replicas = [
            s.storage.get(committed, {}).get(rank) for s in live
        ]
        assert any(image is not None and image.verify()
                   for image in replicas), (
            f"rank {rank} of committed wave {committed} lost after killing "
            f"server {victim} at t={kill_time}")
