"""Chaos campaign: spec grid, verdict classification, reports, CLI."""

import json

import pytest

from repro.chaos import (
    CAMPAIGNS,
    CampaignSpec,
    Fault,
    OK_VERDICTS,
    Scenario,
    dcl_campaign,
    run_campaign,
    run_scenario,
    smoke_campaign,
    write_report,
)
from repro.chaos.__main__ import main as chaos_main


# ---------------------------------------------------------------- the spec
def test_smoke_campaign_covers_acceptance_grid():
    campaign = smoke_campaign()
    scenarios = list(campaign)
    assert len(scenarios) >= 48
    assert {s.protocol for s in scenarios} == {"pcl", "vcl", "dcl"}
    assert {s.channel for s in scenarios} == {"ft_sock", "nemesis", "ch_v"}
    assert {s.procs_per_node for s in scenarios} == {1, 2}
    faults = [fault for s in scenarios for fault in s.faults]
    assert {f.kind for f in faults if f.kind in ("task", "node")} == \
        {"task", "node"}
    assert len({s.faults[0].at for s in scenarios}) >= 2
    # the storage-resilience slice rides along: replication, server kills,
    # corruption, and the expected-unrecoverable K=1 scenarios
    assert {s.replication for s in scenarios} == {1, 2}
    assert {f.kind for f in faults} == \
        {"task", "node", "server_kill", "image_corrupt"}
    assert any(s.expect == ("storage-unrecoverable",) for s in scenarios)
    # labels are unique: each scenario is addressable in reports and filters
    labels = [s.label for s in scenarios]
    assert len(set(labels)) == len(labels)


def test_campaign_registry_drives_the_cli(capsys):
    """``CAMPAIGNS`` is the one list of campaigns: every entry is a CLI
    flag, ``--list`` prints exactly its scenarios, no flag means the first
    entry, and two flags are refused."""
    sizes = {}
    for name, build in CAMPAIGNS.items():
        labels = [s.label for s in build(0)]
        assert len(set(labels)) == len(labels), name
        assert chaos_main([f"--{name}", "--list"]) == 0
        assert capsys.readouterr().out.splitlines() == labels
        sizes[name] = len(labels)
    assert sizes == {"smoke": 48, "storage": 12, "dcl": 12, "recovery": 30}
    assert chaos_main(["--list"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == sizes["smoke"]
    with pytest.raises(SystemExit):
        chaos_main(["--storage", "--dcl", "--list"])


def test_dcl_campaign_covers_the_drain_grid():
    scenarios = list(dcl_campaign())
    assert len(scenarios) == 12
    assert {s.protocol for s in scenarios} == {"dcl"}
    assert {s.channel for s in scenarios} == {"ft_sock", "nemesis"}
    assert {(s.channel, s.procs_per_node) for s in scenarios} == \
        {("ft_sock", 1), ("ft_sock", 2), ("nemesis", 2)}
    assert {s.faults[0].kind for s in scenarios} == {"task", "node"}
    # inside the first drain wave and between waves
    assert {s.faults[0].at for s in scenarios} == {1.7, 2.8}
    assert all(len(s.faults) == 1 for s in scenarios)
    labels = [s.label for s in scenarios]
    assert len(set(labels)) == len(labels)


def test_scenario_dict_states_its_faults():
    scenario = Scenario(protocol="vcl", channel="ch_v", procs_per_node=2,
                        faults=(Fault("node", 3, 2.5),), seed=7)
    assert scenario.to_dict()["faults"] == [
        {"kind": "node", "target": 3, "at": 2.5}]


def test_scenario_validation():
    with pytest.raises(ValueError, match="fault target 9 outside job of 4"):
        Scenario(protocol="pcl", channel="ft_sock",
                 faults=(Fault("task", 9, 1.0),))
    with pytest.raises(TypeError, match="Fault values"):
        Scenario(protocol="pcl", channel="ft_sock", faults=(("task", 1, 1.0),))
    with pytest.raises(ValueError, match="unknown bench 'nosuch'"):
        Scenario(protocol="pcl", channel="ft_sock", bench="nosuch")


def test_grid_includes_failure_free_controls():
    campaign = CampaignSpec.grid(kills=(None, "task"), kill_times=(1.7, 2.8))
    nokill = [s for s in campaign if not s.faults]
    killed = [s for s in campaign if s.faults]
    # None collapses the kill-time axis; "task" sweeps it
    assert len(nokill) * 2 == len(killed)
    assert {s.faults for s in killed} == {(Fault("task", 1, 1.7),),
                                          (Fault("task", 1, 2.8),)}
    assert all("nokill" in s.label for s in nokill)


def test_filtered_subcampaign():
    campaign = smoke_campaign().filtered("vcl-ch_v-ppn2")
    assert 0 < len(campaign) < 24
    assert all("vcl-ch_v-ppn2" in s.label for s in campaign)


# ------------------------------------------------------------- the verdicts
def test_failure_free_scenario_completes():
    result = run_scenario(Scenario(protocol="pcl", channel="ft_sock"))
    assert result.verdict == "completed"
    assert result.ok
    assert result.restarts == 0
    assert result.waves > 0
    assert result.monitors_ok is True


def test_killed_scenario_recovers():
    result = run_scenario(Scenario(protocol="pcl", channel="ft_sock",
                                   faults=(Fault("task", 1, 1.7),)))
    assert result.verdict == "recovered"
    assert result.restarts == 1
    assert all(state["iteration"] == 10 and state["norm"] == 4
               for state in result.app_state)


def test_dcl_killed_scenario_recovers():
    # kill inside the first drain wave: send gates closed, counter reports
    # in flight — the wave must abort and the restart replay correctly
    result = run_scenario(Scenario(protocol="dcl", channel="ft_sock",
                                   faults=(Fault("task", 1, 1.7),)))
    assert result.verdict == "recovered"
    assert result.restarts == 1
    assert result.monitors_ok is True


def test_kill_during_bootstrap_recovers():
    """A kill at t=0 lands while ch_v's eager mesh is mid-handshake; the
    mesh builder must absorb the teardown instead of crashing the run
    (found by the Hypothesis chaos property)."""
    result = run_scenario(Scenario(protocol="vcl", channel="ch_v",
                                   faults=(Fault("task", 0, 0.0),)))
    assert result.verdict == "recovered"
    assert result.restarts == 1


def test_hang_is_a_verdict_not_an_exception():
    # A time limit far below the benchmark's runtime: the run cannot finish.
    result = run_scenario(Scenario(protocol="pcl", channel="ft_sock"),
                          time_limit=5.0)
    assert result.verdict == "hang"
    assert not result.ok
    assert "limit" in result.detail


def test_crash_is_a_verdict_not_an_exception():
    # victim validation happens at Scenario creation, so fake a crash with
    # an impossible channel
    result = run_scenario(Scenario(protocol="pcl", channel="no-such-channel"))
    assert result.verdict == "crash"
    assert not result.ok
    assert result.detail


# --------------------------------------------------------------- the report
def test_campaign_report_artifacts(tmp_path):
    spec = smoke_campaign().filtered("pcl-ft_sock-ppn2")
    spec.name = "mini"
    outcome = run_campaign(spec)
    assert outcome.ok
    assert set(outcome.counts()) <= OK_VERDICTS

    json_path, md_path = write_report(outcome, tmp_path)
    payload = json.loads(json_path.read_text())
    assert payload["campaign"] == "mini"
    assert payload["ok"] is True
    assert payload["scenarios"] == len(spec)
    for row, scenario in zip(payload["results"], spec):
        assert row["verdict"] in OK_VERDICTS
        # the artifact states every scenario in full, for exact reruns
        assert row["label"] == scenario.label
        assert row["scenario"] == json.loads(json.dumps(scenario.to_dict()))
    markdown = md_path.read_text()
    assert "| verdict | count |" in markdown
    for scenario in spec:
        assert scenario.label in markdown


# ------------------------------------------------------------------- the CLI
def test_cli_list_and_filter(capsys):
    assert chaos_main(["--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 48
    assert chaos_main(["--list", "--filter", "nemesis"]) == 0
    filtered = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(filtered) < 24
    assert all("nemesis" in line for line in filtered)


def test_cli_list_with_filter_policy_and_seed(capsys):
    assert chaos_main(["--recovery", "--list", "--filter", "pcl",
                       "--policy", "spare", "--seed", "1"]) == 0
    labels = capsys.readouterr().out.strip().splitlines()
    assert labels
    assert all(label.startswith("pcl-") and "-spare-" in label
               and label.endswith("-s1") for label in labels)


def test_cli_empty_filter_is_an_error(capsys):
    assert chaos_main(["--filter", "no-such-scenario"]) == 2


def test_cli_runs_and_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "chaos"
    code = chaos_main(["--smoke", "--filter", "vcl-ch_v-ppn1-task",
                       "--out", str(out_dir)])
    assert code == 0
    payload = json.loads((out_dir / "smoke.json").read_text())
    assert payload["ok"] is True
    assert payload["verdicts"] == {"recovered": 2}
    assert (out_dir / "smoke.md").exists()
