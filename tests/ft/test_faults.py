"""The one fault vocabulary: ``Fault`` values, the ``FAULTS`` table, and
``FTRun.schedule`` as the single way a failure enters a run."""

import inspect
import math
import pathlib

import pytest

import repro.ft.recovery
from repro.chaos import Scenario
from repro.ft import FAULTS, FTRun, Fault
from repro.ft.failure import FaultKind
from repro.runtime import DeploymentSpec
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


@pytest.mark.parametrize("args, params, message", [
    (("meteor", 0, 1.0), {}, "unknown fault kind 'meteor'"),
    (("task", -1, 1.0), {}, "task fault target must be a non-negative"),
    (("task", 1.5, 1.0), {}, "task fault target must be a non-negative"),
    (("node", True, 1.0), {}, "node fault target must be a non-negative"),
    (("node", 0, -0.5), {}, r"node fault time must be >= 0"),
    (("node", 0, math.nan), {}, r"node fault time must be >= 0"),
    (("image_corrupt", 0, 1.0), {}, r"takes parameters \('rank',\), got \(\)"),
    (("server_kill", 0, 1.0), {"rank": 1}, r"takes parameters \(\), got"),
])
def test_a_bad_fault_fails_at_construction_naming_it(args, params, message):
    with pytest.raises(ValueError, match=message):
        Fault(*args, **params)


def test_a_fault_is_a_plain_value():
    fault = Fault("image_corrupt", 1, 2.4, rank=3)
    assert fault == Fault("image_corrupt", 1, 2.4, rank=3)
    assert hash(fault) == hash(Fault("image_corrupt", 1, 2.4, rank=3))
    assert fault != Fault("image_corrupt", 1, 2.4, rank=2)
    assert fault.param("rank") == 3
    assert fault.to_dict() == {"kind": "image_corrupt", "target": 1,
                               "at": 2.4, "rank": 3}
    assert Fault(**fault.to_dict()) == fault
    assert fault.label == "image_corrupt-cs1@2.4"
    assert Fault("task", 3, 1.7).label == "task-r3@1.7"


#: every FAULTS kind -> the KillRecord kind its injection leaves
_RECORDS = {"task": "task", "node": "node", "server_kill": "server",
            "image_corrupt": "corrupt"}


def test_every_kind_has_an_injection_case():
    assert set(_RECORDS) == set(FAULTS)


@pytest.mark.parametrize("kind, record", sorted(_RECORDS.items()))
def test_every_kind_is_injected_through_schedule(kind, record):
    """Each ``FAULTS`` row, entering through ``FTRun.schedule``, executes
    its injection: the typed record chaos reports surface, then a correct
    finish."""
    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", n_servers=2, replication=2,
                          period=1.0, image_bytes=2e6)
    run.start()
    params = {"rank": 1} if kind == "image_corrupt" else {}
    run.schedule(Fault(kind, 1, 2.4, **params))
    sim.run_until_complete(run.completed, limit=1e5)
    assert run.injected[0].kind == record
    assert run.injected[0].time == 2.4
    assert_ring_result(run, iters=30)


def test_a_new_fault_kind_is_one_table_row(monkeypatch):
    """A ``FAULTS`` row is all a kind needs: it validates, labels,
    round-trips inside a ``Scenario`` and is scheduled by ``FTRun`` with no
    other edit."""
    fired = []

    def inject(run, fault):
        fired.append((run.sim.now, fault.target, fault.param("peer")))

    monkeypatch.setitem(FAULTS, "partition",
                        FaultKind("rank", inject, params=("peer",)))
    fault = Fault("partition", 2, 1.25, peer=3)
    scenario = Scenario(protocol="pcl", channel="ft_sock", faults=(fault,))
    assert scenario.label == "pcl-ft_sock-ppn1-partition-r2@1.25-s0"
    assert scenario.to_dict()["faults"] == [
        {"kind": "partition", "target": 2, "at": 1.25, "peer": 3}]
    with pytest.raises(ValueError, match="partition fault target 4 outside"):
        Scenario(protocol="pcl", channel="ft_sock",
                 faults=(Fault("partition", 4, 1.0, peer=0),))
    with pytest.raises(ValueError, match="partition fault peer=4 outside"):
        Scenario(protocol="pcl", channel="ft_sock",
                 faults=(Fault("partition", 0, 1.0, peer=4),))

    sim = Simulator(seed=7)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl")
    run.start()
    run.schedule(fault)
    sim.run_until_complete(run.completed, limit=1e5)
    assert fired == [(1.25, 2, 3)]


def test_ftrun_names_no_fault_kind():
    """Injection lives in ``repro.ft.failure``: ``FTRun`` has one
    ``schedule`` and knows no kind by name."""
    assert not [name for name in dir(FTRun) if name.startswith("schedule_")]
    source = pathlib.Path(inspect.getfile(repro.ft.recovery)).read_text()
    for kind in FAULTS:
        assert f'"{kind}"' not in source, kind


def test_the_legacy_restart_policy_knob_is_gone():
    """``recovery_policy`` is the one restart choice: the old
    ``restart_policy`` knob (same-node / spare) is refused."""
    assert "restart_policy" not in inspect.signature(FTRun).parameters
    with pytest.raises(TypeError, match="restart_policy"):
        DeploymentSpec(n_procs=4, restart_policy="spare")


@pytest.mark.parametrize("knobs, message", [
    (dict(protocol="qcl"), "protocol must be one of"),
    (dict(channel="ch_x"), "channel must be one of"),
    (dict(network="wan"), "network must be one of"),
    (dict(launcher="mpirun"), "launcher must be one of"),
    (dict(recovery_policy="pray"), "recovery_policy must be one of"),
    (dict(n_procs=0), "n_procs must be >= 1"),
    (dict(n_servers=0), "n_servers must be >= 1"),
    (dict(procs_per_node=0), "procs_per_node must be >= 1"),
    (dict(n_compute_nodes=0), "n_compute_nodes must be >= 1"),
    (dict(ckpt_gc_keep=0), "ckpt_gc_keep must be >= 1"),
    (dict(period=0.0), "period must be > 0"),
    (dict(fork_latency=-1.0), "fork_latency must be >= 0"),
    (dict(ckpt_replication=2), "ckpt_replication must be between 1"),
    (dict(spares=-1), "spares must be >= 0"),
    (dict(spares=1, network="grid5000"), "spares: spare pools"),
])
def test_deployment_spec_names_the_bad_knob(knobs, message):
    with pytest.raises(ValueError, match=message):
        DeploymentSpec(**{"n_procs": 4, **knobs})


@pytest.mark.parametrize("knobs, message", [
    (dict(procs_per_node=0), "procs_per_node must be >= 1"),
    (dict(n_procs=0), "n_procs must be >= 1"),
    (dict(n_servers=0), "n_servers must be >= 1"),
    (dict(gc_keep=0), "gc_keep must be >= 1"),
    (dict(period=-30.0), "period must be > 0"),
    (dict(scale=0.0), "scale must be > 0"),
    (dict(replication=2), "replication must be between 1"),
    (dict(policy="pray"), "unknown recovery policy 'pray'"),
    (dict(spares=-1), "spares must be >= 0"),
])
def test_scenario_names_the_bad_field(knobs, message):
    with pytest.raises(ValueError, match=message):
        Scenario(protocol="pcl", channel="ft_sock", **knobs)
