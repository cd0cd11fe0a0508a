"""Recovery policies as table rows: ``RECOVERY_POLICIES`` says, per policy,
which place step runs after the agreement and whether the survivors keep
their sockets; ``FTRun`` runs the pipeline and names no policy."""

import inspect

from repro.chaos import Scenario
from repro.ft import RECOVERY_POLICIES, FTRun, Fault, RecoveryPolicy
from repro.ft import shrink, spare
from repro.ft.recovery import SURVIVOR_POLICIES
from repro.runtime import DeploymentSpec
from repro.sim import Simulator, Tracer

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def test_the_policies_are_rows():
    assert RECOVERY_POLICIES == {
        "restart": RecoveryPolicy(None),
        "spare": RecoveryPolicy(spare.place, keeps_links=True),
        "shrink": RecoveryPolicy(shrink.place),
    }
    assert SURVIVOR_POLICIES == tuple(
        name for name, row in RECOVERY_POLICIES.items()
        if row.place is not None)


def test_a_new_recovery_policy_is_one_function_and_one_row(monkeypatch):
    """A ``RECOVERY_POLICIES`` row is all a policy needs: specs accept it,
    labels name it, and ``FTRun`` runs its place step after the agreement
    and degrades to the full restart on the reason it returns."""
    calls = []

    def place(run, failed, survivors, committed, inherited, marks,
              started_at):
        calls.append((run.sim.now, failed, inherited))
        return "toy-declines"
        yield  # a generator, like every place step

    monkeypatch.setitem(RECOVERY_POLICIES, "toy", RecoveryPolicy(place))
    assert DeploymentSpec(n_procs=4, recovery_policy="toy").recovery_policy \
        == "toy"
    scenario = Scenario(protocol="pcl", channel="ft_sock", policy="toy",
                        faults=(Fault("task", 1, 1.7),))
    assert scenario.label == "pcl-ft_sock-ppn1-task-r1@1.7-toy-s0"
    assert Scenario.from_dict(scenario.to_dict()) == scenario

    sim = Simulator(seed=7, trace=Tracer(categories=[
        "ft.membership_commit", "ft.recovery_degraded", "ft.restarted"]))
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, recovery_policy="toy")
    run.start()
    run.schedule(Fault("task", 1, 2.4))
    sim.run_until_complete(run.completed, limit=1e5)

    commits = list(sim.trace.select("ft.membership_commit"))
    assert commits, "a place step runs after an agreement round"
    [(called_at, failed, inherited)] = calls
    assert called_at >= max(record.time for record in commits)
    assert failed == (1,) and inherited == {}
    [degraded] = sim.trace.select("ft.recovery_degraded")
    assert degraded.get("policy") == "toy"
    assert degraded.get("reason") == "toy-declines"
    assert run.stats.policy_degradations == 1
    assert run.stats.restarts == 1
    assert_ring_result(run, iters=30)


def test_ftrun_names_no_policy():
    """The policy code lives in one module per policy; ``FTRun`` reads the
    row, and keeps no constructor knob no caller sets."""
    source = inspect.getsource(FTRun)
    for name in SURVIVOR_POLICIES:
        assert f'"{name}"' not in source, name
    for gone in ("_spare_restart", "_promote_spares", "_shrink_restart",
                 "_POLICIES"):
        assert not hasattr(FTRun, gone), gone
    assert list(inspect.signature(FTRun).parameters) == [
        "sim", "net", "endpoints", "app_factory", "channel_cls",
        "protocol_factory", "servers", "launcher", "image_bytes", "name",
        "replication", "recovery_policy", "spare_pool",
        "malleable_app_factory"]
