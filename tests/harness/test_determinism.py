"""Repeat-run determinism: same seed, same bytes.

The harness' claim to reproducibility is literal: running an experiment
twice with the same ``REPRO_SEED`` must yield byte-identical result JSON
and byte-identical traces — no wall-clock, object-identity or global
counter leakage into the simulation.  (Connection ids and job uids are
per-simulator counters for exactly this reason.)

The default tests run one small configuration twice.  Set
``REPRO_DETERMINISM=full`` to additionally double-run a whole smoke-profile
figure and compare its complete JSON document.
"""

import json
import os

import pytest

from repro.apps import BT
from repro.ft import Fault
from repro.harness import get_experiment, get_profile
from repro.harness.runner import execute, monitor_ledger
from repro.mpi import FtSockChannel
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator
from repro.sim.trace import Tracer, dump_jsonl


def _small_execute(seed, procs_per_node=None):
    profile = get_profile("smoke", seed=seed)
    bench = BT(klass="B", scale=profile.time_scale)
    with monitor_ledger() as ledger:
        result = execute(bench, 4, "pcl", profile, period=30.0,
                         procs_per_node=procs_per_node,
                         name="determinism-probe")
    return result, ledger.verdicts


@pytest.mark.parametrize("procs_per_node", [None, 2])
def test_execute_twice_same_seed_is_byte_identical(procs_per_node):
    first, verdicts_a = _small_execute(seed=123, procs_per_node=procs_per_node)
    second, verdicts_b = _small_execute(seed=123, procs_per_node=procs_per_node)
    assert first.completion == second.completion  # exact, not approx
    assert json.dumps(first.row(), sort_keys=True) == \
        json.dumps(second.row(), sort_keys=True)
    assert json.dumps(verdicts_a, sort_keys=True) == \
        json.dumps(verdicts_b, sort_keys=True)
    assert first.waves == second.waves
    assert first.stats.logged_bytes == second.stats.logged_bytes
    assert first.stats.blocked_seconds == second.stats.blocked_seconds


@pytest.mark.parametrize("procs_per_node", [None, 2])
@pytest.mark.parametrize("protocol", ["pcl", "vcl", "dcl"])
def test_full_trace_twice_same_seed_is_byte_identical(tmp_path, protocol,
                                                      procs_per_node):
    """Two full-trace runs of one figure-style deployment: every record —
    times, pipe names, job uids, packet seqs — must match byte for byte.
    ``procs_per_node=2`` covers the shared-node regime that used to
    livelock Pcl (see tests/chaos/test_livelock_regression.py)."""
    paths = []
    for attempt in ("a", "b"):
        sim = Simulator(seed=123, trace=Tracer(enabled=True))
        bench = BT(klass="B", scale=0.05)
        spec = DeploymentSpec(
            n_procs=4, protocol=protocol, period=1.5,
            procs_per_node=procs_per_node,
            image_bytes=bench.image_bytes(4) * 0.05,
        )
        run = build_run(sim, spec, bench.make_app(4), name="trace-probe")
        run.start()
        sim.run_until_complete(run.completed, limit=1e8)
        path = str(tmp_path / f"{protocol}-{attempt}.jsonl")
        assert dump_jsonl(sim.trace.records, path) > 0
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_chaos_scenario_trace_twice_same_seed_is_byte_identical(tmp_path):
    """A full chaos scenario — kill, rollback, restart, with the engine
    watchdog armed — must also be byte-reproducible: the watchdog observes
    every pop but emits nothing unless it trips."""
    from repro.sim import Watchdog

    paths = []
    for attempt in ("a", "b"):
        sim = Simulator(seed=5, trace=Tracer(enabled=True),
                        watchdog=Watchdog())
        bench = BT(klass="B", scale=0.05)
        spec = DeploymentSpec(
            n_procs=4, protocol="pcl", period=1.5, procs_per_node=2,
            image_bytes=bench.image_bytes(4) * 0.05,
        )
        run = build_run(sim, spec, bench.make_app(4), name="chaos-probe")
        run.start()
        run.schedule(Fault("task", 1, 1.7))
        sim.run_until_complete(run.completed, limit=1e8)
        assert run.stats.restarts == 1
        path = str(tmp_path / f"chaos-{attempt}.jsonl")
        assert dump_jsonl(sim.trace.records, path) > 0
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_chaos_scenario_result_twice_is_identical():
    """Verdict-level determinism: the chaos runner's JSON row for the same
    scenario is identical across runs (what makes campaign artifacts
    diffable)."""
    from repro.chaos import Scenario, run_scenario

    scenario = Scenario(protocol="vcl", channel="ch_v", procs_per_node=2,
                        faults=(Fault("node", 1, 1.7),), seed=9)
    rows = [json.dumps(run_scenario(scenario).to_dict(), sort_keys=True)
            for _ in range(2)]
    assert rows[0] == rows[1]


def test_failure_recovery_trace_twice_same_seed_is_byte_identical(tmp_path):
    """Determinism must survive a kill + rollback: respawn, image fetch and
    replay schedules all come from seeded streams."""
    from tests.ft.conftest import build_ft_run
    from tests.ft.test_vcl_replay_order import seq_stream_app

    paths = []
    for attempt in ("a", "b"):
        sim = Simulator(seed=31, trace=Tracer(enabled=True))
        run, _ = build_ft_run(sim, seq_stream_app(n_msgs=40), size=2,
                              protocol="vcl", period=0.12, image_bytes=1e6,
                              fork_latency=0.005)
        run.start()
        run.schedule(Fault("task", 1, 0.43))
        sim.run_until_complete(run.completed, limit=1e5)
        assert run.stats.restarts == 1
        path = str(tmp_path / f"recovery-{attempt}.jsonl")
        assert dump_jsonl(sim.trace.records, path) > 0
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


def test_server_kill_replicated_restart_trace_is_byte_identical(tmp_path):
    """The storage-resilience machinery — replicated uploads with a quorum
    gate, a server kill, restart-time replica retries with seeded backoff —
    must be byte-reproducible like every other failure path."""
    from repro.sim import Watchdog

    paths = []
    for attempt in ("a", "b"):
        sim = Simulator(seed=5, trace=Tracer(enabled=True),
                        watchdog=Watchdog())
        bench = BT(klass="B", scale=0.05)
        spec = DeploymentSpec(
            n_procs=4, protocol="pcl", period=1.5, procs_per_node=2,
            image_bytes=bench.image_bytes(4) * 0.05,
            n_servers=2, ckpt_replication=2,
        )
        run = build_run(sim, spec, bench.make_app(4), name="storage-probe")
        run.start()
        run.schedule(Fault("server_kill", 0, 2.4))
        run.schedule(Fault("node", 1, 2.8))
        sim.run_until_complete(run.completed, limit=1e8)
        assert run.stats.restarts == 1
        path = str(tmp_path / f"storage-{attempt}.jsonl")
        assert dump_jsonl(sim.trace.records, path) > 0
        paths.append(path)
    with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
        assert a.read() == b.read()


@pytest.mark.skipif(os.environ.get("REPRO_DETERMINISM") != "full",
                    reason="set REPRO_DETERMINISM=full for the figure sweep")
@pytest.mark.parametrize("experiment_id", ["fig5", "fig6", "fig7",
                                           "protocol_race"])
def test_smoke_figure_twice_same_seed_is_byte_identical(experiment_id):
    runner = get_experiment(experiment_id)
    seed = int(os.environ.get("REPRO_SEED", "0"))
    documents = []
    for _ in range(2):
        result = runner(get_profile("smoke", seed=seed))
        documents.append(json.dumps(result.as_dict(), sort_keys=True))
    assert documents[0] == documents[1]
