"""Process-pool execution: identical results, scoped monitor verdicts.

The parallelism contract is strict: a grid or campaign run under ``--jobs
N`` must be *indistinguishable* from the sequential run — same rows, same
order, same monitor verdicts — because every run owns an independent,
self-seeded simulator.  These tests pin that equivalence on real (small)
workloads, plus the ledger scoping that replaced the old module-global
verdict accumulator.
"""

import json
import os

import pytest

from repro.apps import BT
from repro.harness import get_profile
from repro.harness.parallel import (
    JOBS_ENV,
    execute_grid,
    pool_imap,
    pool_map,
    resolve_jobs,
)
from repro.harness.runner import execute, monitor_ledger


# ------------------------------------------------------------ job resolution
def test_resolve_jobs_explicit_wins():
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == 1  # floored
    assert resolve_jobs(-2) == 1


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv(JOBS_ENV, "4")
    assert resolve_jobs() == 4
    assert resolve_jobs(2) == 2  # explicit beats env
    monkeypatch.setenv(JOBS_ENV, "banana")
    with pytest.raises(ValueError):
        resolve_jobs()
    monkeypatch.delenv(JOBS_ENV)
    assert resolve_jobs() == 1


# ----------------------------------------------------------------- pool map
def test_pool_map_sequential_and_parallel_agree():
    items = list(range(-6, 7))
    assert pool_map(abs, items, jobs=1) == [abs(i) for i in items]
    assert pool_map(abs, items, jobs=3) == [abs(i) for i in items]


def test_pool_imap_preserves_order():
    items = [5, -1, 3, -8, 0]
    assert list(pool_imap(abs, items, jobs=2)) == [5, 1, 3, 8, 0]


# ------------------------------------------------------------ ledger scoping
def _probe_kwargs(name):
    profile = get_profile("smoke", seed=123)
    return dict(bench=BT(klass="B", scale=profile.time_scale), n_procs=4,
                protocol="pcl", profile=profile, period=30.0, name=name)


def test_monitor_ledger_scoped_and_nested():
    with monitor_ledger() as outer:
        execute(**_probe_kwargs("outer-run"))
        with monitor_ledger() as inner:
            execute(**_probe_kwargs("inner-run"))
        execute(**_probe_kwargs("outer-again"))
    # inner block captured only its own run; the outer ledger never saw it
    assert set(inner.verdicts) == {"inner-run"}
    assert set(outer.verdicts) == {"outer-run", "outer-again"}


def test_no_ledger_no_leak():
    """Runs outside any ledger leave nothing behind for the next ledger."""
    execute(**_probe_kwargs("unscoped-run"))
    with monitor_ledger() as ledger:
        pass
    assert ledger.verdicts == {}


# ---------------------------------------------------- grid/pool equivalence
def _grid_fingerprint(results):
    return json.dumps(
        [dict(r.row(), monitors_ok=r.monitors_ok, events=r.meta["events"])
         for r in results],
        sort_keys=True)


def test_execute_grid_parallel_identical_to_sequential():
    tasks = [_probe_kwargs("grid-a"), _probe_kwargs("grid-b")]

    with monitor_ledger() as seq_ledger:
        seq = execute_grid(tasks, jobs=1)
    with monitor_ledger() as par_ledger:
        par = execute_grid(tasks, jobs=2)

    assert _grid_fingerprint(seq) == _grid_fingerprint(par)
    # worker verdicts were re-recorded into the parent's ledger, in order
    assert list(par_ledger.verdicts) == list(seq_ledger.verdicts) \
        == ["grid-a", "grid-b"]
    assert json.dumps(seq_ledger.verdicts, sort_keys=True) == \
        json.dumps(par_ledger.verdicts, sort_keys=True)


def test_execute_grid_parallel_identical_for_dcl():
    """The drain protocol's runs pickle and re-seed like the others."""
    tasks = [dict(_probe_kwargs(f"dcl-grid-{i}"), protocol="dcl")
             for i in ("a", "b")]
    seq = execute_grid(tasks, jobs=1)
    par = execute_grid(tasks, jobs=2)
    assert _grid_fingerprint(seq) == _grid_fingerprint(par)


@pytest.mark.parametrize("figure", ["protocol_race", "replication"])
def test_figure_parallel_identical_to_sequential(figure, monkeypatch):
    """Every figure runs its RunTable through execute_grid, so --jobs fans
    it out — ``replication`` looped over ``execute`` (and ignored --jobs)
    until the table; the resulting document must be byte-identical to the
    sequential one."""
    from repro.harness import get_experiment

    runner = get_experiment(figure)
    documents = []
    for jobs in ("1", "4"):
        monkeypatch.setenv(JOBS_ENV, jobs)
        result = runner(get_profile("smoke", seed=0))
        documents.append(json.dumps(result.as_dict(), sort_keys=True))
    monkeypatch.delenv(JOBS_ENV)
    assert documents[0] == documents[1]


def test_campaign_parallel_identical_to_sequential():
    from repro.chaos.runner import run_campaign
    from repro.chaos.spec import CampaignSpec, Fault, Scenario

    campaign = CampaignSpec(
        scenarios=[
            Scenario(protocol="pcl", channel="ft_sock", procs_per_node=2,
                     faults=(Fault("task", 1, 1.7),), seed=0),
            Scenario(protocol="pcl", channel="ft_sock", seed=0),
            Scenario(protocol="dcl", channel="ft_sock", procs_per_node=2,
                     faults=(Fault("node", 1, 1.7),), seed=0),
        ],
        name="mini",
    )
    seq_progress, par_progress = [], []
    seq = run_campaign(campaign, jobs=1,
                       progress=lambda r: seq_progress.append(r.scenario.label))
    par = run_campaign(campaign, jobs=2,
                       progress=lambda r: par_progress.append(r.scenario.label))
    assert seq_progress == par_progress == [s.label for s in campaign]
    a = json.dumps([r.to_dict() for r in seq.results], sort_keys=True)
    b = json.dumps([r.to_dict() for r in par.results], sort_keys=True)
    assert a == b
    # the out-of-band events field survives the pool round-trip too
    assert [r.events for r in seq.results] == [r.events for r in par.results]
    assert all(r.events > 0 for r in seq.results)
