"""The repro.perf count gate: workloads, the exact comparison, the CLI.

The workloads are deterministic simulations, so the gate is exact and has
one way to answer: these tests pin that the counts are reproducible, that a
single event or pop of drift fails, and that no invocation can exit 0
without having compared — a workload with no baseline row, a partial
``--update`` and a missing baseline are all refused.
"""

import json
import shutil

import pytest

from repro.perf import (
    DEFAULT_BASELINE,
    SUITES,
    WORKLOADS,
    WorkloadRun,
    compare_counts,
    load_baseline,
    run_suite,
    suite_report,
)
from repro.perf import bench, workloads
from repro.perf.__main__ import build_parser, main
from repro.perf.workloads import flow_churn, scale_10k, suite_params


# -------------------------------------------------------------- workloads
def test_workload_registry_matches_suites():
    for suite, params in SUITES.items():
        assert set(params) <= set(WORKLOADS), suite
    with pytest.raises(KeyError):
        suite_params("nope")


def test_flow_churn_deterministic_work():
    """Same parameters -> exactly the same useful events and engine pops."""
    a = flow_churn(churn=60, persistent=8, cancel_every=5)
    b = flow_churn(churn=60, persistent=8, cancel_every=5)
    assert a.events == b.events
    assert a.pops == b.pops
    assert a.events > 0


def test_flow_churn_exercises_cancellation():
    run = flow_churn(churn=60, persistent=8, cancel_every=5)
    # every 5th churn flow is cancelled: completions < flows started
    assert run.events < 60 + 8 + 1


def test_every_baseline_workload_is_exercised_by_a_suite():
    """The committed BENCH_engine.json and the registry name the same
    workloads, and both suites parameterise all of them — a renamed or
    dropped workload must take its baseline row with it."""
    baseline = load_baseline(DEFAULT_BASELINE)
    assert baseline is not None, "committed baseline missing"
    assert set(baseline["workloads"]) == set(WORKLOADS)
    assert baseline["meta"] == {"suite": "full"}
    for suite in ("smoke", "full"):
        assert set(suite_params(suite)) == set(WORKLOADS)


def test_scale_10k_workload_deterministic_and_scaled_down_runnable():
    """The 10k-rank wave is parameterised, so tier-1 can pin its machinery
    at a CI-friendly size; the suites run it at the full 10,000."""
    a = scale_10k(n_procs=64, rounds=1)
    b = scale_10k(n_procs=64, rounds=1)
    assert a.events == b.events > 0
    for suite in ("smoke", "full"):
        assert suite_params(suite)["scale_10k"]["n_procs"] == 10_000


# ------------------------------------------------------- the exact judge
def _runs(**counts):
    return {name: WorkloadRun(events=ev, pops=pop)
            for name, (ev, pop) in counts.items()}


def _baseline(**counts):
    return suite_report(_runs(**counts), "full")


def test_compare_counts_flags_any_deterministic_drift():
    """A single event or pop of drift fails."""
    baseline = _baseline(bt_wave=(1000, 2000), netpipe=(50, 50))
    assert compare_counts(_runs(bt_wave=(1000, 2000), netpipe=(50, 50)),
                          baseline) == []
    drifted = compare_counts(_runs(bt_wave=(1001, 2000), netpipe=(50, 51)),
                             baseline)
    assert len(drifted) == 2
    assert any("bt_wave" in m and "1001 events" in m for m in drifted)
    assert any("netpipe" in m and "51 engine pops" in m for m in drifted)


def test_compare_counts_fails_a_workload_without_a_baseline_row():
    """A workload that ran but has no row is named as a failure — it used
    to pass silently until someone refreshed the baseline.  Rows of
    workloads that did not run (``--only``) are not judged."""
    baseline = _baseline(bt_wave=(1000, 2000), netpipe=(50, 50))
    messages = compare_counts(
        _runs(bt_wave=(1000, 2000), newcomer=(7, 7)), baseline)
    assert len(messages) == 1
    assert "newcomer" in messages[0] and "no row" in messages[0]


def test_suite_report_is_counts_and_suite_only():
    report = suite_report(_runs(flow_churn=(407, 1328)), "full")
    assert report == {
        "schema": "repro.perf/1",
        "meta": {"suite": "full"},
        "workloads": {"flow_churn": {"events": 407, "pops": 1328}},
    }


def test_load_baseline_missing_returns_none(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) is None
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"workloads": {}}))
    assert load_baseline(str(path)) == {"workloads": {}}


def test_run_suite_runs_each_workload_once_in_declaration_order(monkeypatch):
    calls = []

    def fake(name):
        def workload(**params):
            calls.append((name, params))
            return WorkloadRun(events=len(calls), pops=10 * len(calls))
        return workload

    monkeypatch.setattr(bench, "WORKLOADS", {n: fake(n) for n in WORKLOADS})
    runs = run_suite("smoke")
    assert list(runs) == list(WORKLOADS)
    assert calls == [(n, suite_params("smoke")[n]) for n in WORKLOADS]
    assert list(run_suite("smoke", only=["netpipe"])) == ["netpipe"]


# ------------------------------------------------------------------- CLI
@pytest.fixture
def baseline_copy(tmp_path):
    """The committed baseline, copied where a test may tamper with it."""
    path = tmp_path / "bench.json"
    shutil.copy(DEFAULT_BASELINE, path)
    return path


def _tamper(path, workload, key):
    doc = json.loads(path.read_text())
    doc["workloads"][workload][key] += 1
    path.write_text(json.dumps(doc))


def test_cli_has_three_flags():
    flags = {option for action in build_parser()._actions
             for option in action.option_strings} - {"-h", "--help"}
    assert flags == {"--only", "--baseline", "--update"}
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("key", ["events", "pops"])
def test_cli_fails_on_a_tampered_count(baseline_copy, capsys, key):
    args = ["--only", "flow_churn", "--baseline", str(baseline_copy)]
    assert main(args) == 0
    assert "match" in capsys.readouterr().out
    _tamper(baseline_copy, "flow_churn", key)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "REGRESSION flow_churn" in err and "changed behaviour" in err


@pytest.mark.unmonitored  # the gate as CI runs it: execute() attaches its own
def test_cli_default_invocation_compares_counts(baseline_copy, capsys):
    """Plain ``python -m repro.perf`` runs the suite the baseline records,
    so it cannot pass without comparing (it used to run the smoke suite
    against the full baseline, print "counts not compared" and exit 0)."""
    _tamper(baseline_copy, "chaos_kill", "pops")
    assert main(["--baseline", str(baseline_copy)]) == 1
    captured = capsys.readouterr()
    assert "perf suite 'full'" in captured.out
    assert captured.err.count("REGRESSION") == 1
    assert "REGRESSION chaos_kill" in captured.err


def test_cli_fails_a_registered_workload_the_baseline_lacks(
        baseline_copy, capsys):
    doc = json.loads(baseline_copy.read_text())
    del doc["workloads"]["flow_churn"]
    baseline_copy.write_text(json.dumps(doc))
    assert main(["--only", "flow_churn",
                 "--baseline", str(baseline_copy)]) == 1
    assert "flow_churn: no row in the baseline" in capsys.readouterr().err


def test_cli_refuses_a_partial_update(baseline_copy, capsys):
    """``--only X --update`` used to rewrite the baseline with X alone,
    dropping every other row."""
    before = baseline_copy.read_text()
    with pytest.raises(SystemExit) as excinfo:
        main(["--only", "flow_churn", "--update",
              "--baseline", str(baseline_copy)])
    assert excinfo.value.code == 2
    assert "--only" in capsys.readouterr().err
    assert baseline_copy.read_text() == before


def test_cli_refuses_a_missing_baseline(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--only", "flow_churn", "--baseline", str(tmp_path / "nope")])
    assert excinfo.value.code == 2
    assert "no baseline" in capsys.readouterr().err


def test_cli_update_rewrites_every_row_at_the_recorded_suite(
        tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", {
        "tiny": lambda size: WorkloadRun(events=size, pops=2 * size)})
    monkeypatch.setattr(workloads, "SUITES", {"small": {"tiny": {"size": 3}}})
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"meta": {"suite": "small"}, "workloads": {}}))
    assert main(["--baseline", str(path)]) == 1  # tiny has no row yet
    assert main(["--baseline", str(path), "--update"]) == 0
    assert json.loads(path.read_text()) == {
        "schema": "repro.perf/1",
        "meta": {"suite": "small"},
        "workloads": {"tiny": {"events": 3, "pops": 6}},
    }
    assert main(["--baseline", str(path)]) == 0
