"""The repro.perf subsystem: workloads, baseline policy, CLI.

The perf suite is a *measured claim* like every figure: these tests pin
that the workloads are deterministic in their work (events are exactly
reproducible even though wall time is not), that the regression policy
fires on real slowdowns and nothing else, and that the CLI exit codes are
what CI keys on.
"""

import json

import pytest

from repro.perf import (
    SUITES,
    WORKLOADS,
    compare_to_baseline,
    load_baseline,
    run_suite,
    run_workload,
    suite_report,
)
from repro.perf.bench import BenchResult, compare_counts
from repro.perf.workloads import flow_churn, scale_10k, suite_params


# -------------------------------------------------------------- workloads
def test_workload_registry_matches_suites():
    for suite, params in SUITES.items():
        assert set(params) <= set(WORKLOADS), suite
    with pytest.raises(KeyError):
        suite_params("nope")


def test_flow_churn_deterministic_work():
    """Same parameters -> exactly the same useful events and engine pops
    (the numerator of events/sec is wall-clock-free)."""
    a = flow_churn(churn=60, persistent=8, cancel_every=5)
    b = flow_churn(churn=60, persistent=8, cancel_every=5)
    assert a.events == b.events
    assert a.pops == b.pops
    assert a.events > 0


def test_flow_churn_exercises_cancellation():
    run = flow_churn(churn=60, persistent=8, cancel_every=5)
    # every 5th churn flow is cancelled: completions < flows started
    assert run.extra["churn"] == 60
    assert run.events < 60 + 8 + 1


def test_every_baseline_workload_is_exercised_by_a_suite():
    """Every workload recorded in the committed BENCH_engine.json is still
    runnable via ``--suite smoke`` or ``--suite full`` — a renamed or
    dropped workload must take its baseline entry with it, or the count
    gate silently stops covering it."""
    from repro.perf.bench import DEFAULT_BASELINE

    baseline = load_baseline(DEFAULT_BASELINE)
    assert baseline is not None, "committed baseline missing"
    recorded = set(baseline.get("workloads", {}))
    assert recorded, "committed baseline records no workloads"
    for suite in ("smoke", "full"):
        missing = recorded - set(suite_params(suite))
        assert not missing, (
            f"baseline workloads {sorted(missing)} not exercised by "
            f"--suite {suite}"
        )
    # and the converse: the registry itself is fully suite-covered
    for suite in ("smoke", "full"):
        assert set(suite_params(suite)) == set(WORKLOADS)


def test_scale_10k_workload_deterministic_and_scaled_down_runnable():
    """The 10k-rank wave is parameterised, so tier-1 can pin its machinery
    at a CI-friendly size; the bench suites run it at the full 10,000."""
    a = scale_10k(n_procs=64, rounds=1)
    b = scale_10k(n_procs=64, rounds=1)
    assert a.events == b.events > 0
    assert a.extra["n_procs"] == 64
    for suite in ("smoke", "full"):
        assert suite_params(suite)["scale_10k"]["n_procs"] == 10_000


def test_run_workload_measures_and_keeps_best():
    walls = iter([0.0, 5.0, 5.0, 7.0, 7.0, 8.0])  # 3 repeats: 5s, 2s, 1s
    result = run_workload("flow_churn",
                          {"churn": 10, "persistent": 2, "cancel_every": 3},
                          repeat=3, clock=lambda: next(walls))
    assert result.wall == 1.0
    assert result.events_per_sec == pytest.approx(result.events / 1.0)


# ------------------------------------------------------- regression policy
def _results(**eps):
    return {name: BenchResult(name=name, wall=1.0, events=int(v), pops=int(v),
                              events_per_sec=float(v))
            for name, v in eps.items()}


def _baseline(**eps):
    return {"workloads": {name: {"events_per_sec": float(v)}
                          for name, v in eps.items()}}


def test_compare_flags_regressions_beyond_tolerance():
    baseline = _baseline(flow_churn=1000.0, netpipe=2000.0)
    ok = compare_to_baseline(_results(flow_churn=800.0, netpipe=1500.0),
                             baseline, tolerance=0.30)
    assert ok == []
    bad = compare_to_baseline(_results(flow_churn=600.0, netpipe=1500.0),
                              baseline, tolerance=0.30)
    assert len(bad) == 1 and "flow_churn" in bad[0]


def test_compare_ignores_missing_and_extra_workloads():
    baseline = _baseline(flow_churn=1000.0, ghost=9e9)
    results = _results(flow_churn=950.0, newcomer=1.0)
    assert compare_to_baseline(results, baseline) == []


def _counted_results(**counts):
    return {name: BenchResult(name=name, wall=1.0, events=ev, pops=pop,
                              events_per_sec=float(ev))
            for name, (ev, pop) in counts.items()}


def _counted_baseline(**counts):
    return {"workloads": {name: {"events_per_sec": float(ev),
                                 "events": ev, "pops": pop}
                          for name, (ev, pop) in counts.items()},
            "meta": {"suite": "full"}}


def test_compare_counts_flags_any_deterministic_drift():
    """The secondary gate is exact: a single event or pop of drift fails,
    independent of wall time."""
    baseline = _counted_baseline(bt_wave=(1000, 2000), netpipe=(50, 50))
    assert compare_counts(
        _counted_results(bt_wave=(1000, 2000), netpipe=(50, 50)),
        baseline) == []
    drifted = compare_counts(
        _counted_results(bt_wave=(1001, 2000), netpipe=(50, 51)),
        baseline)
    assert len(drifted) == 2
    assert any("bt_wave" in m and "1001 events" in m for m in drifted)
    assert any("netpipe" in m and "51 engine pops" in m for m in drifted)


def test_compare_counts_ignores_missing_and_uncounted():
    """Workloads absent from the run, and baseline entries predating the
    count fields, are skipped — the gate never invents a failure."""
    baseline = _counted_baseline(bt_wave=(1000, 2000))
    baseline["workloads"]["legacy"] = {"events_per_sec": 1.0}
    assert compare_counts(_counted_results(legacy=(7, 7)), baseline) == []


def test_suite_report_shape():
    results = _results(flow_churn=2000.0)
    report = suite_report(results, "smoke", 3)
    assert set(report) == {"schema", "meta", "workloads"}
    assert report["schema"] == "repro.perf/1"
    assert report["meta"]["suite"] == "smoke" and report["meta"]["repeat"] == 3
    assert report["workloads"]["flow_churn"]["events_per_sec"] == 2000.0


def test_load_baseline_missing_returns_none(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) is None
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"workloads": {}}))
    assert load_baseline(str(path)) == {"workloads": {}}


# ------------------------------------------------------------------- CLI
def test_cli_help_and_regression_exit_codes(tmp_path):
    from repro.perf.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0

    args = ["--only", "flow_churn", "--repeat", "1"]
    baseline = tmp_path / "bench.json"

    # no baseline: measure-only, exit 0
    assert main(args + ["--baseline", str(baseline)]) == 0

    # --update writes a baseline the same run then passes against
    assert main(args + ["--baseline", str(baseline), "--update"]) == 0
    assert baseline.exists()
    assert main(args + ["--baseline", str(baseline)]) == 0

    # an absurdly fast fake baseline must fail the check
    doc = json.loads(baseline.read_text())
    doc["workloads"]["flow_churn"]["events_per_sec"] = 1e12
    baseline.write_text(json.dumps(doc))
    assert main(args + ["--baseline", str(baseline)]) == 1


def test_cli_wall_advisory_demotes_timing_but_not_counts(tmp_path, capsys):
    """``--wall-advisory``: wall-clock noise alone cannot fail the job,
    but the deterministic events/pops gate still does."""
    from repro.perf.__main__ import main

    args = ["--suite", "smoke", "--only", "flow_churn", "--repeat", "1"]
    baseline = tmp_path / "bench.json"
    assert main(args + ["--baseline", str(baseline), "--update"]) == 0

    # impossible wall baseline: plain run fails, advisory run passes
    doc = json.loads(baseline.read_text())
    doc["workloads"]["flow_churn"]["events_per_sec"] = 1e12
    baseline.write_text(json.dumps(doc))
    assert main(args + ["--baseline", str(baseline)]) == 1
    assert main(args + ["--baseline", str(baseline),
                        "--wall-advisory"]) == 0
    assert "ADVISORY" in capsys.readouterr().err

    # corrupt the *count*: even --wall-advisory must fail
    doc["workloads"]["flow_churn"]["events"] += 1
    baseline.write_text(json.dumps(doc))
    result = main(args + ["--baseline", str(baseline), "--wall-advisory"])
    captured = capsys.readouterr()
    assert result == 1
    assert "REGRESSION" in captured.err
    assert "changed behaviour" in captured.err


def test_cli_skips_count_gate_on_suite_mismatch(tmp_path, capsys):
    """A smoke run judged against a full-suite baseline compares wall
    throughput only — the counts differ by parameterisation, not drift."""
    from repro.perf.__main__ import main

    args = ["--only", "flow_churn", "--repeat", "1"]
    baseline = tmp_path / "bench.json"
    assert main(args + ["--suite", "full", "--baseline", str(baseline),
                        "--update"]) == 0
    # the full baseline's counts are wrong for smoke, but must not gate...
    assert main(args + ["--suite", "smoke",
                        "--baseline", str(baseline)]) == 0
    assert "counts not compared" in capsys.readouterr().out
    # ...while the same baseline judged at its own suite does gate
    doc = json.loads(baseline.read_text())
    doc["workloads"]["flow_churn"]["pops"] += 1
    baseline.write_text(json.dumps(doc))
    assert main(args + ["--suite", "full",
                        "--baseline", str(baseline)]) == 1
