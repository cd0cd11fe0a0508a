"""The correctness gate bites: a tampered golden or event count is a failed
operation; the committed outputs themselves pass."""

import json
import shutil

import pytest

import gate
import spec

FIG7 = spec.WORKLOADS["fig7_cg_latency"]
SCALE = spec.WORKLOADS["scale_10k"]
CHAOS = spec.WORKLOADS["chaos_78"]
GOLDEN = spec.GOLDEN_DIR / "fig7_smoke.json"


@pytest.fixture
def regenerated(tmp_path):
    """An output directory holding the document a faithful run writes:
    the committed golden itself."""
    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(GOLDEN, out / GOLDEN.name)
    return out


def test_faithful_figure_passes_every_operation(regenerated):
    doc = json.loads(GOLDEN.read_text())
    attempted, failures = gate.operations(FIG7, regenerated, 0, sim_seed=0)
    assert failures == []
    assert attempted == len(doc["checks"]) + len(doc["monitors"]) + 1


def test_tampered_golden_is_exactly_one_failed_operation(regenerated, tmp_path):
    goldens = tmp_path / "goldens"
    goldens.mkdir()
    (goldens / GOLDEN.name).write_text(
        GOLDEN.read_text().replace("15.58115", "15.58116", 1))
    attempted, failures = gate.operations(FIG7, regenerated, 0, sim_seed=0,
                                          golden_dir=goldens)
    assert len(failures) == 1 and "golden" in failures[0]
    assert attempted > 1


def test_golden_is_skipped_off_the_golden_seed(regenerated, tmp_path):
    empty = tmp_path / "no-goldens"
    empty.mkdir()
    at_zero, _ = gate.operations(FIG7, regenerated, 0, sim_seed=0)
    at_one, failures = gate.operations(FIG7, regenerated, 0, sim_seed=1,
                                       golden_dir=empty)
    assert failures == [] and at_one == at_zero - 1


def test_failed_shape_check_and_flagged_monitor_each_count(regenerated):
    path = regenerated / GOLDEN.name
    doc = json.loads(path.read_text())
    doc["checks"][next(iter(doc["checks"]))] = False
    doc["monitors"][next(iter(doc["monitors"]))]["ok"] = False
    path.write_text(json.dumps(doc, indent=2))
    _, failures = gate.operations(FIG7, regenerated, 1, sim_seed=0)
    kinds = sorted(line.split(":")[0].split(" run ")[0] for line in failures)
    assert kinds == ["document differs from golden fig7_smoke.json",
                     "monitors flagged", "shape check failed"]


def test_unexplained_exit_code_is_a_failure(regenerated):
    _, failures = gate.operations(FIG7, regenerated, 3, sim_seed=0)
    assert failures == ["exit code 3"]


def test_missing_output_raises_for_the_caller_to_fail_wholesale(tmp_path):
    with pytest.raises(OSError):
        gate.operations(FIG7, tmp_path, 0, sim_seed=0)


def test_scale_10k_event_count_is_pinned(tmp_path):
    (tmp_path / "run.json").write_text(
        json.dumps({"events": spec.SCALE_10K_EVENTS}))
    assert gate.operations(SCALE, tmp_path, 0, sim_seed=0) == (1, [])
    attempted, failures = gate.operations(
        SCALE, tmp_path, 0, sim_seed=0,
        expected_events=spec.SCALE_10K_EVENTS + 1)
    assert attempted == 1 and len(failures) == 1


def _campaign(out, name, rows):
    (out / name).mkdir(parents=True)
    (out / name / f"{name}.json").write_text(json.dumps({"results": rows}))


def test_chaos_counts_one_operation_per_scenario(tmp_path):
    good = {"label": "a", "verdict": "recovered", "ok": True}
    expected = {"label": "b", "verdict": "storage-unrecoverable", "ok": True}
    bad = {"label": "c", "verdict": "deadlock", "ok": False}
    _campaign(tmp_path, "smoke", [good, expected])
    _campaign(tmp_path, "recovery", [good, bad])
    attempted, failures = gate.operations(CHAOS, tmp_path, 1, sim_seed=0)
    assert attempted == 4
    assert failures == ["scenario c: deadlock"]


def test_work_counts_sum_the_public_snapshots(tmp_path):
    def snapshot(events, phase_sum):
        return {"time": 2.0, "counters": {
                    "net.flow_sends": {"name": "net.flow_sends", "labels": {},
                                       "value": 3.0}},
                "gauges": {"engine.events_processed": {
                    "name": "engine.events_processed", "labels": {},
                    "value": events}},
                "histograms": {"x": {"name": "ft.wave_phase_seconds",
                                     "labels": {"phase": "flush"},
                                     "sum": phase_sum}}}
    doc = json.loads(GOLDEN.read_text())
    doc["metrics"] = {"run-a": snapshot(10, 0.5), "run-b": snapshot(32, 0.25)}
    (tmp_path / GOLDEN.name).write_text(json.dumps(doc))
    counts = gate.work_counts(FIG7, tmp_path)
    assert set(counts) == set(spec.WORK_COUNTS)
    assert counts["sim.events"] == 42
    assert counts["net.flow_sends"] == 6
    assert counts["ft.wave_phase_sim_s.flush"] == 0.75
    assert counts["ft.wave_phase_sim_s.stream"] == 0
    assert counts["harness.runs"] == 2
    assert counts["harness.sim_completion_s"] == 4.0
    assert counts["harness.shape_checks"] == len(doc["checks"])
    assert counts["verify.monitors_attached"] == sum(
        len(row["verdicts"]) for row in doc["monitors"].values())
    assert counts["chaos.scenarios"] is None
    assert counts["sim.us_per_event"] is None  # needs a wall time
