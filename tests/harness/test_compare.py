"""Unit tests for the results-comparison tool."""

import json
import os

import pytest

from repro.tools.compare import compare_dirs, load_results, render_diff


def write_result(directory, figure, profile="quick", ys=(10.0, 20.0),
                 checks=None):
    os.makedirs(directory, exist_ok=True)
    data = {
        "figure": figure,
        "title": figure,
        "x_label": "x",
        "y_label": "y",
        "profile": profile,
        "series": [{"label": "main", "xs": [1.0, 2.0], "ys": list(ys),
                    "meta": {}}],
        "checks": checks if checks is not None else {"ok": True},
        "notes": [],
    }
    path = os.path.join(directory, f"{figure}_{profile}.json")
    with open(path, "w") as handle:
        json.dump(data, handle)


def test_load_results_prefers_bigger_profile(tmp_path):
    d = str(tmp_path)
    write_result(d, "fig5", profile="smoke", ys=(1.0, 1.0))
    write_result(d, "fig5", profile="quick", ys=(2.0, 2.0))
    loaded = load_results(d)
    assert loaded["fig5"]["series"][0]["ys"] == [2.0, 2.0]


def test_compare_detects_point_changes(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5", ys=(10.0, 20.0))
    write_result(b, "fig5", ys=(11.0, 20.0))
    diffs = compare_dirs(a, b)
    assert len(diffs) == 1
    assert diffs[0].point_changes == [
        ("main", 1.0, 10.0, 11.0, pytest.approx(0.1))]
    assert not diffs[0].regressed
    text = render_diff(diffs[0])
    assert "+10.0%" in text


def test_compare_detects_check_regressions(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5", checks={"ok": True})
    write_result(b, "fig5", checks={"ok": False})
    diffs = compare_dirs(a, b)
    assert diffs[0].regressed
    assert "PASS->FAIL" in render_diff(diffs[0])


def test_compare_unchanged(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5")
    write_result(b, "fig5")
    diffs = compare_dirs(a, b)
    assert "unchanged" in render_diff(diffs[0])


def test_compare_disjoint_dirs(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5")
    write_result(b, "fig6")
    assert compare_dirs(a, b) == []
