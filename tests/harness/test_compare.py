"""Unit tests for the results diff (``python -m repro.tools.compare``)."""

import json
import math
import os

from repro.tools.compare import ABSENT, diff, main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "results")


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
    return path


def run(capsys, *argv):
    """``python -m repro.tools.compare *argv``: (exit status, its lines)."""
    status = main([str(arg) for arg in argv])
    return status, capsys.readouterr().out.splitlines()


def test_compare_detects_point_changes(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5", ys=(10.0, 20.0))
    write_result(b, "fig5", ys=(11.0, 20.0))
    status, lines = run(capsys, a, b)
    assert status == 1
    assert lines == ["fig5_quick.json:series[0].ys[0]: 10.0 -> 11.0 (+0.1)",
                     "1 difference(s)"]


def test_compare_detects_check_regressions(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5", checks={"ok": True})
    write_result(b, "fig5", checks={"ok": False})
    status, lines = run(capsys, a, b)
    assert status == 1
    # a bool is no number: no tolerance absorbs a flip
    assert run(capsys, a, b, "--rel-tol", "1")[1] == lines
    assert lines[0] == "fig5_quick.json:checks.ok: true -> false"


def test_compare_unchanged(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5")
    write_result(b, "fig5")
    assert run(capsys, a, b) == (0, ["no differences"])
    # two files compare as one pair, whatever their directories
    assert run(capsys, os.path.join(a, "fig5_quick.json"),
               os.path.join(b, "fig5_quick.json")) == (0, ["no differences"])


def test_compare_disjoint_dirs(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5")
    write_result(b, "fig6")
    status, lines = run(capsys, a, b)
    assert status == 1
    assert lines[0].startswith('fig5_quick.json:: {"figure": "fig5"')
    assert lines[0].endswith("... -> absent")
    assert lines[1].startswith('fig6_quick.json:: absent -> {"figure": "fig6"')
    assert lines[2] == "2 difference(s)"
    # what one side alone has can be allowed by the file's name
    status, lines = run(capsys, a, b, "--allow", "fig?_quick.json:")
    assert status == 0
    assert lines[0] == ("--allow 'fig?_quick.json:': 2 path(s), 0 lower, "
                        "0 higher, largest relative move 0")


def test_compare_reports_a_change_from_zero(tmp_path, capsys):
    """No ratio rates a move off 0: no tolerance absorbs it."""
    with open(os.path.join(GOLDEN_DIR, "scale_limit_smoke.json")) as handle:
        data = json.load(handle)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    index = next(i for i, s in enumerate(data["series"])
                 if s["label"] == "vcl dispatcher")
    series = data["series"][index]
    point = series["xs"].index(400.0)
    assert series["ys"][point] == 0
    series["ys"][point] = 5
    new = tmp_path / "new.json"
    new.write_text(json.dumps(data))
    expected = [f"new.json:series[{index}].ys[{point}]: 0.0 -> 5",
                "1 difference(s)"]
    assert run(capsys, old, new) == (1, expected)
    assert run(capsys, old, new, "--rel-tol", "1e9") == (1, expected)


def test_compare_reports_what_one_side_alone_has(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_result(a, "fig5")
    path = write_result(b, "fig5")
    with open(path) as handle:
        data = json.load(handle)
    data["series"][0]["xs"].append(3.0)
    data["series"].append({"label": "extra", "xs": [1.0], "ys": [1.0]})
    del data["notes"]
    data["new_key"] = 1
    with open(path, "w") as handle:
        json.dump(data, handle)
    status, lines = run(capsys, a, b)
    assert status == 1
    assert lines == [
        "fig5_quick.json:series[0].xs[2]: absent -> 3.0",
        'fig5_quick.json:series[1]: absent -> {"label": "extra", "xs": [1.0], '
        '"ys": [1.0]}',
        "fig5_quick.json:notes: [] -> absent",
        "fig5_quick.json:new_key: absent -> 1",
        "4 difference(s)",
    ]


def test_diff_names_every_difference_in_document_order():
    old = {"a": {"b": [1, 2.0, True]}, "c": "x", "d": [{}]}
    new = {"a": {"b": [1, 2, False, 4]}, "c": "x", "d": [{"e": None}]}
    assert list(diff(old, new)) == [
        ("a.b[1]", 2.0, 2),  # 1 and 1.0 are different bytes
        ("a.b[2]", True, False),
        ("a.b[3]", ABSENT, 4),
        ("d[0].e", ABSENT, None),
    ]
    assert list(diff(old, old)) == []


def test_a_one_ulp_edit_to_a_golden_is_caught_tolerated_and_allowed(
        tmp_path, capsys):
    name = "fig7_smoke.json"
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        data = json.load(handle)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / name).write_text(json.dumps(data, indent=2))
    value = data["series"][1]["ys"][2]
    data["series"][1]["ys"][2] = math.nextafter(value, math.inf)
    (b / name).write_text(json.dumps(data, indent=2))

    status, lines = run(capsys, a, b)
    assert status == 1
    assert lines[0].startswith(f"{name}:series[1].ys[2]: {value!r} -> ")
    assert lines[1:] == ["1 difference(s)"]

    status, lines = run(capsys, a, b, "--rel-tol", "1e-12")
    assert status == 0
    assert lines[0].startswith(f"{name}: 1 move(s) within --rel-tol 1e-12, "
                               f"largest ")
    assert lines[0].endswith(f" at {name}:series[1].ys[2]")

    status, lines = run(capsys, a, b, "--allow", "*.checked",
                        "--allow", "*:series[*].ys[*]")
    assert status == 0
    assert lines[0] == ("--allow '*.checked': 0 path(s), 0 lower, 0 higher, "
                        "largest relative move 0")
    assert lines[1].startswith("--allow '*:series[*].ys[*]': 1 path(s), "
                               "0 lower, 1 higher, largest relative move ")
    # the glob's brackets are literal: a pattern that is no path allows nothing
    assert run(capsys, a, b, "--allow", "*:series[1-2].ys*")[0] == 1
