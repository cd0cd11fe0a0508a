"""The experiment seam: a figure is a RunTable plus predicates over it.

(a) the table itself — key order is run order, collisions fail at
    construction, lookups by a missing axis name it;
(b) structural: no figure module reaches past the table (no ``execute`` /
    ``execute_grid`` call to slice positionally, no simulator or
    ``build_run`` of its own), and ``Profile`` stays a name, a scale and
    a seed;
(c) a toy figure written here against nothing but the seam renders and
    round-trips.
"""

import ast
import dataclasses
import inspect
import json
import pathlib

import pytest

import repro.harness.figures
from repro.apps import BT
from repro.harness import EXPERIMENT_IDS, FigureResult, Series, render
from repro.harness.config import Profile, figure_params, get_profile
from repro.harness.table import Row, RunTable

SMOKE = get_profile("smoke", seed=0)


def _table(**extra):
    return RunTable(bench=BT(klass="B", scale=SMOKE.time_scale), n_procs=4,
                    protocol="pcl", profile=SMOKE, **extra)


# ------------------------------------------------------------- (a) the table
def test_key_order_is_run_order_and_names_are_formatted():
    table = _table(name="t-{protocol}-{period}").add(
        protocol=("pcl", "vcl"),
        period=[Row("base", protocol=None, name="t-{protocol}-base"), 30.0])
    tasks = table.tasks  # enumerates without running anything
    assert [t["name"] for t in tasks] == \
        ["t-pcl-base", "t-pcl-30.0", "t-vcl-base", "t-vcl-30.0"]
    # a later axis overrides an earlier one; a Row binds only what it names
    assert [t["protocol"] for t in tasks] == [None, "pcl", None, "vcl"]
    assert ["period" in t for t in tasks] == [False, True, False, True]
    # a second block appends after the first
    table.add(n_procs=[Row("big", n_procs=16, name="t-big")])
    assert [t["name"] for t in table.tasks][-1] == "t-big"


def test_collisions_fail_at_construction():
    with pytest.raises(ValueError, match="duplicate run"):
        _table(name="same-name").add(period=(10.0, 30.0))
    table = _table(name="t-{period}").add(period=(10.0,))
    with pytest.raises(ValueError, match="duplicate run"):
        table.add(period=(10.0,))


def test_select_names_the_unknown_axis():
    table = _table(name="t-{period}").add(period=(10.0,))
    with pytest.raises(KeyError, match="'protocl'"):
        table.select(protocl="pcl")


def test_figure_params_layers_and_rejects_typos():
    params = {"paper": dict(procs=64, servers=(1, 2)), "smoke": dict(procs=4)}
    assert figure_params(params, SMOKE).procs == 4
    assert figure_params(params, get_profile("paper")).procs == 64
    assert figure_params(params, SMOKE, servers=(9,)).servers == (9,)
    with pytest.raises(KeyError, match="prcs"):
        figure_params({**params, "quick": dict(prcs=1)}, SMOKE)
    with pytest.raises(KeyError, match="policies"):
        figure_params(params, SMOKE, policies=("spare",))


# ------------------------------------------------------------ (b) structure
def _figure_sources():
    root = pathlib.Path(repro.harness.figures.__file__).parent
    return sorted(root.glob("*.py"))


def test_profile_is_a_name_a_scale_and_a_seed():
    assert [f.name for f in dataclasses.fields(Profile)] == \
        ["name", "time_scale", "seed"]


def test_no_figure_reaches_past_the_table():
    """Results are read by key, never by position: no figure calls
    ``execute`` / ``execute_grid`` itself (so there is no result list to
    slice), and none builds a simulator or a run of its own."""
    banned = {"execute", "execute_grid", "Simulator", "build_run"}
    for path in _figure_sources():
        tree = ast.parse(path.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        named = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        found = banned & (imported | named | attrs)
        assert not found, f"{path.name} reaches past the table: {found}"


def test_every_figure_module_is_registered():
    modules = {p.stem for p in _figure_sources()} - {"__init__"}
    assert modules == set(EXPERIMENT_IDS)


# ---------------------------------------------------------- (c) a toy figure
def toy_figure(profile):
    table = RunTable(
        bench=BT(klass="B", scale=profile.time_scale), n_procs=4,
        profile=profile, name="toy-{protocol}-t{period}",
    ).add(protocol=("pcl", "vcl"),
          period=[Row("base", protocol=None, name="toy-{protocol}-base"),
                  30.0, 60.0]).run()
    return FigureResult(
        "Toy", "period (0 = no checkpoints)", "seconds",
        [Series(p, [0.0, 30.0, 60.0],
                [r.completion for r in table.select(protocol=p)])
         for p in ("pcl", "vcl")],
        checks={"checkpointing costs time": all(
            table[p, 30.0].completion > table[p, "base"].completion
            for p in ("pcl", "vcl"))})


def test_toy_figure_renders_and_round_trips():
    assert len(inspect.getsource(toy_figure).splitlines()) <= 15
    result = toy_figure(SMOKE)
    assert result.all_checks_pass
    assert "check [PASS] checkpointing costs time" in render(result)
    document = json.loads(json.dumps(result.as_dict()))
    assert [s["label"] for s in document["series"]] == ["pcl", "vcl"]
    assert all(len(s["ys"]) == 3 for s in document["series"])
