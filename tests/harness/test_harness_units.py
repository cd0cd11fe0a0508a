"""Unit tests for the harness plumbing: profiles, reports, CLI, tools."""

import json

import pytest

from repro.harness import (
    EXPERIMENT_IDS,
    FigureResult,
    PROFILES,
    Series,
    get_experiment,
    get_profile,
    render,
    save_json,
)
from repro.harness.experiments_md import build_markdown
from repro.harness.figures import figure_module


# ---------------------------------------------------------------- profiles
def test_profiles_exist():
    assert set(PROFILES) == {"paper", "quick", "smoke"}
    assert PROFILES["paper"].time_scale == 1.0
    assert PROFILES["quick"].time_scale < 1.0


def test_get_profile_with_seed():
    profile = get_profile("quick", seed=42)
    assert profile.seed == 42
    assert get_profile("quick").seed == 0


def test_get_profile_unknown():
    with pytest.raises(ValueError):
        get_profile("gigantic")


def test_scaled_period():
    assert get_profile("paper").scaled_period(30.0) == 30.0
    quick = get_profile("quick")
    assert quick.scaled_period(30.0) == pytest.approx(30.0 * quick.time_scale)


# -------------------------------------------------------------- experiments
def test_every_experiment_resolves():
    for experiment_id in EXPERIMENT_IDS:
        assert callable(get_experiment(experiment_id))


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        get_experiment("fig99")


def test_every_experiment_states_its_paper_claim():
    """One registry per figure: the module says what the paper claims."""
    for experiment_id in EXPERIMENT_IDS:
        reference, claim = figure_module(experiment_id).CLAIM
        assert reference and claim.endswith(".")
    with pytest.raises(KeyError):
        figure_module("fig99")


def test_wrapper_stamps_figure_id_and_profile(tmp_path):
    """A figure's ``run`` names neither itself nor the profile: the
    ``get_experiment`` wrapper does, once, for all thirteen."""
    result = get_experiment("netpipe")(get_profile("smoke", seed=0))
    assert (result.figure_id, result.profile) == ("netpipe", "smoke")
    assert save_json(result, str(tmp_path)).endswith("netpipe_smoke.json")


# --------------------------------------------------------------------- CLI
def test_cli_rejects_unknown_experiment_before_running_anything(capsys):
    """A bad id fails at the boundary (exit 2, names the id and the valid
    ones) — not with a KeyError traceback after the good ids have run."""
    from repro.harness.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["fig5", "figX", "--no-save"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "figX" in captured.err and "protocol_race" in captured.err
    assert "fig5:" not in captured.out  # nothing ran


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_every_experiment_honours_repro_kernel(experiment_id, monkeypatch):
    """Every simulator a figure builds comes from ``make_simulator`` (via
    ``execute`` / ``bare_run``), so ``REPRO_KERNEL`` is never silently
    ignored: an unknown kernel fails at the first construction."""
    from repro.sim import SimulationError

    monkeypatch.setenv("REPRO_KERNEL", "no-such-kernel")
    with pytest.raises(SimulationError, match="no-such-kernel"):
        get_experiment(experiment_id)(get_profile("smoke", seed=0))


# ------------------------------------------------------------------ report
def _result():
    return FigureResult(
        figure_id="figX",
        title="Demo",
        x_label="n",
        y_label="seconds",
        series=[
            Series("a", [1.0, 2.0, 4.0], [10.0, 11.0, 13.0]),
            Series("b", [1.0, 4.0], [9.0, 9.5]),
        ],
        checks={"goes up": True, "stays sane": False},
        notes=["hello"],
        profile="smoke",
    )


def test_render_contains_everything():
    text = render(_result())
    assert "figX" in text and "Demo" in text
    assert "check [PASS] goes up" in text
    assert "check [FAIL] stays sane" in text
    assert "note: hello" in text
    assert "13.000" in text
    assert "-" in text  # missing b value at x=2


def test_all_checks_pass_property():
    result = _result()
    assert not result.all_checks_pass
    result.checks["stays sane"] = True
    assert result.all_checks_pass


def test_save_json_roundtrip(tmp_path):
    path = save_json(_result(), directory=str(tmp_path))
    with open(path) as handle:
        data = json.load(handle)
    assert data["figure"] == "figX"
    assert data["checks"]["goes up"] is True
    assert len(data["series"]) == 2


# ---------------------------------------------------------- experiments_md
def test_build_markdown_from_results(tmp_path):
    save_json(_result(), directory=str(tmp_path))
    markdown = build_markdown(str(tmp_path))
    assert "EXPERIMENTS" in markdown
    assert "shape checks pass" in markdown
    # unknown figure id figX is not in the claims registry, so only the
    # claim sections appear; every known claim is present
    for experiment_id in EXPERIMENT_IDS:
        assert f"## {experiment_id}" in markdown


def test_build_markdown_prefers_larger_profile(tmp_path):
    small = _result()
    small.figure_id = "fig5"
    small.profile = "smoke"
    small.checks = {"x": False}
    save_json(small, directory=str(tmp_path))
    big = _result()
    big.figure_id = "fig5"
    big.profile = "quick"
    big.checks = {"x": True}
    save_json(big, directory=str(tmp_path))
    markdown = build_markdown(str(tmp_path))
    assert "profile `quick`" in markdown


# -------------------------------------------------------------- ascii plot
def _chart(*series):
    result = FigureResult(title="t", x_label="period [s]", y_label="time [s]",
                          series=list(series))
    return render(result).split("\n\n")[1]


def test_render_charts_every_multi_point_series_with_its_marker():
    chart = _chart(Series("a", [0, 1, 2], [0.0, 1.0, 2.0]),
                   Series("b", [0, 1, 2], [2.0, 1.0, 0.0]),
                   Series("single", [1], [7.0]))
    rows = chart.splitlines()
    assert rows[0] == " 2|o" + " " * 62 + "*"
    assert rows[15] == " 0|*" + " " * 62 + "o"
    assert rows[-1] == "time [s] vs period [s]:   * a   o b"


def test_render_charts_a_flat_series_on_the_bottom_row():
    chart = _chart(Series("flat", [0, 1, 2], [5.0, 5.0, 5.0]))
    rows = chart.splitlines()
    assert rows[15].startswith(" 5|*") and rows[0] == " 5|" + " " * 64
    assert rows[-1].endswith("* flat")


def test_render_draws_no_chart_under_three_x_values():
    text = render(FigureResult(title="t", x_label="x", y_label="y",
                               series=[Series("a", [0, 1], [0.0, 1.0])]))
    assert "|" not in text


# -------------------------------------------- scale_limit 10k extension
def test_scale_limit_extension_gated_by_profile():
    """Non-smoke profiles extend the scale_limit sweep through the FTPM
    10,000-rank ceiling and run an actual 10k-rank wave; the smoke profile
    keeps the original seven sizes so the committed golden stays
    byte-identical (the golden sweep itself pins the bytes)."""
    from repro.harness.figures import scale_limit

    extended = scale_limit.run(get_profile("quick", seed=0))
    xs = extended.series[0].xs
    assert 10_000.0 in xs and 10_001.0 in xs
    assert extended.checks["ftpm admits every size up to its 10000 ceiling"]
    assert extended.checks["ftpm refuses beyond the 10000 ceiling"]
    assert extended.checks["ftpm actually runs a 10000-rank wave"]
    assert all(extended.checks.values())

    smoke = scale_limit.run(get_profile("smoke", seed=0))
    assert max(smoke.series[0].xs) == 1024.0
    assert not any("10000" in name for name in smoke.checks)
