"""The decision rule ``--compare`` applies."""

import stats

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1]


def shifted(factor):
    return [value * factor for value in PARENT]


def test_summary_matches_statistics_quantiles():
    row = stats.summarise(PARENT)
    assert row["n"] == 10 and row["min"] == 9.8 and row["max"] == 10.2
    assert row["q1"] <= row["median"] <= row["q3"]
    assert stats.spread(PARENT) == (row["q3"] - row["q1"]) / row["median"]
    assert stats.summarise([3.0])["median"] == 3.0


def test_clear_gain_is_improved():
    row = stats.judge(PARENT, shifted(0.8), "lower", 0.10)
    assert row["verdict"] == "improved" and row["win_fraction"] == 1.0


def test_gain_inside_the_parents_own_spread_is_not_claimed():
    row = stats.judge(PARENT, shifted(0.995), "lower", 0.10)
    assert row["wins"] == 10 and row["verdict"] == "no worse"


def test_median_past_the_bound_is_regressed():
    assert stats.judge(PARENT, shifted(1.12), "lower", 0.10)["verdict"] == "regressed"
    assert stats.judge(PARENT, shifted(1.05), "lower", 0.10)["verdict"] == "no worse"
    # direction matters
    assert stats.judge(PARENT, shifted(0.85), "higher", 0.10)["verdict"] == "regressed"


def test_wide_spread_is_unresolved_not_unchanged():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 7.5, 12.5, 10.0, 9.5, 10.5]
    assert stats.judge(PARENT, noisy, "lower", 0.10)["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    row = stats.judge([1.0, 1.0, 1.0], [1.0, 0.9, 1.1], "lower", 0.10)
    assert (row["wins"], row["losses"], row["pairs"]) == (1, 1, 3)
