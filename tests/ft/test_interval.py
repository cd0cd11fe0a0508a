"""Unit tests for checkpoint-interval theory (Young/Daly)."""

import math

import pytest

from repro.ft.interval import daly_period, young_period


def test_young_formula():
    assert young_period(3600.0, 50.0) == pytest.approx(math.sqrt(2 * 50 * 3600))


def test_young_validation():
    with pytest.raises(ValueError):
        young_period(0.0, 10.0)
    with pytest.raises(ValueError):
        young_period(100.0, -1.0)


def test_daly_close_to_young_for_small_cost():
    mttf, cost = 10_000.0, 1.0
    assert daly_period(mttf, cost) == pytest.approx(
        young_period(mttf, cost), rel=0.05)


def test_daly_caps_at_mttf_for_huge_cost():
    assert daly_period(10.0, 100.0) == 10.0


def test_daly_checkpoints_more_often_than_young_for_small_cost():
    """Daly's correction subtracts about 2C/3 from Young's period."""
    mttf, cost = 10_000.0, 10.0
    young, daly = young_period(mttf, cost), daly_period(mttf, cost)
    assert daly < young
    assert young - daly == pytest.approx(2 * cost / 3, rel=0.05)


def test_daly_validation():
    with pytest.raises(ValueError):
        daly_period(0.0, 10.0)
    with pytest.raises(ValueError):
        daly_period(100.0, -1.0)
