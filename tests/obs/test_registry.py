"""Unit tests for the metrics registry (:mod:`repro.obs.registry`)."""

import json

import pytest

from repro.obs import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
    metric_values,
    phase_totals,
)
from repro.sim import Simulator


# ------------------------------------------------------------- instruments
def test_counter_accumulates_and_timestamps():
    registry = MetricsRegistry()
    registry.count("a", 2.0)
    registry.count("a", 3.0)
    assert registry.counter("a").value == 5.0


def test_gauge_tracks_peak():
    registry = MetricsRegistry()
    registry.set("depth", 3.0)
    registry.set("depth", 7.0)
    registry.set("depth", 1.0)
    gauge = registry.gauge("depth")
    assert gauge.value == 1.0
    assert gauge.peak == 7.0


def test_histogram_bucket_placement_and_overflow():
    histogram = Histogram(bounds=(1.0, 10.0))
    for value in (0.5, 1.0, 5.0, 100.0):
        histogram.observe(value)
    # <=1.0 : 0.5 and 1.0; <=10.0 : 5.0; overflow : 100.0
    assert histogram.counts == [2, 1, 1]
    assert histogram.count == 4
    assert histogram.sum == pytest.approx(106.5)
    assert histogram.max == 100.0


def test_histogram_bounds_must_ascend():
    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


def test_default_buckets_are_ascending():
    assert list(DEFAULT_SECONDS_BUCKETS) == sorted(DEFAULT_SECONDS_BUCKETS)


# ---------------------------------------------------------------- registry
def test_instruments_cached_per_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("x", rank=1)
    b = registry.counter("x", rank=1)
    c = registry.counter("x", rank=2)
    assert a is b
    assert a is not c


def test_label_order_does_not_split_instruments():
    registry = MetricsRegistry()
    registry.count("x", 1.0, src=0, dst=1)
    registry.count("x", 1.0, dst=1, src=0)
    assert registry.counter("x", src=0, dst=1).value == 2.0


def test_registry_uses_sim_clock():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    sim.call_at(2.5, registry.count, "late")
    sim.run()
    assert registry.counter("late").updated == 2.5


# ---------------------------------------------------------------- snapshot
def test_snapshot_shape_and_label_keys():
    registry = MetricsRegistry()
    registry.count("ft.waves_completed", 2.0, protocol="pcl")
    registry.set("channel.delayed_queue_depth", 3.0, rank=1)
    registry.observe("ft.wave_seconds", 0.25, protocol="pcl")
    doc = registry.snapshot()
    assert doc["schema"] == "repro.obs/1"
    key = "ft.waves_completed{protocol=pcl}"
    assert doc["counters"][key]["value"] == 2.0
    assert doc["counters"][key]["labels"] == {"protocol": "pcl"}
    assert doc["gauges"]["channel.delayed_queue_depth{rank=1}"]["peak"] == 3.0
    histogram = doc["histograms"]["ft.wave_seconds{protocol=pcl}"]
    assert histogram["count"] == 1
    assert histogram["sum"] == pytest.approx(0.25)


def test_snapshot_is_deterministic_and_json_serializable():
    def build():
        registry = MetricsRegistry()
        registry.count("b", 1.0, rank=2)
        registry.count("a", 1.0)
        registry.count("b", 1.0, rank=1)
        registry.observe("h", 0.5)
        return json.dumps(registry.snapshot(), sort_keys=True)

    assert build() == build()


def test_collectors_run_at_snapshot_time():
    registry = MetricsRegistry()
    runs = []
    registry.add_collector(lambda reg: runs.append(reg.set("sampled", 42.0)))
    assert runs == []
    doc = registry.snapshot()
    assert doc["gauges"]["sampled"]["value"] == 42.0


# ------------------------------------------------------- snapshot queries
def test_metric_values_filters_by_name():
    registry = MetricsRegistry()
    registry.count("x", 1.0, rank=0)
    registry.count("x", 2.0, rank=1)
    registry.count("y", 9.0)
    pairs = metric_values(registry.snapshot(), "x")
    assert sorted(labels["rank"] for labels, _ in pairs) == [0, 1]
    assert sum(entry["value"] for _, entry in pairs) == 3.0


def test_phase_totals_folds_protocol_labels():
    registry = MetricsRegistry()
    registry.observe("ft.wave_phase_seconds", 1.0, protocol="pcl",
                     phase="flush")
    registry.observe("ft.wave_phase_seconds", 2.0, protocol="pcl",
                     phase="flush")
    registry.observe("ft.wave_phase_seconds", 0.5, protocol="vcl",
                     phase="commit")
    totals = phase_totals(registry.snapshot())
    assert totals == pytest.approx({"flush": 3.0, "commit": 0.5})
