"""Zero-overhead-by-default guarantees of the observability layer.

With metrics off (the default), no registry exists, no instrument is ever
allocated, no trace category is forced live — and the run's results are
byte-identical to a metrics-on run of the same seed.
"""

import json

import pytest

from repro.apps import BT
from repro.harness.config import get_profile
from repro.harness.runner import execute, metrics_enabled
from repro.runtime import DeploymentSpec, build_run
from repro.sim import Simulator
from repro.sim.engine import DEFAULT_MAX_SAME_TIME_EVENTS


def _run(metrics, seed=7):
    profile = get_profile("smoke", seed=seed)
    bench = BT(klass="B", scale=profile.time_scale)
    return execute(bench, 4, "pcl", profile, period=30.0, procs_per_node=2,
                   name="overhead-probe", metrics=metrics)


# ------------------------------------------------------------- off == free
@pytest.mark.unmonitored
def test_metrics_off_keeps_trace_categories_dark():
    """Without metrics (and without monitors), the obs trace categories
    stay unwanted: the protocols skip even building the record dicts."""
    sim = Simulator(seed=1)
    assert sim.metrics is None
    for category in ("ft.wave_phase", "ft.logging_closed",
                     "ft.enter_wave", "ft.resume"):
        assert not sim.trace.wants(category)


@pytest.mark.unmonitored
def test_metrics_off_run_never_creates_a_registry():
    sim = Simulator(seed=2)
    bench = BT(klass="B", scale=0.05)
    spec = DeploymentSpec(n_procs=4, protocol="pcl", period=1.5,
                          procs_per_node=2,
                          image_bytes=bench.image_bytes(4) * 0.05)
    run = build_run(sim, spec, bench.make_app(4), name="dark-probe")
    run.start()
    sim.run_until_complete(run.completed, limit=1e8)
    assert run.stats.waves_completed > 0
    assert sim.metrics is None  # not an empty registry: literally nothing


def test_execute_metrics_default_follows_environment(monkeypatch):
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    assert not metrics_enabled()
    for off in ("0", "false", "OFF", ""):
        monkeypatch.setenv("REPRO_METRICS", off)
        assert not metrics_enabled()
    monkeypatch.setenv("REPRO_METRICS", "1")
    assert metrics_enabled()


# ------------------------------------------------- on == observation only
def test_metrics_on_results_byte_identical_to_off():
    """The acceptance check: same seed, metrics on vs off, same results —
    completion, waves, stats, app rows.  Only ``meta["metrics"]`` differs."""
    off = _run(metrics=False)
    on = _run(metrics=True)
    assert off.completion == on.completion  # exact, not approx
    assert off.waves == on.waves
    assert off.stats.logged_bytes == on.stats.logged_bytes
    assert off.stats.blocked_seconds == on.stats.blocked_seconds
    assert json.dumps(off.row(), sort_keys=True) == \
        json.dumps(on.row(), sort_keys=True)
    assert "metrics" not in off.meta
    assert on.meta["metrics"]["schema"] == "repro.obs/1"


def test_metrics_on_instrument_count_is_bounded_not_per_event():
    """Instruments are cached per (name, labels): a whole run's snapshot
    holds O(links + ranks + phases) instruments, not O(events)."""
    result = _run(metrics=True)
    snapshot = result.meta["metrics"]
    instruments = (len(snapshot["counters"]) + len(snapshot["gauges"])
                   + len(snapshot["histograms"]))
    events = int(result.meta.get("events", 0))
    assert events > 5_000  # the run did real work
    assert instruments < 300  # ... without per-event instrument growth
    # engine gauges came from the snapshot-time collector
    assert snapshot["gauges"]["engine.events_processed"]["value"] == events


def test_execute_arms_the_watchdog_its_gauge_reads():
    """Every ``execute`` run arms the default engine watchdog, so the
    snapshot carries its longest zero-time cascade: a real burst, far below
    the budget."""
    result = _run(metrics=True)
    gauge = result.meta["metrics"]["gauges"]["engine.max_zero_time_cascade"]
    assert 0 < gauge["value"] < DEFAULT_MAX_SAME_TIME_EVENTS
