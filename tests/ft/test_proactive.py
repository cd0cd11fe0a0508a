"""Tests for Poisson failure injection and proactive wave triggers."""

import pytest

from repro.ft import random_failures
from repro.sim import Simulator

from tests.ft.conftest import assert_ring_result, build_ft_run, ring_app_factory


def test_poisson_failures_and_recovery():
    sim = Simulator(seed=21)
    run, _ = build_ft_run(sim, ring_app_factory(iters=25, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.max_restarts = 32
    run.start()
    random_failures(run, mttf=3.0, max_failures=20)
    sim.run_until_complete(run.completed, limit=1e5)
    assert run.stats.failures >= 1
    assert_ring_result(run, iters=25)


def test_poisson_schedule_deterministic_across_configs():
    """The failure stream must not depend on the checkpoint period."""
    def first_failure_time(period):
        sim = Simulator(seed=5)
        run, _ = build_ft_run(sim, ring_app_factory(iters=40, work=0.2),
                              size=4, protocol="pcl", period=period,
                              image_bytes=2e6)
        run.max_restarts = 32
        run.start()
        random_failures(run, mttf=4.0, max_failures=1)
        sim.run_until_complete(run.completed, limit=1e5)
        return run.injected[0].time if run.injected else None

    t1 = first_failure_time(0.7)
    t2 = first_failure_time(3.0)
    assert t1 is not None and t1 == t2


def test_random_failures_validation():
    sim = Simulator(seed=1)
    run, _ = build_ft_run(sim, ring_app_factory(iters=2), size=2,
                          protocol="pcl")
    with pytest.raises(ValueError):
        random_failures(run, mttf=0.0)


def test_request_wave_triggers_early():
    sim = Simulator(seed=3)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=50.0,  # never fires by timer
                          image_bytes=2e6)
    run.start()
    sim.call_at(1.3, lambda: run.protocol.request_wave())
    sim.run_until_complete(run.completed, limit=1e5)
    assert run.stats.waves_completed == 1
    record = run.stats.wave_records[0]
    assert record[1] == pytest.approx(1.3, abs=0.05)  # started at the trigger


def test_request_wave_noop_while_wave_in_progress():
    sim = Simulator(seed=3)
    run, _ = build_ft_run(sim, ring_app_factory(iters=30, work=0.2), size=4,
                          protocol="pcl", period=1.0, image_bytes=2e6)
    run.start()
    # hammer the trigger; waves must still be well-formed and sequential
    for t in (1.01, 1.02, 1.03, 2.5, 2.51):
        sim.call_at(t, lambda: run.protocol.request_wave())
    sim.run_until_complete(run.completed, limit=1e5)
    waves = [w for w, _s, _e in run.stats.wave_records]
    assert waves == sorted(set(waves))
    assert_ring_result(run, iters=30)


def test_proactive_probe_reduces_lost_work():
    """With warning before each failure, a wave right before the kill means
    almost no rollback loss."""
    def measure(probe_lead):
        sim = Simulator(seed=13)  # a schedule with failures inside the run
        run, _ = build_ft_run(sim, ring_app_factory(iters=40, work=0.2),
                              size=4, protocol="pcl", period=30.0,
                              image_bytes=2e6)
        run.max_restarts = 32
        run.start()
        random_failures(run, mttf=2.5, max_failures=3,
                                   probe_lead=probe_lead)
        elapsed = sim.run_until_complete(run.completed, limit=1e5)
        assert run.stats.failures >= 1
        return elapsed

    with_probe = measure(1.0)
    without = measure(None)
    assert with_probe < without
