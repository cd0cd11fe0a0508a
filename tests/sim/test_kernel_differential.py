"""Differential kernel-equivalence rig: fast kernel vs. naive reference.

The optimised :class:`~repro.sim.engine.Simulator` (lazy garbage
discard, re-armable timer slots, in-place compaction, an inlined hot
loop) must be *observably identical* to the
O(n)-per-pop :class:`~repro.sim.reference.ReferenceSimulator`, which
implements the ordering spec directly.  Every figure in this repo rests on
that equivalence — a divergence here is a silently corrupted paper figure.

Three layers, increasing in scope:

1. Hypothesis properties run randomly generated programs (timers, cancels,
   re-arms, same-instant bursts at both priorities, flow churn, process
   kills — see ``kernel_programs``) on both kernels and compare the full
   observation tuple event-for-event.  ≥200 examples across the
   properties.
2. Hand-written witness programs pin the specific sharp edges the
   optimisations introduced (re-arm past a pending timeout,
   cancel-then-churn, compaction under churn, zero-delay cascades).
3. Whole-pipeline sweeps run real perf workloads and a real figure grid
   point on both kernels and compare the JSON-serialised results
   byte-for-byte — monitor verdicts (which count every live pop) included.

``test_kernel_rig_negatives.py`` proves this rig *would* catch a broken
kernel; the engine-selection plumbing itself (``REPRO_KERNEL``, unknown
names) is covered at the bottom of this file.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.apps import BT
from repro.harness import get_profile
from repro.harness.runner import execute
from repro.perf.workloads import WORKLOADS, suite_params
from repro.sim import ReferenceSimulator, SimulationError, Simulator, make_simulator
from repro.sim.reference import KERNEL_ENV
from tests.sim.kernel_programs import PROGRAMS, observations_match, run_program

pytestmark = pytest.mark.unmonitored  # programs attach no protocol traces


def assert_equivalent(program) -> None:
    fast = run_program(program, kernel="fast")
    reference = run_program(program, kernel="reference")
    assert observations_match(fast, reference), (
        f"kernel divergence on {program!r}:\n fast={fast!r}\n  ref={reference!r}"
    )


# --------------------------------------------------------------- layer 1
@given(program=PROGRAMS)
@settings(max_examples=140, deadline=None)
def test_random_programs_equivalent(program):
    """The headline property: any program, same observations."""
    assert_equivalent(program)


@given(program=PROGRAMS)
@settings(max_examples=60, deadline=None)
def test_random_programs_equivalent_second_seedline(program):
    """A second independent Hypothesis seedline, lifting the rig past the
    200-example floor even when the first property shrinks early."""
    assert_equivalent(program)


# --------------------------------------------------------------- layer 2
WITNESSES = {
    "lazy_rearm_past_pending_timeout": [
        ("timer", 1.0),
        ("sleep", 0.5),   # timeout at 0.5 lands between old and new position
        ("rearm", 0, 2.0),
        ("sleep", 3.0),
    ],
    "rearm_earlier_supersedes_anchor": [
        ("timer", 5.0),
        ("rearm", 0, 1.0),
        ("sleep", 6.0),
    ],
    "cancel_then_heavy_churn_compacts": [
        ("timer", 9.0),
        ("cancel", 0),
    ] + [("timer", 0.25), ("cancel", 1)] * 40 + [("sleep", 10.0)],
    "same_instant_burst_tiebreak": [
        ("burst", 6, False),
        ("burst", 3, True),   # urgent beats normal at the same timestamp
        ("timer", 0.0),
        ("spawn", 0.0),
    ],
    "flow_churn_with_cancel": [
        ("flow", 2e6, False, 0b111),
        ("sleep", 1.0),
        ("flow", 5e4, True, 0b001),
        ("flow", 1e3, False, 0b101),
        ("flow_cancel", 0),
        ("sleep", 50.0),
    ],
    "kill_during_timer_wait": [
        ("spawn", 4.0),
        ("spawn", 4.0),
        ("sleep", 2.0),
        ("kill", 0),
        ("sleep", 5.0),
    ],
    "rearm_inside_own_callback_window": [
        # timer fires, driver immediately re-arms another timer that shares
        # the fire instant — exercises the fire-then-push-fresh path
        ("timer", 1.0),
        ("timer", 1.0),
        ("sleep", 1.0),
        ("rearm", 1, 0.0),
        ("sleep", 1.0),
    ],
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_program_equivalent(name):
    assert_equivalent(WITNESSES[name])


# --------------------------------------------------------------- layer 3
#: extra keys that describe the kernel's internals rather than the
#: simulation (residual heap length differs by design: the fast kernel
#: leaves tombstones behind, the reference bag swap-removes eagerly)
_KERNEL_INTERNAL_EXTRAS = frozenset({"heap_peak_hint"})


def _workload_fingerprint(result) -> str:
    """Canonical JSON of everything a workload result observes."""
    extra = {k: v for k, v in result.extra.items()
             if k not in _KERNEL_INTERNAL_EXTRAS}
    return json.dumps(
        {"events": result.events, "pops": result.pops, "extra": extra},
        sort_keys=True,
    )


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["bt_wave", "vcl_wave", "flow_churn",
                                      "chaos_kill"])
def test_perf_workload_byte_equivalent(workload, monkeypatch):
    """Smoke-sized perf workloads produce byte-identical results on both
    kernels (the workloads construct their engine via make_simulator)."""
    params = suite_params("smoke")[workload]
    fingerprints = {}
    for kernel in ("fast", "reference"):
        monkeypatch.setenv(KERNEL_ENV, kernel)
        fingerprints[kernel] = _workload_fingerprint(
            WORKLOADS[workload](**params))
    assert fingerprints["fast"] == fingerprints["reference"]


@pytest.mark.slow
def test_figure_grid_point_byte_equivalent(monkeypatch):
    """A real figure grid point — full harness, monitors on — is
    byte-identical across kernels, monitor ``checked`` counts included
    (the liveness monitor counts every live pop, so this pins the pop
    stream of the whole run, not just its end state)."""
    profile = get_profile("smoke", seed=123)
    bench = BT(klass="B", scale=profile.time_scale)
    rows = {}
    for kernel in ("fast", "reference"):
        monkeypatch.setenv(KERNEL_ENV, kernel)
        result = execute(bench, 4, "pcl", profile, period=30.0,
                         name=f"diff-{kernel}")
        meta = dict(result.meta)
        meta.pop("name")           # differs by construction; all else must not
        rows[kernel] = json.dumps(
            {"row": result.row(), "completion": result.completion,
             "meta": meta}, sort_keys=True, default=str)
    assert rows["fast"] == rows["reference"]


# ------------------------------------------------------- selection plumbing
def test_make_simulator_defaults_to_fast(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV, raising=False)
    assert type(make_simulator(seed=1)) is Simulator


def test_make_simulator_env_selects_reference(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "reference")
    assert type(make_simulator(seed=1)) is ReferenceSimulator


def test_make_simulator_explicit_kernel_overrides_env(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "reference")
    assert type(make_simulator(seed=1, kernel="fast")) is Simulator


def test_make_simulator_unknown_kernel_is_hard_error(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV, "turbo")
    with pytest.raises(SimulationError, match="unknown simulation kernel"):
        make_simulator(seed=1)
