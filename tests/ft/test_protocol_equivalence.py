"""The protocol must never change what the application computes.

Checkpointing is supposed to be transparent: the same benchmark with the
same seed must produce byte-identical application results under no
protocol, Pcl, Vcl and Dcl alike — the protocols may only change *when*
things happen, never *what* is computed.  And under Dcl, a single failure
at any point of the timeline must end in ``recovered``/``completed`` with
the correct result, never ``wrong-result`` (the same acceptance property
`test_chaos_properties` establishes for Pcl and Vcl).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import BT
from repro.chaos import OK_VERDICTS, Fault, Scenario, run_scenario
from repro.harness.config import get_profile
from repro.harness.runner import execute

#: (protocol, channel) for every family, plus the checkpoint-free control
FAMILIES = (
    (None, "ft_sock"),
    ("pcl", "ft_sock"),
    ("vcl", "ch_v"),
    ("dcl", "ft_sock"),
)


def _app_state_bytes(protocol, channel, procs_per_node):
    profile = get_profile("smoke", seed=0)
    bench = BT(klass="B", scale=profile.time_scale)
    result = execute(bench, 4, protocol, profile, channel=channel,
                     period=30.0, procs_per_node=procs_per_node,
                     name=f"equiv-{protocol or 'none'}-ppn{procs_per_node}")
    assert result.monitors_ok is True
    # the byte-identity contract: serialize the full per-rank final state
    return json.dumps(result.meta["app_state"], sort_keys=True)


@pytest.mark.parametrize("procs_per_node", [1, 2])
def test_all_protocol_families_agree_on_app_results(procs_per_node):
    states = {
        protocol or "none": _app_state_bytes(protocol, channel,
                                             procs_per_node)
        for protocol, channel in FAMILIES
    }
    baseline = states["none"]
    for protocol, state in states.items():
        assert state == baseline, (
            f"{protocol} (ppn={procs_per_node}) changed the application "
            "result — checkpointing must be transparent")


# BT.B scale=0.05 on 4 procs completes around t≈96; sample the whole
# timeline including "after the job finished" (kill is then a no-op).
_KILL_TIMES = st.floats(min_value=0.0, max_value=110.0,
                        allow_nan=False, allow_infinity=False)


@given(
    channel_ppn=st.sampled_from([("ft_sock", 1), ("ft_sock", 2),
                                 ("nemesis", 2)]),
    kill=st.sampled_from(["task", "node"]),
    victim=st.integers(min_value=0, max_value=3),
    kill_time=_KILL_TIMES,
)
@settings(max_examples=15, deadline=None)
def test_dcl_random_single_failure_recovers(channel_ppn, kill, victim,
                                            kill_time):
    channel, procs_per_node = channel_ppn
    scenario = Scenario(
        protocol="dcl",
        channel=channel,
        procs_per_node=procs_per_node,
        faults=(Fault(kill, victim, kill_time),),
        seed=1,
    )
    result = run_scenario(scenario)
    assert result.verdict in OK_VERDICTS, (
        f"{scenario.label}: {result.verdict} — {result.detail}")
    expected_iterations = 10  # BT at scale 0.05
    for rank, state in enumerate(result.app_state):
        assert state["iteration"] == expected_iterations, (rank, state)
        assert state["norm"] == scenario.n_procs, (rank, state)
