"""Property-based chaos: random kill times never produce a wrong result
or a hang, for either protocol.

The acceptance property of coordinated checkpointing (paper Sec. 3): a
single failure at *any* point of the execution — inside a checkpoint wave,
between waves, during recovery of nothing at all — leads to a rollback to
the last committed wave and a correct re-execution.  The engine watchdog
and the per-scenario time budget turn the failure modes into verdicts, so
the property is simply: the verdict is always ``recovered`` or
``completed`` (a kill landing after completion recovers nothing).
"""

from hypothesis import example, given, settings, strategies as st

from repro.chaos import OK_VERDICTS, Fault, Scenario, run_scenario

# BT.B scale=0.05 on 4 procs completes around t≈96; sample the whole
# timeline including "after the job finished" (kill is then a no-op).
_KILL_TIMES = st.floats(min_value=0.0, max_value=110.0,
                        allow_nan=False, allow_infinity=False)


@given(
    protocol_channel=st.sampled_from([("pcl", "ft_sock"), ("pcl", "nemesis"),
                                      ("vcl", "ch_v")]),
    kill=st.sampled_from(["task", "node"]),
    victim=st.integers(min_value=0, max_value=3),
    kill_time=_KILL_TIMES,
    procs_per_node=st.sampled_from([1, 2]),
)
# Falsifying examples Hypothesis found and we fixed: a kill during the
# eager-mesh bootstrap (t=0) used to escape as ConnectionResetError from
# the mesh builder, and a kill mid-isend used to escape as
# BrokenConnectionError from the unwaited pusher process.
@example(protocol_channel=("vcl", "ch_v"), kill="task", victim=0,
         kill_time=0.0, procs_per_node=1)
@example(protocol_channel=("vcl", "ch_v"), kill="task", victim=0,
         kill_time=42.375, procs_per_node=1)
@settings(max_examples=15, deadline=None)
def test_random_single_failure_never_hangs_or_corrupts(
        protocol_channel, kill, victim, kill_time, procs_per_node):
    protocol, channel = protocol_channel
    scenario = Scenario(
        protocol=protocol,
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
