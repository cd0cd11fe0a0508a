"""Property test: the Pcl delayed-receive queue is order-preserving.

When a marker arrives on a channel, Pcl delays further receptions from that
source until the local checkpoint completes (FtSock per-source freeze, or
the Nemesis stopper).  Whatever the interleaving of sends, markers and
resumes, the receiver must consume the stream in exact send order — the
delayed queue must release FIFO, never reorder across the freeze/thaw
boundary, never drop and never duplicate.

Waves are triggered at hypothesis-drawn instants via the protocols'
proactive ``request_wave`` hook, so markers land at arbitrary points of the
message stream.  The suite-wide monitor fixture keeps every invariant
monitor (including pcl-flush and fifo-delivery) live for every example.
"""

from hypothesis import example, given, settings, strategies as st

from repro.mpi import FtSockChannel, NemesisChannel
from repro.sim import Simulator
from repro.sim.primitives import EMPTY

from tests.ft.conftest import build_ft_run


def stream_app(schedule):
    """Rank 0 streams indexed messages per ``schedule`` (gap, nbytes) items;
    rank 1 records the exact order it consumes them."""

    def app(ctx):
        if ctx.rank == 0:
            for index, (gap, nbytes) in enumerate(schedule):
                yield from ctx.compute(gap)
                yield from ctx.send(1, tag=1, data=index, nbytes=nbytes)
        else:
            for _ in schedule:
                value = yield from ctx.recv(0, tag=1)
                ctx.update(lambda s, v=value: s.setdefault("seen", []).append(v))

    return app


_schedules = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
              st.floats(min_value=10.0, max_value=500_000.0,
                        allow_nan=False)),
    min_size=4, max_size=12,
)
_wave_times = st.lists(
    st.floats(min_value=0.001, max_value=0.4, allow_nan=False),
    min_size=1, max_size=4,
)


def _run_stream(channel_cls, schedule, wave_times):
    sim = Simulator(seed=11)
    run, _ = build_ft_run(sim, stream_app(schedule), size=2, protocol="pcl",
                          channel_cls=channel_cls, period=60.0,
                          image_bytes=2e5, fork_latency=0.002)
    run.start()
    frozen = []

    def sample():
        # ``_frozen_sources`` is a set on demand: EMPTY whenever thawed
        for channel in run.job.channels:
            assert channel._frozen_sources is EMPTY or channel._frozen_sources
            frozen.append(len(channel._frozen_sources))

    for at in wave_times:
        sim.call_at(at, lambda: run.protocol.request_wave())
        for offset in (0.0, 0.0005, 0.002, 0.01):
            sim.call_at(at + offset, sample)
    sim.run_until_complete(run.completed, limit=1e5)
    sample()
    assert frozen[-2:] == [0, 0]  # every wave thawed what it froze
    run.frozen_samples = frozen
    return run


#: a second wave, requested after the first committed, freezes source 0
#: (and, on Nemesis, closes the stopper) and is cut short by the job's
#: completion: detaching it must thaw the source and reopen the stopper
CUT_SHORT = dict(schedule=[(0.01953125, 10.0), (0.0078125, 10.0),
                           (0.01171875, 10.0), (0.0, 351225.0)],
                 wave_times=[0.046875, 0.0390625])


@given(schedule=_schedules, wave_times=_wave_times)
@settings(max_examples=20, deadline=None)
@example(**CUT_SHORT)
def test_nemesis_delayed_receive_queue_releases_fifo(schedule, wave_times):
    run = _run_stream(NemesisChannel, schedule, wave_times)
    assert run.job.contexts[1].state["seen"] == list(range(len(schedule)))
    # the stopper is open: later sends may go
    assert all(channel.send_open(peer) for channel in run.job.channels
               for peer in (0, 1))


@given(schedule=_schedules, wave_times=_wave_times)
@settings(max_examples=20, deadline=None)
@example(**CUT_SHORT)
def test_ftsock_delayed_receive_queue_releases_fifo(schedule, wave_times):
    run = _run_stream(FtSockChannel, schedule, wave_times)
    assert run.job.contexts[1].state["seen"] == list(range(len(schedule)))


def test_waves_actually_interleave_with_the_stream():
    """Sanity anchor for the property: a mid-stream wave really happens and
    really freezes the channel (delayed receptions observed)."""
    schedule = [(0.01, 400_000.0)] * 8
    run = _run_stream(NemesisChannel, schedule, wave_times=[0.03])
    assert run.stats.waves_completed >= 1
    assert run.job.contexts[1].state["seen"] == list(range(8))
    assert max(run.frozen_samples) == 1  # sampled while a source was frozen
