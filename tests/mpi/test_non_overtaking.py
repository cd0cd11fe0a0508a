"""Property test: a rank's messages to one peer are received in the order it
posted them (MPI's non-overtaking rule), whatever mix of ``send`` and
``isend`` posted them.

Pcl's marker flush and Vcl's snapshot both build on it.  ``send`` and
``isend`` are one post (``BaseChannel.post``): the packet is numbered and
its send chain joins its first wait — the handshake of a link that is not
up yet, a frozen destination, ch_v's daemon — inside the post, so a send
posted behind a waiting ``isend`` waits behind it.  When an ``isend`` that
had to wait started one URGENT step after its post, ``isend(1, 3, "A")``
then ``send(1, 3, "B")`` delivered B first: on ft-sock, Nemesis and ch_v
before the link was up, and on ch_v at any time.

Programs are Hypothesis-drawn: each of three ranks posts ``send`` s and
``isend`` s of assorted sizes to shared destinations and tags, with
compute gaps, on lazily connected ft-sock and Nemesis under a Pcl wave
requested at drawn instants (it freezes destinations: ft-sock per
destination, Nemesis with its stopper), and on ch_v's eager mesh under
Vcl's (MPICH-V's protocol: it logs, and freezes nothing) and Pcl's (a send
in its daemon hop when the wave freezes its destination waits for the
freeze).  Every rank then receives what was sent to it, in arrival order.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpi import ChVChannel, FtSockChannel, NemesisChannel
from repro.mpi.consts import ANY_SOURCE, ANY_TAG
from repro.sim import Simulator

from tests.ft.conftest import build_ft_run

SIZE = 3
#: the devices and checkpoint protocols the programs run on
SETUPS = [(FtSockChannel, "pcl"), (NemesisChannel, "pcl"),
          (ChVChannel, "vcl"), (ChVChannel, "pcl")]

_op = st.tuples(st.sampled_from(["send", "isend"]),
                st.integers(1, SIZE - 1),             # destination offset
                st.integers(0, 1),                    # tag
                st.sampled_from([0.0, 2e-5, 1e-3]),   # compute gap before
                st.sampled_from([8.0, 4_000.0, 60_000.0]))
_programs = st.lists(st.lists(_op, max_size=8), min_size=SIZE,
                     max_size=SIZE)
_wave_times = st.lists(st.floats(min_value=0.0, max_value=0.006,
                                 allow_nan=False), max_size=2)


def _app(program, received):
    """Rank ``r`` posts ``program[r]`` (``data`` = its index there), waits
    for its requests, then receives every message addressed to it."""
    expected = [0] * SIZE
    for rank, ops in enumerate(program):
        for _, offset, *_ in ops:
            expected[(rank + offset) % SIZE] += 1

    def app(ctx):
        requests = []
        for index, (kind, offset, tag, gap, nbytes) in enumerate(
                program[ctx.rank]):
            yield from ctx.compute(gap)
            dst = (ctx.rank + offset) % ctx.size
            if kind == "isend":
                requests.append(ctx.isend(dst, tag, (ctx.rank, index),
                                          nbytes))
            else:
                yield from ctx.send(dst, tag, (ctx.rank, index), nbytes)
        for request in requests:
            yield from request.wait()
        for _ in range(expected[ctx.rank]):
            src, index = yield from ctx.recv(ANY_SOURCE, ANY_TAG)
            received[ctx.rank].append((src, program[src][index][2], index))

    return app


#: rank 0's ``isend(1, 3, "A")`` then ``send(1, 3, "B")``, back to back,
#: before the link is up
ISEND_THEN_SEND = [[("isend", 1, 1, 0.0, 8.0), ("send", 1, 1, 0.0, 8.0)],
                   [], []]
#: the same once the link is up (on ch_v both still wait for the daemon)
ISEND_THEN_SEND_LATER = [[("isend", 1, 1, 1e-3, 8.0),
                          ("send", 1, 1, 0.0, 8.0)], [], []]


#: rank 2's six small sends to rank 0 under a Pcl wave requested at once:
#: on ch_v, the wave freezes rank 0 while one of them is in its daemon hop
SIX_SENDS = [[], [], [("send", 1, 0, 0.0, 8.0)] * 6]


@given(program=_programs, wave_times=_wave_times,
       setup=st.sampled_from(SETUPS))
@example(program=ISEND_THEN_SEND, wave_times=[], setup=SETUPS[0])
@example(program=ISEND_THEN_SEND, wave_times=[], setup=SETUPS[1])
@example(program=ISEND_THEN_SEND, wave_times=[], setup=SETUPS[2])
@example(program=ISEND_THEN_SEND_LATER, wave_times=[], setup=SETUPS[2])
@example(program=SIX_SENDS, wave_times=[0.0], setup=SETUPS[3])
@settings(max_examples=60, deadline=None)
def test_a_ranks_messages_to_a_peer_arrive_in_post_order(program, wave_times,
                                                        setup):
    device, protocol = setup
    sim = Simulator(seed=5)
    received = [[] for _ in range(SIZE)]
    run, _ = build_ft_run(sim, _app(program, received), size=SIZE,
                          protocol=protocol, channel_cls=device,
                          period=60.0, image_bytes=2e5, fork_latency=0.002)
    run.start()
    for at in wave_times:
        sim.call_at(at, run.protocol.request_wave)
    sim.run_until_complete(run.completed, limit=1e4)
    for dst in range(SIZE):
        for src, ops in enumerate(program):
            for tag in (0, 1):
                posted = [index for index, (_, offset, op_tag, _, _)
                          in enumerate(ops)
                          if (src + offset) % SIZE == dst and op_tag == tag]
                got = [index for from_, got_tag, index in received[dst]
                       if from_ == src and got_tag == tag]
                assert got == posted, (src, dst, tag)
