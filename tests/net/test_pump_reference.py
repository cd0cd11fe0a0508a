"""Executable naive spec for the pipe pump.

``_Pipe`` serializes queued messages with two plain callbacks
(``_start_next`` / ``_flow_done``) behind one URGENT kick event.  The spec it
replaced — one generator :class:`~repro.sim.process.Process` per message
burst, waiting on ``flow.done`` — lives on here as
:class:`GeneratorPumpPipe` and is raced against the callback pump on random
programs of sends (inline-sized and flow-sized, bursts that queue in
``egress``), ``flush()`` and ``break_()`` at arbitrary instants over shared
links.  Everything observable must agree: when each ``sent`` fires or fails,
what is delivered when and in which order, the byte/message counters, and
the engine's pop stream once the reference's ``Process:pump`` termination
pops (the dead pops the callback pump exists to remove) are deleted.

The negative proves the rig can tell pumps apart: a pump that starts the
flow synchronously inside ``send()`` — skipping the kick — makes the shared
NIC look busy one step early, which flips the inline-path decision of a
same-step small send on a neighbouring pipe.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.connection import _INLINE_BYTES, BrokenConnectionError, _Pipe
from repro.net.flows import FlowScheduler
from repro.net.link import Link
from repro.sim.process import Process

from tests.races import Rig, Rules, by_tick, drop, normalise, race, rename


class GeneratorPumpPipe(_Pipe):
    """The pump as a process: spawned per burst, parked on ``flow.done``."""

    __slots__ = ()

    def _kick(self) -> None:
        self.sim.process(self._pump(), name=f"pump:{self.name}")

    def _pump(self):
        while self.egress and not self.broken:
            payload, nbytes, sent, extra_latency, msg_id = self.egress.pop(0)
            queueing = 0.0
            for link in self.links:
                competitors = len(link.flows)
                if competitors:
                    queueing += competitors * (self.queue_bytes / link.capacity)
            flow = self.scheduler.start(self.links, nbytes, cap=self.cap)
            self._current_flow = flow
            try:
                yield flow.done
            except ConnectionError:
                # flush() or break_(): this message is dropped
                if not sent.triggered:
                    sent.defused = True
                    sent.fail(BrokenConnectionError(f"pipe {self.name} "
                        f"{'broken' if self.broken else 'flushed'}"))
                if self.broken:
                    break  # break_() already dropped the queued messages
                continue  # flush(): the pipe lives on
            finally:
                self._current_flow = None
            self.bytes_sent += nbytes
            self.messages_sent += 1
            if not sent.triggered:
                sent.succeed()
            delivery = max(self.sim.now + self.latency + queueing + extra_latency,
                           self._last_delivery)
            self._last_delivery = delivery
            self.sim.call_at(delivery - self.sim.now, self._deliver, payload,
                             msg_id, self._flush_gen)
        self.pumping = False


class SynchronousStartPipe(_Pipe):
    """Broken on purpose: no kick, the flow starts inside ``send()``."""

    __slots__ = ()

    def _kick(self) -> None:
        self._start_next()


RULES = Rules(
    "pump",
    # the process pump's own bookkeeping: the dead pops the callback pump
    # exists to remove
    drop("pump termination", "pump:", kind=Process.__name__),
    # its bootstrap is the kick it became
    rename("pump bootstrap", "init:pump:", "pump:"),
)


class PumpRig(Rig):
    """Three pipes — p0 and p1 leave through one NIC, all three cross one
    backbone — driven by a program whose ops are ``(op, pipe, nbytes)``.
    An undefused ``sent`` failure surfaces from ``run()`` as an
    exception."""

    TICK = 1e-3

    def __init__(self, pipe_cls):
        super().__init__()
        scheduler = FlowScheduler(self.sim)
        nic_a, nic_b = Link("a.tx", 1.0e6), Link("b.tx", 1.0e6)
        backbone = Link("backbone", 1.5e6)
        self.pipes = [
            pipe_cls(self.sim, scheduler, links, latency=1e-4, cap=cap,
                     conn_id=i, direction="ab", queue_bytes=1500.0)
            for i, (links, cap) in enumerate([
                ((nic_a, backbone), None),
                ((nic_a, backbone), 0.8e6),
                ((nic_b, backbone), None),
            ])
        ]
        for index, pipe in enumerate(self.pipes):
            self.sim.process(self._consumer(index, pipe),
                             name=f"consumer:{index}")

    def _consumer(self, index, pipe):
        while True:
            try:
                payload = yield pipe.inbox.get()
            except BrokenConnectionError:
                self.log.append(("closed", index, self.sim.now))
                return
            self.log.append(("delivered", index, self.sim.now, payload))

    def step(self, step, ops):
        for position, (op, index, nbytes) in enumerate(ops):
            pipe = self.pipes[index]
            serial = (step, position)
            if op == "flush":
                pipe.flush()
            elif op == "break":
                pipe.break_()
            else:
                try:
                    sent = pipe.send(serial, nbytes)
                except BrokenConnectionError:
                    self.log.append(("refused", serial, self.sim.now))
                    continue
                sent.callbacks.append(
                    lambda event, serial=serial: self.log.append(
                        ("sent", serial, self.sim.now, event._ok)))

    def state(self):
        return [(p.bytes_sent, p.messages_sent, p.pumping, len(p.egress),
                 p._current_flow) for p in self.pipes]


_sizes = st.one_of(
    st.floats(min_value=0.0, max_value=_INLINE_BYTES),          # inline-sized
    st.floats(min_value=_INLINE_BYTES + 1.0, max_value=40_000.0),  # flow-sized
    st.just(_INLINE_BYTES),
)
_pipe_index = st.integers(0, 2)
_ops = st.one_of(
    st.tuples(st.just("send"), _pipe_index, _sizes),
    st.tuples(st.sampled_from(["flush", "break"]), _pipe_index, st.just(0.0)),
)
_steps = st.tuples(st.integers(0, 12), st.lists(_ops, min_size=1, max_size=5))
_programs = by_tick(_steps, 1, 16)

#: p0 starts a bulk transfer; in the same step p1 — same NIC — sends a small
#: message, which must still find the NIC idle and go inline
SAME_STEP_WITNESS = [(0, [("send", 0, 30_000.0), ("send", 1, 512.0)])]

#: a burst that queues behind an in-flight flow, flushed mid-flight and
#: reused in the same step; a second pipe broken with messages still queued
#: and sent on afterwards; a third broken with a flow in flight
FLUSH_BREAK_WITNESS = [
    (0, [("send", 0, 30_000.0), ("send", 0, 20_000.0), ("send", 0, 100.0)]),
    (1, [("send", 1, 9_000.0)]),
    (5, [("flush", 0, 0.0), ("send", 0, 8_000.0), ("send", 0, 64.0)]),
    (9, [("send", 2, 12_000.0), ("send", 2, 12_000.0)]),
    (9, [("break", 2, 0.0), ("send", 2, 1.0)]),
    (12, [("send", 1, 25_000.0)]),
    (13, [("break", 1, 0.0)]),
]


def run_program(pipe_cls, program):
    return PumpRig(pipe_cls).run(program).outcome(RULES)


def witness_races():
    for program in (SAME_STEP_WITNESS, FLUSH_BREAK_WITNESS):
        yield PumpRig(_Pipe), PumpRig(GeneratorPumpPipe), program


@given(program=_programs)
@example(program=SAME_STEP_WITNESS)
@example(program=FLUSH_BREAK_WITNESS)
@settings(max_examples=150, deadline=None)
def test_callback_pump_equals_generator_pump(program):
    pump = PumpRig(_Pipe)
    race(pump, PumpRig(GeneratorPumpPipe), program, RULES)
    # every pump that started also stopped, and gave its queue back
    assert all(not pumping and queued == 0 and flow is None
               for _, _, pumping, queued, flow in pump.state())


def test_the_only_pops_removed_are_pump_terminations():
    _, _, _, raw = run_program(_Pipe, FLUSH_BREAK_WITNESS)
    _, _, _, ref_raw = run_program(GeneratorPumpPipe, FLUSH_BREAK_WITNESS)
    pump_lifetimes = normalise(ref_raw, RULES)[1]["pump termination"]
    assert pump_lifetimes > 0
    assert len(ref_raw) - len(raw) == pump_lifetimes
    assert normalise(raw, RULES)[1]["pump termination"] == 0


def test_synchronous_flow_start_is_caught():
    """Skipping the kick flips p1's same-step small send off the inline
    path: it now shares the NIC with p0's flow and arrives later."""
    good = run_program(_Pipe, SAME_STEP_WITNESS)
    bad = run_program(SynchronousStartPipe, SAME_STEP_WITNESS)
    assert good[:3] == run_program(GeneratorPumpPipe, SAME_STEP_WITNESS)[:3]
    assert bad[0] != good[0]

    def arrival(log):
        return next(entry[2] for entry in log
                    if entry[0] == "delivered" and entry[3] == (0, 1))

    inline = 512.0 / 0.8e6 + 1e-4  # serialization at p1's cap + latency
    assert arrival(good[0]) == inline
    assert arrival(bad[0]) > inline
