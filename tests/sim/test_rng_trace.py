"""Unit tests for RNG streams and the tracer."""

from repro.sim import RngRegistry, Simulator, Tracer


# ----------------------------------------------------------------- RNG
def draws(stream, n):
    return [stream.random() for _ in range(n)]


def test_same_seed_same_stream():
    a = draws(RngRegistry(5).stream("x"), 10)
    b = draws(RngRegistry(5).stream("x"), 10)
    assert a == b


def test_different_names_independent():
    reg = RngRegistry(5)
    a = draws(reg.stream("x"), 10)
    b = draws(reg.stream("y"), 10)
    assert a != b


def test_stream_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")
    assert set(reg._streams) == {"x"}


def test_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(3)
    s = reg1.stream("a")
    first = draws(s, 5)

    reg2 = RngRegistry(3)
    reg2.stream("b")  # extra consumer
    second = draws(reg2.stream("a"), 5)
    assert first == second


# --------------------------------------------------------------- Tracer
def test_tracer_records_and_selects():
    tr = Tracer()
    tr.record(1.0, "msg", src=0, dst=1)
    tr.record(2.0, "ckpt", rank=3)
    tr.record(3.0, "msg", src=1, dst=0)
    msgs = list(tr.select("msg"))
    assert [m.time for m in msgs] == [1.0, 3.0]
    assert msgs[0].get("dst") == 1
    assert msgs[0].get("missing", "d") == "d"


def test_tracer_disabled_drops_records_keeps_counters():
    tr = Tracer(enabled=False)
    tr.record(1.0, "msg", a=1)
    tr.count("bytes", 100)
    assert tr.records == []
    assert tr["bytes"] == 100


def test_tracer_category_filter():
    tr = Tracer(categories=["keep"])
    tr.record(1.0, "keep", x=1)
    tr.record(1.0, "drop", x=2)
    assert len(tr.records) == 1


def test_record_as_dict():
    tr = Tracer()
    tr.record(0.0, "x", a=1, b=2)
    assert tr.records[0].as_dict() == {"a": 1, "b": 2}


def test_simulator_installs_disabled_tracer_by_default():
    sim = Simulator()
    sim.trace.record(0.0, "anything", x=1)
    assert sim.trace.records == []
    sim.trace.count("n")
    assert sim.trace["n"] == 1


def test_simulator_accepts_custom_tracer():
    tr = Tracer()
    sim = Simulator(trace=tr)
    assert sim.trace is tr
