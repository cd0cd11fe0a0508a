"""Layer mapping and the edge-table -> self-time arithmetic."""

import pytest

import layers
import spec

ROOT = "/checkout/src/repro"
BUILTIN = "~"


def layer(path):
    return layers.layer_of(path, ROOT, spec.LAYERS)


def test_package_directories_are_layers():
    assert layer(f"{ROOT}/sim/engine.py") == "sim"
    assert layer(f"{ROOT}/mpi/channels/ch_v.py") == "mpi"
    assert layer(f"{ROOT}/harness/figures/fig6.py") == "harness"


def test_tracer_is_split_out_of_sim():
    assert layer(f"{ROOT}/sim/trace.py") == "trace"
    assert layer(f"{ROOT}/sim/tracer.py") == "sim"


def test_unknown_repro_code_is_other():
    assert layer(f"{ROOT}/__init__.py") == "other"
    assert layer(f"{ROOT}/newpkg/thing.py") == "other"


def test_code_outside_the_package_has_no_layer():
    assert layer("/usr/lib/python3.11/heapq.py") is None
    assert layer(BUILTIN) is None
    # a sibling directory that merely starts with the same characters
    assert layer("/checkout/src/repro_extras/sim/engine.py") is None


def func(path, name):
    return (path, 1, name)


def entry(calls, own, inclusive, callers):
    return (calls, calls, own, inclusive, callers)


def edge(calls, own, inclusive):
    return (calls, calls, own, inclusive)


@pytest.fixture
def three_layer_tree():
    """driver -> harness.run (1x) -> sim.step (10x) -> net.send (20x),
    with sim.step also calling the builtin heappush (10x) and net.send
    calling it too (20x)::

        driver        self 0.1  inclusive 10.0
        harness.run   self 0.9  inclusive  9.9
        sim.step      self 3.0  inclusive  9.0   (+ heappush 1.0 of 10 calls)
        net.send      self 4.0  inclusive  5.0   (+ heappush 1.0 of 20 calls)
    """
    driver = func("/checkout/bench/child.py", "call")
    run = func(f"{ROOT}/harness/runner.py", "run")
    step = func(f"{ROOT}/sim/engine.py", "step")
    send = func(f"{ROOT}/net/flows.py", "send")
    push = func(BUILTIN, "<built-in method _heapq.heappush>")
    return {
        driver: entry(1, 0.1, 10.0, {}),
        run: entry(1, 0.9, 9.9, {driver: edge(1, 0.9, 9.9)}),
        step: entry(10, 3.0, 9.0, {run: edge(10, 3.0, 9.0)}),
        send: entry(20, 4.0, 5.0, {step: edge(20, 4.0, 5.0)}),
        push: entry(30, 2.0, 2.0, {step: edge(10, 1.0, 1.0),
                                   send: edge(20, 1.0, 1.0)}),
    }


def test_self_time_is_inclusive_minus_children(three_layer_tree):
    table = layers.attribute(three_layer_tree, ROOT, spec.LAYERS)
    # builtin time is charged to the layer that called it
    assert table["self_s"]["sim"] == pytest.approx(3.0 + 1.0)
    assert table["self_s"]["net"] == pytest.approx(4.0 + 1.0)
    assert table["self_s"]["harness"] == pytest.approx(0.9)
    assert table["self_s"]["other"] == pytest.approx(0.1)
    # each layer's self time is what its spans cover minus their children:
    # sim 9.0 inclusive - net 5.0; harness 9.9 - sim 9.0; driver 10 - 9.9
    assert table["self_s"]["sim"] == pytest.approx(9.0 - 5.0)
    assert table["self_s"]["harness"] == pytest.approx(9.9 - 9.0)
    assert table["total_s"] == pytest.approx(10.0)


def test_shares_sum_to_one(three_layer_tree):
    table = layers.attribute(three_layer_tree, ROOT, spec.LAYERS)
    assert sum(table["share"].values()) == pytest.approx(1.0)
    assert table["share"]["net"] == pytest.approx(0.5)
    assert set(table["share"]) == set(spec.LAYERS)


def test_call_counts_are_whole_and_by_file(three_layer_tree):
    table = layers.attribute(three_layer_tree, ROOT, spec.LAYERS)
    assert table["calls"]["sim"] == 10
    assert table["calls"]["net"] == 20
    assert table["calls"]["other"] == 1 + 30  # driver + builtin
    assert table["calls_in"]["sim"] == 10     # from harness
    assert table["calls_in"]["net"] == 20     # from sim
    assert table["calls_in"]["harness"] == 1  # from the driver
    assert table["calls_in"]["other"] == 30   # repro code calling a builtin
    assert table["calls_in"]["mpi"] == 0


def test_boundary_edges_are_the_spans(three_layer_tree):
    spans = layers.attribute(three_layer_tree, ROOT, spec.LAYERS)["spans"]
    assert [(s["parent_layer"], s["layer"], s["count"]) for s in spans] == [
        ("other", "harness", 1), ("harness", "sim", 10), ("sim", "net", 20)]
    assert spans[1]["name"] == "engine.py:1(step)"
    assert spans[1]["parent"] == "runner.py:1(run)"
    assert spans[1]["inclusive_s"] == 9.0 and spans[1]["self_s"] == 3.0


def test_stdlib_chain_is_charged_to_the_repro_caller():
    """sim.step -> heapq.heappush (python) -> builtin lt: both stdlib frames
    belong to sim; the same builtin reached from nowhere belongs to other."""
    step = func(f"{ROOT}/sim/engine.py", "step")
    heappush = func("/usr/lib/python3.11/heapq.py", "heappush")
    lt = func(BUILTIN, "<built-in method lt>")
    main = func("/checkout/bench/child.py", "main")
    stats = {
        step: entry(1, 1.0, 4.0, {}),
        heappush: entry(5, 1.0, 3.0, {step: edge(5, 1.0, 3.0)}),
        lt: entry(9, 4.0, 4.0, {heappush: edge(5, 2.0, 2.0),
                                main: edge(4, 2.0, 2.0)}),
        main: entry(1, 0.5, 2.5, {}),
    }
    table = layers.attribute(stats, ROOT, spec.LAYERS)
    assert table["self_s"]["sim"] == pytest.approx(1.0 + 1.0 + 2.0)
    assert table["self_s"]["other"] == pytest.approx(0.5 + 2.0)


def test_recursive_stdlib_frames_settle():
    """json-style recursion between two stdlib frames must not loop and must
    still hand the time to the repro layer that started it."""
    save = func(f"{ROOT}/harness/report.py", "save_json")
    encode = func("/usr/lib/python3.11/json/encoder.py", "_iterencode")
    inner = func("/usr/lib/python3.11/json/encoder.py", "_iterencode_dict")
    stats = {
        save: entry(1, 0.0, 3.0, {}),
        encode: entry(10, 1.0, 3.0, {save: edge(1, 0.5, 3.0),
                                     inner: edge(9, 0.5, 1.0)}),
        inner: entry(9, 2.0, 2.5, {encode: edge(9, 2.0, 2.5)}),
    }
    table = layers.attribute(stats, ROOT, spec.LAYERS)
    assert table["self_s"]["harness"] == pytest.approx(3.0, rel=1e-3)
    assert table["self_s"]["other"] == pytest.approx(0.0, abs=1e-3)
