"""Tests of the NAS benchmark skeletons."""

import pytest

from repro.apps import BENCHMARKS, BT, CG
from repro.mpi import FtSockChannel, MPIJob
from repro.net import ClusterNetwork
from repro.sim import Simulator


def run_bench(bench, p, seed=2, n_nodes=None, limit=1e7):
    sim = Simulator(seed=seed)
    net = ClusterNetwork(sim, n_nodes=n_nodes or p)
    endpoints = net.place(p)
    job = MPIJob(sim, net, endpoints, bench.make_app(p), FtSockChannel,
                 image_bytes=bench.image_bytes(p))
    job.start()
    elapsed = sim.run_until_complete(job.completed, limit=limit)
    return sim, job, elapsed


# --------------------------------------------------------------- validation
def test_unknown_class_rejected():
    with pytest.raises(ValueError):
        BT(klass="Z")


def test_bad_scale_rejected():
    with pytest.raises(ValueError):
        BT(scale=0.0)
    with pytest.raises(ValueError):
        BT(scale=1.5)


def test_bt_requires_square():
    with pytest.raises(ValueError):
        BT().validate_procs(6)
    BT().validate_procs(16)


def test_cg_requires_power_of_two():
    with pytest.raises(ValueError):
        CG().validate_procs(6)
    CG().validate_procs(32)


# ------------------------------------------------------------------- sizes
def test_image_bytes_shrink_with_more_procs():
    bench = BT(klass="B")
    assert bench.image_bytes(64) < bench.image_bytes(16)
    # runtime overhead keeps a floor
    assert bench.image_bytes(10_000) > 20e6


def test_bt_face_bytes_scale_with_class():
    assert BT(klass="C").face_bytes(64) > BT(klass="B").face_bytes(64)


def test_cg_exchange_bytes():
    # p=64 -> 8x8 grid -> a row-block is N/8 doubles
    assert CG(klass="C").exchange_bytes(64) == pytest.approx(
        8 * 150_000 / 8)


def test_compute_scales_inversely_with_procs():
    bench = BT(klass="B")
    assert bench.compute_seconds_per_iteration(64) == pytest.approx(
        bench.compute_seconds_per_iteration(16) / 4)


def test_scale_reduces_iterations_only():
    full, quick = BT(klass="B"), BT(klass="B", scale=0.1)
    assert quick.iterations() == 20 and full.iterations() == 200
    assert quick.compute_seconds_per_iteration(64) == full.compute_seconds_per_iteration(64)


def test_describe_mentions_class_and_size():
    text = BT(klass="B").describe(64)
    assert "bt.B" in text and "p=64" in text


# --------------------------------------------------------------- execution
@pytest.mark.parametrize("bench_cls,p", [(BT, 4), (BT, 9)])
def test_square_benchmarks_run(bench_cls, p):
    bench = bench_cls(klass="A", scale=0.02)
    sim, job, elapsed = run_bench(bench, p)
    for ctx in job.contexts:
        assert ctx.state["iteration"] == bench.iterations()
    assert elapsed > 0


@pytest.mark.parametrize("bench_cls,p", [(CG, 4), (CG, 8)])
def test_pow2_benchmarks_run(bench_cls, p):
    bench = bench_cls(klass="A", scale=0.2)
    sim, job, elapsed = run_bench(bench, p)
    for ctx in job.contexts:
        assert ctx.state["iteration"] == bench.iterations()


def test_bt_single_process():
    bench = BT(klass="A", scale=0.02)
    sim, job, elapsed = run_bench(bench, 1)
    assert job.contexts[0].state["iteration"] == bench.iterations()


def test_bt_completion_time_reasonable():
    """Completion must exceed the compute bound but not wildly."""
    bench = BT(klass="A", scale=0.05)
    sim, job, elapsed = run_bench(bench, 4)
    bound = bench.expected_time(4)
    assert elapsed >= bound
    assert elapsed < bound * 2.0


def test_nas_runs_deterministic():
    bench = BT(klass="A", scale=0.02)
    t1 = run_bench(bench, 4, seed=3)[2]
    t2 = run_bench(BT(klass="A", scale=0.02), 4, seed=3)[2]
    assert t1 == t2


def test_cg_latency_bound_vs_bt():
    """CG must issue far more (and smaller) messages per unit data than BT."""
    def count_messages(bench, p):
        sim = Simulator(seed=2)  # a dark tracer: counters only
        net = ClusterNetwork(sim, n_nodes=p)
        job = MPIJob(sim, net, net.place(p), bench.make_app(p), FtSockChannel)
        job.start()
        sim.run_until_complete(job.completed, limit=1e7)
        return sim.trace["mpi.messages"], sim.trace["mpi.bytes"]

    cg_msgs, cg_bytes = count_messages(CG(klass="A", scale=0.4), 4)
    bt_msgs, bt_bytes = count_messages(BT(klass="A", scale=0.1), 4)
    assert cg_bytes / cg_msgs < bt_bytes / bt_msgs


def test_benchmarks_registry():
    assert set(BENCHMARKS) == {"bt", "cg", "stencil"}
    assert all(issubclass(cls, __import__("repro.apps.base", fromlist=["NASBenchmark"]).NASBenchmark)
               for cls in BENCHMARKS.values())
