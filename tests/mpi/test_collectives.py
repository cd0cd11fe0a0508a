"""Integration tests for collective operations."""

import operator

import pytest

from repro.mpi import SKIPPED, collectives

from tests.mpi.conftest import make_job, run_job


@pytest.mark.parametrize("size,root", [(2, 0), (4, 0), (5, 2), (7, 6), (8, 3)])
def test_bcast(sim, size, root):
    results = {}

    def app(ctx):
        value = {"payload": 42} if ctx.rank == root else None
        out = yield from collectives.bcast(ctx, value, root=root,
                                           nbytes=256)
        results[ctx.rank] = out

    job, _ = make_job(sim, app, size=size)
    run_job(sim, job)
    assert all(results[r] == {"payload": 42} for r in range(size))


@pytest.mark.parametrize("size,root", [(2, 0), (4, 1), (6, 5), (8, 0)])
def test_reduce_sum(sim, size, root):
    results = {}

    def app(ctx):
        out = yield from collectives.reduce(ctx, ctx.rank + 1, operator.add,
                                            root=root, nbytes=8)
        results[ctx.rank] = out

    job, _ = make_job(sim, app, size=size)
    run_job(sim, job)
    assert results[root] == size * (size + 1) // 2
    assert all(results[r] is None for r in range(size) if r != root)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 8])
def test_allreduce_max(sim, size):
    results = {}

    def app(ctx):
        out = yield from ctx.allreduce(ctx.rank * 10, max, nbytes=8)
        results[ctx.rank] = out

    job, _ = make_job(sim, app, size=size)
    run_job(sim, job)
    assert all(v == (size - 1) * 10 for v in results.values())


def test_back_to_back_collectives_do_not_cross_match(sim):
    results = {}

    def app(ctx):
        a = yield from ctx.allreduce(1, operator.add, nbytes=8)
        b = yield from ctx.allreduce(ctx.rank, operator.add, nbytes=8)
        c = yield from collectives.bcast(ctx, ("from", ctx.rank),
                                        root=size - 1, nbytes=8)
        results[ctx.rank] = (a, b, c)

    size = 6
    job, _ = make_job(sim, app, size=size)
    run_job(sim, job)
    for r in range(size):
        a, b, c = results[r]
        assert a == size
        assert b == sum(range(size))
        assert c == ("from", size - 1)


@pytest.mark.parametrize("size,root", [(3, 0), (5, 2), (7, 3), (8, 0)])
def test_reduce_keeps_operand_order_from_root(sim, size, root):
    """The binomial tree folds operands in rank order starting at ``root``,
    so an associative but non-commutative op gives MPI's answer."""
    results = {}

    def app(ctx):
        out = yield from collectives.reduce(ctx, str(ctx.rank), operator.add,
                                            root=root, nbytes=8)
        results[ctx.rank] = out

    job, _ = make_job(sim, app, size=size)
    run_job(sim, job)
    assert results[root] == "".join(str((root + i) % size)
                                    for i in range(size))


@pytest.mark.parametrize("size", [2, 3, 6, 8])
def test_allreduce_concatenation_in_rank_order(sim, size):
    results = {}

    def app(ctx):
        out = yield from ctx.allreduce([ctx.rank], operator.add, nbytes=8)
        results[ctx.rank] = out

    job, _ = make_job(sim, app, size=size)
    run_job(sim, job)
    assert all(results[r] == list(range(size)) for r in range(size))


class _ScriptedContext:
    """Rank 0 of four, whose receives return scripted values."""

    rank, size = 0, 4

    def __init__(self, received):
        self.received = list(received)

    def _next_coll_tag(self):
        return 0

    def recv(self, source, tag):
        return self.received.pop(0)
        yield

    def send(self, dst, tag, data, nbytes):
        raise AssertionError("the root of a reduce sends nothing")
        yield


def _run(generator):
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the scripted context never blocks")


@pytest.mark.parametrize("own,received,expected", [
    (1, [SKIPPED, 5], 6),
    (SKIPPED, [SKIPPED, 5], 5),
    (SKIPPED, [2, 5], 7),
    (SKIPPED, [SKIPPED, SKIPPED], SKIPPED),
], ids=["skipped-child", "skipped-own", "skipped-own-first", "all-skipped"])
def test_reduce_applies_op_to_live_operands_only(own, received, expected):
    """A replayed receive returns SKIPPED; it contributes nothing to the
    reduction, and a SKIPPED accumulator takes the first live operand."""
    ctx = _ScriptedContext(received)
    result = _run(collectives.reduce(ctx, own, operator.add, 0, 8))
    assert result is expected if expected is SKIPPED else result == expected
    assert ctx.received == []


def test_single_rank_collectives_send_nothing():
    ctx = _ScriptedContext([])
    ctx.size = 1
    assert _run(collectives.bcast(ctx, "v", 0, 8)) == "v"
    assert _run(collectives.reduce(ctx, 3, operator.add, 0, 8)) == 3
    assert _run(collectives.allreduce(ctx, 4, operator.add, 8)) == 4
