"""The pure-Python stream against its oracle, and the rig against itself.

``repro.sim.rng.Stream`` exists so that a run's few hundred draws do not
import ``numpy``; it is only allowed to exist because it yields, float for
float, what ``numpy.random.default_rng(SeedSequence([seed, crc32(name)]))``
yielded before it — every golden result depends on that.  ``numpy`` is the
executable spec here: random programs of interleaved draws must agree
exactly, and three deliberately broken streams (each one plausible slip in
transcribing PCG64) must each be rejected by the same comparison.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngRegistry, Stream

BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**70, RngRegistry(1).fork(2).seed]

seeds = st.one_of(st.sampled_from(BOUNDARY_SEEDS), st.integers(0, 2**32),
                  st.integers(0, 2**130))
names = st.one_of(st.sampled_from(["", "app.jitter.r0", "ft.fetch.r3", "réseau-✓"]),
                  st.text(max_size=20))
bounds = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(sorted)
draws = st.lists(
    st.one_of(st.just(("random",)), st.just(("random_raw",)),
              bounds.map(lambda low_high: ("uniform", *low_high))),
    min_size=1, max_size=40)


def mismatch(stream, seed, name, program):
    """Index of the first draw where ``stream`` leaves numpy's, else None."""
    sequence = np.random.SeedSequence([seed, zlib.crc32(name.encode("utf-8"))])
    bits = np.random.PCG64(sequence)
    generator = np.random.Generator(bits)
    oracle = {"random": generator.random, "uniform": generator.uniform,
              "random_raw": bits.random_raw}
    for index, (draw, *args) in enumerate(program):
        if getattr(stream, draw)(*args) != oracle[draw](*args):
            return index
    return None


@settings(max_examples=300, deadline=None)
@given(seeds, names, draws)
def test_stream_is_numpy_generator_float_for_float(seed, name, program):
    assert mismatch(RngRegistry(seed).stream(name), seed, name, program) is None


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_seed_boundaries_against_the_oracle(seed):
    """One word, the last one-word seed, the first two-word one, three
    words, and what ``fork()`` produces."""
    program = [("random_raw",), ("random",), ("uniform", -0.05, 0.05)] * 50
    assert mismatch(RngRegistry(seed).stream("x"), seed, "x", program) is None


def test_fork_is_total_for_any_non_negative_parent():
    child = RngRegistry(2**70).fork(3).fork(0)
    assert child.seed == (2**70 * 1_000_003 + 3) * 1_000_003
    assert mismatch(child.stream("x"), child.seed, "x", [("random",)] * 5) is None


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_is_refused_up_front_by_name(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        RngRegistry(seed)
    with pytest.raises(ValueError, match="seed"):
        RngRegistry(0).fork(seed)


def test_numpy_stream_is_the_same_stream_with_distributions():
    registry = RngRegistry(7)
    generator = registry.numpy_stream("run.failures")
    assert isinstance(generator, np.random.Generator)
    assert generator is registry.numpy_stream("run.failures")
    assert "run.failures" in registry and "other" not in registry
    pure = RngRegistry(7).stream("run.failures")
    assert [generator.random() for _ in range(5)] == [pure.random() for _ in range(5)]


# ------------------------------------------------------- the rig's negatives
class RotatesByTheWrongBits(Stream):
    """Takes the rotation from the top six bits of the *low* half."""

    def random_raw(self):
        self._step()
        state = self._state
        value = (state >> 64 ^ state) & (2**64 - 1)
        rotation = state >> 58 & 63
        return (value >> rotation | value << (64 - rotation)) & (2**64 - 1)


class SkipsTheSecondSeedingStep(Stream):
    """``srandom`` without its final LCG step."""

    def _seed(self, initstate, initseq):
        self._increment = (initseq << 1 | 1) & (2**128 - 1)
        self._state = 0
        self._step()
        self._state = (self._state + initstate) & (2**128 - 1)


class FiftyTwoBitMantissa(Stream):
    """Drops one bit too many: a float of 52 random bits."""

    def random(self):
        return (self.random_raw() >> 12) * 2.0**-52


@pytest.mark.parametrize("broken, witness", [
    (RotatesByTheWrongBits, [("random_raw",)]),
    (SkipsTheSecondSeedingStep, [("random_raw",)]),
    # half of all draws have the dropped bit clear
    (FiftyTwoBitMantissa, [("uniform", -0.05, 0.05)] * 8),
])
def test_a_broken_stream_is_caught(broken, witness):
    assert mismatch(Stream(5, "x"), 5, "x", witness) is None
    assert mismatch(broken(5, "x"), 5, "x", witness) is not None
