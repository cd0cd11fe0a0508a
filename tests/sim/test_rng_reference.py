"""The pure-Python stream against its oracle, and the rig against itself.

``repro.sim.rng.Stream`` exists so that a run's few hundred draws do not
import ``numpy``; it is only allowed to exist because it yields, float for
float, what ``numpy.random.default_rng(SeedSequence([seed, crc32(name)]))``
yielded before it — every golden result depends on that.  ``numpy`` is the
executable spec here: random programs of interleaved draws must agree
exactly, and three deliberately broken streams (each one plausible slip in
transcribing PCG64) must each be rejected by the same comparison.  The two
distributions the failure injector draws, ``exponential`` and ``integers``,
are not numpy's algorithms, so they are held to numpy's *distribution*
instead: a two-sample Kolmogorov-Smirnov test and a chi-square test, plus
the rejection path of ``integers`` driven by a stub word stream.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngRegistry, Stream

BOUNDARY_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**70]

seeds = st.one_of(st.sampled_from(BOUNDARY_SEEDS), st.integers(0, 2**32),
                  st.integers(0, 2**130))
names = st.one_of(st.sampled_from(["", "app.jitter.r0", "ft.fetch.r3", "réseau-✓"]),
                  st.text(max_size=20))
#: ``low <= high`` as numpy requires it: ``-0.0`` sorts before ``0.0``
#: (numpy rejects ``uniform(0.0, -0.0)``: ``high - low`` is ``-0.0``)
bounds = st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(
    lambda pair: sorted(pair, key=lambda x: (x, math.copysign(1.0, x))))
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
    """One word, the last one-word seed, the first two-word one, the last
    two-word one, and three words."""
    program = [("random_raw",), ("random",), ("uniform", -0.05, 0.05)] * 50
    assert mismatch(RngRegistry(seed).stream("x"), seed, "x", program) is None


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_is_refused_up_front_by_name(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        RngRegistry(seed)


# ------------------------------------------------ the injector's distributions
def ks_statistic(xs, ys):
    """Two-sample Kolmogorov-Smirnov D: the largest gap between the two
    empirical CDFs, walked over the merged sorted samples."""
    xs, ys = sorted(xs), sorted(ys)
    i = j = 0
    gap = 0.0
    while i < len(xs) and j < len(ys):
        at = min(xs[i], ys[j])
        while i < len(xs) and xs[i] == at:
            i += 1
        while j < len(ys) and ys[j] == at:
            j += 1
        gap = max(gap, abs(i / len(xs) - j / len(ys)))
    return gap


def test_exponential_matches_numpy_in_distribution():
    n = 10_000
    stream = RngRegistry(7).stream("run.failures")
    ours = [stream.exponential(3.0) for _ in range(n)]
    theirs = np.random.default_rng(11).exponential(3.0, n).tolist()
    # the two-sample critical value at alpha = 0.001: 1.949 * sqrt(2 / n)
    assert ks_statistic(ours, theirs) < 1.949 * math.sqrt(2 / n)
    assert abs(sum(ours) / n - 3.0) < 0.1
    assert min(ours) >= 0.0


def test_ks_statistic_sees_a_wrong_mean():
    """The KS test above has the power to reject: a mean off by 10 %."""
    n = 10_000
    stream = RngRegistry(7).stream("run.failures")
    ours = [stream.exponential(3.3) for _ in range(n)]
    theirs = np.random.default_rng(11).exponential(3.0, n).tolist()
    assert ks_statistic(ours, theirs) > 1.949 * math.sqrt(2 / n)


def test_integers_is_uniform_by_chi_square():
    n, per_bin = 7, 1_000
    stream = RngRegistry(7).stream("run.failures")
    counts = [0] * n
    for _ in range(n * per_bin):
        counts[stream.integers(n)] += 1
    chi_square = sum((count - per_bin) ** 2 / per_bin for count in counts)
    assert chi_square < 22.46  # 6 degrees of freedom, alpha = 0.001


class StubWords(Stream):
    """A stream whose 64-bit words are given, in order."""

    def __init__(self, words):
        super().__init__(0, "stub")
        self._words = iter(words)

    def random_raw(self):
        return next(self._words)


def test_integers_redraws_a_word_past_the_last_whole_cycle():
    n = 7
    limit = 2**64 - 2**64 % n
    assert limit % n == 0
    assert StubWords([limit, 12]).integers(n) == 5
    assert StubWords([limit - 1]).integers(n) == (limit - 1) % n
    assert StubWords([2**64 - 1, limit, 3]).integers(n) == 3


def test_integers_of_one_is_always_zero():
    stream = RngRegistry(3).stream("x")
    assert {stream.integers(1) for _ in range(50)} == {0}


@pytest.mark.parametrize("n", [0, -1])
def test_integers_refuses_an_empty_range_by_name(n):
    with pytest.raises(ValueError, match="n must be positive"):
        RngRegistry(0).stream("x").integers(n)


@pytest.mark.parametrize("mean", [0.0, -1.0, float("nan")])
def test_exponential_refuses_a_non_positive_mean_by_name(mean):
    with pytest.raises(ValueError, match="mean must be positive"):
        RngRegistry(0).stream("x").exponential(mean)


def test_registry_caches_streams_by_name():
    registry = RngRegistry(7)
    assert registry.stream("run.failures") is registry.stream("run.failures")
    assert set(registry._streams) == {"run.failures"}


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
