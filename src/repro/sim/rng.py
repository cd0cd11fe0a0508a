"""Reproducible, named random streams.

Every stochastic component in the simulator (compute-time jitter, failure
injection, launch skew, ...) draws from its own named stream.  Streams are
derived from the root seed and the stream name only, so adding a new consumer
never perturbs the draws seen by existing components — a property the
regression tests rely on.

A stream is a pure-Python PCG64 (XSL-RR 128/64) seeded the way
``numpy.random.SeedSequence([seed, crc32(name)])`` seeds one, and yields
bit for bit what ``numpy.random.default_rng`` of that sequence yields for
``random()`` and ``uniform(a, b)`` — the few hundred draws a figure makes do
not pay numpy's import (~20 MB resident, 0.15-0.35 s).  The two
distributions the Poisson failure injector needs, ``exponential(mean)`` (by
inversion) and ``integers(n)`` (by rejection), are this module's own: they
match numpy's in distribution, not bit for bit.  ``numpy`` is only the
oracle the tests compare against (``tests/sim/test_rng_reference.py``);
nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

__all__ = ["RngRegistry", "Stream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _stable_hash(name: str) -> int:
    """A hash of ``name`` that is stable across processes and Python builds."""
    return zlib.crc32(name.encode("utf-8"))


def _hasher(constant: int, multiplier: int):
    """SeedSequence's running hash: each call also advances its constant."""
    def hashed(value: int) -> int:
        nonlocal constant
        value ^= constant
        constant = constant * multiplier & _MASK32
        value = value * constant & _MASK32
        return value ^ value >> 16
    return hashed


def _mixed(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return value ^ value >> 16


def _seed_words(entropy: List[int]) -> List[int]:
    """SeedSequence: hash ``entropy`` into a 4-word pool, draw 4 64-bit words."""
    hashed = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashed(word) for word in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mixed(pool[dst], hashed(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mixed(pool[dst], hashed(word))
    hashed = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashed(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The PCG64 stream ``name`` under root ``seed``: ``random()``,
    ``uniform(low, high)``, ``exponential(mean)`` and ``integers(n)``."""

    __slots__ = ("_state", "_increment")

    def __init__(self, seed: int, name: str) -> None:
        # [seed, crc32(name)] as SeedSequence's 32-bit words, low word first
        entropy = [seed & _MASK32]
        while seed := seed >> 32:
            entropy.append(seed & _MASK32)
        entropy.append(_stable_hash(name))
        state_hi, state_lo, seq_hi, seq_lo = _seed_words(entropy)
        self._seed(state_hi << 64 | state_lo, seq_hi << 64 | seq_lo)

    def _seed(self, initstate: int, initseq: int) -> None:
        """PCG's ``srandom``: step, add the state, step again."""
        self._increment = (initseq << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + initstate) & _MASK128
        self._step()

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULTIPLIER + self._increment) & _MASK128

    def random_raw(self) -> int:
        """The next 64 bits: xor the halves, rotate right by the top 6 bits."""
        self._step()
        state = self._state
        value = (state >> 64 ^ state) & _MASK64
        rotation = state >> 122
        return (value >> rotation | value << (64 - rotation)) & _MASK64

    def random(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self.random_raw() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """Uniform on [low, high)."""
        return low + (high - low) * self.random()

    def exponential(self, mean: float) -> float:
        """Exponential with the given mean, by inversion: one word per draw."""
        if not mean > 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return -mean * math.log1p(-self.random())

    def integers(self, n: int) -> int:
        """Uniform on ``range(n)``: redraw the top ``2**64 % n`` words, which
        would favour the low residues, then reduce."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n!r}")
        limit = (1 << 64) - (1 << 64) % n
        raw = self.random_raw()
        while raw >= limit:
            raw = self.random_raw()
        return raw % n


class RngRegistry:
    """Factory and cache of named random streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self._streams: Dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = Stream(self.seed, name)
        return stream
