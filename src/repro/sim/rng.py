"""Reproducible, named random streams.

Every stochastic component in the simulator (compute-time jitter, failure
injection, launch skew, ...) draws from its own named stream.  Streams are
derived from the root seed and the stream name only, so adding a new consumer
never perturbs the draws seen by existing components — a property the
regression tests rely on.

``numpy`` is imported by the first :meth:`RngRegistry.stream` call, not by
this module: a run that draws no random number (the 10,000-rank launch)
pays neither the import time nor its ~16 MB of resident memory.
"""

from __future__ import annotations

import zlib
from typing import Dict

__all__ = ["RngRegistry"]


def _stable_hash(name: str) -> int:
    """A hash of ``name`` that is stable across processes and Python builds."""
    return zlib.crc32(name.encode("utf-8"))


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, "np.random.Generator"] = {}

    def stream(self, name: str) -> "np.random.Generator":
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            import numpy as np

            sequence = np.random.SeedSequence([self.seed, _stable_hash(name)])
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def fork(self, salt: int) -> "RngRegistry":
        """Derive an independent registry (used for per-run sub-seeding)."""
        return RngRegistry(self.seed * 1_000_003 + int(salt))
