"""Seedable, portable random streams.

Uniform variates come from numpy's Philox4x64-10 counter-based generator,
keyed by ``(seed, stream)``; distinct keys give statistically independent
streams, which is how per-particle and per-iteration substreams are derived.
Gaussian variates are produced by an explicit Box-Muller transform on the
uniform output (rather than numpy's ziggurat) so that any implementation of
Philox plus Box-Muller reproduces the same stream from the same key.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rng"]


class Rng:
    """Deterministic random stream identified by ``(seed, stream)``.

    Each ``normal`` call consumes ``2 * ceil(n/2)`` uniforms via Box-Muller,
    so call sequences (not just totals) determine the stream position.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, shape=None) -> np.ndarray:
        """Uniform float64 draws in [0, 1)."""
        return self._gen.random(size=shape, dtype=np.float64)

    def normal(self, shape=None) -> np.ndarray:
        """Standard-normal draws via Box-Muller on the uniform stream."""
        n = 1 if shape is None else int(np.prod(shape))
        half = (n + 1) // 2
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = 1.0 - self._gen.random(size=half, dtype=np.float64)
        u2 = self._gen.random(size=half, dtype=np.float64)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])[:n]
        if shape is None:
            return float(z[0])
        return z.reshape(shape)

    def integers(self, high: int, shape=None) -> np.ndarray:
        """Uniform integers in [0, high), via floor(high * uniform)."""
        if high <= 0:
            raise ValueError("high must be positive")
        u = self.uniform(shape)
        return np.minimum((u * high).astype(np.int64), high - 1)
