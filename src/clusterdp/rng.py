"""Deterministic named random streams derived from a single master seed.

Every source of randomness in the package is a named sub-stream of one
master seed, keyed by a path of labels (e.g. ``("rep", 17, "laplace")``).
Streams are backed by the counter-based Philox generator, so adding more
replications or more named streams never perturbs draws made on existing
paths, and results are reproducible across platforms and thread counts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

__all__ = [
    "RngStreams",
    "open_uniform",
    "laplace_noise",
    "standard_normal",
]


def _label_word(label) -> int:
    """Map a stream label to a stable 32-bit word (ints pass through)."""
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError("integer stream labels must be non-negative")
        return int(label)
    return zlib.crc32(str(label).encode("utf-8"))


@dataclass(frozen=True)
class RngStreams:
    """A node in the seed hierarchy; `child` splits it, `generator` instantiates it."""

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *labels) -> "RngStreams":
        return RngStreams(self.seed, self.path + tuple(_label_word(w) for w in labels))

    def generator(self, *labels) -> np.random.Generator:
        node = self.child(*labels) if labels else self
        seq = np.random.SeedSequence(entropy=node.seed, spawn_key=node.path)
        return np.random.Generator(np.random.Philox(seq))


def open_uniform(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws on the open interval (0, 1), on a fixed 2**53 grid.

    Endpoints are excluded so inverse-CDF transforms never produce infinities.
    The shift and scale run in place on the converted draws: the same two IEEE
    operations as ``(x + 0.5) * 2**-53``, with no second array.
    """
    u = rng.integers(0, 1 << 53, size=size).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def laplace_noise(rng: np.random.Generator, scale, size=None) -> np.ndarray:
    """Laplace(scale) draws via inverse CDF on a uniform, for cross-platform reproducibility.

    ``scale`` is the b in density (1/2b) exp(-|x|/b); it may broadcast against ``size``.
    """
    u = open_uniform(rng, size) - 0.5
    return -np.asarray(scale, dtype=float) * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def standard_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    """Standard normal draws via inverse CDF on a uniform (deterministic transform)."""
    return norm.ppf(open_uniform(rng, size))
