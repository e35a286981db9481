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
from scipy.special import ndtri

__all__ = [
    "STREAM_VERSION",
    "RngStreams",
    "open_uniform",
    "laplace_noise",
    "standard_normal",
]


STREAM_VERSION = 2  # in every experiment manifest; each stream change bumps it (README)


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


_HALF_STEP = np.float64(2.0**-54)  # a NumPy scalar, so that one draw is an np.float64 too
_TOP = np.float64(1.0 - 2.0**-53)  # the largest float below 1


def open_uniform(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform draws ``(m + 0.5) * 2**-53`` for m uniform on 0 .. 2**53 - 1, on a fixed grid.

    Neither 0 nor 1 is drawn, so inverse-CDF transforms see no infinity: the top point
    (m = 2**53 - 1, probability 2**-53 a draw) rounds to 1.0 and is clamped to 1 - 2**-53.
    ``rng.random`` makes m * 2**-53 from one 64-bit word x of the stream with
    m = x >> 11: the same word and the same m that ``rng.integers(0, 2**53)`` draws
    (its bounded draw, Lemire's method, never rejects when the range is a power of two).
    Adding 2**-54 then rounds as ``(m + 0.5) * 2**-53`` does, since scaling by a
    power of two commutes with rounding, so the two forms give the same bits.
    """
    u = rng.random(size)
    u += _HALF_STEP
    return np.minimum(u, _TOP, out=None if size is None else u)


def laplace_noise(rng: np.random.Generator, scale, size=None) -> np.ndarray:
    """Laplace(scale) draws via inverse CDF on a uniform, for cross-platform reproducibility.

    ``scale`` is the b in density (1/2b) exp(-|x|/b); it may broadcast against ``size``.
    The shift and the doubling run in place: the same IEEE operations as
    ``-scale * sign(u) * log1p(-2 |u|)`` on ``u = open_uniform(rng, size) - 0.5``.
    """
    u = open_uniform(rng, size)
    u -= 0.5
    tail = np.abs(u)
    tail *= -2.0
    return -np.asarray(scale, dtype=float) * np.sign(u) * np.log1p(tail)


def standard_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    """Standard normal draws via inverse CDF on a uniform (deterministic transform).

    ``ndtri`` is the function ``scipy.stats.norm.ppf`` evaluates, without that
    method's argument handling.
    """
    return ndtri(open_uniform(rng, size))
