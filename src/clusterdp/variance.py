"""Exact randomization variances, the cluster-quality gap bound, and baseline gaps.

Everything here is a pure formula of the design counts and the population's
type counts ``PopulationDataset.types``: the nonzero cells of its (C, K, K)
table of units per (cluster, y0, y1). No formula reads the units. Monte Carlo
validation of these formulas lives in the experiments harness and the test suite.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .estimation import check_lambda_below_one
from .mechanisms import histogram_scales, ht_scales
from .model import Design, MechanismParams, OutcomeSpace, PopulationDataset, ValidationError

__all__ = [
    "VarianceReport",
    "ht_variance",
    "homogeneity",
    "a_of_x",
    "cluster_dp_variance_bound",
    "uniform_prior_variance",
    "baseline_gaps",
]


@dataclass(frozen=True)
class VarianceReport:
    """A variance number with its provenance and a named term breakdown.

    ``kind`` is one of ``exact`` (closed form), ``upper_bound``, or
    ``monte_carlo``; ``value`` is the total variance (or its bound) and
    ``components`` names the additive pieces.
    """

    no_dp_variance: float
    value: float
    kind: str
    components: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "no_dp_variance": self.no_dp_variance,
            "value": self.value,
            "kind": self.kind,
            "components": dict(self.components),
        }


class _Moments(NamedTuple):
    """Per-stratum moments; row r of ``mean``, ``mean_sq`` and ``s2`` is y0, y1, y1 - y0."""

    size: np.ndarray
    weight: np.ndarray  # (n_s / n)^2
    mean: np.ndarray
    mean_sq: np.ndarray
    s2: np.ndarray


def _moments(pop: PopulationDataset) -> _Moments:
    """Size, mean, mean square and sample variance S^2 of y0, y1 and y1 - y0 per cluster.

    The clusters are the strata; ``pop.pooled()`` makes all units one stratum
    (complete randomization). Reads only the nonzero cells of ``pop.types``:
    count-weighted sums and sums of squares per cluster, then count-weighted
    squared deviations from the cluster means.
    """
    (c, i, j, count), size = pop.types, pop.cluster_sizes
    vals = pop.space.array
    y0, y1 = vals[i], vals[j]
    ys = (y0, y1, y1 - y0)

    def sums(rows):
        return np.stack([np.bincount(c, count * r, len(size)) for r in rows])

    mean = sums(ys) / size
    mean_sq = sums(y * y for y in ys) / size
    s2 = sums((y - mu[c]) ** 2 for y, mu in zip(ys, mean)) / (size - 1)
    return _Moments(size, (size / pop.n) ** 2, mean, mean_sq, s2)


def _ht(m: _Moments, n0c, n1c) -> float:
    """sum_s (n_s/n)^2 [S^2(y(1))/n1s + S^2(y(0))/n0s - S^2(y(1)-y(0))/n_s]."""
    return float(np.sum(m.weight * (m.s2[1] / n1c + m.s2[0] / n0c - m.s2[2] / m.size)))


def ht_variance(pop: PopulationDataset, design: Design) -> float:
    """Exact randomization variance of the stratified difference-in-means estimator.

    Per cluster: (n_c/n)^2 [S^2(y(1))/n1c + S^2(y(0))/n0c - S^2(y(1)-y(0))/n_c];
    the last term may be negative, the total never is.
    """
    return _ht(_moments(pop), design.n0c, design.n1c)


def homogeneity(pop: PopulationDataset, design: Design, arm: int) -> float:
    """Size-weighted average intra-cluster outcome variance for one arm.

    phi_a = sum_c (n_c/n)^2 S^2(y_c(a)) / n_{a,c}; zero iff each cluster's
    arm-a outcomes sit in a singleton set.
    """
    m = _moments(pop)
    return float(np.sum(m.weight * m.s2[arm] / (design.n0c, design.n1c)[arm]))


def _bracket(x, gamma: float, sigma: float):
    """Expected clip-or-noise mass gamma + (sigma/x)(e^{-gamma x/sigma} - e^{-x/sigma}).

    Elementwise in ``x``. sigma limits are taken analytically: the noise term
    tends to (1 - gamma) as sigma -> inf and to 0 as sigma -> 0. The difference
    is taken of expm1, not exp: at large sigma both exponentials round to
    nearly 1, and their difference, scaled by sigma/x, would be mostly rounding.
    """
    if sigma == 0.0:
        return np.full(np.shape(x), gamma)
    if math.isinf(sigma):
        return np.ones(np.shape(x))
    return gamma + (sigma / x) * (np.expm1(-gamma * x / sigma) - np.expm1(-x / sigma))


def a_of_x(x, space: OutcomeSpace, params: MechanismParams):
    """Cluster-agnostic term of the variance-gap bound, per arm size x (a float or an array).

    The squared-norm tail is multiplied by the rank-one factor (lam sqrt(K)+1)^2:

      2K [B^2 (3/(1-lam)^2 + 2)
          + (lam sqrt(K)+1)^2/(1-lam)^2 * |y|_2^2 (1 - lam (K-1) gamma)] * bracket
    """
    if np.any(np.asarray(x) < 1):
        raise ValidationError("arm size x must be >= 1")
    lam, gamma, sigma = params.lam, params.gamma, params.sigma
    check_lambda_below_one(lam)
    k = space.k
    shrink = (1.0 - lam) ** 2
    rank_one = (lam * math.sqrt(k) + 1.0) ** 2
    tail = space.l2_sq * (1.0 - lam * (k - 1) * gamma)
    multiplier = space.max_abs**2 * (3.0 / shrink + 2.0) + rank_one / shrink * tail
    a = 2.0 * k * multiplier * _bracket(x, gamma, sigma)
    return a if np.ndim(x) else float(a)


@contextmanager
def _squares_in_float_range(space: OutcomeSpace):
    """Run a formula that squares outcome values; yield a check that its numbers are finite.

    Values well inside the float range (|y| past about 1.3e154) can overflow
    a squared term, and an infinity or NaN would then be reported as a
    variance. Inside the block NumPy's overflow warnings are silenced; a
    non-finite number passed to the check, or a Python float squared past
    the range, raises a ValidationError that names the values.
    """

    def check(*numbers: float) -> None:
        if not all(math.isfinite(x) for x in numbers):
            raise ValidationError(
                f"outcome values {space.values} are too large: the variance formulas overflow"
            )

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield check
    except OverflowError:
        check(math.inf)


def cluster_dp_variance_bound(
    pop: PopulationDataset,
    design: Design,
    params: MechanismParams,
) -> VarianceReport:
    """Upper bound on Var[tau_hat] for the cluster mechanism, with its gap split.

    The gap over the no-DP variance is at most
    (1/(1-lam)^2 - 1)(phi_0 + phi_1) + sum_a sum_c (n_c/n)^2 A(n_{a,c})/n_{a,c};
    the homogeneity term alone is the reported lower boundary of the band.
    """
    lam = params.lam
    check_lambda_below_one(lam)
    params.check_gamma(pop.space.k)
    with _squares_in_float_range(pop.space) as check:
        no_dp = ht_variance(pop, design)
        phi0 = homogeneity(pop, design, 0)
        phi1 = homogeneity(pop, design, 1)
        homo_term = (1.0 / (1.0 - lam) ** 2 - 1.0) * (phi0 + phi1)
        counts = design.arm_counts()
        weight = (pop.cluster_sizes / pop.n) ** 2
        a_term = float(np.sum(weight[:, None] * a_of_x(counts, pop.space, params) / counts))
        report = VarianceReport(
            no_dp_variance=no_dp,
            value=no_dp + homo_term + a_term,
            kind="upper_bound",
            components={
                "homogeneity_term": homo_term,
                "a_term": a_term,
                "gap_lower": homo_term,
                "gap_upper": homo_term + a_term,
                "phi0": phi0,
                "phi1": phi1,
            },
        )
        check(no_dp, report.value, *report.components.values())
    return report


def uniform_prior_variance(pop: PopulationDataset, design: Design, lam: float) -> float:
    """Exact variance of the uniform-prior estimator over assignment and resampling.

    Adds to the no-DP variance a space-level term driven by the uniform draw's
    moments and a population-level term driven by per-cluster outcome moments.
    The unstratified form (complete randomization) is this on ``pop.pooled()``.
    """
    check_lambda_below_one(lam)
    with _squares_in_float_range(pop.space) as check:
        ym, ym2 = pop.space.mean, pop.space.mean_sq
        space_term_unit = (lam * ym2 - lam**2 * ym**2) / (1.0 - lam) ** 2
        m = _moments(pop)
        inv0, inv1 = 1.0 / design.n0c, 1.0 / design.n1c
        per_stratum = (
            (inv0 + inv1) * space_term_unit
            + lam / (1.0 - lam) * (m.mean_sq[0] * inv0 + m.mean_sq[1] * inv1)
            - 2.0 * lam * ym / (1.0 - lam) * (m.mean[0] * inv0 + m.mean[1] * inv1)
        )
        variance = _ht(m, design.n0c, design.n1c) + float(np.sum(m.weight * per_stratum))
        check(variance)
    return variance


def baseline_gaps(
    pop: PopulationDataset, design: Design, epsilon: float
) -> tuple[float, float]:
    """Exact added variances of the two aggregate baselines at privacy level epsilon.

    A Laplace draw of scale b has variance 2 b^2. With w_c = n_c/n and the
    scales b the draws use: noisy Horvitz-Thompson 2 sum_c (w_c b_c)^2
    (``ht_scales``), noisy histogram 2 |y|^2 sum_c w_c^2 (b_c0^2 + b_c1^2)
    (``histogram_scales``).
    """
    weights = pop.cluster_sizes / pop.n
    with np.errstate(over="ignore"):  # a scale, |y|^2 or a product past the float range is inf
        nht = 2.0 * float(np.sum((weights * ht_scales(design, pop.space, epsilon)) ** 2))
        nh_sum = float(np.sum((weights[:, None] * histogram_scales(design, epsilon)) ** 2))
        nh = 2.0 * pop.space.l2_sq * nh_sum if nh_sum else 0.0  # no noise, no variance, any |y|^2
    if not (math.isfinite(nht) and math.isfinite(nh)):
        raise ValidationError(f"baseline gaps overflow at epsilon={epsilon!r} and outcome values "
                              f"{pop.space.values}: epsilon is too small or the values too large")
    return nht, nh
