"""Exact randomization variances, the cluster-quality gap bound, and baseline gaps.

Everything here is a pure formula of the population's potential outcomes and
the design counts; Monte Carlo validation of these formulas lives in the
experiments harness and the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Design, MechanismParams, OutcomeSpace, PopulationDataset, ValidationError

__all__ = [
    "VarianceReport",
    "sample_variance",
    "ht_variance",
    "ht_variance_unstratified",
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


def sample_variance(u) -> float:
    """Unbiased sample variance S^2(u) = sum (u - mean)^2 / (len - 1)."""
    u = np.asarray(u, dtype=float)
    if u.size < 2:
        raise ValidationError("sample variance needs at least 2 entries")
    return float(u.var(ddof=1))


def _cluster_outcome_values(pop: PopulationDataset):
    vals = pop.space.array
    for members in pop.members:
        yield vals[pop.y0[members]], vals[pop.y1[members]]


def ht_variance(pop: PopulationDataset, design: Design) -> float:
    """Exact randomization variance of the stratified difference-in-means estimator.

    Per cluster: (n_c/n)^2 [S^2(y(1))/n1c + S^2(y(0))/n0c - S^2(y(1)-y(0))/n_c];
    the last term may be negative, the total never is.
    """
    n = pop.n
    total = 0.0
    for c, (y0, y1) in enumerate(_cluster_outcome_values(pop)):
        w = (pop.cluster_sizes[c] / n) ** 2
        total += w * (
            sample_variance(y1) / design.n1c[c]
            + sample_variance(y0) / design.n0c[c]
            - sample_variance(y1 - y0) / pop.cluster_sizes[c]
        )
    return total


def ht_variance_unstratified(pop: PopulationDataset, n1: int, n0: int) -> float:
    """Single-stratum version: variance of the pooled estimator under complete randomization."""
    vals = pop.space.array
    y0, y1 = vals[pop.y0], vals[pop.y1]
    return (
        sample_variance(y1) / n1
        + sample_variance(y0) / n0
        - sample_variance(y1 - y0) / pop.n
    )


def homogeneity(pop: PopulationDataset, design: Design, arm: int) -> float:
    """Size-weighted average intra-cluster outcome variance for one arm.

    phi_a = sum_c (n_c/n)^2 S^2(y_c(a)) / n_{a,c}; zero iff each cluster's
    arm-a outcomes sit in a singleton set.
    """
    n = pop.n
    counts = design.n1c if arm == 1 else design.n0c
    total = 0.0
    for c, (y0, y1) in enumerate(_cluster_outcome_values(pop)):
        y = y1 if arm == 1 else y0
        total += (pop.cluster_sizes[c] / n) ** 2 * sample_variance(y) / counts[c]
    return total


def _bracket(x: float, gamma: float, sigma: float) -> float:
    """Expected clip-or-noise mass gamma + (sigma/x)(e^{-gamma x/sigma} - e^{-x/sigma}).

    sigma limits are taken analytically: the noise term tends to (1 - gamma)
    as sigma -> inf and to 0 as sigma -> 0.
    """
    if sigma == 0.0:
        return gamma
    if math.isinf(sigma):
        return 1.0
    return gamma + (sigma / x) * (
        math.exp(-gamma * x / sigma) - math.exp(-x / sigma)
    )


def a_of_x(x: float, space: OutcomeSpace, params: MechanismParams) -> float:
    """Cluster-agnostic term of the variance-gap bound, per arm-size x.

    The squared-norm tail is multiplied by the rank-one factor (lam sqrt(K)+1)^2:

      2K [B^2 (3/(1-lam)^2 + 2)
          + (lam sqrt(K)+1)^2/(1-lam)^2 * |y|_2^2 (1 - lam (K-1) gamma)] * bracket
    """
    if x < 1:
        raise ValidationError("arm size x must be >= 1")
    lam, gamma, sigma = params.lam, params.gamma, params.sigma
    if lam >= 1.0:
        raise ValidationError("variance bound undefined at lambda = 1")
    k = space.k
    b_sq = space.max_abs**2
    l2_sq = space.l2_sq
    shrink = (1.0 - lam) ** 2
    rank_one = (lam * math.sqrt(k) + 1.0) ** 2
    tail = l2_sq * (1.0 - lam * (k - 1) * gamma)
    multiplier = b_sq * (3.0 / shrink + 2.0) + rank_one / shrink * tail
    return 2.0 * k * multiplier * _bracket(x, gamma, sigma)


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
    no_dp = ht_variance(pop, design)
    lam = params.lam
    phi0 = homogeneity(pop, design, 0)
    phi1 = homogeneity(pop, design, 1)
    homo_term = (1.0 / (1.0 - lam) ** 2 - 1.0) * (phi0 + phi1)
    n = pop.n
    a_term = 0.0
    for c in range(pop.n_clusters):
        w = (pop.cluster_sizes[c] / n) ** 2
        for count in (design.n0c[c], design.n1c[c]):
            a_term += w * a_of_x(int(count), pop.space, params) / count
    return VarianceReport(
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


def uniform_prior_variance(
    pop: PopulationDataset,
    design: Design,
    lam: float,
    stratified: bool = True,
) -> float:
    """Exact variance of the uniform-prior estimator over assignment and resampling.

    Adds to the no-DP variance a space-level term driven by the uniform draw's
    moments and a population-level term driven by per-cluster outcome moments.
    The unstratified form treats all units as one cluster (complete
    randomization) and uses population-level moments throughout.
    """
    if lam >= 1.0:
        raise ValidationError("estimator undefined at lambda = 1")
    space = pop.space
    vals = space.array
    ym, ym2 = space.mean, space.mean_sq
    shrink = (1.0 - lam) ** 2
    space_term_unit = (lam * ym2 - lam**2 * ym**2) / shrink
    n = pop.n
    if stratified:
        total = ht_variance(pop, design)
        for c, (y0, y1) in enumerate(_cluster_outcome_values(pop)):
            w = (pop.cluster_sizes[c] / n) ** 2
            inv0, inv1 = 1.0 / design.n0c[c], 1.0 / design.n1c[c]
            total += w * (inv0 + inv1) * space_term_unit
            total += w * (
                lam / (1.0 - lam) * ((y0**2).mean() * inv0 + (y1**2).mean() * inv1)
                - 2.0 * lam * ym / (1.0 - lam) * (y0.mean() * inv0 + y1.mean() * inv1)
            )
        return total
    n1, n0 = design.n1, design.n0
    y0, y1 = vals[pop.y0], vals[pop.y1]
    total = ht_variance_unstratified(pop, n1, n0)
    total += n / (n1 * n0) * space_term_unit
    total += lam / (1.0 - lam) * ((y0**2).mean() / n0 + (y1**2).mean() / n1)
    total -= 2.0 * lam * ym / (1.0 - lam) * (y0.mean() / n0 + y1.mean() / n1)
    return total


def baseline_gaps(
    pop: PopulationDataset, design: Design, epsilon: float
) -> tuple[float, float]:
    """Exact added variances of the two aggregate baselines at privacy level epsilon.

    Noisy Horvitz-Thompson: 2 sum_c (n_c/n * Delta_c / eps)^2 with
    Delta_c = max|y| / min(n0c, n1c). Noisy histogram:
    (2/eps^2) (sum_y y^2) sum_c (n_c/n)^2 (1/n0c^2 + 1/n1c^2).
    """
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")
    if math.isinf(epsilon):
        return 0.0, 0.0
    weights = pop.cluster_sizes / pop.n
    delta_c = pop.space.max_abs / np.minimum(design.n0c, design.n1c)
    nht = 2.0 * float(np.sum((weights * delta_c / epsilon) ** 2))
    nh = (
        2.0
        / epsilon**2
        * pop.space.l2_sq
        * float(
            np.sum(weights**2 * (1.0 / design.n0c.astype(float) ** 2 + 1.0 / design.n1c.astype(float) ** 2))
        )
    )
    return nht, nh
