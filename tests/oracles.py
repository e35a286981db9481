"""Reference implementations that tests compare the library against.

The dense randomization matrix and its inverse check the closed-form
debiasing rows; the batched fixed-design kernel gives the many Monte Carlo
replications that the conditional-unbiasedness tests need; the per-cluster
loops over ``sample_variance`` check the vectorized closed-form variances.
"""

import numpy as np

from clusterdp.experiments import _batched_weights, _debiased_units
from clusterdp.mechanisms import arm_histograms, resample_draws
from clusterdp.model import MechanismKind, ValidationError
from clusterdp.rng import laplace_noise


def q_matrix(q_tilde, lam: float) -> np.ndarray:
    """Column-stochastic K x K matrix giving P(released = y' | true = y)."""
    q_tilde = np.asarray(q_tilde, dtype=float)
    k = q_tilde.shape[-1]
    return (1.0 - lam) * np.eye(k) + lam * np.outer(q_tilde, np.ones(k))


def q_inverse(q_tilde, lam: float) -> np.ndarray:
    """Rank-one-update inverse: I/(1-lam) - lam/(1-lam) q 1^T."""
    q_tilde = np.asarray(q_tilde, dtype=float)
    k = q_tilde.shape[-1]
    return (np.eye(k) - lam * np.outer(q_tilde, np.ones(k))) / (1.0 - lam)


def cluster_taus_fixed_design(pop, design, params, streams, reps: int) -> np.ndarray:
    """Batched replications of the cluster mechanism at a fixed assignment.

    Chunk ``ci`` of 5000 replications draws its Laplace noise and then its
    resampling uniforms from ``streams.generator("batch", ci)``.
    """
    assert params.kind is MechanismKind.CLUSTER_DP
    params.check_gamma(pop.space.k)
    hist = arm_histograms(pop, design)
    w_unit = _batched_weights(design.z, pop, design.n1c, design.n0c, True)
    out = np.empty(reps)
    for ci, start in enumerate(range(0, reps, 5000)):
        m = min(5000, reps - start)
        g = streams.generator("batch", ci)
        std = laplace_noise(g, 1.0, (m, *hist.counts.shape))
        per_unit = _debiased_units(
            pop, design, params, hist, std, *resample_draws(g, (m, pop.n))
        )
        out[start : start + m] = per_unit @ w_unit
    return out


def sample_variance(u) -> float:
    """Unbiased sample variance S^2(u) = sum (u - mean)^2 / (len - 1)."""
    u = np.asarray(u, dtype=float)
    if u.size < 2:
        raise ValidationError("sample variance needs at least 2 entries")
    return float(u.var(ddof=1))


def _cluster_outcome_values(pop):
    vals = pop.space.array
    for members in pop.members:
        yield vals[pop.y0[members]], vals[pop.y1[members]]


def ht_variance_loop(pop, design) -> float:
    """Per cluster, left to right: (n_c/n)^2 [S^2(y(1))/n1c + S^2(y(0))/n0c - S^2(y(1)-y(0))/n_c]."""
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


def ht_variance_unstratified_loop(pop, n1, n0) -> float:
    vals = pop.space.array
    y0, y1 = vals[pop.y0], vals[pop.y1]
    return (
        sample_variance(y1) / n1
        + sample_variance(y0) / n0
        - sample_variance(y1 - y0) / pop.n
    )


def homogeneity_loop(pop, design, arm) -> float:
    n = pop.n
    counts = design.n1c if arm == 1 else design.n0c
    total = 0.0
    for c, (y0, y1) in enumerate(_cluster_outcome_values(pop)):
        y = y1 if arm == 1 else y0
        total += (pop.cluster_sizes[c] / n) ** 2 * sample_variance(y) / counts[c]
    return total


def uniform_prior_variance_loop(pop, design, lam, stratified=True) -> float:
    space = pop.space
    vals = space.array
    ym, ym2 = space.mean, space.mean_sq
    shrink = (1.0 - lam) ** 2
    space_term_unit = (lam * ym2 - lam**2 * ym**2) / shrink
    n = pop.n
    if stratified:
        total = ht_variance_loop(pop, design)
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
    total = ht_variance_unstratified_loop(pop, n1, n0)
    total += n / (n1 * n0) * space_term_unit
    total += lam / (1.0 - lam) * ((y0**2).mean() / n0 + (y1**2).mean() / n1)
    total -= 2.0 * lam * ym / (1.0 - lam) * (y0.mean() / n0 + y1.mean() / n1)
    return total
