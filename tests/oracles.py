"""Reference implementations that tests compare the library against.

The dense randomization matrix and its inverse check the closed-form
debiasing rows; the batched fixed-design kernel gives the many Monte Carlo
replications that the conditional-unbiasedness tests need.
"""

import numpy as np

from clusterdp.experiments import _batched_weights, _debiased_units
from clusterdp.mechanisms import arm_histograms, resample_draws
from clusterdp.model import MechanismKind
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
