"""Closed-form debiasing and the estimators.

The randomization matrix for a resampling distribution q and resampling
probability lam is ``Q[y', y] = (1-lam) * 1(y'=y) + lam * q[y']``, i.e. a
scaled identity plus a rank-one term, so its inverse has the closed form
``Q^{-1} = I/(1-lam) - lam/(1-lam) * q 1^T`` and the debiasing row
``y^T Q^{-1}`` costs O(K) to evaluate; ``tests/oracles.py`` checks it against the
dense inverse.
"""

from __future__ import annotations

import numpy as np

from .model import Design, PopulationDataset, PrivatizedRelease, ValidationError

__all__ = [
    "debias_rows",
    "tau_q",
    "per_cluster_contributions",
    "tau_no_dp",
]


def debias_rows(values: np.ndarray, q_tilde: np.ndarray, lam: float) -> np.ndarray:
    """Rows y^T Q^{-1} for a table of priors; broadcasts over leading axes of q_tilde.

    Entry j equals (values[j] - lam * <values, q>) / (1 - lam).
    """
    if lam >= 1.0:
        raise ValidationError("randomization matrix singular at lambda = 1")
    q_tilde = np.asarray(q_tilde, dtype=float)
    prior_mean = q_tilde @ values
    return (values - lam * prior_mean[..., None]) / (1.0 - lam)


def _cluster_sums(values_per_unit, cluster, z, n1c, n0c) -> np.ndarray:
    """Per-cluster `mean(treated) - mean(control)` contrasts, weighted within arms."""
    c = len(n1c)
    sums = np.bincount(cluster * 2 + z, weights=values_per_unit, minlength=2 * c).reshape(c, 2)
    return sums[:, 1] / n1c - sums[:, 0] / n0c


def per_cluster_contributions(values_per_unit, cluster, design: Design) -> np.ndarray:
    """Terms (n_c/n) * [sum_i v_i z_i / n1c - sum_i v_i (1-z_i) / n0c], in cluster order."""
    sizes = design.n1c + design.n0c
    n = sizes.sum()
    contrast = _cluster_sums(values_per_unit, cluster, design.z, design.n1c, design.n0c)
    return (sizes / n) * contrast


def tau_q(release: PrivatizedRelease) -> float:
    """Debiased stratified estimator computed from released data only.

    Uses the privatized outcomes, the released design, cluster ids, and the
    released debiasing rows; it never sees true outcomes (post-processing purity).
    """
    rows, design = release.debias, release.design
    if not np.all(np.isfinite(rows)):
        raise ValidationError("missing debias row (lambda = 1 release cannot be debiased)")
    per_unit = rows[release.cluster, design.z, release.y_tilde]
    return float(per_cluster_contributions(per_unit, release.cluster, design).sum())


def tau_no_dp(pop: PopulationDataset, design: Design) -> float:
    """Stratified difference-in-means on true observed outcomes (oracle baseline)."""
    vals = pop.space.array
    observed = vals[pop.observed(design)]
    return float(per_cluster_contributions(observed, pop.cluster, design).sum())
