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

from .model import Design, PopulationDataset, PrivatizedRelease, ValidationError, arm_cells

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
        raise ValidationError("no debias rows: randomization matrix singular at lambda = 1")
    q_tilde = np.asarray(q_tilde, dtype=float)
    prior_mean = q_tilde @ values
    return (values - lam * prior_mean[..., None]) / (1.0 - lam)


def _cluster_sums(values_per_unit, cluster, z, n1c, n0c, arm_index=None) -> np.ndarray:
    """Per-cluster `mean(treated) - mean(control)` contrasts, weighted within arms.

    ``arm_index`` is ``arm_cells(cluster, z)`` where the caller already holds it.
    """
    if arm_index is None:
        arm_index = arm_cells(cluster, z)
    sums = np.bincount(arm_index, weights=values_per_unit, minlength=2 * len(n1c))
    return sums[1::2] / n1c - sums[0::2] / n0c


def per_cluster_contributions(values_per_unit, cluster, design: Design,
                              arm_index=None) -> np.ndarray:
    """Terms (n_c/n) * [sum_i v_i z_i / n1c - sum_i v_i (1-z_i) / n0c], in cluster order.

    ``arm_index``, if given, is ``arm_cells(cluster, design.z)``.
    """
    sizes = design.n1c + design.n0c
    n = sizes.sum()
    contrast = _cluster_sums(values_per_unit, cluster, design.z, design.n1c, design.n0c,
                             arm_index)
    return (sizes / n) * contrast


def tau_q(release: PrivatizedRelease) -> float:
    """Debiased stratified estimator computed from released data only.

    Uses the privatized outcomes, the released design, cluster ids, and the
    debiasing rows of the released priors; it never sees true outcomes.
    """
    rows, design = release.debias, release.design
    if not np.isfinite(rows).all():
        raise ValidationError("debias rows overflow the float range")
    arm_index = arm_cells(release.cluster, design.z)
    cell = arm_cells(release.cluster, design.z, release.y_tilde, release.space.k, arm_index)
    per_unit = rows.take(cell)  # one flat gather of rows[cluster, z, y_tilde]
    return float(per_cluster_contributions(per_unit, release.cluster, design, arm_index).sum())


def tau_no_dp(pop: PopulationDataset, design: Design) -> float:
    """Stratified difference-in-means on true observed outcomes (oracle baseline)."""
    vals = pop.space.array
    observed = vals[pop.observed(design)]
    return float(per_cluster_contributions(observed, pop.cluster, design).sum())
