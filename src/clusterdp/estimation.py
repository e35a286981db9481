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

from .model import (
    Design, PopulationDataset, PrivatizedRelease, ValidationError, arm_cells, unit_blocks,
)

__all__ = [
    "debias_rows",
    "tau_q",
    "per_cluster_contributions",
    "tau_no_dp",
]


def check_lambda_below_one(lam: float) -> None:
    """The one refusal of lam >= 1, where no debias row, estimator or its variance exists."""
    if lam >= 1.0:
        raise ValidationError("no debias rows: randomization matrix singular at lambda = 1")


def debias_rows(values: np.ndarray, q_tilde: np.ndarray, lam: float) -> np.ndarray:
    """Rows y^T Q^{-1} for a table of priors; broadcasts over leading axes of q_tilde.

    Entry j equals (values[j] - lam * <values, q>) / (1 - lam). Rows past the float
    range (outcome values near it, lam near 1) are refused, not returned as inf or NaN.
    """
    check_lambda_below_one(lam)
    q_tilde = np.asarray(q_tilde, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = (values - lam * (q_tilde @ values)[..., None]) / (1.0 - lam)
    if not np.isfinite(rows).all():
        raise ValidationError("debias rows overflow the float range")
    return rows


def _cluster_sums(values_per_unit, cluster, z, n1c, n0c, table=None) -> np.ndarray:
    """Per-cluster `mean(treated) - mean(control)` contrasts, weighted within arms.

    With ``table`` (C, 2, K), ``values_per_unit`` holds each unit's outcome index y, and
    the unit's value is its entry table[cluster, z, y].

    The pass goes a block of units at a time and adds each block into the arm sums by
    ``np.add.at``, so it holds no per-unit index or value. It adds the values of an arm
    one at a time in unit order, starting from zero, as one weighted ``bincount`` of
    every unit would, so the sums are the same bits.
    """
    sums = np.zeros(2 * len(n1c))
    for part in unit_blocks(len(cluster)):
        index, values = arm_cells(cluster[part], z[part]), values_per_unit[part]
        if table is not None:  # one flat gather
            values = table.take(arm_cells(cluster[part], z[part], values, table.shape[-1], index))
        np.add.at(sums, index, values)
    return sums[1::2] / n1c - sums[0::2] / n0c


def per_cluster_contributions(values_per_unit, cluster, design: Design, table=None) -> np.ndarray:
    """Terms (n_c/n) * [sum_i v_i z_i / n1c - sum_i v_i (1-z_i) / n0c], in cluster order.

    With ``table`` (C, 2, K), ``values_per_unit`` holds outcome indices y and v_i is
    table[cluster_i, z_i, y_i], gathered a block of units at a time.
    """
    sizes = design.n1c + design.n0c
    n = sizes.sum()
    contrast = _cluster_sums(values_per_unit, cluster, design.z, design.n1c, design.n0c, table)
    return (sizes / n) * contrast


def tau_q(release: PrivatizedRelease) -> float:
    """Debiased stratified estimator computed from released data only.

    Uses the privatized outcomes, the released design, cluster ids, and the
    debiasing rows of the released priors; it never sees true outcomes.
    """
    rows, design = release.debias, release.design
    return float(per_cluster_contributions(release.y_tilde, release.cluster, design, rows).sum())


def tau_no_dp(pop: PopulationDataset, design: Design) -> float:
    """Stratified difference-in-means on true observed outcomes (oracle baseline)."""
    vals = pop.space.array
    observed = vals[pop.observed(design)]
    return float(per_cluster_contributions(observed, pop.cluster, design).sum())
