"""Reference implementations that tests compare the library against.

The dense randomization matrix and its inverse check the closed-form
debiasing rows; the batched fixed-design kernel (the prior fit, resampling and
debiasing on arrays with a leading replication axis) gives the many Monte Carlo
replications that the conditional-unbiasedness tests need; the per-cluster
loops over ``sample_variance`` check the vectorized closed-form variances;
the uniform-prior closed form checks the accountant at gamma = 1/K; the
row-by-row record reader checks the column reader of population files; the
(n, K) inverse-CDF resampler and the two per-arm bincounts check the
CDF-table resampler and the one-bincount cluster sums bit for bit; the
singular-value bound and the scalar outcome lookups serve only tests.
"""

import csv
import math
from typing import NamedTuple

import numpy as np

from clusterdp.estimation import debias_rows
from clusterdp.experiments import _batched_weights
from clusterdp.mechanisms import (
    arm_histograms, perturb_clip, renormalize, resample_draws, resample_from_uniforms,
)
from clusterdp.model import (
    MIN_CLUSTER_SIZE,
    MechanismKind,
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
)
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


def singular_value_bound(lam: float, k: int) -> float:
    """Upper bound (lam sqrt(K) + 1) / (1 - lam) on the largest singular value of Q^{-1}."""
    return (lam * np.sqrt(k) + 1.0) / (1.0 - lam)


def space_contains(space: OutcomeSpace, value) -> bool:
    return bool(space.lookup(value)[1])


def space_index_of(space: OutcomeSpace, value) -> int:
    idx, found = space.lookup(value)
    if not found:
        raise ValidationError(f"outcome {value!r} outside space")
    return int(idx)


def resample_dense(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat) -> np.ndarray:
    """Inverse-CDF resampling through an (..., n, K) gather, cumsum and comparison."""
    k = q_tilde.shape[-1]
    cum = np.cumsum(q_tilde[..., cluster, z, :], axis=-1)
    drawn = np.minimum((u_cat[..., None] > cum).sum(axis=-1), k - 1)
    return np.where(u_keep < lam, drawn, y_observed)


def cluster_sums_two_pass(values_per_unit, cluster, z, n1c, n0c) -> np.ndarray:
    """Per-cluster arm contrasts from one masked bincount per arm."""
    c = len(n1c)
    treated = np.bincount(cluster, weights=values_per_unit * (z == 1), minlength=c)
    control = np.bincount(cluster, weights=values_per_unit * (z == 0), minlength=c)
    return treated / n1c - control / n0c


def uniform_prior_eps(k: int, lam: float) -> float:
    """Pure epsilon of uniform resampling: log(1 + (1-lam) K / lam)."""
    if lam == 0.0:
        return math.inf
    return math.log1p((1.0 - lam) * k / lam)


def _debiased_units(pop, design, params, noise, u_keep, u_cat) -> np.ndarray:
    """Per-unit debiased values of the cluster mechanism from supplied draws.

    ``noise`` (the prior noise per (cluster, arm, outcome)), ``u_keep`` and
    ``u_cat`` carry a leading replication axis.
    """
    p_hat = arm_histograms(pop, design) / design.arm_counts()[..., None]
    qt = renormalize(perturb_clip(p_hat, params.gamma, noise), params.gamma)
    cl = pop.cluster
    y_t = resample_from_uniforms(pop.observed(design), cl, design.z, qt, params.lam, u_keep, u_cat)
    rows = debias_rows(pop.space.array, qt, params.lam)
    return rows[np.arange(len(qt))[:, None], cl, design.z, y_t]


def cluster_taus_fixed_design(pop, design, params, streams, reps: int) -> np.ndarray:
    """Batched replications of the cluster mechanism at a fixed assignment.

    Chunk ``ci`` of 5000 replications draws its Laplace noise and then its
    resampling uniforms from ``streams.generator("batch", ci)``.
    """
    assert params.kind is MechanismKind.CLUSTER_DP
    params.check_gamma(pop.space.k)
    w_unit = _batched_weights(design.z, pop, design.n1c, design.n0c)
    scale = 0.0 if math.isinf(params.sigma) else params.sigma / design.arm_counts()[..., None]
    out = np.empty(reps)
    for ci, start in enumerate(range(0, reps, 5000)):
        m = min(5000, reps - start)
        g = streams.generator("batch", ci)
        std = laplace_noise(g, 1.0, (m, pop.n_clusters, 2, pop.space.k))
        draws = resample_draws(g, (m, pop.n))
        per_unit = _debiased_units(pop, design, params, std * scale, *draws)
        out[start : start + m] = per_unit @ w_unit
    return out


def prior_violations(prior, tol: float = 1e-12) -> list[str]:
    """The ProjectedPrior invariants: every entry >= gamma and each vector sums to 1, within tol."""
    out = []
    if np.any(prior.q < prior.gamma - tol):
        out.append("prior entry below gamma")
    if np.any(np.abs(prior.q.sum(axis=-1) - 1.0) > tol):
        out.append("prior does not sum to 1")
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


class UnitRecord(NamedTuple):
    """One population row, before outcome values are resolved to indices."""

    unit_id: str
    cluster: object
    y0: float
    y1: float


def read_records(path) -> list[UnitRecord]:
    """Rows of a population file, one record each; field count and numbers checked by line."""
    records, problems = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["unit_id", "cluster", "y0", "y1"]:
            raise ValidationError(f"expected header 'unit_id,cluster,y0,y1', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                problems.append(f"line {lineno}: expected 4 fields")
                continue
            try:
                records.append(UnitRecord(row[0], row[1], float(row[2]), float(row[3])))
            except ValueError:
                problems.append(f"line {lineno}: malformed outcome value")
    if problems:
        raise ValidationError("; ".join(problems))
    return records


def records_space(records) -> OutcomeSpace:
    return OutcomeSpace(tuple(sorted({y for r in records for y in (r.y0, r.y1)})))


def records_population(records, space: OutcomeSpace) -> PopulationDataset:
    """Validate records one by one, in row order, then build the population."""
    index = {v: i for i, v in enumerate(space.values)}  # exact float lookup
    violations, seen, sizes = [], set(), {}
    for rec in records:
        if rec.unit_id in seen:
            violations.append(f"duplicate unit id {rec.unit_id!r}")
        seen.add(rec.unit_id)
        sizes[rec.cluster] = sizes.get(rec.cluster, 0) + 1
        for name, y in (("y0", rec.y0), ("y1", rec.y1)):
            if y not in index:
                violations.append(f"unit {rec.unit_id!r}: {name}={y!r} outside space")
    for label in sorted(sizes, key=str):
        if sizes[label] < MIN_CLUSTER_SIZE:
            violations.append(f"cluster {label!r} below minimum size {MIN_CLUSTER_SIZE}")
    if not sizes:
        violations.append("population is empty")
    if violations:
        raise ValidationError("; ".join(violations))
    labels = sorted(sizes, key=str)
    dense = {lab: i for i, lab in enumerate(labels)}
    return PopulationDataset(
        space=space,
        unit_ids=tuple(r.unit_id for r in records),
        cluster=np.array([dense[r.cluster] for r in records]),
        y0=np.array([index[r.y0] for r in records]),
        y1=np.array([index[r.y1] for r in records]),
        cluster_labels=tuple(labels),
    )
