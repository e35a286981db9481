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
sidecar as one ``json.dumps`` checks the block-wise sidecar writer byte for
byte; the singular-value bound and the scalar outcome lookups serve only tests.
The earlier forms of the per-call expressions of a release (the two-``where``
renormalization, the ``where`` of observed outcomes, the K - 1 column count,
the one-line Laplace transform, the uniform grid from bounded integers, the
branching baseline scales, the stacked arm counts, the prior fit written out on
the design and ``norm.ppf`` on the uniform grid) check their rewrites byte for byte.
The ``csv.writer`` row writer, the table writer that widens one ``json.dumps``
per block of clusters by ``str.replace``, and ``infer_space`` as one parse of the
whole file check the bulk text passes of the CLI byte for byte.
The whole-array forms of the per-unit passes (one ``bincount`` of every unit's cell,
``tau_q`` through one gathered per-unit array, ``resample_outcomes`` through one
``resample_draws`` call of all n keep and all n categorical uniforms) check the
blocked passes, which every call of the library takes, byte for byte; the serial loop
of replications checks the threaded ``cluster_mechanism_taus``.
"""

import csv
import json
import math
from typing import NamedTuple

import numpy as np
from scipy.stats import norm

from clusterdp.estimation import debias_rows, tau_q
from clusterdp.mechanisms import (
    arm_histograms, cluster_dp, perturb_clip, renormalize, resample_from_uniforms,
)
from clusterdp.model import (
    MIN_CLUSTER_SIZE,
    MechanismKind,
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
    arm_cells,
    draw_design,
    resolve_treated_counts,
)
from clusterdp.rng import laplace_noise, open_uniform
from clusterdp.simdata import POPULATION_HEADER, float_column, read_columns


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


def resample_columns(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat) -> np.ndarray:
    """Inverse-CDF resampling as K - 1 rounds of gather, compare and add over all units."""
    cdf = np.cumsum(q_tilde, axis=-1)
    drawn = np.zeros(u_cat.shape, dtype=np.min_scalar_type(q_tilde.shape[-1] - 1))
    for j in range(q_tilde.shape[-1] - 1):
        drawn += u_cat > cdf[..., cluster, z, j]
    return np.where(u_keep < lam, drawn, y_observed)


def renormalize_two_where(q, gamma: float) -> np.ndarray:
    """Both branches on every row, then chosen per row by two nested ``np.where``."""
    q = np.asarray(q, dtype=float)
    k = q.shape[-1]
    s = q.sum(axis=-1, keepdims=True)
    over_den = np.where(s > 1.0, s - k * gamma, 1.0)
    under_den = np.where(s < 1.0, k - s, 1.0)
    over = gamma + (q - gamma) * ((1.0 - k * gamma) / over_den)
    under = q + (1.0 - q) * ((1.0 - s) / under_den)
    return np.where(s > 1.0, over, np.where(s < 1.0, under, q))


def observed_where(pop, design) -> np.ndarray:
    return np.where(design.z == 1, pop.y1, pop.y0)


def open_uniform_integers(rng, size=None):
    """The 2**53 grid from bounded integers: ``(m + 0.5) * 2**-53``, whose top point
    rounds to 1.0, clamped to the float below 1."""
    grid = (rng.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(grid, np.nextafter(1.0, 0.0))


def laplace_one_line(rng, scale, size=None):
    u = open_uniform_integers(rng, size) - 0.5
    return -np.asarray(scale, dtype=float) * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def standard_normal_ppf(rng, size=None):
    return norm.ppf(open_uniform(rng, size))


def fit_priors_on_design(pop, design, params, rng) -> np.ndarray:
    """The prior fit as one function of the design: q_tilde (C, 2, K)."""
    k = pop.space.k
    params.check_gamma(k)
    if params.kind is MechanismKind.UNIFORM_PRIOR_DP:
        return np.full((pop.n_clusters, 2, k), 1.0 / k)
    counts, n_ac = arm_histograms(pop, design), design.arm_counts()
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        counts = counts.sum(axis=0, keepdims=True)
        n_ac = n_ac.sum(axis=0, keepdims=True)
    p_hat = counts / n_ac[..., None]
    draws = laplace_noise(rng, 1.0, p_hat.shape)
    if math.isinf(params.sigma):  # the sign of each draw picks the clip's end; 0 picks 1
        clipped = np.where(draws >= 0.0, 1.0, params.gamma)
    else:
        clipped = perturb_clip(p_hat, params.gamma, draws * (params.sigma / n_ac)[..., None])
    q_tilde = renormalize(clipped, params.gamma)
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        q_tilde = np.broadcast_to(q_tilde, (pop.n_clusters, 2, k)).copy()
    return q_tilde


def ht_scales_branching(design, space, epsilon: float) -> np.ndarray:
    scales = float(np.max(np.abs(space.array))) / np.minimum(design.n0c, design.n1c)
    return np.zeros_like(scales) if math.isinf(epsilon) else scales / epsilon


def histogram_scales_branching(design, epsilon: float) -> np.ndarray:
    n_ac = arm_counts_stacked(design)
    return np.zeros(n_ac.shape) if math.isinf(epsilon) else 1.0 / (n_ac * epsilon)


def arm_counts_stacked(design) -> np.ndarray:
    return np.stack([design.n0c, design.n1c], axis=1)


def cluster_sums_two_pass(values_per_unit, cluster, z, n1c, n0c) -> np.ndarray:
    """Per-cluster arm contrasts from one masked bincount per arm."""
    c = len(n1c)
    treated = np.bincount(cluster, weights=values_per_unit * (z == 1), minlength=c)
    control = np.bincount(cluster, weights=values_per_unit * (z == 0), minlength=c)
    return treated / n1c - control / n0c


def arm_histograms_whole(pop, design) -> np.ndarray:
    """(C, 2, K) counts from one ``bincount`` of every unit's cell."""
    k, c = pop.space.k, pop.n_clusters
    cell = arm_cells(pop.cluster, design.z, pop.observed(design), k)
    return np.bincount(cell, minlength=c * 2 * k).reshape(c, 2, k)


def cluster_sums_whole(values_per_unit, cluster, z, n1c, n0c) -> np.ndarray:
    """Per-cluster arm contrasts from one weighted ``bincount`` of every unit's arm row."""
    sums = np.bincount(arm_cells(cluster, z), weights=values_per_unit, minlength=2 * len(n1c))
    return sums[1::2] / n1c - sums[0::2] / n0c


def tau_q_whole(release) -> float:
    """``tau_q`` through one gathered per-unit array of debias entries."""
    design = release.design
    per_unit = release.debias.take(
        arm_cells(release.cluster, design.z, release.y_tilde, release.space.k))
    sizes = design.n1c + design.n0c
    contrast = cluster_sums_whole(per_unit, release.cluster, design.z, design.n1c, design.n0c)
    return float(((sizes / sizes.sum()) * contrast).sum())


def resample_draws(rng, size) -> tuple[np.ndarray, np.ndarray]:
    """The two uniforms of one resampling pass, in draw order: keep/redraw, then categorical."""
    return rng.random(size), open_uniform(rng, size)


def resample_outcomes_whole(y_observed, cluster, z, q_tilde, lam, rng) -> np.ndarray:
    """``resample_outcomes`` as one ``resample_draws`` call of every uniform, then the kernel."""
    u_keep, u_cat = resample_draws(rng, len(y_observed))
    return resample_from_uniforms(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat)


def cluster_mechanism_taus_serial(pop, params, treated, streams, reps: int) -> np.ndarray:
    """The replications of ``cluster_mechanism_taus`` one after another in one thread."""
    n1c = resolve_treated_counts(pop, treated)
    taus = []
    for r in range(reps):
        node = streams.child("rep", r)
        design = draw_design(pop, n1c, node.generator("assignment"))
        taus.append(tau_q(cluster_dp(pop, design, params, node)))
    return np.array(taus)


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
    y_t = resample_columns(pop.observed(design), cl, design.z, qt, params.lam, u_keep, u_cat)
    rows = debias_rows(pop.space.array, qt, params.lam)
    return rows[np.arange(len(qt))[:, None], cl, design.z, y_t]


def cluster_taus_fixed_design(pop, design, params, streams, reps: int) -> np.ndarray:
    """Batched replications of the cluster mechanism at a fixed assignment.

    Chunk ``ci`` of 5000 replications draws its Laplace noise and then its
    resampling uniforms from ``streams.generator("batch", ci)``.
    """
    assert params.kind is MechanismKind.CLUSTER_DP
    params.check_gamma(pop.space.k)
    # each unit's weight in the stratified contrast: +(n_c/n)/n_1c treated, -(n_c/n)/n_0c control
    arm_weight = (pop.cluster_sizes / pop.n)[:, None] / design.arm_counts()
    w_unit = np.where(design.z == 1, 1.0, -1.0) * arm_weight[pop.cluster, design.z]
    scale = params.sigma / design.arm_counts()[..., None]  # sigma = inf: each entry gamma or 1
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


def sidecar_text(release) -> str:
    """A release's sidecar as one ``json.dumps(..., sort_keys=True, indent=2)`` plus a newline."""
    params = release.params
    sidecar = {
        "kind": params.kind.value,
        "params": {
            "gamma": params.gamma,
            "sigma": "inf" if math.isinf(params.sigma) else params.sigma,
            "lambda": params.lam,
        },
        "space": [float(v) for v in release.space.values],
        "cluster_labels": [str(c) for c in release.cluster_labels],
        "debias_rows": release.debias.tolist(),
        "q_tilde": release.q_tilde.tolist(),
    }
    return json.dumps(sidecar, sort_keys=True, indent=2) + "\n"


def write_rows_csv(fh, columns) -> None:
    csv.writer(fh, lineterminator="\n").writerows(zip(*columns))


# A (C, 2, K) table as indent=2 writes it under a top-level key.
CLUSTER_OPEN, CLUSTER_CLOSE = "\n    [\n      [\n        ", "\n      ]\n    ]"
ARM_GAP = "\n      ],\n      [\n        "


def write_table_json(fh, table, block: int = 1024) -> None:
    """A (C, 2, K) table a block of clusters at a time; the C encoder formats the numbers.

    Between numbers the encoder writes ``, ``, between arms ``], [`` and between
    clusters ``]], [[``; a number never holds a bracket or a comma, so each
    gap is widened to the indent=2 layout by one replace.
    """
    fh.write("[")
    for start in range(0, len(table), block):
        text = json.dumps(table[start:start + block].tolist())[3:-3]
        text = (text.replace("]], [[", CLUSTER_CLOSE + "," + CLUSTER_OPEN)
                .replace("], [", ARM_GAP).replace(", ", ",\n        "))
        fh.write(f'{"," if start else ""}{CLUSTER_OPEN}{text}{CLUSTER_CLOSE}')
    fh.write("\n  ]" if len(table) else "]")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def infer_space_full(path) -> OutcomeSpace:
    """Every y0 and y1 field through ``float``, then the sorted distinct values (of 0.0
    and -0.0, the first read); a malformed number is named by line."""
    y0_text, y1_text = read_columns(path, POPULATION_HEADER)[2:]
    y0, y1 = float_column(y0_text), float_column(y1_text)
    malformed = [
        f"line {i + 2}: malformed outcome value"
        for i in np.flatnonzero(np.isnan(y0) | np.isnan(y1))
        if not (_is_number(y0_text[i]) and _is_number(y1_text[i]))
    ]
    if malformed:
        raise ValidationError("; ".join(malformed))
    values = np.column_stack((y0, y1)).ravel()
    return OutcomeSpace(tuple(values[np.unique(values, return_index=True)[1]].tolist()))
