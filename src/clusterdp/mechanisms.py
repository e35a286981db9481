"""Privatization mechanisms: per-cluster randomized response and the aggregate baselines.

The core mechanism fits one resampling distribution per (cluster, arm) by
perturbing the empirical outcome histogram with Laplace noise, clipping to
``[gamma, 1]``, and renormalizing; each unit's outcome is then reported
truthfully with probability ``1 - lam`` and otherwise redrawn from that
distribution. The cluster-free variant pools all clusters into one before
fitting, and the uniform-prior variant skips fitting entirely. Two
aggregate baselines (noisy Horvitz-Thompson, noisy histogram) release a
single noised scalar instead of unit-level data.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .estimation import debias_rows, tau_no_dp
from .model import (
    Design,
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    PrivatizedRelease,
    ProjectedPrior,
    ValidationError,
    arm_cells,
    finite_number,
)
from .rng import RngStreams, laplace_noise, open_uniform
from .simdata import float_column, format_value, read_columns

__all__ = [
    "arm_histograms",
    "prior_from_counts",
    "perturb_clip",
    "renormalize",
    "resample_outcomes",
    "cluster_dp",
    "NoisyEstimate",
    "noisy_ht",
    "noisy_histogram",
    "ht_scales",
    "histogram_scales",
    "write_release",
    "read_release",
]


def arm_histograms(pop: PopulationDataset, design: Design, observed=None) -> np.ndarray:
    """Exact observed-outcome counts (C, 2, K) for every (cluster, arm); arm 0 is control.

    ``observed`` is ``pop.observed(design)`` where the caller already holds it.
    """
    if design.n0c.min() < 1 or design.n1c.min() < 1:
        raise ValidationError("empty treatment arm in cluster")
    if observed is None:
        observed = pop.observed(design)
    k = pop.space.k
    c = pop.n_clusters
    cell = arm_cells(pop.cluster, design.z, observed, k)
    return np.bincount(cell, minlength=c * 2 * k).reshape(c, 2, k)


def perturb_clip(p_hat: np.ndarray, gamma: float, noise) -> np.ndarray:
    """Entrywise perturbation by ``noise`` followed by clipping to [gamma, 1]."""
    return np.clip(p_hat + noise, gamma, 1.0)


def renormalize(q: np.ndarray, gamma: float) -> np.ndarray:
    """Project a clipped vector back onto the simplex while keeping entries >= gamma.

    Mass is shifted proportionally to headroom: when the entries exceed one in
    total, each is pulled toward the floor gamma; otherwise each is pushed
    toward 1. A vector already summing to one is returned unchanged. The
    denominators cannot vanish: sum(q) > 1 forces some q_y > gamma, and
    sum(q) < 1 forces some q_y < 1 (else the sum would be K >= 2).
    Broadcasts over any leading axes. Each branch runs only on the rows it
    rewrites, and only when there are any.
    """
    q = np.array(q, dtype=float)
    k = q.shape[-1]
    s = q.sum(axis=-1, keepdims=True)
    over, under = (s > 1.0)[..., 0], (s < 1.0)[..., 0]
    # Anchored forms (algebraically the per-entry shift from the headroom
    # weights) guarantee q_tilde >= gamma in floating point as well.
    if over.any():
        q[over] = gamma + (q[over] - gamma) * ((1.0 - k * gamma) / (s[over] - k * gamma))
    if under.any():
        q[under] = q[under] + (1.0 - q[under]) * ((1.0 - s[under]) / (k - s[under]))
    return q


def prior_from_counts(
    counts: np.ndarray,
    n_ac: np.ndarray,
    params: MechanismParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """The prior step on arm histograms (..., C, 2, K) of arm sizes n_ac (C, 2): q_tilde
    of the histograms' shape. Noise/clip/renormalize per (cluster, arm); pooled over
    clusters first for the cluster-free kind.

    The prior noise is drawn here only: one standard Laplace array of the (pooled)
    histograms' shape from ``rng``, scaled by sigma / n_ac. Nothing is drawn at
    sigma = inf or for the uniform-prior kind, whose prior is exactly 1/K everywhere.
    """
    shape, k = counts.shape, counts.shape[-1]
    params.check_gamma(k)
    if params.kind is MechanismKind.UNIFORM_PRIOR_DP:
        return np.full(shape, 1.0 / k)
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        counts = counts.sum(axis=-3, keepdims=True)
        n_ac = n_ac.sum(axis=-2, keepdims=True)
    p_hat = counts / n_ac[..., None]
    noise = 0.0
    if not math.isinf(params.sigma):
        noise = laplace_noise(rng, 1.0, p_hat.shape)
        noise *= (params.sigma / n_ac)[..., None]
    q_tilde = renormalize(perturb_clip(p_hat, params.gamma, noise), params.gamma)
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        q_tilde = np.broadcast_to(q_tilde, shape).copy()
    return q_tilde


def fit_priors(
    pop: PopulationDataset,
    design: Design,
    params: MechanismParams,
    rng: np.random.Generator,
    observed=None,
) -> ProjectedPrior:
    """``prior_from_counts`` on the design's arm histograms: one prior per (cluster, arm).

    ``observed``, if given, is ``pop.observed(design)``, passed on to ``arm_histograms``.
    """
    counts = arm_histograms(pop, design, observed)
    q = prior_from_counts(counts, design.arm_counts(), params, rng)
    return ProjectedPrior(q=q, gamma=params.gamma)


def resample_draws(rng: np.random.Generator, size) -> tuple[np.ndarray, np.ndarray]:
    """The two uniforms of one resampling pass, in draw order: keep/redraw, then categorical."""
    return rng.random(size), open_uniform(rng, size)


_RESAMPLE_BLOCK = 1 << 14  # uniforms per block: a block's temporaries stay in cache
# The bucket table leaves at least _UNITS_PER_ENTRY uniforms per entry; with fewer than
# _MIN_BUCKETS a row, too many draws would land in a bucket that holds a CDF entry for the
# table to pay (both measured at K = 12, see README).
_MIN_BUCKETS = 1 << 6
_UNITS_PER_ENTRY = 16


def _bucket_count(units: int, rows: int) -> int:
    """Buckets per row of the resampling table for ``units`` uniforms over ``rows`` CDF
    rows: the largest power of two with at least _UNITS_PER_ENTRY uniforms per entry, or
    0 (no table) below _MIN_BUCKETS."""
    per_row = units // (_UNITS_PER_ENTRY * max(rows, 1))
    return 1 << (per_row.bit_length() - 1) if per_row >= _MIN_BUCKETS else 0


def _bucket_table(cdf: np.ndarray, nb: int) -> np.ndarray:
    """The flat (rows * nb) table of ``cdf`` (rows, K - 1) over nb equal buckets of [0, 1).

    Entry (r, b) is #{j : cdf[r, j] < b / nb}, the draw of every u in bucket b, or the
    marker K where some cdf[r, j] lies in the bucket. The first bucket reaches down to
    -inf and the last up to +inf, so every u has a bucket, min(floor(u * nb), nb - 1).
    """
    rows, k1 = cdf.shape
    edge = np.clip(cdf * nb, 0, nb - 1).astype(np.intp)  # the bucket of each entry
    edge += np.arange(0, rows * nb, nb)[:, None]
    hits = np.bincount(edge.ravel(), minlength=rows * nb)
    # entries in buckets up to b: in a bucket that holds none, those below b / nb
    table = np.cumsum(hits.reshape(rows, nb), axis=1, dtype=np.min_scalar_type(k1 + 1)).ravel()
    table[hits > 0] = k1 + 1
    return table


def resample_from_uniforms(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat) -> np.ndarray:
    """Keep each outcome where u_keep >= lam, else draw from its arm prior by inverse CDF at u_cat.

    ``q_tilde`` (..., C, 2, K) and the uniforms (..., n) may carry a leading replication axis;
    the int64 result has the shape of ``u_cat``. The CDF is summed once per (cluster, arm)
    row, and each unit's draw counts the entries j < K - 1 of its row's CDF that lie
    below u_cat, with no (n, K) array. This equals the capped count
    min(#{j < K : u_cat > cdf[j]}, K - 1) bit for bit: a cumsum adds the same numbers in
    the same order per row, and q_tilde >= 0 makes each CDF row non-decreasing in floating
    point, so the entries below u_cat form a prefix and dropping the last one only applies
    the cap. Units go through in blocks of about ``_RESAMPLE_BLOCK`` uniforms, two a unit
    and replication (u_keep and u_cat). A count does not depend on the order in which it
    is taken, so the blocks change no bit.

    With many uniforms per row (``_bucket_count``) a unit's count is read from the row's
    ``_bucket_table`` at bucket min(floor(u_cat * nb), nb - 1) (a NaN has none); the
    scaling by a power of two is exact. Where the bucket holds no CDF entry, every entry
    lies below the bucket or at or above its end, so the count is that of the bucket's
    start; only units whose bucket holds one take the comparison path. Without a table
    every unit does: a block gathers the K - 1 thresholds of every u_cat at once and sums
    their comparisons.
    The keep/redraw choice is integer arithmetic in the count's unsigned type, which
    holds every outcome index y_observed < K.
    """
    cdf = np.cumsum(q_tilde, axis=-1)[..., :-1]
    cdf = cdf.reshape(-1, cdf.shape[-1])  # (rows, K - 1), row (rep * C + cluster) * 2 + z
    thresholds = np.ascontiguousarray(cdf.T)  # (K - 1, rows)
    counter = np.min_scalar_type(cdf.shape[-1])  # the narrowest type that holds K - 1
    lead = q_tilde.shape[:-3]  # each replication's 2C rows follow the previous one's
    offset = None
    if lead:
        offset = np.arange(math.prod(lead)).reshape(*lead, 1) * (2 * q_tilde.shape[-3])
    nb = _bucket_count(u_cat.size, len(cdf))
    table = _bucket_table(cdf, nb) if nb else None
    out = np.empty(u_cat.shape, dtype=np.int64)
    block = max(1, _RESAMPLE_BLOCK // (2 * max(1, math.prod(u_cat.shape[:-1]))))
    for start in range(0, u_cat.shape[-1], block):
        part = slice(start, start + block)
        u = u_cat[..., part]
        row = arm_cells(cluster[part], z[part])
        if offset is not None:
            row = row + offset
        if table is None:
            drawn = (u > thresholds.take(row, axis=-1)).sum(axis=0, dtype=counter)
        else:
            bucket = u * nb
            np.clip(bucket, 0, nb - 1, out=bucket)
            entry = bucket.astype(np.intp)
            row *= nb
            entry += row
            drawn = table.take(entry)
            slow = np.flatnonzero(drawn > cdf.shape[-1])  # the marker
            if slow.size:
                drawn.ravel()[slow] = (u.ravel()[slow] > thresholds.take(
                    entry.ravel()[slow] // nb, axis=-1)).sum(axis=0, dtype=counter)
        # drawn where u_keep < lam, else y, as y + (drawn - y) * redraw: the wraparound of
        # the subtraction cancels in the addition, and no branch is taken per unit
        y = y_observed[part].astype(drawn.dtype)
        drawn -= y
        drawn *= u_keep[..., part] < lam
        drawn += y
        out[..., part] = drawn
    return out


def resample_outcomes(
    y_observed: np.ndarray,
    cluster: np.ndarray,
    z: np.ndarray,
    q_tilde: np.ndarray,
    lam: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Report each outcome truthfully w.p. 1-lam, else draw from the unit's arm prior."""
    u_keep, u_cat = resample_draws(rng, len(y_observed))
    return resample_from_uniforms(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat)


def cluster_dp(
    pop: PopulationDataset,
    design: Design,
    params: MechanismParams,
    streams: RngStreams,
) -> PrivatizedRelease:
    """Randomized-response release of any unit-level kind: per-cluster, pooled or uniform prior.

    Consumes two named sub-streams of ``streams``: ``laplace`` for the prior
    perturbation (untouched by the uniform prior) and ``resample`` for the
    per-unit randomization. The fitted prior is released as ``q_tilde``; a
    lambda = 1 release can be drawn, but it has no debiasing rows.
    """
    observed = pop.observed(design)
    q_tilde = fit_priors(pop, design, params, streams.generator("laplace"), observed).q
    y_tilde = resample_outcomes(
        observed,
        pop.cluster,
        design.z,
        q_tilde,
        params.lam,
        streams.generator("resample"),
    )
    return PrivatizedRelease(
        space=pop.space,
        unit_ids=pop.unit_ids,
        cluster=pop.cluster,
        cluster_labels=pop.cluster_labels,
        design=design,
        y_tilde=y_tilde,
        q_tilde=q_tilde,
        params=params,
    )


class NoisyEstimate(NamedTuple):
    value: float
    noise_scales: np.ndarray


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")


def ht_scales(design: Design, space: OutcomeSpace, epsilon: float) -> np.ndarray:
    """Noisy HT's Laplace scale per cluster: max|y| / min(n0c, n1c) / epsilon; 0 at eps = inf."""
    _check_epsilon(epsilon)
    scales = space.max_abs / np.minimum(design.n0c, design.n1c)
    scales /= epsilon  # a finite scale over eps = inf is +0.0
    return scales


def histogram_scales(design: Design, epsilon: float) -> np.ndarray:
    """Noisy histogram's Laplace scale per (cluster, arm): 1 / (n_ac epsilon); 0 at eps = inf."""
    _check_epsilon(epsilon)
    scales = design.arm_counts() * epsilon
    return np.divide(1.0, scales, out=scales)  # 1 / inf is +0.0


def ht_noise_term(pop, design, epsilon: float, std) -> tuple[float, np.ndarray]:
    """(noise term, per-cluster ``ht_scales``) from standard draws (C,)."""
    scales = ht_scales(design, pop.space, epsilon)
    weights = pop.cluster_sizes / pop.n
    return float(np.dot(weights, std * scales)), scales


def histogram_noise_term(pop, design, epsilon: float, std) -> float:
    """Histogram-contrast noise term at ``histogram_scales`` from standard draws (C, 2, K)."""
    w = std * histogram_scales(design, epsilon)[..., None]
    weights = pop.cluster_sizes / pop.n
    return float(np.einsum("c,k,ck->", weights, pop.space.array, w[:, 1] - w[:, 0]))


def noisy_ht(
    pop: PopulationDataset,
    design: Design,
    epsilon: float,
    streams: RngStreams,
) -> NoisyEstimate:
    """Stratified difference-in-means plus per-cluster Laplace noise.

    The per-cluster sensitivity is max|y| / min(n0c, n1c); epsilon = inf is
    implemented as noise scale zero.
    """
    std = laplace_noise(streams.generator("laplace"), 1.0, pop.n_clusters)
    term, scales = ht_noise_term(pop, design, epsilon, std)
    return NoisyEstimate(value=tau_no_dp(pop, design) + term, noise_scales=scales)


def noisy_histogram(
    pop: PopulationDataset,
    design: Design,
    epsilon: float,
    streams: RngStreams,
) -> float:
    """Weighted outcome contrast computed from per-(cluster, arm) noised histograms."""
    std = laplace_noise(streams.generator("laplace"), 1.0, (pop.n_clusters, 2, pop.space.k))
    return tau_no_dp(pop, design) + histogram_noise_term(pop, design, epsilon, std)


# ---------------------------------------------------------------------------
# Release serialization: CSV of unit rows plus a JSON sidecar with the
# debiasing information. Byte-stable for a given seed.
# ---------------------------------------------------------------------------

RELEASE_HEADER = ["unit_id", "cluster", "z", "y_tilde"]
_ARMS = {"0": 0, "1": 1}


def write_release(release: PrivatizedRelease, csv_path, sidecar_path) -> None:
    """Write the unit rows and the sidecar; a release without debias rows writes neither."""
    tables = {"debias_rows": release.debias, "q_tilde": release.q_tilde}
    text = np.array([format_value(v) for v in release.space.values], dtype=object)
    labels = np.array([str(lab) for lab in release.cluster_labels], dtype=object)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RELEASE_HEADER)
        columns = (labels[release.cluster], release.design.z, text[release.y_tilde])
        writer.writerows(zip(release.unit_ids, *(c.tolist() for c in columns)))
    params = release.params
    values = {
        "kind": params.kind.value,
        "params": {
            "gamma": params.gamma,
            "sigma": "inf" if math.isinf(params.sigma) else params.sigma,
            "lambda": params.lam,
        },
        "space": [float(v) for v in release.space.values],
        "cluster_labels": [str(c) for c in release.cluster_labels],
    }
    with open(sidecar_path, "w") as fh:  # the bytes of json.dump(..., sort_keys=True, indent=2)
        fh.write("{")
        for i, key in enumerate(sorted([*values, *tables])):
            fh.write(f'{"," if i else ""}\n  "{key}": ')
            if key in tables:
                _write_table(fh, tables[key])
            else:
                fh.write(json.dumps(values[key], sort_keys=True, indent=2).replace("\n", "\n  "))
        fh.write("\n}\n")


# A (C, 2, K) table as indent=2 writes it under a top-level key.
_CLUSTER_OPEN, _CLUSTER_CLOSE = "\n    [\n      [\n        ", "\n      ]\n    ]"
_ARM_GAP = "\n      ],\n      [\n        "
_TABLE_BLOCK = 1024  # clusters formatted per json.dumps call


def _write_table(fh, table: np.ndarray) -> None:
    """Write a (C, 2, K) table a block of clusters at a time; the C encoder formats the numbers.

    Between numbers the encoder writes ``, ``, between arms ``], [`` and between
    clusters ``]], [[``; a number never holds a bracket or a comma, so each
    gap is widened to the indent=2 layout by one replace.
    """
    fh.write("[")
    for start in range(0, len(table), _TABLE_BLOCK):
        text = json.dumps(table[start:start + _TABLE_BLOCK].tolist())[3:-3]
        text = (text.replace("]], [[", _CLUSTER_CLOSE + "," + _CLUSTER_OPEN)
                .replace("], [", _ARM_GAP).replace(", ", ",\n        "))
        fh.write(f'{"," if start else ""}{_CLUSTER_OPEN}{text}{_CLUSTER_CLOSE}')
    fh.write("\n  ]" if len(table) else "]")


def _sidecar_table(sidecar, key: str, shape) -> np.ndarray:
    try:
        table = np.array(sidecar[key], dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric nesting
        table = None
    if table is None or table.shape != shape:
        raise ValidationError(f"sidecar {key} must have shape {shape}")
    return table


def _read_sidecar(path):
    """The sidecar's space, cluster labels, params and q_tilde, each checked.

    The debias rows must be those of q_tilde; the release derives them again.
    Only these leave the function, so the parsed JSON is freed before the CSV is read.
    """
    with open(path) as fh:
        try:
            sidecar = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValidationError(f"sidecar is not JSON: {exc}") from None
    if not isinstance(sidecar, dict) or not isinstance(sidecar.get("params"), dict):
        raise ValidationError("sidecar must be an object with a params object")
    for key in ("space", "cluster_labels"):
        if not isinstance(sidecar.get(key), list):
            raise ValidationError(f"sidecar {key} must be a list")
    if not all(isinstance(lab, str) for lab in sidecar["cluster_labels"]):
        raise ValidationError("sidecar cluster_labels must be strings")
    space = OutcomeSpace(tuple(finite_number("sidecar space entry", v) for v in sidecar["space"]))
    labels = tuple(sidecar["cluster_labels"])
    shape = (len(labels), 2, space.k)
    try:
        kind = MechanismKind(sidecar["kind"])
    except ValueError:
        raise ValidationError(f"unknown mechanism kind {sidecar['kind']!r}") from None
    raw = sidecar["params"]
    lam = finite_number("sidecar params.lambda", raw["lambda"])
    gamma = finite_number("sidecar params.gamma", raw["gamma"])
    sigma = raw["sigma"]
    sigma = math.inf if sigma == "inf" else finite_number("sidecar params.sigma", sigma)
    params = MechanismParams(kind=kind, gamma=gamma, sigma=sigma, lam=lam)  # its range checks
    q_tilde = _sidecar_table(sidecar, "q_tilde", shape)
    on_simplex = np.all(np.abs(q_tilde.sum(axis=-1) - 1.0) <= 1e-12)
    if not (on_simplex and np.all(q_tilde >= gamma - 1e-12)):
        raise ValidationError(f"sidecar q_tilde is off the simplex or below gamma {gamma!r}")
    debias = _sidecar_table(sidecar, "debias_rows", shape)
    if not np.all(np.abs(debias - debias_rows(space.array, q_tilde, lam)) <= 1e-12):
        raise ValidationError("sidecar debias_rows differ from debias_rows(space, q_tilde, lambda)")
    return space, labels, params, q_tilde


def read_release(csv_path, sidecar_path) -> PrivatizedRelease:
    space, labels, params, q_tilde = _read_sidecar(sidecar_path)
    dense = {lab: i for i, lab in enumerate(labels)}
    unit_ids, label_col, z_col, y_col = read_columns(csv_path, RELEASE_HEADER)
    n = len(unit_ids)
    z = np.fromiter(map(_ARMS.get, z_col, repeat(-1)), np.int8, n)
    cluster = np.fromiter(map(dense.get, label_col, repeat(-1)), np.int64, n)
    y_tilde, found = space.lookup(float_column(y_col))  # NaN where not a number
    bad = (z < 0) | (cluster < 0) | ~found
    if bad.any():  # the first bad row, named by its first bad field
        i = int(np.argmax(bad))
        fault = ("z must be 0 or 1" if z[i] < 0 else "cluster not in the sidecar"
                 if cluster[i] < 0 else "y_tilde outside the space")
        raise ValidationError(f"release line {i + 2}: {fault}")
    return PrivatizedRelease(
        space=space,
        unit_ids=tuple(unit_ids),
        cluster=cluster,
        cluster_labels=labels,
        design=Design.from_assignment(cluster, z, len(labels)),
        y_tilde=y_tilde,
        q_tilde=q_tilde,
        params=params,
    )
