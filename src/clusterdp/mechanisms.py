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
    finite_number,
)
from .rng import RngStreams, laplace_noise, open_uniform
from .simdata import float_column, format_value, read_columns

__all__ = [
    "arm_histograms",
    "perturb_clip",
    "renormalize",
    "resample_outcomes",
    "cluster_dp",
    "NoisyEstimate",
    "noisy_ht",
    "noisy_histogram",
    "write_release",
    "read_release",
]


def arm_histograms(pop: PopulationDataset, design: Design) -> np.ndarray:
    """Exact observed-outcome counts (C, 2, K) for every (cluster, arm); arm 0 is control."""
    if np.any(design.n0c < 1) or np.any(design.n1c < 1):
        raise ValidationError("empty treatment arm in cluster")
    k = pop.space.k
    c = pop.n_clusters
    cell = (pop.cluster * 2 + design.z) * k + pop.observed(design)
    return np.bincount(cell, minlength=c * 2 * k).reshape(c, 2, k)


def perturb_clip(
    p_hat: np.ndarray,
    gamma: float,
    sigma: float,
    n_ac,
    rng: np.random.Generator | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """Entrywise Laplace(sigma / n_ac) perturbation followed by clipping to [gamma, 1].

    ``sigma = inf`` is the sentinel for "skip the noise step" (the empirical
    frequencies are clipped directly); ``noise`` injects a fixed noise array
    for tests and for shared-noise stability checks.
    """
    p_hat = np.asarray(p_hat, dtype=float)
    if noise is None:
        if math.isinf(sigma):
            noise = 0.0
        else:
            scale = sigma / np.asarray(n_ac, dtype=float)
            if p_hat.ndim > 1:
                scale = scale[..., None]
            noise = laplace_noise(rng, 1.0, p_hat.shape) * scale
    return np.clip(p_hat + noise, gamma, 1.0)


def renormalize(q: np.ndarray, gamma: float) -> np.ndarray:
    """Project a clipped vector back onto the simplex while keeping entries >= gamma.

    Mass is shifted proportionally to headroom: when the entries exceed one in
    total, each is pulled toward the floor gamma; otherwise each is pushed
    toward 1. A vector already summing to one is returned unchanged. The
    denominators cannot vanish: sum(q) > 1 forces some q_y > gamma, and
    sum(q) < 1 forces some q_y < 1 (else the sum would be K >= 2).
    Broadcasts over any leading axes.
    """
    q = np.asarray(q, dtype=float)
    k = q.shape[-1]
    s = q.sum(axis=-1, keepdims=True)
    over_den = np.where(s > 1.0, s - k * gamma, 1.0)
    under_den = np.where(s < 1.0, k - s, 1.0)
    # Anchored forms (algebraically the per-entry shift from the headroom
    # weights) guarantee q_tilde >= gamma in floating point as well.
    over = gamma + (q - gamma) * ((1.0 - k * gamma) / over_den)
    under = q + (1.0 - q) * ((1.0 - s) / under_den)
    return np.where(s > 1.0, over, np.where(s < 1.0, under, q))


def fit_priors(
    pop: PopulationDataset,
    design: Design,
    params: MechanismParams,
    rng: np.random.Generator,
) -> ProjectedPrior:
    """Noise/clip/renormalize per (cluster, arm); pooled first for the cluster-free kind.

    The uniform-prior kind draws nothing: its prior is exactly 1/K everywhere.
    """
    k = pop.space.k
    params.check_gamma(k)
    if params.kind is MechanismKind.UNIFORM_PRIOR_DP:
        return ProjectedPrior(q=np.full((pop.n_clusters, 2, k), 1.0 / k), gamma=params.gamma)
    counts, n_ac = arm_histograms(pop, design), design.arm_counts()
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        counts = counts.sum(axis=0, keepdims=True)
        n_ac = n_ac.sum(axis=0, keepdims=True)
    p_hat = counts / n_ac[..., None]
    q = perturb_clip(p_hat, params.gamma, params.sigma, n_ac, rng)
    q_tilde = renormalize(q, params.gamma)
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        q_tilde = np.broadcast_to(q_tilde, (pop.n_clusters, 2, k)).copy()
    return ProjectedPrior(q=q_tilde, gamma=params.gamma)


def resample_draws(rng: np.random.Generator, size) -> tuple[np.ndarray, np.ndarray]:
    """The two uniforms of one resampling pass, in draw order: keep/redraw, then categorical."""
    return rng.random(size), open_uniform(rng, size)


def resample_from_uniforms(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat) -> np.ndarray:
    """Keep each outcome where u_keep >= lam, else draw from its arm prior by inverse CDF at u_cat.

    ``q_tilde`` (..., C, 2, K) and the uniforms (..., n) may carry a leading replication axis.
    The CDF is summed once per (cluster, arm) cell, and each unit's draw counts the
    entries j < K - 1 of its cell's CDF that lie below u_cat, with no (n, K) array.
    This equals the capped count min(#{j < K : u_cat > cdf[j]}, K - 1) bit for bit:
    a cumsum adds the same numbers in the same order per row, and q_tilde >= 0 makes
    each CDF row non-decreasing in floating point, so the entries below u_cat form
    a prefix and dropping the last one only applies the cap.
    """
    cdf = np.cumsum(q_tilde, axis=-1)
    cdf = cdf.reshape(*cdf.shape[:-3], -1, cdf.shape[-1])  # (..., 2C, K), row cluster * 2 + z
    cell = cluster * 2 + z
    drawn = np.zeros(u_cat.shape, dtype=np.int64)
    for j in range(cdf.shape[-1] - 1):
        drawn += u_cat > np.take(cdf[..., j], cell, axis=-1)
    return np.where(u_keep < lam, drawn, y_observed)


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
    per-unit randomization. The fitted prior is released as ``q_tilde``.
    """
    q_tilde = fit_priors(pop, design, params, streams.generator("laplace")).q
    y_tilde = resample_outcomes(
        pop.observed(design),
        pop.cluster,
        design.z,
        q_tilde,
        params.lam,
        streams.generator("resample"),
    )
    if params.lam < 1.0:
        rows = debias_rows(pop.space.array, q_tilde, params.lam)
    else:
        rows = np.full_like(q_tilde, np.nan)  # lam=1 release is not debiasable
    return PrivatizedRelease(
        space=pop.space,
        unit_ids=pop.unit_ids,
        cluster=pop.cluster,
        cluster_labels=pop.cluster_labels,
        design=design,
        y_tilde=y_tilde,
        debias=rows,
        q_tilde=q_tilde,
        kind=params.kind,
        gamma=params.gamma,
        sigma=params.sigma,
        lam=params.lam,
    )


class NoisyEstimate(NamedTuple):
    value: float
    noise_scales: np.ndarray


def _check_epsilon(epsilon: float) -> None:
    if not epsilon > 0:
        raise ValidationError("epsilon must be > 0")


def ht_noise_term(pop, design, epsilon: float, std) -> tuple[float, np.ndarray]:
    """(noise term, per-cluster scales max|y| / min(n0c, n1c) / epsilon) from standard draws."""
    scales = pop.space.max_abs / np.minimum(design.n0c, design.n1c)
    scales = np.zeros_like(scales) if math.isinf(epsilon) else scales / epsilon
    weights = pop.cluster_sizes / pop.n
    return float(np.dot(weights, std * scales)), scales


def histogram_noise_term(pop, design, epsilon: float, std) -> float:
    """Histogram-contrast noise term, scale 1 / (n_ac epsilon), from standard draws (C, 2, K)."""
    n_ac = design.arm_counts()
    scales = np.zeros(n_ac.shape) if math.isinf(epsilon) else 1.0 / (n_ac * epsilon)
    w = std * scales[..., None]
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
    _check_epsilon(epsilon)
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
    _check_epsilon(epsilon)
    std = laplace_noise(streams.generator("laplace"), 1.0, (pop.n_clusters, 2, pop.space.k))
    return tau_no_dp(pop, design) + histogram_noise_term(pop, design, epsilon, std)


# ---------------------------------------------------------------------------
# Release serialization: CSV of unit rows plus a JSON sidecar with the
# debiasing information. Byte-stable for a given seed.
# ---------------------------------------------------------------------------

RELEASE_HEADER = ["unit_id", "cluster", "z", "y_tilde"]
_ARMS = {"0": 0, "1": 1}


def write_release(release: PrivatizedRelease, csv_path, sidecar_path) -> None:
    text = np.array([format_value(v) for v in release.space.values], dtype=object)
    labels = np.array([str(lab) for lab in release.cluster_labels], dtype=object)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RELEASE_HEADER)
        columns = (labels[release.cluster], release.design.z, text[release.y_tilde])
        writer.writerows(zip(release.unit_ids, *(c.tolist() for c in columns)))
    sidecar = {
        "kind": release.kind.value,
        "params": {
            "gamma": release.gamma,
            "sigma": "inf" if math.isinf(release.sigma) else release.sigma,
            "lambda": release.lam,
        },
        "space": [float(v) for v in release.space.values],
        "cluster_labels": [str(c) for c in release.cluster_labels],
        "debias_rows": release.debias.tolist(),
        "q_tilde": release.q_tilde.tolist(),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _sidecar_table(sidecar, key: str, shape) -> np.ndarray:
    try:
        table = np.array(sidecar[key], dtype=float)
    except (TypeError, ValueError):  # ragged or non-numeric nesting
        table = None
    if table is None or table.shape != shape:
        raise ValidationError(f"sidecar {key} must have shape {shape}")
    return table


def _read_sidecar(path) -> dict:
    """The sidecar's JSON with its containers type-checked; values are checked by the caller."""
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
    return sidecar


def read_release(csv_path, sidecar_path) -> PrivatizedRelease:
    sidecar = _read_sidecar(sidecar_path)
    space = OutcomeSpace(tuple(finite_number("sidecar space entry", v) for v in sidecar["space"]))
    labels = tuple(sidecar["cluster_labels"])
    dense = {lab: i for i, lab in enumerate(labels)}
    shape = (len(labels), 2, space.k)
    try:
        kind = MechanismKind(sidecar["kind"])
    except ValueError:
        raise ValidationError(f"unknown mechanism kind {sidecar['kind']!r}") from None
    params = sidecar["params"]
    lam = finite_number("sidecar params.lambda", params["lambda"])
    if not 0.0 <= lam < 1.0:
        raise ValidationError(f"release lambda {lam!r} outside [0, 1)")
    gamma = finite_number("sidecar params.gamma", params["gamma"])
    q_tilde = _sidecar_table(sidecar, "q_tilde", shape)
    on_simplex = np.all(np.abs(q_tilde.sum(axis=-1) - 1.0) <= 1e-12)
    if not (on_simplex and np.all(q_tilde >= gamma - 1e-12)):
        raise ValidationError(f"sidecar q_tilde is off the simplex or below gamma {gamma!r}")
    debias = _sidecar_table(sidecar, "debias_rows", shape)
    if not np.all(np.abs(debias - debias_rows(space.array, q_tilde, lam)) <= 1e-12):
        raise ValidationError("sidecar debias_rows differ from debias_rows(space, q_tilde, lambda)")
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
    sigma = params["sigma"]
    return PrivatizedRelease(
        space=space,
        unit_ids=tuple(unit_ids),
        cluster=cluster,
        cluster_labels=labels,
        design=Design.from_assignment(cluster, z, len(labels)),
        y_tilde=y_tilde,
        debias=debias,
        q_tilde=q_tilde,
        kind=kind,
        gamma=gamma,
        sigma=math.inf if sigma == "inf" else finite_number("sidecar params.sigma", sigma),
        lam=lam,
    )
