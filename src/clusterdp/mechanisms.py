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
from dataclasses import dataclass
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

__all__ = [
    "ArmHistogram",
    "arm_histograms",
    "perturb_clip",
    "renormalize",
    "resample_outcomes",
    "cluster_dp",
    "uniform_prior_dp",
    "NoisyEstimate",
    "noisy_ht",
    "noisy_histogram",
    "write_release",
    "read_release",
]


@dataclass(frozen=True, eq=False)
class ArmHistogram:
    """Per-(cluster, arm) outcome counts and the empirical frequency table."""

    counts: np.ndarray  # (C, 2, K) integer counts
    n_ac: np.ndarray  # (C, 2) arm sizes, column 0 = control

    @property
    def p_hat(self) -> np.ndarray:
        return self.counts / self.n_ac[..., None]


def arm_histograms(pop: PopulationDataset, design: Design) -> ArmHistogram:
    """Exact observed-outcome counts for every (cluster, arm)."""
    k = pop.space.k
    c = pop.n_clusters
    observed = pop.observed(design)
    cell = (pop.cluster * 2 + design.z) * k + observed
    counts = np.bincount(cell, minlength=c * 2 * k).reshape(c, 2, k)
    n_ac = design.arm_counts()
    if np.any(n_ac < 1):
        raise ValidationError("empty treatment arm in cluster")
    return ArmHistogram(counts=counts, n_ac=n_ac)


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
    """Noise/clip/renormalize per (cluster, arm); pooled first for the cluster-free kind."""
    params.check_gamma(pop.space.k)
    hist = arm_histograms(pop, design)
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        counts = hist.counts.sum(axis=0, keepdims=True)
        n_ac = hist.n_ac.sum(axis=0, keepdims=True)
    else:
        counts, n_ac = hist.counts, hist.n_ac
    p_hat = counts / n_ac[..., None]
    q = perturb_clip(p_hat, params.gamma, params.sigma, n_ac, rng)
    q_tilde = renormalize(q, params.gamma)
    if params.kind is MechanismKind.CLUSTER_FREE_DP:
        q_tilde = np.broadcast_to(q_tilde, (pop.n_clusters, 2, pop.space.k)).copy()
    return ProjectedPrior(q=q_tilde, gamma=params.gamma)


def resample_draws(rng: np.random.Generator, size) -> tuple[np.ndarray, np.ndarray]:
    """The two uniforms of one resampling pass, in draw order: keep/redraw, then categorical."""
    return rng.random(size), open_uniform(rng, size)


def resample_from_uniforms(y_observed, cluster, z, q_tilde, lam, u_keep, u_cat) -> np.ndarray:
    """Keep each outcome where u_keep >= lam, else draw from its arm prior by inverse CDF at u_cat.

    ``q_tilde`` (..., C, 2, K) and the uniforms (..., n) may carry a leading replication axis.
    """
    k = q_tilde.shape[-1]
    cum = np.cumsum(q_tilde[..., cluster, z, :], axis=-1)
    drawn = np.minimum((u_cat[..., None] > cum).sum(axis=-1), k - 1)
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


def _release(pop, design, q_tilde, params, y_tilde) -> PrivatizedRelease:
    if params.lam < 1.0:
        rows = debias_rows(pop.space.array, q_tilde, params.lam)
    else:
        rows = np.full_like(q_tilde, np.nan)  # lam=1 release is not debiasable
    return PrivatizedRelease(
        space=pop.space,
        unit_ids=pop.unit_ids,
        cluster=pop.cluster,
        cluster_labels=pop.cluster_labels,
        z=design.z,
        y_tilde=y_tilde,
        debias=rows,
        q_tilde=q_tilde,
        kind=params.kind,
        gamma=params.gamma,
        sigma=params.sigma,
        lam=params.lam,
    )


def cluster_dp(
    pop: PopulationDataset,
    design: Design,
    params: MechanismParams,
    streams: RngStreams,
) -> tuple[ProjectedPrior, PrivatizedRelease]:
    """Full cluster-aware (or pooled) randomized-response release.

    Consumes two named sub-streams of ``streams``: ``laplace`` for the prior
    perturbation and ``resample`` for the per-unit randomization.
    """
    if params.kind not in (MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP):
        raise ValidationError(f"unsupported kind {params.kind} for cluster_dp")
    prior = fit_priors(pop, design, params, streams.generator("laplace"))
    y_tilde = resample_outcomes(
        pop.observed(design),
        pop.cluster,
        design.z,
        prior.q,
        params.lam,
        streams.generator("resample"),
    )
    return prior, _release(pop, design, prior.q, params, y_tilde)


def uniform_prior_dp(
    pop: PopulationDataset,
    design: Design,
    lam: float,
    streams: RngStreams,
) -> PrivatizedRelease:
    """Report truthfully w.p. 1-lam, else draw uniformly from the outcome space."""
    k = pop.space.k
    q_tilde = np.full((pop.n_clusters, 2, k), 1.0 / k)
    params = MechanismParams(
        kind=MechanismKind.UNIFORM_PRIOR_DP, gamma=1.0 / k, sigma=math.inf, lam=lam
    )
    y_tilde = resample_outcomes(
        pop.observed(design),
        pop.cluster,
        design.z,
        q_tilde,
        lam,
        streams.generator("resample"),
    )
    return _release(pop, design, q_tilde, params, y_tilde)


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

def format_value(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def write_release(release: PrivatizedRelease, csv_path, sidecar_path) -> None:
    vals = release.space.array
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["unit_id", "cluster", "z", "y_tilde"])
        for i in range(release.n):
            writer.writerow(
                [
                    release.unit_ids[i],
                    release.cluster_labels[release.cluster[i]],
                    int(release.z[i]),
                    format_value(vals[release.y_tilde[i]]),
                ]
            )
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
    unit_ids, cluster, z, y_tilde = [], [], [], []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["unit_id", "cluster", "z", "y_tilde"]:
            raise ValidationError(f"unexpected release header {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            if row["z"] not in ("0", "1"):
                raise ValidationError(f"release line {lineno}: z must be 0 or 1")
            if row["cluster"] not in dense:
                raise ValidationError(f"release line {lineno}: cluster not in the sidecar")
            unit_ids.append(row["unit_id"])
            cluster.append(dense[row["cluster"]])
            z.append(int(row["z"]))
            try:
                y_tilde.append(space.index_of(float(row["y_tilde"])))
            except (TypeError, ValueError):  # missing, not a number, or outside the space
                raise ValidationError(f"release line {lineno}: y_tilde outside the space") from None
    sigma = params["sigma"]
    return PrivatizedRelease(
        space=space,
        unit_ids=tuple(unit_ids),
        cluster=np.array(cluster),
        cluster_labels=labels,
        z=np.array(z, dtype=np.int8),
        y_tilde=np.array(y_tilde),
        debias=debias,
        q_tilde=q_tilde,
        kind=kind,
        gamma=gamma,
        sigma=math.inf if sigma == "inf" else finite_number("sidecar params.sigma", sigma),
        lam=lam,
    )
