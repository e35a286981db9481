"""Closed-form (epsilon, delta) accounting and the inverse calibration.

The cluster mechanism's privacy loss decomposes into a prior-estimation
budget ``min(1/sigma, 2/gamma)`` and a resampling budget ``eps_tilde`` with
failure probability ``delta = max(0, 1 - lam + lam * gamma * (1 - e^eps_tilde))``.
Choosing ``eps_tilde = log(1 + (1-lam)/(lam*gamma))`` makes delta vanish,
which gives the pure-epsilon form. ``report`` builds every ``PrivacyReport``,
pure or at a chosen ``eps_tilde``. sigma = inf is the infinite-noise limit:
the prior step keeps only the signs of its draws and never reads the data, so
its budget is exactly 0. The uniform-prior mechanism has no functions of its
own: it is priced and calibrated as the cluster mechanism at
``MechanismParams.uniform_prior(k)`` (gamma = 1/K, sigma = inf). Calibration
algebraically inverts these identities; round trips are exact to ~1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import MechanismParams, ValidationError

__all__ = [
    "CalibrationError",
    "PrivacyReport",
    "prior_budget",
    "resample_share",
    "resample_budget",
    "report",
    "cluster_dp_eps_delta",
    "cluster_dp_pure_eps",
    "calibrate_lambda",
]


class CalibrationError(ValueError):
    """Requested privacy target cannot be met (CLI exit code 3)."""


@dataclass(frozen=True)
class PrivacyReport:
    """Total label-DP guarantee plus its two-stage decomposition."""

    epsilon: float
    delta: float
    prior_budget: float
    resample_budget: float

    def as_dict(self) -> dict:
        def enc(x):
            return "inf" if math.isinf(x) else x

        return {
            "epsilon": enc(self.epsilon),
            "delta": self.delta,
            "prior_budget": enc(self.prior_budget),
            "resample_budget": enc(self.resample_budget),
        }


def prior_budget(gamma: float, sigma: float) -> float:
    """Budget spent estimating the per-cluster priors: min(1/sigma, 2/gamma).

    sigma = inf charges 0, since that prior is drawn without reading the data; sigma = 0,
    the noiseless fit, and gamma = 0 each make their term infinite.
    """
    laplace_term = 1.0 / sigma if sigma else math.inf  # 1 / inf is 0.0
    clip_term = 2.0 / gamma if gamma else math.inf
    return min(laplace_term, clip_term)


def resample_share(target_eps: float, gamma: float, sigma: float) -> float:
    """eps_tilde = target_eps - prior_budget; inf at target inf, whatever the prior spends."""
    if math.isinf(target_eps):
        return math.inf
    prior = prior_budget(gamma, sigma)
    eps_tilde = target_eps - prior
    if not eps_tilde > 0:
        raise CalibrationError(
            f"budget exhausted by prior estimation: target_eps={target_eps} "
            f"<= prior budget {prior}"
        )
    return eps_tilde


def _excess(scale: float, eps: float) -> float:
    """scale * (e^eps - 1); 0 at scale 0 even for eps = inf, inf past the float range."""
    try:
        return scale * math.expm1(eps) if scale else 0.0
    except OverflowError:
        return math.inf


def resample_budget(lam: float, gamma: float) -> float:
    """Budget spent resampling: log(1 + (1-lam)/(lam*gamma)); inf when lam or gamma is 0."""
    return math.inf if lam == 0.0 or gamma == 0.0 else math.log1p((1.0 - lam) / (lam * gamma))


def report(params: MechanismParams, eps_tilde: float | None = None) -> PrivacyReport:
    """The guarantee of a cluster-mechanism release and its two-stage split.

    Without ``eps_tilde`` it is the pure epsilon: the prior budget plus the resampling
    budget, at delta 0. At a chosen resampling budget ``eps_tilde`` the failure
    probability is delta = max(0, 1 - lam - lam * gamma * (e^eps_tilde - 1)); every
    mechanism meets eps_tilde = inf, so delta is 0 there whatever lam is.
    """
    if eps_tilde is not None and not eps_tilde > 0:
        raise ValidationError("eps_tilde must be > 0")
    prior = prior_budget(params.gamma, params.sigma)
    if eps_tilde is None:
        resample = resample_budget(params.lam, params.gamma)
        return PrivacyReport(prior + resample, 0.0, prior, resample)
    delta = 0.0
    if not math.isinf(eps_tilde):
        delta = max(0.0, 1.0 - params.lam - _excess(params.lam * params.gamma, eps_tilde))
    return PrivacyReport(prior + eps_tilde, delta, prior, eps_tilde)


def cluster_dp_eps_delta(params: MechanismParams, eps_tilde: float) -> PrivacyReport:
    """(epsilon, delta) guarantee of the cluster mechanism at a chosen resampling budget."""
    return report(params, eps_tilde)


def cluster_dp_pure_eps(params: MechanismParams) -> float:
    """Pure epsilon: the prior budget plus the resampling budget."""
    return report(params).epsilon


def calibrate_lambda(target_eps: float, target_delta: float, gamma: float, sigma: float) -> float:
    """Largest-variance-free lam meeting (target_eps, target_delta) for the cluster mechanism.

    lam solves the delta identity, lam = (1 - delta) / (1 + gamma (e^eps_tilde - 1)), at
    the ``resample_share`` of the target. Every mechanism meets eps_tilde = inf, so lam
    is 0 there; a lam of 1, which leaves no estimator, is a CalibrationError.
    """
    if not target_eps > 0:
        raise CalibrationError("target_eps must be > 0")
    if not 0.0 <= target_delta < 1.0:
        raise ValidationError("target_delta must lie in [0, 1)")
    eps_tilde = resample_share(target_eps, gamma, sigma)
    if math.isinf(eps_tilde):
        return 0.0
    lam = (1.0 - target_delta) / (1.0 + _excess(gamma, eps_tilde))
    if lam >= 1.0:  # no commas: experiment tables hold this message in one cell
        raise CalibrationError(
            f"no lambda < 1 meets target_eps={target_eps} and "
            f"target_delta={target_delta} at gamma={gamma}"
        )
    return lam
