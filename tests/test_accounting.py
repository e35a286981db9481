import inspect
import math

import numpy as np
import pytest

from clusterdp import accounting
from clusterdp.accounting import (
    CalibrationError,
    calibrate_lambda,
    cluster_dp_eps_delta,
    cluster_dp_pure_eps,
    prior_budget,
    resample_share,
)
from clusterdp.model import MechanismKind, MechanismParams, ValidationError
from clusterdp.rng import RngStreams

from oracles import uniform_prior_eps

uniform = MechanismParams.uniform_prior


def params(gamma, sigma, lam):
    return MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=gamma, sigma=sigma, lam=lam)


class TestClusterAccounting:
    def test_pure_eps_worked_example(self):
        # sigma=10, gamma=0.02, lam=0.8: eps_tilde = log(13.5), eps = 0.1 + log(13.5)
        p = params(0.02, 10.0, 0.8)
        assert cluster_dp_pure_eps(p) == pytest.approx(0.1 + math.log(13.5), abs=1e-12)
        report = cluster_dp_eps_delta(p, math.log(13.5))
        assert report.prior_budget == pytest.approx(0.1, abs=1e-15)
        assert report.epsilon == pytest.approx(0.1 + math.log(13.5), abs=1e-12)
        assert report.delta == pytest.approx(0.0, abs=1e-15)

    def test_lambda_one_delta_zero(self):
        report = cluster_dp_eps_delta(params(0.1, 5.0, 1.0), 1.0)
        assert report.delta == 0.0

    def test_lambda_one_pure_eps_is_prior_only(self):
        assert cluster_dp_pure_eps(params(0.1, 5.0, 1.0)) == pytest.approx(0.2, abs=1e-15)

    def test_lambda_to_zero_delta_to_one(self):
        report = cluster_dp_eps_delta(params(0.1, 5.0, 1e-9), 0.01)
        assert report.delta > 0.999

    def test_lambda_zero_pure_eps_infinite(self):
        assert math.isinf(cluster_dp_pure_eps(params(0.1, 5.0, 0.0)))

    def test_gamma_zero_reports_infinity(self):
        assert math.isinf(cluster_dp_pure_eps(params(0.0, 5.0, 0.5)))

    def test_sigma_inf_prior_budget_zero(self):
        assert prior_budget(0.1, math.inf) == 0.0

    def test_no_function_takes_k(self):
        for name in accounting.__all__:
            fn = getattr(accounting, name)
            if inspect.isfunction(fn):
                assert "k" not in inspect.signature(fn).parameters, name
        assert not hasattr(accounting, "warnings")

    def test_prior_budget_uses_min(self):
        assert prior_budget(0.5, 10.0) == pytest.approx(0.1)
        assert prior_budget(0.001, 10.0) == pytest.approx(0.1)
        assert prior_budget(0.5, 0.1) == pytest.approx(2.0 / 0.5)
        # sigma = inf contributes min(0, 2/gamma) = 0 even at gamma = 0
        assert prior_budget(0.0, math.inf) == 0.0
        assert math.isinf(prior_budget(0.0, 0.0))


class TestUniformAccounting:
    """The uniform prior is priced by the cluster accountant at gamma = 1/K, sigma = inf."""

    def test_worked_examples(self):
        assert cluster_dp_pure_eps(uniform(12, 0.8)) == pytest.approx(math.log(4.0), abs=1e-12)
        assert cluster_dp_pure_eps(uniform(2, 0.5)) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_full_resampling_costs_nothing(self):
        assert cluster_dp_pure_eps(uniform(7, 1.0)) == 0.0

    def test_lambda_zero_infinite(self):
        assert math.isinf(cluster_dp_pure_eps(uniform(7, 0.0)))

    def test_eps_delta_decomposition(self):
        report = cluster_dp_eps_delta(uniform(5, 0.9), 0.7)
        assert report.prior_budget == 0.0
        assert report.epsilon == 0.7
        assert report.delta == pytest.approx(max(0.0, 1 - 0.9 - 0.9 / 5 * math.expm1(0.7)))


class TestReport:
    """``report`` builds every PrivacyReport: pure, or at a chosen eps_tilde."""

    def test_pure_report(self):
        p = params(0.02, 10.0, 0.8)
        got = accounting.report(p)
        assert got == accounting.PrivacyReport(
            0.1 + accounting.resample_budget(0.8, 0.02), 0.0, 0.1, math.log1p(0.2 / 0.016)
        )
        assert got.epsilon == cluster_dp_pure_eps(p)

    def test_eps_delta_report(self):
        p = params(0.02, 10.0, 0.8)
        got = accounting.report(p, eps_tilde=1.0)
        assert got == cluster_dp_eps_delta(p, 1.0)
        assert got.delta == 1.0 - 0.8 - 0.8 * 0.02 * math.expm1(1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 0.02])
    def test_infinite_eps_tilde_has_zero_delta(self, gamma, lam):
        # every mechanism meets (inf, 0); lam = 0 used to read delta = 1
        got = accounting.report(params(gamma, 10.0, lam), eps_tilde=math.inf)
        assert got.epsilon == math.inf and got.delta == 0.0

    @pytest.mark.parametrize("eps_tilde", [0.0, -1.0, math.nan])
    def test_eps_tilde_must_be_positive(self, eps_tilde):
        with pytest.raises(ValidationError, match="eps_tilde must be > 0"):
            accounting.report(params(0.02, 10.0, 0.8), eps_tilde=eps_tilde)


class TestCalibration:
    def test_worked_example(self):
        # eps=0.2, delta=1e-4, sigma=10, gamma=0.02 -> lam ~ 0.99779
        lam = calibrate_lambda(0.2, 1e-4, 0.02, 10.0)
        assert lam == pytest.approx(0.9999 / (1.0 + 0.02 * math.expm1(0.1)), abs=1e-15)
        assert lam == pytest.approx(0.99780, abs=2e-5)
        # forward evaluation is the binding check
        report = cluster_dp_eps_delta(params(0.02, 10.0, lam), 0.1)
        assert report.epsilon == pytest.approx(0.2, abs=1e-12)
        assert report.delta == pytest.approx(1e-4, abs=1e-12)

    def test_pure_inverse_round_trip(self):
        lam = calibrate_lambda(1.5, 0.0, 0.05, 10.0)
        p = params(0.05, 10.0, lam)
        assert cluster_dp_pure_eps(p) == pytest.approx(1.5, abs=1e-12)

    def test_uniform_inverse_round_trip(self):
        u = uniform(12)
        lam = calibrate_lambda(math.log(4.0), 0.0, u.gamma, u.sigma)
        assert lam == pytest.approx(0.8, abs=1e-12)
        assert cluster_dp_pure_eps(uniform(12, lam)) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_budget_exhausted(self):
        with pytest.raises(CalibrationError, match="budget exhausted"):
            calibrate_lambda(0.05, 0.0, 0.02, 10.0)

    def test_resample_share(self):
        assert resample_share(0.2, 0.02, 10.0) == 0.2 - prior_budget(0.02, 10.0)
        assert resample_share(math.inf, 0.0, 0.0) == math.inf  # prior budget inf too
        with pytest.raises(CalibrationError, match="budget exhausted"):
            resample_share(0.1, 0.02, 10.0)
        assert resample_share(math.inf, 0.01, math.inf) == math.inf

    def test_nonpositive_target_named(self):
        # named as the target's fault even where the prior budget is 0 (the uniform prior)
        for gamma, sigma in ((0.02, 10.0), (1.0 / 12.0, math.inf)):
            with pytest.raises(CalibrationError, match="target_eps must be > 0"):
                calibrate_lambda(0.0, 0.0, gamma, sigma)

    def test_round_trip_grid(self):
        for gamma in (0.002, 0.02, 1.0 / 12.0):
            for sigma in (1.0, 10.0, math.inf):
                for eps in (0.2, 0.5, 1.2, 2.0, 4.0, 8.0):
                    for delta in (0.0, 1e-4):
                        prior = prior_budget(gamma, sigma)
                        if eps <= prior:
                            with pytest.raises(CalibrationError):
                                calibrate_lambda(eps, delta, gamma, sigma)
                            continue
                        lam = calibrate_lambda(eps, delta, gamma, sigma)
                        report = cluster_dp_eps_delta(params(gamma, sigma, lam), eps - prior)
                        assert abs(report.epsilon - eps) < 1e-12
                        assert abs(report.delta - delta) < 1e-12

    def test_monotonicity_of_pure_eps(self):
        gammas = np.linspace(0.005, 1.0 / 12.0, 9)
        sigmas = [0.5, 1.0, 5.0, 50.0, math.inf]
        lams = np.linspace(0.05, 0.99, 9)
        base = cluster_dp_pure_eps(params(0.02, 10.0, 0.5))
        eps_g = [cluster_dp_pure_eps(params(g, 10.0, 0.5)) for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(eps_g, eps_g[1:]))
        eps_s = [cluster_dp_pure_eps(params(0.02, s, 0.5)) for s in sigmas]
        assert all(a >= b - 1e-12 for a, b in zip(eps_s, eps_s[1:]))
        eps_l = [cluster_dp_pure_eps(params(0.02, 10.0, v)) for v in lams]
        assert all(a >= b - 1e-12 for a, b in zip(eps_l, eps_l[1:]))
        assert base == cluster_dp_pure_eps(params(0.02, 10.0, 0.5))

    def test_cross_consistency_with_uniform(self):
        for k in (2, 5, 12):
            for lam in np.linspace(0.1, 0.99, 15):
                cluster = cluster_dp_pure_eps(params(1.0 / k, math.inf, float(lam)))
                assert abs(cluster - uniform_prior_eps(k, float(lam))) < 1e-12


class TestEmpiricalAudit:
    def test_reporting_ratio_within_budget(self):
        # K=2 resampling stage, fixed prior at the floor: simulate conditional
        # report frequencies and compare against the accounted budget.
        k, lam, gamma = 2, 0.7, 0.3
        q = np.array([gamma, 1.0 - gamma])
        eps_tilde = 0.6
        report = cluster_dp_eps_delta(params(gamma, math.inf, lam), eps_tilde)
        n = 1_000_000
        rng = RngStreams(77).generator("audit")
        resample = rng.random(n) < lam
        drawn = (rng.random(n) < q[1]).astype(int)  # index 1 w.p. q[1]
        # true label is index 0 for all units
        reported = np.where(resample, drawn, 0)
        p_true = np.mean(reported == 0)  # P(report y | y true), y = index 0
        p_other = lam * q[0]  # P(report y | y' != y) is exactly lam q(y)
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert p_true <= math.exp(eps_tilde) * p_other + report.delta + 4 * se
