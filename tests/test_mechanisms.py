import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from clusterdp import accounting
from clusterdp.mechanisms import (
    arm_histograms,
    cluster_dp,
    fit_priors,
    noisy_histogram,
    noisy_ht,
    perturb_clip,
    read_release,
    renormalize,
    resample_from_uniforms,
    resample_outcomes,
    write_release,
)
from clusterdp.model import (
    Design,
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    ValidationError,
    draw_design,
)
from clusterdp.rng import RngStreams, laplace_noise

from conftest import interleaved_cells, make_population, random_population, uniform_release
from oracles import prior_violations, q_matrix, resample_dense


def fixed_design(pop, n1c):
    z = np.zeros(pop.n, dtype=np.int8)
    n1c = np.asarray(n1c)
    for c in range(pop.n_clusters):
        members = np.flatnonzero(pop.cluster == c)
        z[members[: n1c[c]]] = 1
    return Design(z=z, n1c=n1c, n0c=pop.cluster_sizes - n1c)


class TestEmpiricalHistogram:
    def test_counting(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 0), (0, 1), (1, 1), (1, 0)]})
        design = fixed_design(pop, [1])
        # control units are the last three: observed y0 = [0, 1, 1]
        counts = arm_histograms(pop, design)
        p_hat = counts / design.arm_counts()[..., None]
        assert p_hat[0, 0].tolist() == [1 / 3, 2 / 3]
        assert counts[0, 0].tolist() == [1, 2]

    def test_degenerate_histogram(self):
        pop = make_population((0.0, 1.0), {"a": [(1, 1)] * 4})
        design = fixed_design(pop, [2])
        p_hat = arm_histograms(pop, design) / design.arm_counts()[..., None]
        assert p_hat[0, 0].tolist() == [0.0, 1.0]

    def test_quarter_three_quarter(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 0), (1, 0), (1, 0), (1, 0), (0, 1)]})
        design = fixed_design(pop, [1])
        p_hat = arm_histograms(pop, design) / design.arm_counts()[..., None]
        assert p_hat[0, 0].tolist() == [0.25, 0.75]


class TestPerturbClip:
    def test_sigma_zero_is_plain_clip(self):
        rng = RngStreams(1).generator("noise")
        p_hat = np.array([0.9, 0.1])
        q = perturb_clip(p_hat, gamma=0.2, sigma=0.0, n_ac=5, rng=rng)
        assert q.tolist() == [0.9, 0.2]

    def test_injected_noise_clips_both_sides(self):
        q = perturb_clip(np.array([0.9, 0.1]), 0.2, 1.0, 5, noise=np.array([0.3, -0.3]))
        assert q.tolist() == [1.0, 0.2]

    def test_lower_clip_binds_at_gamma_half(self):
        q = perturb_clip(np.array([0.5, 0.5]), 0.5, 1.0, 5, noise=np.array([-0.4, 0.6]))
        assert q.tolist() == [0.5, 1.0]

    def test_sigma_inf_skips_noise(self):
        q = perturb_clip(np.array([0.7, 0.3]), 0.1, math.inf, 5)
        assert q.tolist() == [0.7, 0.3]


class TestRenormalize:
    def test_excess_mass_branch(self):
        q_tilde = renormalize(np.array([0.5, 0.6]), gamma=0.1)
        assert q_tilde == pytest.approx([0.5 - 0.4 / 0.9 * 0.1, 0.6 - 0.5 / 0.9 * 0.1], abs=1e-12)

    def test_deficit_mass_branch(self):
        q_tilde = renormalize(np.array([0.2, 0.3]), gamma=0.1)
        assert q_tilde == pytest.approx([0.2 + 0.8 / 1.5 * 0.5, 0.3 + 0.7 / 1.5 * 0.5], abs=1e-12)

    def test_exact_sum_returned_unchanged(self):
        q = np.array([0.25, 0.75])
        assert renormalize(q, 0.1).tolist() == [0.25, 0.75]

    @given(
        st.integers(min_value=2, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200)
    def test_output_is_floored_distribution(self, k, gamma_frac, seed):
        gamma = gamma_frac / k
        rng = np.random.default_rng(seed)
        q = gamma + (1.0 - gamma) * rng.random(k)
        q_tilde = renormalize(q, gamma)
        assert np.all(q_tilde >= gamma)
        assert abs(q_tilde.sum() - 1.0) < 1e-12


def uniform_pop(k, n, label="a"):
    values = tuple(float(v) for v in range(k))
    pairs = [(values[i % k], values[i % k]) for i in range(n)]
    return make_population(values, {label: pairs})


class TestClusterDp:
    def params(self, **kw):
        defaults = dict(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=2.0, lam=0.5)
        defaults.update(kw)
        return MechanismParams(**defaults)

    def test_lambda_zero_release_is_bitwise_truth(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = cluster_dp(small_pop, design, self.params(lam=0.0), streams.child("m"))
        assert np.array_equal(release.y_tilde, small_pop.observed(design))

    def test_full_resample_uniform_frequencies(self, streams):
        # lam=1, gamma=1/K, sigma=0 on a cluster with uniform histogram
        k, n = 4, 50_000
        pop = uniform_pop(k, n)
        design = fixed_design(pop, [n // 2])
        params = self.params(gamma=1.0 / k, sigma=0.0, lam=1.0)
        release = cluster_dp(pop, design, params, streams.child("u"))
        freqs = np.bincount(release.y_tilde, minlength=k) / n
        bound = 3 * math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert np.all(np.abs(freqs - 1.0 / k) < bound)

    def test_gamma_one_over_k_forces_uniform_prior(self, streams):
        rng = np.random.default_rng(7)
        for sigma in (0.0, 0.7, 10.0, math.inf):
            pop = random_population(rng, n_clusters=2, space_values=(0.0, 1.0, 3.0))
            design = draw_design(pop, 0.5, streams.generator("z", int(sigma if sigma != math.inf else 99)))
            k = pop.space.k
            prior = fit_priors(pop, design, self.params(gamma=1.0 / k, sigma=sigma), streams.generator("n", int(sigma if sigma != math.inf else 99)))
            assert np.max(np.abs(prior.q - 1.0 / k)) < 1e-12

    def test_gamma_one_over_k_release_matches_uniform_prior_mechanism(self, streams):
        # chi-square on 50k draws against the exact per-unit mixture law
        k, n, lam = 4, 50_000, 0.6
        rng = np.random.default_rng(11)
        values = tuple(float(v) for v in range(k))
        pairs = [(values[rng.integers(0, k)], values[rng.integers(0, k)]) for _ in range(n)]
        pop = make_population(values, {"a": pairs})
        design = fixed_design(pop, [n // 2])
        params = self.params(gamma=1.0 / k, sigma=math.inf, lam=lam)
        release = cluster_dp(pop, design, params, streams.child("chi"))
        observed = np.bincount(release.y_tilde, minlength=k).astype(float)
        y_obs = pop.observed(design)
        expected = lam * n / k + (1 - lam) * np.bincount(y_obs, minlength=k)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, df=k - 1)

    def test_prior_invariants_over_randomized_runs(self, streams):
        rng = np.random.default_rng(3)
        for trial in range(200):
            pop = random_population(rng)
            design = draw_design(pop, 0.5, streams.generator("zz", trial))
            k = pop.space.k
            gamma = float(rng.uniform(0.0, 1.0 / k))
            sigma = float(rng.choice([0.0, 0.5, 5.0, math.inf]))
            prior = fit_priors(
                pop, design, self.params(gamma=gamma, sigma=sigma), streams.generator("nn", trial)
            )
            assert prior_violations(prior) == []

    def test_prior_invariants_batched_ten_thousand(self, streams):
        # 10^4 noise/clip/renormalize draws per K: entries >= gamma, sums 1 +- 1e-12
        rng = np.random.default_rng(17)
        for k in (2, 5, 12):
            gamma = float(rng.uniform(0.0, 1.0 / k))
            p_hat = rng.dirichlet(np.ones(k), size=10_000)
            noise = laplace_noise(streams.generator("big", k), 0.3, (10_000, k))
            q_tilde = renormalize(np.clip(p_hat + noise, gamma, 1.0), gamma)
            assert np.all(q_tilde >= gamma)
            assert np.max(np.abs(q_tilde.sum(axis=-1) - 1.0)) < 1e-12

    def test_cluster_free_pools_and_keeps_cluster_ids(self, streams):
        rng = np.random.default_rng(5)
        pop = random_population(rng, n_clusters=3)
        design = draw_design(pop, 0.5, streams.generator("z"))
        params = self.params(kind=MechanismKind.CLUSTER_FREE_DP)
        release = cluster_dp(pop, design, params, streams.child("cf"))
        # pooled fit: identical prior and debias rows for every cluster
        assert np.all(release.q_tilde == release.q_tilde[0])
        assert np.all(release.debias == release.debias[0])
        assert np.array_equal(release.cluster, pop.cluster)

    def test_empty_arm_is_hard_error(self, streams):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0)]})
        z = np.array([1, 0], dtype=np.int8)
        design = Design(z=z, n1c=np.array([1]), n0c=np.array([1]))
        bad = Design.__new__(Design)  # bypass count validation to hit the histogram check
        object.__setattr__(bad, "z", np.array([1, 1], dtype=np.int8))
        object.__setattr__(bad, "n1c", np.array([2]))
        object.__setattr__(bad, "n0c", np.array([0]))
        with pytest.raises(ValidationError, match="empty treatment arm|at least one unit"):
            cluster_dp(pop, bad, self.params(), streams.child("bad"))
        cluster_dp(pop, design, self.params(), streams.child("ok"))

    def test_resampling_stage_ratio_audit(self, streams):
        # analytic inequality: 1-lam+lam*q <= e^eps_tilde * lam * q + delta entrywise
        rng = np.random.default_rng(13)
        for trial in range(50):
            pop = random_population(rng)
            design = draw_design(pop, 0.5, streams.generator("za", trial))
            k = pop.space.k
            gamma = float(rng.uniform(1e-3, 1.0 / k))
            lam = float(rng.uniform(0.3, 0.99))
            params = self.params(gamma=gamma, sigma=1.0, lam=lam)
            prior = fit_priors(pop, design, params, streams.generator("na", trial))
            for eps_tilde in (0.3, accounting.cluster_dp_pure_eps(params) - accounting.prior_budget(gamma, 1.0)):
                report = accounting.cluster_dp_eps_delta(params, eps_tilde)
                lhs = 1.0 - lam + lam * prior.q
                rhs = math.exp(eps_tilde) * lam * prior.q + report.delta
                assert np.all(lhs <= rhs + 1e-12)


class TestNeighboringStability:
    def test_shared_noise_prior_shift_bounded(self, streams):
        # one changed label, same injected noise: |q~ - q~'|_inf <= 2/n
        rng = np.random.default_rng(23)
        for trial in range(300):
            k = int(rng.choice([2, 5, 12]))
            n = int(rng.integers(2, 40))
            gamma = float(rng.uniform(0.0, 1.0 / k))
            labels = rng.integers(0, k, size=n)
            neighbor = labels.copy()
            neighbor[rng.integers(0, n)] = rng.integers(0, k)
            noise = laplace_noise(streams.generator("w", trial), float(rng.uniform(0.01, 0.5)), k)
            q1 = renormalize(perturb_clip(np.bincount(labels, minlength=k) / n, gamma, 1.0, n, noise=noise), gamma)
            q2 = renormalize(perturb_clip(np.bincount(neighbor, minlength=k) / n, gamma, 1.0, n, noise=noise), gamma)
            assert np.max(np.abs(q1 - q2)) <= 2.0 / n + 1e-12


class TestUniformPriorDp:
    def test_release_is_cluster_dp_with_prior_one_over_k(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        node = streams.child("u")
        release = uniform_release(small_pop, design, 0.6, node)
        assert release.kind is MechanismKind.UNIFORM_PRIOR_DP
        assert np.all(release.q_tilde == 1.0 / 3.0) and release.q_tilde.shape == (2, 2, 3)
        y_tilde = resample_outcomes(
            small_pop.observed(design), small_pop.cluster, design.z, release.q_tilde, 0.6,
            node.generator("resample"),
        )
        assert np.array_equal(release.y_tilde, y_tilde)

    def test_lambda_zero_identity(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = uniform_release(small_pop, design, 0.0, streams.child("u0"))
        assert np.array_equal(release.y_tilde, small_pop.observed(design))

    def test_lambda_one_uniform_frequencies(self, streams):
        k, n = 3, 60_000
        pop = uniform_pop(k, n)
        release = uniform_release(pop, fixed_design(pop, [n // 2]), 1.0, streams.child("u1"))
        freqs = np.bincount(release.y_tilde, minlength=k) / n
        bound = 3 * math.sqrt((1 / k) * (1 - 1 / k) / n)
        assert np.all(np.abs(freqs - 1.0 / k) < bound)

    def test_binary_keep_probability(self, streams):
        # K=2, lam=0.5, true y=1: P(report 1) = 1 - lam + lam/K = 0.75
        n = 50_000
        pop = make_population((0.0, 1.0), {"a": [(1, 1)] * n})
        release = uniform_release(pop, fixed_design(pop, [n // 2]), 0.5, streams.child("u2"))
        p_hat = release.y_tilde.mean()
        assert abs(p_hat - 0.75) < 3 * math.sqrt(0.75 * 0.25 / n)


class TestResampleKernel:
    """The CDF-table resampler against the (n, K) inverse-CDF oracle, bit for bit."""

    @staticmethod
    def _tables(rng, table, shape, k):
        if table == "uniform":
            return np.full((*shape, k), 1.0 / k)
        # the prior fit at gamma = 0, which clips many entries to exactly 0
        counts = rng.multinomial(6, np.full(k, 1.0 / k), size=shape)
        noise = laplace_noise(rng, 0.3, counts.shape)
        return renormalize(perturb_clip(counts / 6.0, 0.0, 1.0, 6, noise=noise), 0.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3, 13]),
        c=st.integers(1, 4),
        reps=st.sampled_from([None, 3]),
        table=st.sampled_from(["uniform", "fitted"]),
        lam=st.sampled_from([0.0, 0.4, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, seed, k, c, reps, table, lam):
        rng = np.random.default_rng(seed)
        cluster, z, _, _ = interleaved_cells(rng, c)
        n = len(cluster)
        lead = () if reps is None else (reps,)
        q = self._tables(rng, table, (*lead, c, 2), k)
        cdf = np.cumsum(q, axis=-1)[..., cluster, z, :]  # (..., n, K)
        # u_cat: a fresh uniform, exactly a CDF entry, or just above the last entry
        entry = np.take_along_axis(cdf, rng.integers(0, k, (*lead, n, 1)), axis=-1)[..., 0]
        above = np.nextafter(cdf[..., -1], 2.0)
        mode = rng.integers(0, 3, (*lead, n))
        u_cat = np.select([mode == 0, mode == 1], [rng.random((*lead, n)), entry], above)
        u_keep = rng.random((*lead, n))
        y = rng.integers(0, k, n)
        got = resample_from_uniforms(y, cluster, z, q, lam, u_keep, u_cat)
        want = resample_dense(y, cluster, z, q, lam, u_keep, u_cat)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_last_cdf_entry_below_one(self):
        # 13 summed thirteenths round below 1, so u_cat can lie above the whole CDF
        k = 13
        q = np.full((1, 2, k), 1.0 / k)
        top = np.cumsum(q[0, 0])[-1]
        assert top < 1.0
        u_cat = np.array([top, np.nextafter(top, 1.0), 0.5 / k])
        cluster, z = np.zeros(3, dtype=np.int64), np.array([0, 1, 0], dtype=np.int8)
        args = (np.zeros(3, dtype=np.int64), cluster, z, q, 1.0, np.zeros(3), u_cat)
        got = resample_from_uniforms(*args)
        assert np.array_equal(got, resample_dense(*args))
        assert got.tolist() == [k - 1, k - 1, 0]


class TestAggregateBaselines:
    def test_noisy_ht_no_noise_limit(self, small_pop, streams):
        from clusterdp.estimation import tau_no_dp

        design = draw_design(small_pop, 0.5, streams.generator("z"))
        est = noisy_ht(small_pop, design, math.inf, streams.child("nht"))
        assert est.value == tau_no_dp(small_pop, design)
        assert np.all(est.noise_scales == 0.0)

    def test_sensitivity_formula(self, streams):
        # space {-3..6}, min arm 5 -> scale 6/5 at eps=1
        values = tuple(float(v) for v in range(-3, 7))
        pop = make_population(values, {"a": [(values[i % 10], values[(i + 1) % 10]) for i in range(11)]})
        design = fixed_design(pop, [5])
        est = noisy_ht(pop, design, 1.0, streams.child("s"))
        assert est.noise_scales.tolist() == [6.0 / 5.0]

    def test_noisy_ht_added_variance(self, streams):
        from clusterdp.estimation import tau_no_dp

        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0), (1, 1), (0, 0)]})
        design = fixed_design(pop, [2])
        base = tau_no_dp(pop, design)
        draws = np.array(
            [noisy_ht(pop, design, 1.0, streams.child("v", r)).value - base for r in range(50_000)]
        )
        assert np.var(draws, ddof=1) == pytest.approx(0.5, rel=0.05)

    def test_noisy_histogram_no_noise_limit(self, small_pop, streams):
        from clusterdp.estimation import tau_no_dp

        design = draw_design(small_pop, 0.5, streams.generator("z"))
        val = noisy_histogram(small_pop, design, math.inf, streams.child("nh"))
        assert val == tau_no_dp(small_pop, design)

    def test_degenerate_space_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeSpace((1.0,))

    def test_epsilon_must_be_positive(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        with pytest.raises(ValidationError):
            noisy_ht(small_pop, design, 0.0, streams.child("x"))
        with pytest.raises(ValidationError):
            noisy_histogram(small_pop, design, -1.0, streams.child("x"))


class TestReleaseSerialization:
    def test_roundtrip_and_byte_stability(self, small_pop, streams, tmp_path):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=3.0, lam=0.7)
        release = cluster_dp(small_pop, design, params, streams.child("ser"))
        csv1, side1 = tmp_path / "r.csv", tmp_path / "r.json"
        write_release(release, csv1, side1)
        back = read_release(csv1, side1)
        assert np.array_equal(back.y_tilde, release.y_tilde)
        assert np.array_equal(back.design.z, release.design.z)
        assert np.allclose(back.debias, release.debias)
        assert back.lam == release.lam and math.isinf(back.sigma) is math.isinf(release.sigma)
        # identical seed -> identical bytes
        release2 = cluster_dp(small_pop, design, params, streams.child("ser"))
        csv2, side2 = tmp_path / "r2.csv", tmp_path / "r2.json"
        write_release(release2, csv2, side2)
        assert csv1.read_bytes() == csv2.read_bytes()
        assert side1.read_bytes() == side2.read_bytes()

    def test_debias_row_reproduces_outcomes_through_q(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=3.0, lam=0.7)
        release = cluster_dp(small_pop, design, params, streams.child("dbg"))
        vals = small_pop.space.array
        for c in range(small_pop.n_clusters):
            for a in (0, 1):
                q = q_matrix(release.q_tilde[c, a], release.lam)
                assert np.max(np.abs(release.debias[c, a] @ q - vals)) < 1e-10
