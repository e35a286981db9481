import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from clusterdp import accounting
from clusterdp.estimation import tau_q
from clusterdp.mechanisms import (
    _RESAMPLE_BLOCK,
    _bucket_count,
    arm_histograms,
    cluster_dp,
    fit_priors,
    histogram_noise_term,
    histogram_scales,
    ht_noise_term,
    ht_scales,
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
from clusterdp.variance import baseline_gaps

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
    def test_injected_noise_clips_both_sides(self):
        q = perturb_clip(np.array([0.9, 0.1]), 0.2, np.array([0.3, -0.3]))
        assert q.tolist() == [1.0, 0.2]

    def test_lower_clip_binds_at_gamma_half(self):
        q = perturb_clip(np.array([0.5, 0.5]), 0.5, np.array([-0.4, 0.6]))
        assert q.tolist() == [0.5, 1.0]


class TestFitPriors:
    @staticmethod
    def control_prior(control_ones, gamma, sigma, rng):
        """The fitted control-arm prior of one K = 2 cluster: one treated unit, then
        ten control units of which ``control_ones`` observe outcome 1."""
        pairs = [(1, 1)] + [(0, 0)] * (10 - control_ones) + [(1, 1)] * control_ones
        pop = make_population((0.0, 1.0), {"a": pairs})
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=gamma, sigma=sigma, lam=0.5)
        return fit_priors(pop, fixed_design(pop, [1]), params, rng).q[0, 0]

    def test_sigma_zero_is_plain_clip(self):
        # p_hat = (0.9, 0.1): zero-scale noise, so the clip gives (0.9, 0.2)
        q = self.control_prior(1, 0.2, 0.0, RngStreams(1).generator("noise"))
        assert q.tolist() == renormalize(np.array([0.9, 0.2]), 0.2).tolist()

    def test_sigma_inf_skips_noise(self):
        rng = RngStreams(1).generator("noise")
        q = self.control_prior(3, 0.1, math.inf, rng)
        assert q.tolist() == [0.7, 0.3]
        assert rng.random() == RngStreams(1).generator("noise").random()  # no draw made


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
            q1 = renormalize(perturb_clip(np.bincount(labels, minlength=k) / n, gamma, noise), gamma)
            q2 = renormalize(perturb_clip(np.bincount(neighbor, minlength=k) / n, gamma, noise), gamma)
            assert np.max(np.abs(q1 - q2)) <= 2.0 / n + 1e-12


class TestUniformPriorDp:
    def test_release_is_cluster_dp_with_prior_one_over_k(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        node = streams.child("u")
        release = uniform_release(small_pop, design, 0.6, node)
        assert release.params.kind is MechanismKind.UNIFORM_PRIOR_DP
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
        return renormalize(perturb_clip(counts / 6.0, 0.0, noise), 0.0)

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

    @staticmethod
    def _units(rng, n, c, k, lead):
        """Random arguments for n units: cells in random order, a fitted table per replication."""
        q = TestResampleKernel._tables(rng, "fitted", (*lead, c, 2), k)
        cluster, z = rng.integers(0, c, n), rng.integers(0, 2, n).astype(np.int8)
        u_keep, u_cat = rng.random((*lead, n)), rng.random((*lead, n))
        return rng.integers(0, k, n), cluster, z, q, 0.6, u_keep, u_cat

    @pytest.mark.parametrize("reps", [None, 3])
    @pytest.mark.parametrize(
        "n", [0, 1, _RESAMPLE_BLOCK - 1, _RESAMPLE_BLOCK, _RESAMPLE_BLOCK + 1,
              5 * _RESAMPLE_BLOCK // 2],
    )
    def test_block_boundaries(self, n, reps):
        # the comparison path: 50 clusters leave too few uniforms a row for a bucket table
        args = self._units(np.random.default_rng(n), n, 50, 12, () if reps is None else (reps,))
        assert _bucket_count(args[-1].size, args[3][..., 0].size) == 0
        got, want = resample_from_uniforms(*args), resample_dense(*args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_draws_past_an_8_bit_count(self):
        # K = 300 needs a 16-bit counter: draws of 256 and above must not wrap
        rng = np.random.default_rng(11)
        args = self._units(rng, 3000, 2, 300, ())
        q = np.full((2, 2, 300), 1.0 / 300)
        args = (*args[:3], q, 1.0, *args[5:])  # lam = 1 redraws every unit
        got = resample_from_uniforms(*args)
        assert got.max() >= 256
        assert np.array_equal(got, resample_dense(*args))

    def _peak_per_unit(self, c):
        n = 200_000
        args = self._units(np.random.default_rng(5), n, c, 12, ())
        gc.collect()
        tracemalloc.start()
        try:
            resample_from_uniforms(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / n

    def test_peak_memory_per_unit(self):
        """Below 14 bytes a unit at 200 000 units, K = 12: the int64 result and one block.

        The unblocked kernel held the cell index, the count and one gathered
        threshold column for every unit at once: 25.1 bytes a unit. The blocked
        one, which gathers all K - 1 thresholds of a block's units at once,
        measures 12.9 on 200 clusters, too many for a bucket table, with
        Python 3.11.7 and NumPy 2.4.6.
        """
        assert _bucket_count(200_000, 2 * 200) == 0
        assert self._peak_per_unit(200) < 14

    def test_peak_memory_per_unit_with_table(self):
        # 50 clusters: a 64-bucket table, 10.1 bytes a unit
        assert _bucket_count(200_000, 2 * 50) == 64
        assert self._peak_per_unit(50) < 14

    def test_bucket_count_rule(self):
        # no table where it cannot pay: the 875-unit releases of mc_small, baseline_bias's
        # 175-unit ones, and privatize at 5000 clusters of 20 units
        assert [_bucket_count(*call) for call in [(875, 6), (175, 6), (100_000, 10_000)]] == [0] * 3
        assert _bucket_count(10**6, 100) == 512  # 50 clusters of 20 000 units: 51 KB
        # the floor: 64 buckets at 16 uniforms an entry, and none one uniform short of it
        assert [_bucket_count(16 * 64 * 100 + d, 100) for d in (0, -1)] == [64, 0]

    @staticmethod
    def _on_table_path(q, cluster, z, u_cat, lam=1.0):
        """The kernel against the dense oracle on a call that builds the bucket table."""
        assert _bucket_count(u_cat.size, q[..., 0].size) > 0
        rng = np.random.default_rng(u_cat.size)
        y = rng.integers(0, q.shape[-1], u_cat.shape[-1])
        args = (y, cluster, z, q, lam, rng.random(u_cat.shape), u_cat)
        got, want = resample_from_uniforms(*args), resample_dense(*args)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    @staticmethod
    def _cells(rng, c, n):
        return rng.integers(0, c, n), rng.integers(0, 2, n).astype(np.int8)

    def test_table_uniform_of_one(self):
        # open_uniform's top grid point is exactly 1.0, the one u_cat past the last bucket
        rng = np.random.default_rng(21)
        k, n = 12, _RESAMPLE_BLOCK
        q = np.full((2, 2, k), 1.0 / k)  # cdf[K - 2] = 11/12: the last bucket holds no entry
        q[1] = [0.5, *[0.499 / (k - 2)] * (k - 2), 0.001]  # cdf[K - 2] = 0.999: it holds one
        cluster, z = self._cells(rng, 2, n)
        u_cat = rng.random(n)
        u_cat[::7] = 1.0
        got = self._on_table_path(q, cluster, z, u_cat)
        assert np.all(got[u_cat == 1.0] == k - 1)
        self._on_table_path(q, cluster, z, u_cat, lam=0.6)

    def test_table_uniform_at_cdf_entries(self):
        rng = np.random.default_rng(22)
        k, c, n = 12, 3, _RESAMPLE_BLOCK
        q = self._tables(rng, "fitted", (c, 2), k)  # gamma = 0: repeated CDF entries
        cluster, z = self._cells(rng, c, n)
        entry = np.cumsum(q, axis=-1)[cluster, z, rng.integers(0, k, n)]
        u_cat = np.select([rng.random(n) < 0.5, rng.random(n) < 0.5],
                          [entry, np.nextafter(entry, 0.0)], np.nextafter(entry, 2.0))
        self._on_table_path(q, cluster, z, u_cat)

    def test_table_cdf_entries_on_bucket_edges(self):
        # every CDF entry of quarters and eighths is some b / nb, where a bucket starts
        rng = np.random.default_rng(23)
        n = _RESAMPLE_BLOCK
        q = np.array([[[0.25, 0.125, 0.125, 0.5], [0.125, 0.375, 0.25, 0.25]]])
        nb = _bucket_count(n, 2)
        edges = np.arange(nb + 1) / nb  # 0.0 and 1.0 among them
        u_cat = rng.choice(np.concatenate([edges, np.nextafter(edges, 0.0), rng.random(nb)]), n)
        self._on_table_path(q, *self._cells(rng, 1, n), u_cat)

    def test_table_last_cdf_entry_at_or_above_one(self):
        rng = np.random.default_rng(24)
        n = _RESAMPLE_BLOCK
        q = np.array([[[0.5, 0.5, 0.0], [0.75, 0.25 + 2.0**-50, 0.0]]])
        top = np.cumsum(q, axis=-1)[0, :, 1]
        assert top[0] == 1.0 and top[1] > 1.0
        u_cat = rng.choice([1.0, np.nextafter(1.0, 0.0), 0.75, 0.5, *rng.random(8)], n)
        got = self._on_table_path(q, *self._cells(rng, 1, n), u_cat)
        assert np.all(got[u_cat == 1.0] == 1)

    def test_table_draws_past_an_8_bit_count(self):
        # K = 300: counts up to 299 and the marker need a 16-bit table
        rng = np.random.default_rng(25)
        n = _RESAMPLE_BLOCK
        q = np.full((1, 2, 300), 1.0 / 300)
        got = self._on_table_path(q, *self._cells(rng, 1, n), rng.random(n))
        assert got.max() >= 256

    @pytest.mark.parametrize("reps", [None, 3])
    @pytest.mark.parametrize("blocks, extra", [(1, 1), (2, -1), (2, 0), (2, 1), (2.5, 0)])
    def test_table_block_boundaries(self, blocks, extra, reps):
        # with a leading axis each replication reads its own rows of the table
        block = _RESAMPLE_BLOCK // (2 * (reps or 1))
        n = int(blocks * block) + extra
        lead = () if reps is None else (reps,)
        _, cluster, z, q, _, _, u_cat = self._units(np.random.default_rng(n), n, 1, 12, lead)
        self._on_table_path(q, cluster, z, u_cat, lam=0.6)


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

    def test_draws_and_gaps_read_one_set_of_scales(self, streams):
        """Unit draws pick out each scale; baseline_gaps is 2 b^2 summed over the same scales."""
        values = (-2.0, 0.5, 3.0)
        pop = make_population(values, {
            "a": [(values[i % 3], values[(i + 1) % 3]) for i in range(7)],
            "b": [(values[(i + 2) % 3], values[i % 3]) for i in range(5)],
        })
        design, eps = fixed_design(pop, [3, 2]), 0.7
        w = pop.cluster_sizes / pop.n
        b_ht, b_hist = ht_scales(design, pop.space, eps), histogram_scales(design, eps)
        assert b_ht.tolist() == [3.0 / 3 / eps, 3.0 / 2 / eps]
        assert ht_noise_term(pop, design, eps, np.ones(2))[0] == float(np.dot(w, b_ht))
        assert np.array_equal(noisy_ht(pop, design, eps, streams.child("h")).noise_scales, b_ht)
        for c, a, k in np.ndindex(2, 2, 3):
            std = np.zeros((2, 2, 3))
            std[c, a, k] = 1.0
            expected = (1 if a else -1) * w[c] * values[k] * b_hist[c, a]
            assert histogram_noise_term(pop, design, eps, std) == pytest.approx(expected, rel=1e-15)
        nht, nh = baseline_gaps(pop, design, eps)
        assert nht == pytest.approx(2 * np.sum((w * b_ht) ** 2), rel=1e-15)
        assert nh == pytest.approx(2 * pop.space.l2_sq * np.sum((w[:, None] * b_hist) ** 2),
                                   rel=1e-15)

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
        assert back.params.lam == release.params.lam
        assert math.isinf(back.params.sigma) is math.isinf(release.params.sigma)
        # identical seed -> identical bytes
        release2 = cluster_dp(small_pop, design, params, streams.child("ser"))
        csv2, side2 = tmp_path / "r2.csv", tmp_path / "r2.json"
        write_release(release2, csv2, side2)
        assert csv1.read_bytes() == csv2.read_bytes()
        assert side1.read_bytes() == side2.read_bytes()

    @pytest.mark.parametrize("kind", list(MechanismKind), ids=lambda kind: kind.value)
    def test_estimate_read_back_is_bit_exact(self, small_pop, streams, tmp_path, kind):
        """The reader derives the rows again from the parsed q_tilde: same bits, same estimate."""
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        params = (MechanismParams.uniform_prior(small_pop.space.k, 0.7)
                  if kind is MechanismKind.UNIFORM_PRIOR_DP
                  else MechanismParams(kind=kind, gamma=0.05, sigma=3.0, lam=0.7))
        release = cluster_dp(small_pop, design, params, streams.child("ser"))
        csv_path, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        write_release(release, csv_path, sidecar)
        back = read_release(csv_path, sidecar)
        assert back.params == release.params
        assert np.array_equal(back.q_tilde, release.q_tilde)
        assert np.array_equal(back.debias, release.debias)
        assert tau_q(back) == tau_q(release)

    def test_lambda_one_release_writes_nothing(self, small_pop, streams, tmp_path):
        """A lambda = 1 release has no debias rows, so neither file is written."""
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=3.0, lam=1.0)
        release = cluster_dp(small_pop, design, params, streams.child("ser"))
        csv_path, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        with pytest.raises(ValidationError, match="debias"):
            write_release(release, csv_path, sidecar)
        assert not csv_path.exists() and not sidecar.exists()

    def test_debias_row_reproduces_outcomes_through_q(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=3.0, lam=0.7)
        release = cluster_dp(small_pop, design, params, streams.child("dbg"))
        vals = small_pop.space.array
        for c in range(small_pop.n_clusters):
            for a in (0, 1):
                q = q_matrix(release.q_tilde[c, a], release.params.lam)
                assert np.max(np.abs(release.debias[c, a] @ q - vals)) < 1e-10
