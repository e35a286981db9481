import itertools
import math
import tracemalloc

import numpy as np
import pytest

from clusterdp.experiments import counts_design, uniform_prior_taus
from clusterdp.model import (
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
)
from clusterdp.rng import RngStreams
from clusterdp.simdata import GmmConfig, gen_gmm
from clusterdp.variance import (
    a_of_x,
    baseline_gaps,
    cluster_dp_variance_bound,
    homogeneity,
    ht_variance,
    uniform_prior_variance,
)

from conftest import make_population, pooled_with_design, random_population
from oracles import (
    homogeneity_loop,
    ht_variance_loop,
    ht_variance_unstratified_loop,
    sample_variance,
    uniform_prior_variance_loop,
)

from test_grouping import graph_population, interleaved_population
from test_mechanisms import fixed_design


def params(gamma=0.02, sigma=10.0, lam=0.8):
    return MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=gamma, sigma=sigma, lam=lam)


def enumeration_ht_variance(pop, design):
    """Independent oracle: per-cluster exhaustive enumeration of balanced assignments.

    Cluster contributions are independent, so Var = sum_c w_c^2 Var_c with
    Var_c enumerated over all C(n_c, n1c) equally likely treated subsets.
    """
    vals = pop.space.array
    total = 0.0
    for c in range(pop.n_clusters):
        members = np.flatnonzero(pop.cluster == c)
        y0 = vals[pop.y0[members]]
        y1 = vals[pop.y1[members]]
        n1 = int(design.n1c[c])
        estimates = []
        for treated in itertools.combinations(range(len(members)), n1):
            mask = np.zeros(len(members), dtype=bool)
            mask[list(treated)] = True
            estimates.append(y1[mask].mean() - y0[~mask].mean())
        w = pop.cluster_sizes[c] / pop.n
        total += w**2 * np.var(estimates)  # population variance over equally likely designs
    return total


class TestSampleVariance:
    def test_hand_values(self):
        assert sample_variance([1.0, 3.0]) == 2.0
        assert sample_variance([5.0, 5.0, 5.0]) == 0.0
        assert sample_variance([0.0, 1.0, 2.0, 3.0]) == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            sample_variance([1.0])


class TestHtVariance:
    def test_constant_effect_constant_base_is_zero(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 1)] * 4, "b": [(0, 1)] * 4})
        assert ht_variance(pop, fixed_design(pop, [2, 2])) == 0.0

    def test_two_unit_worked_example(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 0), (1, 1)]})
        design = fixed_design(pop, [1])
        assert ht_variance(pop, design) == pytest.approx(1.0, abs=1e-12)
        assert enumeration_ht_variance(pop, design) == pytest.approx(1.0, abs=1e-12)

    def test_matches_enumeration_on_random_populations(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            pop = random_population(rng, n_clusters=int(rng.integers(1, 4)), size_range=(2, 6))
            n1c = [int(rng.integers(1, s)) for s in pop.cluster_sizes]
            design = fixed_design(pop, n1c)
            assert ht_variance(pop, design) == pytest.approx(
                enumeration_ht_variance(pop, design), abs=1e-10
            )


class TestHomogeneity:
    def test_worked_example(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (0, 1), (1, 0), (1, 0)]})
        design = fixed_design(pop, [2])
        # S^2(y(0)) = 1/3, phi_0 = 1 * (1/3) / 2
        assert homogeneity(pop, design, 0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_cluster_constant_outcomes_zero(self):
        pop = make_population(
            (0.0, 1.0, 2.0), {"a": [(0, 1)] * 4, "b": [(2, 1)] * 4}
        )
        design = fixed_design(pop, [2, 2])
        assert homogeneity(pop, design, 0) == 0.0
        assert homogeneity(pop, design, 1) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pop = random_population(rng)
            design = fixed_design(pop, [s // 2 for s in pop.cluster_sizes])
            assert homogeneity(pop, design, 0) >= 0.0
            assert homogeneity(pop, design, 1) >= 0.0


def random_populations(seed=2024, count=60):
    """1-4 clusters of 2-9 units over K = 2..5 values, integer and non-integer."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(2, 6))
        grid = np.arange(-6.0, 7.0) if rng.random() < 0.5 else np.round(rng.normal(size=40) * 3, 3)
        values = tuple(sorted(rng.choice(np.unique(grid), size=k, replace=False)))
        pop = random_population(
            rng, n_clusters=int(rng.integers(1, 5)), size_range=(2, 9), space_values=values
        )
        yield pop, fixed_design(pop, [int(rng.integers(1, s)) for s in pop.cluster_sizes])


@pytest.fixture(scope="module")
def few_large_clusters():
    """50 clusters of 20 000 units: the shape where a pass over the units costs most."""
    cfg = GmmConfig(beta=2.0, v=5.0, k_prime=5, cluster_sizes=(20_000,) * 50)
    pop = gen_gmm(cfg, RngStreams(1))
    return pop, counts_design(pop, 0.5)


def reference_cases(few_large_clusters):
    yield from random_populations()
    for pop in (interleaved_population(), graph_population()):
        yield pop, counts_design(pop, 0.5)
    pop = gen_gmm(GmmConfig(beta=2.0, v=5.0, k_prime=5, cluster_sizes=(20,) * 5000), RngStreams(1))
    yield pop, counts_design(pop, 0.5)
    yield few_large_clusters


class TestMomentsMatchLoops:
    """The type-table moments give the closed forms of the per-cluster loops they replaced."""

    def test_closed_forms_match_loops(self, few_large_clusters):
        for pop, design in reference_cases(few_large_clusters):
            pooled = pooled_with_design(pop, design)
            pairs = [
                (ht_variance(pop, design), ht_variance_loop(pop, design)),
                (ht_variance(*pooled), ht_variance_unstratified_loop(pop, design.n1, design.n0)),
            ]
            pairs += [(homogeneity(pop, design, a), homogeneity_loop(pop, design, a))
                      for a in (0, 1)]
            for lam in (0.3, 0.9):
                pairs += [
                    (uniform_prior_variance(pop, design, lam),
                     uniform_prior_variance_loop(pop, design, lam, True)),
                    (uniform_prior_variance(*pooled, lam),
                     uniform_prior_variance_loop(pop, design, lam, False)),
                ]
            for got, ref in pairs:
                assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_closed_forms_read_only_the_type_table(self, few_large_clusters):
        pop, design = few_large_clusters
        pop.types  # built once, on first read
        tracemalloc.start()
        try:
            cluster_dp_variance_bound(pop, design, params())
            uniform_prior_variance(pop, design, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # one 10^6-unit float column alone is 8 MB

    def test_memory_follows_the_units_not_the_table(self):
        """1000 clusters of 20 units over K = 200 fractional values: a dense (C, K, K)
        table would be 320 MB; the nonzero cells are at most the 20 000 units."""
        rng = np.random.default_rng(8)
        n, c, k = 20_000, 1000, 200
        pop = PopulationDataset(OutcomeSpace(tuple(np.arange(k) / 7.0)), tuple(map(str, range(n))),
                                np.repeat(np.arange(c), n // c), rng.integers(0, k, n),
                                rng.integers(0, k, n), tuple(range(c)))
        design = counts_design(pop, 0.5)
        tracemalloc.start()
        try:
            assert len(pop.types[3]) <= n
            cluster_dp_variance_bound(pop, design, params(gamma=0.001))
            uniform_prior_variance(pop, design, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    @pytest.mark.parametrize("sigma", [0.0, 2.0, math.inf])
    def test_a_of_x_array_equals_scalar_calls(self, sigma):
        pop = random_population(np.random.default_rng(3), n_clusters=6, size_range=(2, 40))
        counts = fixed_design(pop, [max(1, s // 3) for s in pop.cluster_sizes]).arm_counts()
        p = params(gamma=0.05, sigma=sigma, lam=0.7)
        got = a_of_x(counts, pop.space, p)
        assert got.shape == counts.shape
        expected = [[a_of_x(int(x), pop.space, p) for x in row] for row in counts]
        assert np.array_equal(got, expected)
        assert all(isinstance(v, float) for row in expected for v in row)


class TestPooled:
    """``pop.pooled()`` is the unstratified form: the same units as one stratum.

    ``TestMomentsMatchLoops`` checks its closed form against the unstratified loop.
    """

    def test_one_cluster_population_is_its_own_pooled_form(self, streams):
        pop = random_population(np.random.default_rng(4), n_clusters=1, size_range=(9, 9))
        pooled = pop.pooled()
        design = counts_design(pop, 0.5)
        pooled_design = counts_design(pooled, 0.5)
        assert ht_variance(pooled, pooled_design) == ht_variance(pop, design)
        assert uniform_prior_variance(pooled, pooled_design, 0.4) == uniform_prior_variance(
            pop, design, 0.4
        )
        taus = [uniform_prior_taus(p, 0.4, 0.5, streams.child("mc"), 50) for p in (pop, pooled)]
        assert np.array_equal(*taus)

    def test_many_clusters_become_one_stratum(self):
        pop = interleaved_population()
        pooled = pop.pooled()
        assert pooled.n_clusters == 1
        assert np.array_equal(pooled.cluster_sizes, [pop.n])
        assert np.array_equal(pooled.members[0], np.arange(pop.n))
        assert pooled.space is pop.space and pooled.unit_ids is pop.unit_ids
        assert np.array_equal(pooled.y0, pop.y0) and np.array_equal(pooled.y1, pop.y1)


class TestAOfX:
    def space(self):
        return OutcomeSpace((0.0, 1.0))

    def test_gamma_zero_sigma_zero_vanishes(self):
        assert a_of_x(10, self.space(), params(gamma=0.0, sigma=0.0, lam=0.5)) == 0.0

    def test_monotone_in_gamma(self):
        space = self.space()
        grid = np.linspace(0.0, 0.5, 60)
        vals = [a_of_x(10, space, params(gamma=float(g), sigma=1.0, lam=0.5)) for g in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_golden_point(self):
        # K=2, values (0,1), lam=0, gamma=0.1, sigma=1, x=10
        got = a_of_x(10, self.space(), params(gamma=0.1, sigma=1.0, lam=0.0))
        bracket = 0.1 + 0.1 * (math.exp(-1.0) - math.exp(-10.0))
        multiplier = 1.0 * (3.0 + 2.0) + 1.0 * 1.0 * 1.0
        assert got == pytest.approx(2 * 2 * bracket * multiplier, abs=1e-12)
        assert got == pytest.approx(3.282801698980032, abs=1e-12)  # frozen regression value

    def test_sigma_limits_are_analytic(self):
        space = self.space()
        p_inf = params(gamma=0.1, sigma=math.inf, lam=0.5)
        p_zero = params(gamma=0.1, sigma=0.0, lam=0.5)
        assert math.isfinite(a_of_x(10, space, p_inf))
        # bracket(inf) = 1, bracket(0) = gamma
        ratio = a_of_x(10, space, p_inf) / a_of_x(10, space, p_zero)
        assert ratio == pytest.approx(1.0 / 0.1, abs=1e-9)
        # large finite sigma approaches the analytic limit
        near = a_of_x(10, space, params(gamma=0.1, sigma=1e9, lam=0.5))
        assert near == pytest.approx(a_of_x(10, space, p_inf), rel=1e-6)


class TestClusterBound:
    def test_no_noise_bound_collapses_to_zero(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0), (0, 0), (1, 1)]})
        design = fixed_design(pop, [2])
        report = cluster_dp_variance_bound(pop, design, params(gamma=0.0, sigma=0.0, lam=0.0))
        assert report.components["gap_upper"] == 0.0
        assert report.value == report.no_dp_variance

    def test_linear_in_homogeneity(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0), (0, 0), (1, 1)]})
        design = fixed_design(pop, [2])
        report = cluster_dp_variance_bound(pop, design, params(lam=0.5))
        expected = (1 / 0.25 - 1) * (
            homogeneity(pop, design, 0) + homogeneity(pop, design, 1)
        )
        assert report.components["homogeneity_term"] == pytest.approx(expected, abs=1e-12)
        assert report.components["gap_lower"] <= report.components["gap_upper"]


class TestUniformPriorVariance:
    def test_lambda_zero_reduces_to_ht(self, small_pop):
        design = fixed_design(small_pop, [2, 3])
        assert uniform_prior_variance(small_pop, design, 0.0) == pytest.approx(
            ht_variance(small_pop, design), abs=1e-14
        )
        pooled = pooled_with_design(small_pop, design)
        assert uniform_prior_variance(*pooled, 0.0) == pytest.approx(
            ht_variance(*pooled), abs=1e-14
        )

    def test_binary_case_reduces_algebraically(self):
        # unstratified gap on binary outcomes: n/(n0 n1) * (lam/2)(1 - lam/2)/(1-lam)^2
        rng = np.random.default_rng(9)
        for _ in range(25):
            pop = random_population(
                rng, n_clusters=int(rng.integers(1, 4)), space_values=(0.0, 1.0)
            )
            design = fixed_design(pop, [max(1, s // 2) for s in pop.cluster_sizes])
            pooled = pooled_with_design(pop, design)
            for lam in (0.1, 0.5, 0.9):
                got = uniform_prior_variance(*pooled, lam)
                base = ht_variance(*pooled)
                gap = (
                    pop.n
                    / (design.n0 * design.n1)
                    * (lam / 2.0)
                    * (1.0 - lam / 2.0)
                    / (1.0 - lam) ** 2
                )
                assert got - base == pytest.approx(gap, abs=1e-12)

    def test_stratified_formula_matches_mc(self, streams):
        pop = make_population(
            (-1.0, 0.0, 2.0),
            {
                "a": [(0, 2), (-1, 0), (2, 2), (0, -1), (2, 0), (-1, 2)],
                "b": [(2, -1), (0, 0), (-1, -1), (2, 2), (0, 2), (-1, 0)],
            },
        )
        design = fixed_design(pop, [3, 3])
        lam = 0.5
        formula = uniform_prior_variance(pop, design, lam)
        taus = uniform_prior_taus(pop, lam, 0.5, streams.child("mc"), 60_000)
        assert np.var(taus, ddof=1) == pytest.approx(formula, rel=0.05)

    def test_lambda_one_rejected(self, small_pop):
        with pytest.raises(ValidationError):
            uniform_prior_variance(small_pop, fixed_design(small_pop, [2, 3]), 1.0)


class TestBaselineGaps:
    def test_worked_examples(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0), (1, 1), (0, 0)]})
        design = fixed_design(pop, [2])
        nht, nh = baseline_gaps(pop, design, 1.0)
        assert nht == pytest.approx(0.5, abs=1e-12)  # 2 * (1 * (1/2) / 1)^2
        assert nh == pytest.approx(1.0, abs=1e-12)  # 2 * 1 * (1/4 + 1/4)

    def test_nht_never_exceeds_nh(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            pop = random_population(
                rng,
                n_clusters=int(rng.integers(1, 5)),
                size_range=(3, 9),
                space_values=tuple(sorted(rng.choice(np.arange(-6.0, 7.0), size=4, replace=False))),
            )
            design = fixed_design(pop, [int(rng.integers(1, s)) for s in pop.cluster_sizes])
            eps = float(rng.uniform(0.1, 5.0))
            nht, nh = baseline_gaps(pop, design, eps)
            assert nht <= nh + 1e-15

    def test_infinite_epsilon_no_gap(self, small_pop):
        assert baseline_gaps(small_pop, fixed_design(small_pop, [2, 3]), math.inf) == (0.0, 0.0)
