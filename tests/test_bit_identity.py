"""The per-call kernels of a release against their earlier forms, byte for byte.

Each rewrite of a hot expression keeps every element's float operations in the
same order, so its result must equal the reference form in ``tests/oracles.py``
in value, sign of zero, dtype and shape, on random and on edge inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.estimation import _cluster_sums, per_cluster_contributions, tau_q
from clusterdp.mechanisms import (
    arm_histograms, cluster_dp, fit_priors, histogram_scales, ht_scales, renormalize,
    resample_from_uniforms, resample_outcomes,
)
from clusterdp.model import (
    UNIT_BLOCK, MechanismKind, MechanismParams, OutcomeSpace, PopulationDataset, SerialIds,
    draw_design,
)
from clusterdp.rng import RngStreams, laplace_noise, open_uniform, standard_normal

from conftest import random_population
from oracles import (
    arm_counts_stacked,
    arm_histograms_whole,
    cluster_sums_whole,
    fit_priors_on_design,
    histogram_scales_branching,
    ht_scales_branching,
    laplace_one_line,
    observed_where,
    open_uniform_integers,
    renormalize_two_where,
    resample_columns,
    resample_outcomes_whole,
    standard_normal_ppf,
    tau_q_whole,
)
import test_mechanisms
from test_mechanisms import fixed_design


def same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _rows(rng, lead, k, gamma):
    """Clipped rows in [gamma, 1], with rows that sum to exactly one, rows at gamma, and zeros
    of either sign mixed in."""
    q = rng.uniform(gamma, 1.0, (*lead, k))
    q = np.where(rng.random(q.shape) < 0.2, gamma, q)
    flat = q.reshape(-1, k)
    for row in flat:
        kind = rng.integers(0, 4)
        if kind == 0:  # dyadic entries that sum to exactly one
            cuts = np.sort(rng.integers(0, 1025, k - 1))
            row[:] = np.diff(np.concatenate([[0], cuts, [1024]])) / 1024.0
        elif kind == 1:
            row[:] = gamma
    if gamma == 0.0:  # -0.0 keeps its sign only where no branch rewrites the row
        flat[rng.random(flat.shape) < 0.2] = -0.0
    return q


class TestRenormalize:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3, 12]),
        lead=st.sampled_from([(), (4,), (3, 2), (5, 3, 2)]),
        floor=st.sampled_from(["zero", "half", "one_over_k"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_two_where(self, seed, k, lead, floor):
        rng = np.random.default_rng(seed)
        gamma = {"zero": 0.0, "half": 0.5 / k, "one_over_k": 1.0 / k}[floor]
        q = _rows(rng, lead, k, gamma)
        assert same(renormalize(q, gamma), renormalize_two_where(q, gamma))

    def test_signed_zero_in_a_row_summing_to_one(self):
        q = np.array([[1.0, -0.0], [-0.0, 1.0], [0.75, 0.5], [-0.0, 0.5]])
        got = renormalize(q, 0.0)
        assert same(got, renormalize_two_where(q, 0.0))
        assert np.signbit(got[0, 1]) and np.signbit(got[1, 0])

    def test_leaves_its_argument_alone(self):
        q = np.array([0.75, 0.5])
        renormalize(q, 0.0)
        assert q.tolist() == [0.75, 0.5]


class TestResampleColumns:
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from([2, 3, 12]),
        n=st.sampled_from([1, 7, 3000, 9000]),
        reps=st.sampled_from([0, 1, 3]),
        lam=st.sampled_from([0.0, 0.6, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_column_count(self, seed, k, n, reps, lam):
        # at 3 replications a block is 2730 units, so 3000 and 9000 units span several
        lead = (reps,) if reps else ()
        y, cluster, z, q, _, u_keep, u_cat = test_mechanisms.TestResampleKernel._units(
            np.random.default_rng(seed), n, 4, k, lead)
        args = (y, cluster, z, q, lam, u_keep, u_cat)
        assert same(resample_from_uniforms(*args), resample_columns(*args))


class TestObserved:
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_where(self, seed, c):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, n_clusters=c, size_range=(2, 9))
        design = fixed_design(pop, [int(rng.integers(1, s)) for s in pop.cluster_sizes])
        assert same(pop.observed(design), observed_where(pop, design))
        assert same(design.arm_counts(), arm_counts_stacked(design))


class TestOpenUniform:
    @given(seed=st.integers(0, 2**63), size=st.sampled_from([None, 1, 9, (4, 3), 5000]))
    @settings(max_examples=100, deadline=None)
    def test_matches_bounded_integers(self, seed, size):
        streams = RngStreams(seed)
        g, h = streams.generator("u"), streams.generator("u")
        got, want = open_uniform(g, size), open_uniform_integers(h, size)
        assert type(got) is type(want)
        assert same(got, want)
        assert g.random() == h.random()  # the stream is left at the same place

    def test_shift_rounds_as_the_grid_point(self):
        # m * 2**-53 + 2**-54 against (m + 0.5) * 2**-53 where m + 0.5 itself rounds
        m = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
        shifted = m.astype(np.float64) * 2.0**-53
        shifted += 2.0**-54
        assert same(shifted, (m.astype(np.float64) + 0.5) * 2.0**-53)


class TestLaplaceNoise:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.sampled_from([None, 1, 7, (3, 2, 12), (5, 3)]),
        scale=st.sampled_from([1.0, 0.3, 0.0, -0.0, "array"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_one_line(self, seed, size, scale):
        if scale == "array":  # one scale per trailing entry, broadcast against size
            last = 1 if size is None else np.atleast_1d(size)[-1]
            scale = np.random.default_rng(seed).uniform(0.0, 2.0, last)
        streams = RngStreams(seed)
        got = laplace_noise(streams.generator("l"), scale, size)
        want = laplace_one_line(streams.generator("l"), scale, size)
        assert type(got) is type(want)
        assert same(got, want)


class TestStandardNormal:
    @given(seed=st.integers(0, 2**63), size=st.sampled_from([None, 1, 9, (4, 3), 5000]))
    @settings(max_examples=100, deadline=None)
    def test_matches_norm_ppf(self, seed, size):
        streams = RngStreams(seed)
        got = standard_normal(streams.generator("w"), size)
        want = standard_normal_ppf(streams.generator("w"), size)
        assert type(got) is type(want)
        assert same(got, want)

    def test_grid_ends_and_centre(self):
        from scipy.special import ndtri
        from scipy.stats import norm

        u = np.array([2.0**-54, 2.0**-53 + 2.0**-54, 0.5, 1.0 - 2.0**-53, 1.0])
        assert same(ndtri(u), norm.ppf(u))


class TestFitPriors:
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(list(MechanismKind)),
        sigma=st.sampled_from([0.0, 0.7, 10.0, float("inf")]),
        gamma=st.sampled_from([0.0, 0.05, 1.0 / 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_fit_on_design(self, seed, kind, sigma, gamma):
        rng = np.random.default_rng(seed)
        pop = random_population(rng, n_clusters=int(rng.integers(1, 5)))
        design = fixed_design(pop, [int(rng.integers(1, s)) for s in pop.cluster_sizes])
        params = (MechanismParams.uniform_prior(pop.space.k, 0.5)
                  if kind is MechanismKind.UNIFORM_PRIOR_DP
                  else MechanismParams(kind=kind, gamma=gamma, sigma=sigma, lam=0.5))
        streams = RngStreams(seed)
        got = fit_priors(pop, design, params, streams.generator("laplace")).q
        assert same(got, fit_priors_on_design(pop, design, params, streams.generator("laplace")))


class TestBaselineScales:
    @given(
        seed=st.integers(0, 2**32 - 1),
        epsilon=st.sampled_from([0.05, 1.0, 7.3, float("inf")]),
    )
    @settings(max_examples=100, deadline=None)
    def test_match_branching_forms(self, seed, epsilon):
        rng = np.random.default_rng(seed)
        values = tuple(sorted(rng.choice(np.arange(-6.0, 7.0), size=3, replace=False)))
        pop = random_population(rng, n_clusters=int(rng.integers(1, 5)), space_values=values)
        design = fixed_design(pop, [int(rng.integers(1, s)) for s in pop.cluster_sizes])
        assert same(ht_scales(design, pop.space, epsilon),
                    ht_scales_branching(design, pop.space, epsilon))
        assert same(histogram_scales(design, epsilon), histogram_scales_branching(design, epsilon))

    def test_space_scalars_fixed_at_construction(self):
        space = OutcomeSpace((-3.0, 0.5, 2.0))
        arr = space.array
        assert space.max_abs == float(np.max(np.abs(arr)))
        assert (space.l2_sq, space.mean, space.mean_sq) == (
            float(np.dot(arr, arr)), float(arr.mean()), float((arr**2).mean()))


# Units of a per-unit pass: below one block, exactly one, several with a partial last one
BLOCK_SIZES = [UNIT_BLOCK - 1, UNIT_BLOCK, 3 * UNIT_BLOCK + 517]


def _large_population(seed, n, c, k=12, shuffled=False):
    """n units over c clusters of near-equal size, outcomes uniform on K values, in cluster
    order or in random order."""
    rng = np.random.default_rng(seed)
    cluster = np.arange(n) % c
    cluster = rng.permutation(cluster) if shuffled else np.sort(cluster)
    space = OutcomeSpace(tuple(float(v) for v in range(k)))
    return PopulationDataset(space, SerialIds(np.arange(n)), cluster, rng.integers(0, k, n),
                             rng.integers(0, k, n), tuple(f"c{i}" for i in range(c)))


_CASES = [pytest.param(n, c, shuffled, id=f"n{n}-c{c}-{'shuffled' if shuffled else 'sorted'}")
          for n in BLOCK_SIZES for c in (2, 50) for shuffled in (False, True)
          if not (shuffled and n < UNIT_BLOCK)]


class TestBlockedPasses:
    """The per-unit passes taken a block at a time against their whole-array forms.

    Two clusters give the resampler a bucket table, fifty leave it on the comparison
    path; the shuffled populations put every cluster's units in every block."""

    @staticmethod
    def _release_args(n, c, shuffled):
        pop = _large_population(n + c, n, c, shuffled=shuffled)
        streams = RngStreams(n)
        design = draw_design(pop, 0.5, streams.generator("assignment"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.02, sigma=10.0, lam=0.6)
        return pop, design, params, streams

    @pytest.mark.parametrize("n, c, shuffled", _CASES)
    def test_arm_histograms(self, n, c, shuffled):
        pop, design, _, _ = self._release_args(n, c, shuffled)
        assert same(arm_histograms(pop, design), arm_histograms_whole(pop, design))

    def test_arm_histograms_with_more_cells_than_a_block(self):
        # 400 clusters of K = 12 outcomes: 9600 cells, so a block holds 9600 units
        n, c = 3 * 9600 + 5, 400
        assert c * 2 * 12 > UNIT_BLOCK
        pop, design, _, _ = self._release_args(n, c, True)
        assert same(arm_histograms(pop, design), arm_histograms_whole(pop, design))

    @pytest.mark.parametrize("n, c, shuffled", _CASES)
    def test_resample_outcomes(self, n, c, shuffled):
        pop, design, params, streams = self._release_args(n, c, shuffled)
        observed = pop.observed(design)
        q = fit_priors(pop, design, params, streams.generator("laplace"), observed).q
        args = (observed, pop.cluster, design.z, q, params.lam)
        g, h = streams.generator("resample"), streams.generator("resample")
        want = resample_outcomes_whole(*args, h)
        assert same(resample_outcomes(*args, g), want)
        assert g.random() == h.random()  # the stream is left at the same place
        into = observed.copy()  # written over its own observed outcomes
        got = resample_outcomes(into, *args[1:], streams.generator("resample"), into)
        assert got is into and same(got, want)

    @pytest.mark.parametrize("n, c, shuffled", _CASES)
    def test_tau_q(self, n, c, shuffled):
        pop, design, params, streams = self._release_args(n, c, shuffled)
        release = cluster_dp(pop, design, params, streams)
        assert same(tau_q(release), tau_q_whole(release))

    @pytest.mark.parametrize("n, c, shuffled", _CASES)
    def test_cluster_sums(self, n, c, shuffled):
        # values whose sums depend on the order of the additions, zeros of either sign
        pop, design, _, _ = self._release_args(n, c, shuffled)
        rng = np.random.default_rng(n)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, -3.7e-300])
        values = rng.choice(pool, n)
        args = (pop.cluster, design.z, design.n1c, design.n0c)
        assert same(_cluster_sums(values, *args), cluster_sums_whole(values, *args))
        # from a (C, 2, K) table of the same values: per unit, its entry at y
        table = rng.choice(pool, (c, 2, 12))
        y = rng.integers(0, 12, n)
        per_unit = table[pop.cluster, design.z, y]
        assert same(_cluster_sums(y, *args, table), cluster_sums_whole(per_unit, *args))
        assert same(per_cluster_contributions(y, pop.cluster, design, table),
                    per_cluster_contributions(per_unit, pop.cluster, design))
