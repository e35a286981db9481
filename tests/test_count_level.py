"""Referee tests of the count-level Monte Carlo kernel, at fixed seeds.

``count_level_taus`` draws each replication's histograms instead of its units;
its estimates must have the distribution of the unit-level release's
(``cluster_mechanism_taus``), which the exact closed forms and the unit-level
kernel referee here.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from clusterdp.experiments import (
    _COUNT_CHUNK_CELLS,
    ExperimentConfig,
    _arm_histogram_draws,
    build_population,
    cluster_mechanism_taus,
    count_level_taus,
    counts_design,
    jackknife_variance_se,
    uniform_prior_taus,
)
from clusterdp.model import MechanismKind, MechanismParams, ValidationError
from clusterdp.rng import RngStreams
from clusterdp.simdata import GmmConfig, gen_gmm
from clusterdp.variance import cluster_dp_variance_bound, ht_variance, uniform_prior_variance

from conftest import make_population


@pytest.fixture(scope="module")
def default_pop():
    """The default 875-unit population: clusters of 125, 250 and 500 units."""
    return build_population(ExperimentConfig.from_dict({}), RngStreams(1))


@pytest.fixture(scope="module")
def single_type_pop():
    """Unequal clusters of 2, 5 and 9 units; cluster "a" holds one (y0, y1) type only."""
    return make_population(
        (0.0, 1.0, 3.0),
        {
            "a": [(1, 3), (1, 3)],
            "b": [(0, 1), (1, 1), (3, 0), (0, 3), (1, 0)],
            "c": [(0, 0), (3, 3), (1, 3), (0, 1), (3, 1), (1, 1), (0, 3), (3, 0), (1, 0)],
        },
    )


def _params(kind, lam, gamma=0.02, sigma=10.0):
    return MechanismParams(kind=kind, gamma=gamma, sigma=sigma, lam=lam)


def _within(got, want, se, width=3.0) -> bool:
    return abs(got - want) <= width * se


def _matches_unit_level(pop, params, count_reps, unit_reps, seed) -> tuple[bool, str]:
    fast = count_level_taus(pop, params, 0.5, RngStreams(seed), count_reps)
    slow = cluster_mechanism_taus(pop, params, 0.5, RngStreams(seed + 1), unit_reps)
    v_fast, v_slow = np.var(fast, ddof=1), np.var(slow, ddof=1)
    se = math.hypot(jackknife_variance_se(fast), jackknife_variance_se(slow))
    return _within(v_fast, v_slow, se), f"{v_fast:.4g} vs {v_slow:.4g} (se {se:.3g})"


@pytest.mark.parametrize("pop_name", ["default_pop", "single_type_pop"])
def test_no_resampling_matches_ht_variance_and_ate(request, pop_name):
    pop = request.getfixturevalue(pop_name)
    taus = count_level_taus(pop, _params(MechanismKind.CLUSTER_DP, 0.0), 0.5, RngStreams(31),
                            20000)
    exact = ht_variance(pop, counts_design(pop, 0.5))
    assert _within(np.var(taus, ddof=1), exact, jackknife_variance_se(taus))
    assert _within(taus.mean(), pop.ate, taus.std(ddof=1) / math.sqrt(len(taus)))


def test_uniform_kind_matches_its_closed_form(default_pop):
    lam = 0.9
    params = MechanismParams.uniform_prior(default_pop.space.k, lam)
    taus = count_level_taus(default_pop, params, 0.5, RngStreams(32), 20000)
    exact = uniform_prior_variance(default_pop, counts_design(default_pop, 0.5), lam)
    assert _within(np.var(taus, ddof=1), exact, jackknife_variance_se(taus))


@pytest.mark.parametrize("kind", [MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP])
def test_matches_unit_level_kernel(default_pop, kind):
    ok, detail = _matches_unit_level(default_pop, _params(kind, 0.8), 20000, 1500, 33)
    assert ok, detail


@pytest.mark.parametrize("kind", [MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP])
def test_matches_unit_level_kernel_with_a_single_type_cluster(single_type_pop, kind):
    ok, detail = _matches_unit_level(single_type_pop, _params(kind, 0.6, 0.1, 2.0), 20000,
                                     3000, 34)
    assert ok, detail


@pytest.mark.parametrize("kind", [MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP])
@pytest.mark.parametrize("lam", [0.3, 0.8])
def test_sigma_inf_prior_unbiased_and_under_its_bound(default_pop, kind, lam):
    """The sigma = inf release at gamma < 1/K, whose prior keeps only the signs of its
    Laplace draws: unbiased, with a variance under the bound that reads sigma = inf as
    the same infinite-noise limit."""
    params = _params(kind, lam, sigma=math.inf)
    taus = count_level_taus(default_pop, params, 0.5, RngStreams(39), 20000)
    assert _within(taus.mean(), default_pop.ate, taus.std(ddof=1) / math.sqrt(len(taus)))
    bound = cluster_dp_variance_bound(default_pop, counts_design(default_pop, 0.5), params)
    assert np.var(taus, ddof=1) < bound.value


def test_histograms_fill_each_arm_from_its_types(single_type_pop):
    pop = single_type_pop
    n1c = np.array([1, 2, 4])
    hist = _arm_histogram_draws(pop, n1c, RngStreams(35).generator("assignment"), 50)
    assert hist.shape == (50, 3, 2, pop.space.k)
    assert (hist.sum(axis=-1) == np.stack([pop.cluster_sizes - n1c, n1c], axis=1)).all()
    # the (y0, y1) = (1, 3) cluster: its treated report 3.0, its control 1.0, in every draw
    assert (hist[:, 0, 1, 2] == 1).all() and (hist[:, 0, 0, 1] == 1).all()
    # an arm never reports more units of an outcome than its cluster holds
    y0_counts = np.bincount(pop.cluster * pop.space.k + pop.y0, minlength=3 * pop.space.k)
    y1_counts = np.bincount(pop.cluster * pop.space.k + pop.y1, minlength=3 * pop.space.k)
    assert (hist[:, :, 0].reshape(50, -1) <= y0_counts).all()
    assert (hist[:, :, 1].reshape(50, -1) <= y1_counts).all()


def test_chunks_are_fixed_by_their_index(single_type_pop):
    pop = single_type_pop
    per_chunk = _COUNT_CHUNK_CELLS // (pop.n_clusters * 2 * pop.space.k)
    params = _params(MechanismKind.CLUSTER_DP, 0.6, 0.1, 2.0)
    taus = count_level_taus(pop, params, 0.5, RngStreams(36), per_chunk + 1)
    again = count_level_taus(pop, params, 0.5, RngStreams(36), per_chunk + 1)
    assert taus.tobytes() == again.tobytes()
    # more replications add chunks and leave the earlier ones as they were
    one_chunk = count_level_taus(pop, params, 0.5, RngStreams(36), per_chunk)
    assert taus[:per_chunk].tobytes() == one_chunk.tobytes()


def test_lambda_one_raises_as_the_release_does(default_pop):
    for params in (_params(MechanismKind.CLUSTER_DP, 1.0),
                   MechanismParams.uniform_prior(default_pop.space.k, 1.0)):
        with pytest.raises(ValidationError, match="lambda = 1"):
            count_level_taus(default_pop, params, 0.5, RngStreams(38), 3)


def test_uniform_prior_taus_holds_no_per_unit_matrix():
    # 50 clusters of 400 units at 100 replications: a per-unit kernel that holds the
    # (replications, n) assignments and uniforms peaked at 100.3 MB here
    pop = gen_gmm(GmmConfig(beta=4.5, v=5.0, k_prime=5, cluster_sizes=(400,) * 50),
                  RngStreams(39))
    gc.collect()
    tracemalloc.start()
    try:
        uniform_prior_taus(pop, 0.8, 0.5, RngStreams(40), 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
