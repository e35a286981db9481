"""Exact metamorphic relations: scaling every outcome value by a power of two, and
shuffling the rows of a population.

Multiplying a float by 2^j is exact, and so is every rounding of a sum, product or
quotient of scaled numbers (away from overflow and subnormals). The designs, priors and
resampling draws read outcome indices, never values. So on a population whose values
are all multiplied by 2^j:

- every variance formula, each term of the gap bound included, is exactly 4^j times
  as large;
- an estimate at the same seed, on the count-level kernel or on the public release,
  is exactly 2^j times as large.

A formula that mixes a value with a unit-free number, or squares where it should not,
breaks the relation on almost every population.

The closed forms and the count-level kernel read a population only through its type
counts ``PopulationDataset.types``, which do not depend on the order of its rows. So a
population with its rows permuted gives every one of them the same bits; a formula that
reads a unit by its position, or a count that drops one, breaks the relation.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.estimation import tau_q
from clusterdp.experiments import count_level_taus, counts_design
from clusterdp.mechanisms import cluster_dp
from clusterdp.model import (
    Design, MechanismKind, MechanismParams, OutcomeSpace, PopulationDataset, draw_design,
)
from clusterdp.rng import RngStreams
from clusterdp.variance import (
    cluster_dp_variance_bound, homogeneity, ht_variance, uniform_prior_variance,
)

from conftest import pooled_with_design

POWERS = (-1, 1, 3)


@st.composite
def tiny_populations(draw):
    """A population of 1-3 clusters of 2-6 units over K = 2-4 values in (-10, 10), with
    per-cluster treated counts that leave both arms nonempty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(2, 4))
    values = np.sort(rng.uniform(-10.0, 10.0, k)) + np.arange(k)  # strictly increasing
    sizes = rng.integers(2, 7, draw(st.integers(1, 3)))
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    pop = PopulationDataset(
        space=OutcomeSpace(tuple(values)),
        unit_ids=tuple(f"u{i}" for i in range(len(cluster))),
        cluster=cluster,
        y0=rng.integers(0, k, len(cluster)),
        y1=rng.integers(0, k, len(cluster)),
        cluster_labels=tuple(range(len(sizes))),
    )
    n1c = np.array([int(rng.integers(1, s)) for s in sizes])
    return pop, n1c


def scaled(pop: PopulationDataset, j: int) -> PopulationDataset:
    """The same units with every outcome value multiplied by 2^j."""
    return dataclasses.replace(pop, space=OutcomeSpace(tuple(v * 2.0**j for v in pop.space.values)))


def fixed_design(pop, n1c) -> Design:
    z = np.concatenate([np.arange(s) < t for s, t in zip(pop.cluster_sizes, n1c)])
    return Design.from_assignment(pop.cluster, z.astype(np.int8), pop.n_clusters)


mechanisms = st.builds(
    lambda gamma, sigma, lam: MechanismParams(
        kind=MechanismKind.CLUSTER_DP, gamma=gamma, sigma=sigma, lam=lam),
    gamma=st.sampled_from([0.0, 0.02, 0.25]),
    sigma=st.sampled_from([0.0, 1.0, 10.0, float("inf")]),
    lam=st.sampled_from([0.0, 0.3, 0.8]),
)


@given(case=tiny_populations(), params=mechanisms)
@settings(max_examples=60, deadline=None)
def test_variances_scale_by_four_to_the_j(case, params):
    pop, n1c = case
    design = fixed_design(pop, n1c)

    def variances(p):
        bound = cluster_dp_variance_bound(p, design, params)
        return [ht_variance(p, design), homogeneity(p, design, 0), homogeneity(p, design, 1),
                uniform_prior_variance(p, design, params.lam),
                bound.value, bound.no_dp_variance, *bound.components.values()]

    base = variances(pop)
    for j in POWERS:
        assert variances(scaled(pop, j)) == [4.0**j * v for v in base], j


@given(case=tiny_populations(), params=mechanisms, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_estimates_scale_by_two_to_the_j(case, params, seed):
    pop, n1c = case
    design = draw_design(pop, n1c, RngStreams(seed).generator("assignment"))

    def estimates(p):
        taus = count_level_taus(p, params, n1c, RngStreams(seed).child("mc"), 20)
        return [*taus, tau_q(cluster_dp(p, design, params, RngStreams(seed).child("release")))]

    base = estimates(pop)
    for j in POWERS:
        assert estimates(scaled(pop, j)) == [2.0**j * t for t in base], j


def shuffled(pop: PopulationDataset, order) -> PopulationDataset:
    """The same units, row i of the result being row order[i] of ``pop``."""
    return PopulationDataset(
        pop.space, tuple(pop.unit_ids[i] for i in order), pop.cluster[order], pop.y0[order],
        pop.y1[order], pop.cluster_labels,
    )


@given(case=tiny_populations(), params=mechanisms, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_row_shuffle_changes_nothing(case, params, seed):
    pop, n1c = case
    order = np.random.default_rng(seed).permutation(pop.n)

    def results(p):
        design = counts_design(p, n1c)  # the same n1c, n0c on units in any order
        bound = cluster_dp_variance_bound(p, design, params)
        taus = count_level_taus(p, params, n1c, RngStreams(seed).child("mc"), 20)
        return [ht_variance(p, design), homogeneity(p, design, 0), homogeneity(p, design, 1),
                uniform_prior_variance(p, design, params.lam),
                uniform_prior_variance(*pooled_with_design(p, design), params.lam),
                bound.value, bound.no_dp_variance, *bound.components.values(), *taus]

    assert results(shuffled(pop, order)) == results(pop)
