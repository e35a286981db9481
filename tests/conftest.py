import numpy as np
import pytest

from clusterdp.experiments import counts_design
from clusterdp.mechanisms import cluster_dp
from clusterdp.model import MechanismParams, OutcomeSpace, PopulationDataset
from clusterdp.rng import RngStreams


def make_population(space_values, outcomes_by_cluster):
    """Build a population from {cluster_label: [(y0, y1), ...]}."""
    space = OutcomeSpace(tuple(space_values))
    rows = [
        (f"{label}_{i}", label, float(y0), float(y1))
        for label, pairs in outcomes_by_cluster.items()
        for i, (y0, y1) in enumerate(pairs)
    ]
    return PopulationDataset.from_columns(*zip(*rows), space)


def pooled_with_design(pop, design):
    """All units as one stratum, with a design of the same arm totals: the unstratified form."""
    pooled = pop.pooled()
    return pooled, counts_design(pooled, [design.n1])


def uniform_release(pop, design, lam, streams):
    """The uniform-prior release: cluster_dp at MechanismParams.uniform_prior(K, lam)."""
    return cluster_dp(pop, design, MechanismParams.uniform_prior(pop.space.k, lam), streams)


def random_population(rng, n_clusters=3, size_range=(4, 8), space_values=(0.0, 1.0, 2.0)):
    space_values = tuple(space_values)
    k = len(space_values)
    clusters = {}
    for c in range(n_clusters):
        size = int(rng.integers(size_range[0], size_range[1] + 1))
        clusters[c] = [
            (space_values[rng.integers(0, k)], space_values[rng.integers(0, k)])
            for _ in range(size)
        ]
    return make_population(space_values, clusters)


def interleaved_cells(rng, n_clusters):
    """(cluster, z, n1c, n0c) with units in random cluster order and both arms in every
    cluster; cluster 0 has a single treated unit."""
    sizes = rng.integers(2, 8, n_clusters)
    n1c = np.array([int(rng.integers(1, s)) for s in sizes])
    n1c[0] = 1
    cluster = np.repeat(np.arange(n_clusters), sizes)
    z = np.concatenate([np.arange(s) < t for s, t in zip(sizes, n1c)]).astype(np.int8)
    order = rng.permutation(len(cluster))
    return cluster[order], z[order], n1c, sizes - n1c


@pytest.fixture
def binary_space():
    return OutcomeSpace((0.0, 1.0))


@pytest.fixture
def small_pop():
    return make_population(
        (0.0, 1.0, 2.0),
        {
            "a": [(0, 1), (1, 2), (0, 0), (2, 2)],
            "b": [(1, 1), (2, 0), (0, 1), (1, 2), (2, 1), (0, 2)],
        },
    )


@pytest.fixture
def streams():
    return RngStreams(20240811)
