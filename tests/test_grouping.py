"""PopulationDataset.members, the one grouping of units by cluster, on interleaved clusters.

Generated populations store each cluster's units contiguously; a CSV population
need not. Each per-cluster loop must see the same units, in the same order, as
a scan of ``pop.cluster == c`` would give, so that every random stream and
every accumulated float is unchanged.
"""

import numpy as np
import pytest

from clusterdp.experiments import counts_design
from clusterdp.model import (
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
    draw_design,
)
from clusterdp.rng import RngStreams
from clusterdp.simdata import GraphPopConfig, gen_graph_population, subsample
from clusterdp.variance import homogeneity, ht_variance, uniform_prior_variance

from test_mechanisms import fixed_design

LABELS = [f"c{i}" for i in range(12)]  # sorted by str: c0, c1, c10, c11, c2, ...


def interleaved_population():
    rng = np.random.default_rng(606)
    values = (-1.0, 0.0, 1.5, 3.0)
    rows = [
        (f"{label}_{i}", label, values[rng.integers(4)], values[rng.integers(4)])
        for label in LABELS
        for i in range(int(rng.integers(4, 9)))
    ]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    pop = PopulationDataset.from_columns(*zip(*rows), OutcomeSpace(values))
    first_seen = list(dict.fromkeys(pop.cluster.tolist()))
    assert np.any(np.diff(pop.cluster) < 0)  # clusters really are interleaved
    assert first_seen != sorted(first_seen)
    assert list(pop.cluster_labels) != LABELS
    return pop


@pytest.fixture
def interleaved_pop():
    return interleaved_population()


def graph_population():
    graph = GraphPopConfig(community_sizes=(20, 30, 40, 55), p_in=0.3, p_out=0.02,
                           beta=(1.0, 1.0, 1.0, 1.0), v=0.1, k=8, tau=1.0)
    return gen_graph_population(graph, RngStreams(2))


def contiguous_copy(pop):
    """The same units grouped cluster by cluster, each cluster keeping its own order."""
    order = np.argsort(pop.cluster, kind="stable")
    vals = pop.space.array
    return PopulationDataset.from_columns(
        [pop.unit_ids[i] for i in order],
        [pop.cluster_labels[c] for c in pop.cluster[order]],
        vals[pop.y0[order]],
        vals[pop.y1[order]],
        pop.space,
    )


def treated_counts(pop):
    return pop.cluster_sizes // 2


def mask_scan_draw_design(pop, n1c, rng):
    z = np.zeros(pop.n, dtype=np.int8)
    for c in range(pop.n_clusters):
        members = np.flatnonzero(pop.cluster == c)
        z[members[rng.permutation(len(members))[: n1c[c]]]] = 1
    return z


def mask_scan_subsample_keep(pop, counts, rng):
    keep = []
    for c in range(pop.n_clusters):
        members = np.flatnonzero(pop.cluster == c)
        keep.append(members[np.sort(rng.permutation(len(members))[: counts[c]])])
    return np.concatenate(keep)


class TestMembers:
    def test_matches_mask_scan(self, interleaved_pop):
        pop = interleaved_pop
        assert len(pop.members) == pop.n_clusters
        for c, members in enumerate(pop.members):
            assert np.array_equal(members, np.flatnonzero(pop.cluster == c))
            assert not members.flags.writeable
        assert sorted(np.concatenate(pop.members).tolist()) == list(range(pop.n))

    def test_cluster_ids_must_match_labels(self):
        with pytest.raises(ValidationError, match="cluster ids"):
            PopulationDataset(
                space=OutcomeSpace((0.0, 1.0)), unit_ids=("a", "b", "c"),
                cluster=np.array([0, 0, 1]), y0=np.zeros(3), y1=np.zeros(3),
                cluster_labels=("only",),
            )

    def test_draw_design_matches_mask_scan(self, interleaved_pop):
        pop, n1c = interleaved_pop, treated_counts(interleaved_pop)
        for s in range(5):
            got_rng, ref_rng = (RngStreams(s).generator("assignment") for _ in range(2))
            got = draw_design(pop, n1c, got_rng).z
            assert np.array_equal(got, mask_scan_draw_design(pop, n1c, ref_rng))
            assert got_rng.random() == ref_rng.random()  # same number of draws

    def test_subsample_matches_mask_scan(self, interleaved_pop):
        pop = interleaved_pop
        counts = np.maximum(pop.cluster_sizes - 2, 2)
        got_rng, ref_rng = (RngStreams(9).generator("subpop") for _ in range(2))
        sub, kept = subsample(pop, counts, got_rng)
        keep = mask_scan_subsample_keep(pop, counts, ref_rng)
        assert np.array_equal(kept, keep)
        assert sub.unit_ids == tuple(pop.unit_ids[i] for i in keep)
        for name in ("cluster", "y0", "y1"):
            assert np.array_equal(getattr(sub, name), getattr(pop, name)[keep])
        assert got_rng.random() == ref_rng.random()

    def test_counts_design_matches_fixed_design(self, interleaved_pop):
        pop, n1c = interleaved_pop, treated_counts(interleaved_pop)
        assert np.array_equal(counts_design(pop, n1c).z, fixed_design(pop, n1c).z)

    def test_closed_forms_match_contiguous_copy(self, interleaved_pop):
        pop = interleaved_pop
        copy = contiguous_copy(pop)
        assert copy.cluster_labels == pop.cluster_labels
        assert np.all(np.diff(copy.cluster) >= 0)
        design = counts_design(pop, treated_counts(pop))
        copy_design = counts_design(copy, treated_counts(copy))

        def forms(p, d):
            return [
                ht_variance(p, d),
                homogeneity(p, d, 0),
                homogeneity(p, d, 1),
                uniform_prior_variance(p, d, 0.6),
            ]

        assert forms(pop, design) == forms(copy, copy_design)


def dense_types(pop):
    """The (C, K, K) table that ``pop.types`` lists the nonzero cells of."""
    c, i, j, count = pop.types
    k = pop.space.k
    table = np.zeros((pop.n_clusters, k, k), dtype=np.int64)
    np.add.at(table, (c, i, j), count)
    return table


@pytest.mark.parametrize("make_pop", [interleaved_population, graph_population])
class TestTypes:
    """``PopulationDataset.types``, the nonzero counts of units per (cluster, y0, y1)."""

    def test_matches_mask_scan(self, make_pop):
        pop = make_pop()
        k = pop.space.k
        expected = np.zeros((pop.n_clusters, k, k), dtype=np.int64)
        for c, i, j in np.ndindex(expected.shape):
            expected[c, i, j] = np.sum((pop.cluster == c) & (pop.y0 == i) & (pop.y1 == j))
        assert all(a.dtype == np.int64 for a in pop.types)
        assert np.all(pop.types[3] > 0)
        assert np.array_equal(dense_types(pop), expected)

    def test_cells_are_distinct_and_ascending(self, make_pop):
        pop = make_pop()
        k = pop.space.k
        cell = np.ravel_multi_index(pop.types[:3], (pop.n_clusters, k, k))
        assert np.all(np.diff(cell) > 0)

    def test_read_only_and_kept(self, make_pop):
        pop = make_pop()
        assert pop.types is pop.types
        assert not any(a.flags.writeable for a in pop.types)
        with pytest.raises(ValueError):
            pop.types[3][0] = 1

    def test_sums_to_cluster_sizes(self, make_pop):
        pop = make_pop()
        assert np.array_equal(dense_types(pop).sum((1, 2)), pop.cluster_sizes)

    def test_pooled_table_is_the_sum_over_clusters(self, make_pop):
        pop = make_pop()
        assert np.array_equal(dense_types(pop.pooled()), dense_types(pop).sum(0, keepdims=True))
