import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.model import (
    Design,
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
    arm_cells,
    draw_design,
)
from clusterdp.mechanisms import prior_from_counts
from clusterdp.rng import RngStreams, laplace_noise, open_uniform, standard_normal

from conftest import make_population
from oracles import space_contains, space_index_of


class TestOutcomeSpace:
    def test_rejects_single_value(self):
        with pytest.raises(ValidationError):
            OutcomeSpace((1.0,))

    def test_rejects_unsorted_or_duplicate(self):
        with pytest.raises(ValidationError):
            OutcomeSpace((1.0, 0.0))
        with pytest.raises(ValidationError):
            OutcomeSpace((0.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "values", [(0.0, 1.0, math.inf), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.nan)]
    )
    def test_rejects_non_finite(self, values):
        with pytest.raises(ValidationError, match="finite"):
            OutcomeSpace(values)

    def test_membership_is_exact(self):
        space = OutcomeSpace((0.0, 1.0))
        assert space_contains(space, 1.0)
        assert not space_contains(space, 1.0 + 1e-12)
        assert space_index_of(space, 1) == 1
        with pytest.raises(ValidationError):
            space_index_of(space, 7.0)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=12,
            unique=True,
        )
    )
    @settings(max_examples=100)
    def test_derived_quantities(self, values):
        space = OutcomeSpace(tuple(sorted(values)))
        arr = np.array(sorted(values))
        assert space.k == len(values)
        assert space.max_abs == pytest.approx(np.abs(arr).max())
        assert space.l2_sq == pytest.approx((arr**2).sum())
        assert space.mean == pytest.approx(arr.mean())
        assert space.mean_sq == pytest.approx((arr**2).mean())


def from_rows(rows, space):
    """PopulationDataset.from_columns on (unit_id, cluster, y0, y1) rows."""
    return PopulationDataset.from_columns(*zip(*rows), space)


class TestValidatePopulation:
    def test_well_formed(self, binary_space):
        rows = [("u1", "a", 0, 1), ("u2", "a", 1, 1), ("u3", "b", 0, 0), ("u4", "b", 1, 0),
                ("u5", "b", 0, 1)]
        assert from_rows(rows, binary_space).n == 5

    def test_cluster_below_minimum(self, binary_space):
        rows = [("u1", "a", 0, 1), ("u2", "b", 1, 1), ("u3", "b", 0, 0)]
        with pytest.raises(ValidationError, match="cluster 'a' below minimum size 2"):
            from_rows(rows, binary_space)

    def test_outcome_outside_space(self, binary_space):
        rows = [("u1", "a", 7, 1), ("u2", "a", 0, 1)]
        with pytest.raises(ValidationError, match="unit 'u1': y0=7.0 outside space"):
            from_rows(rows, binary_space)

    def test_duplicate_unit(self, binary_space):
        rows = [("u1", "a", 0, 1), ("u1", "a", 1, 1)]
        with pytest.raises(ValidationError, match="duplicate unit id 'u1'"):
            from_rows(rows, binary_space)

    def test_constructor_enforces_report(self, binary_space):
        with pytest.raises(ValidationError, match="below minimum"):
            from_rows([("u1", "a", 0, 1)], binary_space)


class TestPopulationDataset:
    def test_dense_cluster_ids_sorted_by_label(self):
        pop = make_population((0.0, 1.0), {"z": [(0, 1), (1, 1)], "a": [(0, 0), (1, 0)]})
        assert pop.cluster_labels == ("a", "z")
        assert pop.cluster_sizes.tolist() == [2, 2]

    def test_ate(self, small_pop):
        vals = small_pop.space.array
        expected = np.mean([vals[b] - vals[a] for a, b in zip(small_pop.y0, small_pop.y1)])
        assert small_pop.ate == pytest.approx(expected)

    def test_immutable_arrays(self, small_pop):
        with pytest.raises(ValueError):
            small_pop.y0[0] = 1

    @pytest.mark.parametrize(
        "name, value, message",
        [("y0", 3, "y0 indices"), ("y1", 3, "y1 indices"), ("y1", -1, "y1 indices"),
         ("cluster", -1, "cluster ids"), ("cluster", 3, "cluster ids")],
    )
    def test_rejects_out_of_range_indices(self, name, value, message):
        # a y0 index of K in a middle cluster would land in the next cluster's block
        # of the (C, K, K) type table
        pop = make_population(
            (0.0, 1.0, 2.0), {"a": [(0, 1), (1, 2)], "b": [(2, 2), (0, 1)], "c": [(1, 0), (2, 1)]}
        )
        columns = {n: getattr(pop, n).copy() for n in ("cluster", "y0", "y1")}
        columns[name][2] = value
        with pytest.raises(ValidationError, match=message):
            PopulationDataset(pop.space, pop.unit_ids, cluster_labels=pop.cluster_labels, **columns)


def test_arm_cells_from_a_prebuilt_index():
    rng = np.random.default_rng(3)
    cluster, z, y = rng.integers(0, 4, 50), rng.integers(0, 2, 50).astype(np.int8), rng.integers(0, 5, 50)
    index = arm_cells(cluster, z)
    assert index.tolist() == (cluster * 2 + z).tolist()
    cell = arm_cells(cluster, z, y, 5)
    assert cell.tolist() == ((cluster * 2 + z) * 5 + y).tolist()
    shared = arm_cells(cluster, z, y, 5, index)
    assert shared.dtype == cell.dtype and np.array_equal(shared, cell)
    assert np.array_equal(index, cluster * 2 + z)  # left as it was


class TestDrawDesign:
    def test_exact_counts_every_cluster(self, streams):
        rng = np.random.default_rng(0)
        for trial in range(20):
            from conftest import random_population

            pop = random_population(rng)
            n1c = [int(rng.integers(1, s)) for s in pop.cluster_sizes]
            design = draw_design(pop, n1c, streams.generator("d", trial))
            got = np.bincount(pop.cluster[design.z == 1], minlength=pop.n_clusters)
            assert got.tolist() == n1c

    def test_two_unit_cluster_balanced(self, streams):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0)]})
        hits = sum(
            int(draw_design(pop, [1], streams.generator("coin", s)).z[0])
            for s in range(4000)
        )
        assert abs(hits / 4000 - 0.5) < 3 * math.sqrt(0.25 / 4000)

    def test_subset_frequencies_match_enumeration(self, streams):
        # C(4, 2) = 6 equally likely treated subsets
        pop = make_population((0.0, 1.0), {"a": [(0, 1)] * 4})
        subsets = list(itertools.combinations(range(4), 2))
        counts = dict.fromkeys(subsets, 0)
        draws = 60_000
        for s in range(draws):
            z = draw_design(pop, [2], streams.generator("enum", s)).z
            counts[tuple(np.flatnonzero(z))] += 1
        p = 1.0 / 6.0
        bound = 3 * math.sqrt(p * (1 - p) / draws)
        for subset in subsets:
            assert abs(counts[subset] / draws - p) < bound

    def test_deterministic_per_seed(self, small_pop, streams):
        z1 = draw_design(small_pop, 0.5, streams.generator("same")).z
        z2 = draw_design(small_pop, 0.5, streams.generator("same")).z
        assert np.array_equal(z1, z2)

    def test_rejects_empty_arm(self, small_pop, streams):
        with pytest.raises(ValidationError):
            draw_design(small_pop, [0, 3], streams.generator("bad"))
        with pytest.raises(ValidationError):
            draw_design(small_pop, [4, 3], streams.generator("bad"))

    def test_from_assignment_checks_counts(self, small_pop):
        z = np.zeros(small_pop.n, dtype=np.int8)
        with pytest.raises(ValidationError):
            Design.from_assignment(small_pop.cluster, z, small_pop.n_clusters)

    @pytest.mark.parametrize("z", [
        np.array([2, 0, 1, 0]), np.array([1, 0, -1, 0], dtype=np.int8),
        np.array([1, 0, 257, 0]), np.array([1.0, 0.0, 0.5, 0.0]),
    ])
    def test_rejects_an_entry_other_than_0_or_1(self, z):
        # observed outcomes are y0 + z (y1 - y0): any other entry would read a blend
        with pytest.raises(ValidationError, match="assignment must be one 0/1 entry per unit"):
            Design(z=z, n1c=np.array([1, 1]), n0c=np.array([1, 1]))
        with pytest.raises(ValidationError, match="assignment must be one 0/1 entry per unit"):
            Design.from_assignment(np.array([0, 0, 1, 1]), z, 2)
        Design(z=np.array([True, False, True, False]), n1c=np.array([1, 1]), n0c=np.array([1, 1]))


class TestMechanismParams:
    @staticmethod
    def params(**fields):
        return MechanismParams(**{"kind": MechanismKind.CLUSTER_DP, "gamma": 0.02,
                                  "sigma": 10.0, "lam": 0.5, **fields})

    def test_gamma_range(self):
        with pytest.raises(ValidationError):
            self.params(gamma=1.5)
        self.params(gamma=0.1).check_gamma(5)
        with pytest.raises(ValidationError):
            self.params(gamma=0.3).check_gamma(5)

    def test_no_field_defaults(self):
        # sigma = inf is a mechanism of its own, so no caller gets it by leaving sigma out
        for missing in ("gamma", "sigma", "lam"):
            fields = {"gamma": 0.02, "sigma": 10.0, "lam": 0.5}
            del fields[missing]
            with pytest.raises(TypeError, match=missing):
                MechanismParams(kind=MechanismKind.CLUSTER_DP, **fields)

    def test_sigma_range(self):
        # NaN compares False with everything, so a `sigma < 0` test lets it through
        for sigma in (-1.0, math.nan):
            with pytest.raises(ValidationError, match="sigma"):
                self.params(sigma=sigma)
        for sigma in (0.0, 10.0, math.inf):
            assert self.params(sigma=sigma).sigma == sigma


class TestRngStreams:
    def test_same_path_same_draws(self):
        a = RngStreams(5).child("x", 3).generator().random(4)
        b = RngStreams(5).child("x", 3).generator().random(4)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStreams(5).generator("x").random(4)
        b = RngStreams(5).generator("y").random(4)
        assert not np.array_equal(a, b)

    def test_adding_replications_never_perturbs_earlier_streams(self):
        streams = RngStreams(9)
        first = streams.child("rep", 0).generator("laplace").random(3)
        # derive many more replication streams, then re-visit the first
        for r in range(1, 50):
            streams.child("rep", r).generator("laplace").random(3)
        again = streams.child("rep", 0).generator("laplace").random(3)
        assert np.array_equal(first, again)

    def test_string_and_int_labels(self):
        node = RngStreams(1).child("alpha", 2, "beta")
        assert len(node.path) == 3


class TestInverseCdfDraws:
    def test_open_uniform_strictly_inside(self):
        u = open_uniform(RngStreams(3).generator("u"), 10_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_open_uniform_top_point_clamped(self):
        # m = 2**53 - 1 rounds to 1.0 on the grid; log1p(-1) would make an infinite draw
        class TopWord:  # Generator.random gives a float for no size, else an array
            def random(self, size=None):
                return 1.0 - 2.0**-53 if size is None else np.full(size, 1.0 - 2.0**-53)

        top = np.float64(1.0 - 2.0**-53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(open_uniform(TopWord(), 3) == top)
            assert np.all(np.isfinite(laplace_noise(TopWord(), 1.0, 3)))
            assert np.all(np.isfinite(standard_normal(TopWord(), 3)))
            counts = np.array([[[3, 1], [2, 2]]])
            params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.1, sigma=0.0, lam=0.5)
            q = prior_from_counts(counts, counts.sum(axis=-1), params, TopWord())
        assert np.all(np.isfinite(q))
        scalar = open_uniform(TopWord())
        assert type(scalar) is np.float64 and scalar == top

    @pytest.mark.parametrize("size", [None, 10_000])
    def test_open_uniform_is_the_grid_expression(self, size):
        # one shifted random() per draw gives the bits of the bounded-integer grid expression
        u = open_uniform(RngStreams(3).generator("u"), size)
        x = RngStreams(3).generator("u").integers(0, 1 << 53, size=size)
        want = (x.astype(float) + 0.5) * 2**-53
        assert type(u) is type(want) and u.dtype == want.dtype
        assert np.asarray(u).tobytes() == np.asarray(want).tobytes()

    def test_laplace_zero_scale_is_zero(self):
        w = laplace_noise(RngStreams(3).generator("l"), 0.0, 100)
        assert np.all(w == 0.0)

    def test_laplace_moments(self):
        w = laplace_noise(RngStreams(3).generator("l2"), 2.0, 200_000)
        assert abs(w.mean()) < 0.02
        assert np.var(w) == pytest.approx(2 * 2.0**2, rel=0.03)
