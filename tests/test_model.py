import itertools
import math

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
    UnitRecord,
    ValidationError,
    draw_design,
    validate_population,
)
from clusterdp.rng import RngStreams, laplace_noise, open_uniform

from conftest import make_population


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
        assert 1.0 in space
        assert 1.0 + 1e-12 not in space
        assert space.index_of(1) == 1
        with pytest.raises(ValidationError):
            space.index_of(7.0)

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


class TestValidatePopulation:
    def test_well_formed(self, binary_space):
        records = [
            UnitRecord("u1", "a", 0, 1),
            UnitRecord("u2", "a", 1, 1),
            UnitRecord("u3", "b", 0, 0),
            UnitRecord("u4", "b", 1, 0),
            UnitRecord("u5", "b", 0, 1),
        ]
        assert validate_population(records, binary_space) == []

    def test_cluster_below_minimum(self, binary_space):
        records = [
            UnitRecord("u1", "a", 0, 1),
            UnitRecord("u2", "b", 1, 1),
            UnitRecord("u3", "b", 0, 0),
        ]
        report = validate_population(records, binary_space)
        assert any("below minimum size 2" in v for v in report)

    def test_outcome_outside_space(self, binary_space):
        records = [UnitRecord("u1", "a", 7, 1), UnitRecord("u2", "a", 0, 1)]
        report = validate_population(records, binary_space)
        assert any("outside space" in v for v in report)

    def test_duplicate_unit(self, binary_space):
        records = [UnitRecord("u1", "a", 0, 1), UnitRecord("u1", "a", 1, 1)]
        assert any("duplicate" in v for v in validate_population(records, binary_space))

    def test_constructor_enforces_report(self, binary_space):
        with pytest.raises(ValidationError, match="below minimum"):
            PopulationDataset.from_records([UnitRecord("u1", "a", 0, 1)], binary_space)

    def test_roundtrip_through_dataset(self, small_pop):
        assert validate_population(small_pop, small_pop.space) == []


class TestPopulationDataset:
    def test_dense_cluster_ids_sorted_by_label(self):
        pop = make_population((0.0, 1.0), {"z": [(0, 1), (1, 1)], "a": [(0, 0), (1, 0)]})
        assert pop.cluster_labels == ("a", "z")
        assert pop.cluster_sizes.tolist() == [2, 2]

    def test_ate(self, small_pop):
        recs = small_pop.to_records()
        expected = np.mean([r.y1 - r.y0 for r in recs])
        assert small_pop.ate == pytest.approx(expected)

    def test_immutable_arrays(self, small_pop):
        with pytest.raises(ValueError):
            small_pop.y0[0] = 1


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
            Design.from_assignment(small_pop, z)


class TestMechanismParams:
    def test_gamma_range(self):
        with pytest.raises(ValidationError):
            MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=1.5)
        MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.1).check_gamma(5)
        with pytest.raises(ValidationError):
            MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.3).check_gamma(5)


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

    def test_laplace_zero_scale_is_zero(self):
        w = laplace_noise(RngStreams(3).generator("l"), 0.0, 100)
        assert np.all(w == 0.0)

    def test_laplace_moments(self):
        w = laplace_noise(RngStreams(3).generator("l2"), 2.0, 200_000)
        assert abs(w.mean()) < 0.02
        assert np.var(w) == pytest.approx(2 * 2.0**2, rel=0.03)
