import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.model import OutcomeSpace, ValidationError
from clusterdp.rng import RngStreams
from clusterdp.simdata import (
    GmmConfig,
    GraphPopConfig,
    gen_gmm,
    gen_graph_population,
    ingest_csv,
    quantize,
    subsample,
    write_population_csv,
)
from clusterdp.variance import homogeneity
from clusterdp.experiments import counts_design


class TestQuantize:
    def test_saturation(self):
        assert quantize(5.0, v=5.0, k_prime=5) == 5
        assert quantize(-5.0, v=5.0, k_prime=5) == -5

    def test_interior_rounding(self):
        # delta = 2 sqrt(5)/5 ~ 0.894, 1.0/delta ~ 1.118 -> 1
        assert quantize(1.0, v=5.0, k_prime=5) == 1

    def test_zero(self):
        assert quantize(0.0, v=5.0, k_prime=5) == 0

    def test_boundary_maps_to_extreme_level(self):
        v, kp = 5.0, 5
        edge = 2.0 * math.sqrt(v)
        assert quantize(edge, v, kp) == kp
        assert quantize(np.nextafter(edge, 10.0), v, kp) == kp

    @given(st.floats(min_value=0.0, max_value=4.47, allow_nan=False))
    @settings(max_examples=200)
    def test_symmetric_about_zero(self, y):
        assert quantize(-y, 5.0, 5) == -quantize(y, 5.0, 5)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2, max_size=20)
    )
    @settings(max_examples=100)
    def test_monotone(self, ys):
        ys = sorted(ys)
        out = [quantize(y, 5.0, 5) for y in ys]
        assert all(b >= a for a, b in zip(out, out[1:]))

    def test_requires_positive_v(self):
        with pytest.raises(ValidationError):
            quantize(1.0, 0.0, 5)


class TestGenGmm:
    def test_support_and_constant_effect(self):
        config = GmmConfig(beta=2.0, v=5.0, k_prime=5, tau=1, cluster_sizes=(50, 60))
        pop = gen_gmm(config, RngStreams(3))
        vals = pop.space.array
        assert pop.space.values == tuple(range(-5, 7))
        y0 = vals[pop.y0]
        assert y0.min() >= -5 and y0.max() <= 5
        assert np.all(vals[pop.y1] - y0 == 1.0)

    def test_beta_equals_v_gives_cluster_constant_outcomes(self):
        config = GmmConfig(beta=5.0, v=5.0, k_prime=5, tau=1, cluster_sizes=(20, 20, 20))
        pop = gen_gmm(config, RngStreams(5))
        design = counts_design(pop, 0.5)
        assert homogeneity(pop, design, 0) == 0.0
        assert homogeneity(pop, design, 1) == 0.0

    def test_beta_zero_clusters_uninformative(self):
        config = GmmConfig(beta=0.0, v=5.0, k_prime=5, tau=1, cluster_sizes=(3000, 3000, 4000))
        pop = gen_gmm(config, RngStreams(7))
        vals = pop.space.array
        y0 = vals[pop.y0]
        cluster_means = [y0[pop.cluster == c].mean() for c in range(3)]
        between = np.var(cluster_means)
        within = np.mean([np.var(y0[pop.cluster == c]) for c in range(3)])
        assert between / within < 0.01

    def test_experiment_population_shape(self):
        config = GmmConfig(beta=4.5, v=5.0, k_prime=5, tau=1, cluster_sizes=(500, 1000, 2000))
        pop = gen_gmm(config, RngStreams(1))
        assert pop.n == 3500
        assert pop.space.k == 12
        assert pop.ate == 1.0

    def test_tau_must_preserve_grid(self):
        with pytest.raises(ValidationError):
            GmmConfig(beta=1.0, v=5.0, k_prime=5, tau=2)

    def test_deterministic(self):
        config = GmmConfig(beta=2.0, v=5.0, k_prime=3, tau=1, cluster_sizes=(30, 40))
        a = gen_gmm(config, RngStreams(11))
        b = gen_gmm(config, RngStreams(11))
        assert np.array_equal(a.y0, b.y0) and np.array_equal(a.cluster, b.cluster)


class TestGraphPopulation:
    def config(self, **kw):
        d = dict(
            community_sizes=(20, 30, 40, 55),
            p_in=0.3,
            p_out=0.02,
            beta=(1.0, 1.0, 1.0, 1.0),
            v=0.1,
            k=8,
            tau=1.0,
        )
        d.update(kw)
        return GraphPopConfig(**d)

    def test_defaults_shape(self):
        pop = gen_graph_population(self.config(), RngStreams(2))
        assert pop.space.k == 8
        assert pop.n == 145
        assert pop.n_clusters == 4

    def test_equal_sized_communities_degenerate(self):
        with pytest.raises(ValidationError, match="standardization undefined"):
            gen_graph_population(self.config(community_sizes=(30, 30)), RngStreams(2))

    def test_zero_coefficients_no_cluster_benefit(self):
        pop = gen_graph_population(
            self.config(beta=(0.0, 0.0, 0.0, 0.0), community_sizes=(40, 50, 60, 70), v=1.0),
            RngStreams(4),
        )
        design = counts_design(pop, 0.5)
        vals = pop.space.array
        pooled = np.var(vals[pop.y0], ddof=1)
        phi0 = homogeneity(pop, design, 0)
        scale = sum(
            (pop.cluster_sizes[c] / pop.n) ** 2 / design.n0c[c] for c in range(pop.n_clusters)
        )
        assert phi0 == pytest.approx(pooled * scale, rel=0.25)

    def test_density_feature_in_unit_interval(self):
        from clusterdp.simdata import _planted_partition_features

        feats = _planted_partition_features(self.config(), RngStreams(3).generator("graph"))
        assert np.all(feats[:, 3] >= 0.0) and np.all(feats[:, 3] <= 1.0)
        assert feats[:, 0].tolist() == [20, 30, 40, 55]

    def test_deterministic(self):
        a = gen_graph_population(self.config(), RngStreams(9))
        b = gen_graph_population(self.config(), RngStreams(9))
        assert np.array_equal(a.y0, b.y0)
        assert a.space.values == b.space.values


class TestCsvRoundTrip:
    def test_write_then_ingest(self, small_pop, tmp_path):
        path = tmp_path / "pop.csv"
        write_population_csv(small_pop, path)
        back = ingest_csv(path, small_pop.space)
        assert back.unit_ids == small_pop.unit_ids
        assert np.array_equal(back.y0, small_pop.y0)
        assert np.array_equal(back.cluster, small_pop.cluster)

    def test_well_formed_six_rows(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text(
            "unit_id,cluster,y0,y1\n"
            "u1,a,0,1\nu2,a,1,1\nu3,a,0,0\nu4,b,1,0\nu5,b,0,1\nu6,b,1,1\n"
        )
        pop = ingest_csv(path, OutcomeSpace((0.0, 1.0)))
        assert pop.n == 6

    def test_outcome_outside_space_names_unit(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("unit_id,cluster,y0,y1\nu1,a,7,1\nu2,a,0,1\n")
        with pytest.raises(ValidationError, match="u1"):
            ingest_csv(path, OutcomeSpace((0.0, 1.0)))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("unit_id,cluster,y0,y1\nu1,a,0,1\nu2,a,zap,1\n")
        with pytest.raises(ValidationError, match="line 3"):
            ingest_csv(path, OutcomeSpace((0.0, 1.0)))

    def test_duplicate_unit_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("unit_id,cluster,y0,y1\nu1,a,0,1\nu1,a,1,1\n")
        with pytest.raises(ValidationError, match="duplicate"):
            ingest_csv(path, OutcomeSpace((0.0, 1.0)))

    def test_header_required(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("u1,a,0,1\n")
        with pytest.raises(ValidationError, match="header"):
            ingest_csv(path, OutcomeSpace((0.0, 1.0)))


class TestSubsample:
    def test_full_counts_identity(self, small_pop, streams):
        sub = subsample(small_pop, small_pop.cluster_sizes, streams.generator("s"))
        assert sub.unit_ids == small_pop.unit_ids
        assert np.array_equal(sub.y0, small_pop.y0)

    def test_counts_exceeding_cluster_rejected(self, small_pop, streams):
        with pytest.raises(ValidationError, match="exceeds"):
            subsample(small_pop, [5, 6], streams.generator("s"))

    def test_subsets_near_uniform(self, streams):
        from conftest import make_population

        pop = make_population((0.0, 1.0), {"a": [(0, 1), (1, 0), (0, 0), (1, 1)]})
        subsets = list(itertools.combinations(range(4), 2))
        counts = dict.fromkeys(subsets, 0)
        draws = 60_000
        for s in range(draws):
            sub = subsample(pop, [2], streams.generator("pick", s))
            idx = tuple(sorted(int(u.split("_")[1]) for u in sub.unit_ids))
            counts[idx] += 1
        p = 1.0 / 6.0
        bound = 3 * math.sqrt(p * (1 - p) / draws)
        for subset in subsets:
            assert abs(counts[subset] / draws - p) < bound

    def test_deterministic(self, small_pop, streams):
        a = subsample(small_pop, [2, 3], streams.generator("fix"))
        b = subsample(small_pop, [2, 3], streams.generator("fix"))
        assert a.unit_ids == b.unit_ids
