import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.model import OutcomeSpace, SerialIds, ValidationError
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

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_edge_counts_at_certain_edges(self, p):
        from clusterdp.simdata import _planted_partition_features

        config = self.config(community_sizes=(3, 4, 6), p_in=p, p_out=p)
        feats = _planted_partition_features(config, RngStreams(3).generator("graph"))
        # pairs within: 3, 6, 15; pairs across: 3*4 + 3*6, 3*4 + 4*6, 3*6 + 4*6
        assert feats[:, 1].tolist() == [3 * p, 6 * p, 15 * p]
        assert feats[:, 2].tolist() == [30 * p, 36 * p, 42 * p]

    def test_edge_counts_without_pair_arrays(self):
        """Counting edges must not hold a uniform per node pair (150 MB at these sizes)."""
        from clusterdp.simdata import _planted_partition_features

        config = self.config(community_sizes=(2000, 3000, 4000))
        tracemalloc.start()
        try:
            _planted_partition_features(config, RngStreams(3).generator("graph"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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
        sub, _ = subsample(small_pop, small_pop.cluster_sizes, streams.generator("s"))
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
            sub, _ = subsample(pop, [2], streams.generator("pick", s))
            idx = tuple(sorted(int(u.split("_")[1]) for u in sub.unit_ids))
            counts[idx] += 1
        p = 1.0 / 6.0
        bound = 3 * math.sqrt(p * (1 - p) / draws)
        for subset in subsets:
            assert abs(counts[subset] / draws - p) < bound

    def test_deterministic(self, small_pop, streams):
        a, _ = subsample(small_pop, [2, 3], streams.generator("fix"))
        b, _ = subsample(small_pop, [2, 3], streams.generator("fix"))
        assert a.unit_ids == b.unit_ids


def _text_ids(serials):
    """Ids as the generators once built them: one ``u%06d`` string per unit."""
    return tuple(f"u{i:06d}" for i in serials)


class TestSerialIds:
    """Generated ids are integers that read as ``u%06d`` text wherever they are used."""

    def test_generators_emit_serial_ids(self):
        pops = [
            gen_gmm(GmmConfig(beta=1.0, v=5.0, k_prime=2, cluster_sizes=(3, 4)), RngStreams(1)),
            gen_graph_population(
                GraphPopConfig(community_sizes=(4, 5, 6), p_in=0.5, p_out=0.1), RngStreams(1)
            ),
        ]
        for pop in pops:
            assert isinstance(pop.unit_ids, SerialIds)
            assert list(pop.unit_ids) == list(_text_ids(range(pop.n)))

    @pytest.mark.parametrize(
        "other, equal",
        [
            (_text_ids(range(5)), True),
            (list(_text_ids(range(5))), True),
            (SerialIds(np.arange(5)), True),
            (_text_ids(range(4)), False),
            (_text_ids((0, 1, 2, 3, 5)), False),
            (SerialIds(np.arange(1, 6)), False),
            ((0, 1, 2, 3, 4), False),
            ("u0000", False),
        ],
    )
    def test_equality_either_side(self, other, equal):
        ids = SerialIds(np.arange(5))
        assert (ids == other) is equal and (other == ids) is equal
        assert (ids != other) is not equal and (other != ids) is not equal

    def test_indexing(self):
        ids = SerialIds(np.arange(10, 20))
        assert (ids[0], ids[-1], ids[np.int64(-2)]) == ("u000010", "u000019", "u000018")
        with pytest.raises(IndexError):
            ids[10]
        for index, serials in [
            (slice(2, 5), range(12, 15)),
            (slice(None, None, -3), (19, 16, 13, 10)),
            (np.array([7, 0, 7]), (17, 10, 17)),
            (np.arange(10) % 2 == 0, range(10, 20, 2)),
        ]:
            picked = ids[index]
            assert isinstance(picked, SerialIds) and picked == _text_ids(serials)
        assert SerialIds([1234567])[0] == "u1234567"

    def test_read_only(self):
        ids = SerialIds(np.arange(3))
        with pytest.raises(ValueError):
            ids.serials[0] = 7

    def test_subsample_gathers_integers(self):
        config = GmmConfig(beta=1.0, v=5.0, k_prime=2, cluster_sizes=(30, 40, 50))
        pop = gen_gmm(config, RngStreams(2))
        sub, keep = subsample(pop, [5, 7, 9], RngStreams(3).generator("sample"))
        assert isinstance(sub.unit_ids, SerialIds)
        assert sub.unit_ids == tuple(pop.unit_ids[i] for i in keep)
        assert sub.unit_ids == _text_ids(keep)

    @staticmethod
    def _population_memory():
        """(bytes kept, peak bytes above the start) of a generated population of 200 000
        units, under tracemalloc."""
        config = GmmConfig(beta=1.0, v=5.0, k_prime=2, cluster_sizes=(50_000,) * 4)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pop = gen_gmm(config, RngStreams(4))
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert pop.n == 200_000 and pop.y0.dtype == np.uint8
        return kept, peak

    def test_population_bytes_per_unit(self):
        """The int64 cluster ids, the int64 ``members`` order and ids, and one-byte y0 and
        y1: 26 bytes a unit, plus at most 16 KiB of objects whose size does not grow with
        n (7.4 KB measured with Python 3.11.7 and NumPy 2.4.6).

        Three int64 columns took 40 bytes a unit; one ``u%06d`` string per unit 56 more.
        """
        kept = self._population_memory()[0]
        assert kept <= 26 * 200_000 + 16 * 1024

    def test_population_build_peak(self):
        """``gen_gmm`` peaks at most 8 bytes a unit above what it keeps: y' is built in
        the noise draws, and ``quantize`` rounds in one float array. The peak, 32.0
        bytes a unit (Python 3.11.7, NumPy 2.4.6), is the cluster ids, y', the rounded
        values and their int64 cast; whole-array expressions peaked at 64.1.
        """
        kept, peak = self._population_memory()
        assert peak - kept <= 8 * 200_000
