import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.estimation import (
    _cluster_sums,
    debias_rows,
    per_cluster_contributions,
    tau_no_dp,
    tau_q,
)
from clusterdp.mechanisms import cluster_dp
from clusterdp.model import (
    Design,
    MechanismKind,
    MechanismParams,
    ValidationError,
    draw_design,
)
from clusterdp.rng import RngStreams

from conftest import interleaved_cells, make_population, uniform_release
from oracles import (
    cluster_sums_two_pass,
    cluster_taus_fixed_design,
    q_inverse,
    q_matrix,
    singular_value_bound,
)

from test_mechanisms import fixed_design


class TestBuildQ:
    def test_lambda_zero_identity(self):
        assert np.array_equal(q_matrix([0.3, 0.7], 0.0), np.eye(2))
        assert np.array_equal(q_inverse([0.3, 0.7], 0.0), np.eye(2))

    def test_worked_matrix(self):
        q, q_inv = q_matrix([0.5, 0.5], 0.5), q_inverse([0.5, 0.5], 0.5)
        assert q.tolist() == [[0.75, 0.25], [0.25, 0.75]]
        assert q_inv.tolist() == [[1.5, -0.5], [-0.5, 1.5]]
        assert np.allclose(q @ q_inv, np.eye(2), atol=1e-12)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 13))
            q = rng.dirichlet(np.ones(k))
            lam = float(rng.uniform(0.0, 0.99))
            assert np.allclose(q_matrix(q, lam).sum(axis=0), 1.0, atol=1e-12)

    def test_lambda_one_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            debias_rows(np.array([0.0, 1.0]), [0.5, 0.5], 1.0)

    def test_closed_form_matches_dense_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(2, 13))
            q = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            lam = float(rng.uniform(0.0, 0.95))
            dense = np.linalg.inv(q_matrix(q, lam))
            assert np.max(np.abs(q_inverse(q, lam) - dense)) < 1e-10

    def test_singular_value_bound_sample(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            k = int(rng.integers(2, 13))
            q = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            lam = float(rng.uniform(0.0, 0.98))
            top = np.linalg.svd(q_inverse(q, lam), compute_uv=False)[0]
            assert top <= singular_value_bound(lam, k) + 1e-9


class TestDebias:
    def test_lambda_zero_returns_value(self):
        vals = np.array([0.0, 1.0, 5.0])
        assert debias_rows(vals, [0.2, 0.3, 0.5], 0.0)[2] == 5.0

    def test_worked_values(self):
        vals = np.array([0.0, 1.0])
        row = debias_rows(vals, [0.5, 0.5], 0.5)
        assert row[1] == pytest.approx(1.5, abs=1e-12)
        assert row[0] == pytest.approx(-0.5, abs=1e-12)

    def test_micro_unbiasedness(self):
        # true y = 1: 0.75 * 1.5 + 0.25 * (-0.5) = 1
        vals = np.array([0.0, 1.0])
        col = q_matrix([0.5, 0.5], 0.5)[:, 1]
        row = debias_rows(vals, [0.5, 0.5], 0.5)
        assert float(col @ row) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_equals_explicit_row_product(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(2, 13))
            vals = np.sort(rng.normal(size=k) * 3)
            if len(np.unique(vals)) < k:
                continue
            q = rng.dirichlet(np.ones(k))
            lam = float(rng.uniform(0.0, 0.95))
            explicit = vals @ q_inverse(q, lam)
            closed = debias_rows(vals, q, lam)
            assert np.max(np.abs(explicit - closed)) < 1e-12


class TestTauNoDp:
    def test_constant_arms(self):
        pop = make_population((0.0, 1.0), {"a": [(0, 1), (0, 1)]})
        for z in ([1, 0], [0, 1]):
            design = Design.from_assignment(pop.cluster, np.array(z), pop.n_clusters)
            assert tau_no_dp(pop, design) == 1.0

    def test_equal_arms_zero(self):
        pop = make_population((0.0, 1.0, 2.0), {"a": [(1, 1)] * 4})
        design = fixed_design(pop, [2])
        assert tau_no_dp(pop, design) == 0.0

    def test_constant_effect_unbiased_by_enumeration(self):
        # additive effect tau: mean over all balanced assignments equals tau
        pop = make_population((0.0, 1.0, 2.0, 3.0), {"a": [(0, 1), (1, 2), (2, 3), (0, 1)]})
        taus = []
        for treated in itertools.combinations(range(4), 2):
            z = np.zeros(4, dtype=np.int8)
            z[list(treated)] = 1
            taus.append(tau_no_dp(pop, Design.from_assignment(pop.cluster, z, pop.n_clusters)))
        assert np.mean(taus) == pytest.approx(1.0, abs=1e-12)

    def test_single_cluster_sign_flips_with_assignment(self):
        # y(0) = (0, 1), y(1) = (0, 1): estimates -1 and +1 across the designs
        pop = make_population((0.0, 1.0), {"a": [(0, 0), (1, 1)]})
        out = set()
        for z in ([1, 0], [0, 1]):
            design = Design.from_assignment(pop.cluster, np.array(z), pop.n_clusters)
            out.add(tau_no_dp(pop, design))
        assert out == {-1.0, 1.0}


class TestTauQ:
    def params(self, **kw):
        d = dict(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=2.0, lam=0.6)
        d.update(kw)
        return MechanismParams(**d)

    def test_lambda_zero_equals_no_dp_exactly(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = cluster_dp(small_pop, design, self.params(lam=0.0), streams.child("m"))
        assert tau_q(release) == tau_no_dp(small_pop, design)

    def test_release_only_interface(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = cluster_dp(small_pop, design, self.params(), streams.child("m"))
        del small_pop  # estimation below uses only released data
        value = tau_q(release)
        assert math.isfinite(value)

    def test_missing_debias_row_rejected(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = cluster_dp(small_pop, design, self.params(lam=1.0), streams.child("m"))
        with pytest.raises(ValidationError, match="debias"):
            tau_q(release)

    def test_released_rows_equal_in_memory_inverse(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = cluster_dp(small_pop, design, self.params(), streams.child("m"))
        vals = small_pop.space.array
        per_unit_released = release.debias[release.cluster, release.design.z, release.y_tilde]
        rebuilt = np.array(
            [
                float(vals @ q_inverse(release.q_tilde[c, a], release.params.lam)[:, y])
                for c, a, y in zip(release.cluster, release.design.z, release.y_tilde)
            ]
        )
        assert np.max(np.abs(per_unit_released - rebuilt)) < 1e-10

    def test_mc_unbiasedness_fixed_population(self, streams):
        # 2 clusters of 4, binary outcomes, ate 0.5 by construction
        pop = make_population(
            (0.0, 1.0),
            {
                "a": [(0, 1), (0, 1), (1, 1), (0, 0)],
                "b": [(0, 0), (1, 1), (0, 1), (0, 1)],
            },
        )
        assert pop.ate == 0.5
        design = fixed_design(pop, [2, 2])
        reps = 40_000
        taus = cluster_taus_fixed_design(
            pop, design, self.params(lam=0.7, gamma=0.1, sigma=1.0),
            streams.child("mc"), reps,
        )
        target = tau_no_dp(pop, design)
        se = taus.std(ddof=1) / math.sqrt(reps)
        assert abs(taus.mean() - target) < 4 * se

    def test_conditional_unbiasedness_full_enumeration(self, streams):
        # every fixed assignment of a 4-unit cluster: E_DP[tau_q | z] = tau_no_dp(z)
        pop = make_population((0.0, 1.0, 2.0), {"a": [(0, 1), (1, 2), (2, 0), (1, 1)]})
        reps = 20_000
        for idx, treated in enumerate(itertools.combinations(range(4), 2)):
            z = np.zeros(4, dtype=np.int8)
            z[list(treated)] = 1
            design = Design.from_assignment(pop.cluster, z, pop.n_clusters)
            taus = cluster_taus_fixed_design(
                pop, design, self.params(lam=0.5, gamma=0.1, sigma=1.0),
                streams.child("enum", idx), reps,
            )
            se = taus.std(ddof=1) / math.sqrt(reps)
            assert abs(taus.mean() - tau_no_dp(pop, design)) < 5 * se

    def test_per_cluster_contributions_sum(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = cluster_dp(small_pop, design, self.params(), streams.child("m"))
        per_unit = release.debias[release.cluster, release.design.z, release.y_tilde]
        contrib = per_cluster_contributions(per_unit, release.cluster, design)
        assert contrib.sum() == pytest.approx(tau_q(release), abs=1e-12)


class TestClusterSums:
    """The one-bincount arm sums against one masked bincount per arm, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.integers(1, 6),
        pool=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 0.1, -3.7e-300]),
            min_size=1, max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass_oracle(self, seed, c, pool):
        rng = np.random.default_rng(seed)
        cluster, z, n1c, n0c = interleaved_cells(rng, c)
        values = rng.choice(np.array(pool), len(cluster))
        got = _cluster_sums(values, cluster, z, n1c, n0c)
        want = cluster_sums_two_pass(values, cluster, z, n1c, n0c)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


class TestTauUniform:
    """The uniform-prior release is estimated by tau_q, as a Cluster-DP release with q = 1/K."""

    def test_lambda_zero_matches_no_dp(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = uniform_release(small_pop, design, 0.0, streams.child("u"))
        assert tau_q(release) == pytest.approx(
            tau_no_dp(small_pop, design), abs=1e-12
        )

    def test_mc_unbiasedness(self, streams):
        pop = make_population(
            (0.0, 1.0, 2.0),
            {"a": [(0, 1), (1, 2), (2, 2), (0, 0)], "b": [(1, 1), (2, 0), (0, 2), (1, 2)]},
        )
        design = fixed_design(pop, [2, 2])
        reps = 30_000
        target = tau_no_dp(pop, design)
        taus = np.array(
            [
                tau_q(uniform_release(pop, design, 0.5, streams.child("rep", r)))
                for r in range(300)
            ]
        )
        # quick loop keeps the op-level path honest; batched MC covers depth
        se = taus.std(ddof=1) / math.sqrt(len(taus))
        assert abs(taus.mean() - target) < 5 * se

    def test_lambda_one_rejected(self, small_pop, streams):
        design = draw_design(small_pop, 0.5, streams.generator("z"))
        release = uniform_release(small_pop, design, 1.0, streams.child("u"))
        with pytest.raises(ValidationError):
            tau_q(release)


class TestKernelOpConsistency:
    def test_mc_kernel_matches_public_mechanism(self, small_pop):
        # the per-replication fast path must agree bit-for-bit with the
        # public mechanism + estimator on the same stream node
        from clusterdp.experiments import cluster_mechanism_taus
        from clusterdp.model import resolve_treated_counts

        params = MechanismParams(kind=MechanismKind.CLUSTER_FREE_DP, gamma=0.04, sigma=2.0, lam=0.55)
        streams = RngStreams(99).child("consistency")
        taus = cluster_mechanism_taus(small_pop, params, 0.5, streams, reps=5)
        n1c = resolve_treated_counts(small_pop, 0.5)
        for r in range(5):
            node = streams.child("rep", r)
            design = draw_design(small_pop, n1c, node.generator("assignment"))
            release = cluster_dp(small_pop, design, params, node)
            assert tau_q(release) == taus[r]
