import json
import math

import numpy as np
import pytest

from clusterdp import accounting, experiments
from clusterdp.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    _replication_threads,
    build_population,
    cluster_mechanism_taus,
    jackknife_variance_se,
    run_baseline_bias,
    run_bound_validation,
    run_distribution_check,
    run_experiment,
    run_homogeneity_sweep,
    run_variance_sweep,
)
from clusterdp.model import MechanismKind, MechanismParams, ValidationError
from clusterdp.rng import RngStreams

from oracles import cluster_mechanism_taus_serial

TINY_GMM = {
    "kind": "gmm",
    "beta": 4.0,
    "v": 5.0,
    "k_prime": 2,
    "tau": 1,
    "cluster_sizes": [24, 36, 48],
}


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ExperimentConfig.from_dict({"replicas": 5})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig.from_dict({"replications": 10})
        b = ExperimentConfig.from_dict({"replications": 10})
        c = ExperimentConfig.from_dict({"replications": 11})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_sigma_inf_parses(self):
        cfg = ExperimentConfig.from_dict({"mechanism": {"sigma": "inf"}})
        assert math.isinf(cfg.mechanism["sigma"])
        assert '"inf"' in cfg.canonical_json()

    def test_csv_population_requires_values(self):
        cfg = ExperimentConfig.from_dict({"population": {"kind": "csv", "path": "x.csv"}})
        with pytest.raises(ValidationError, match="values"):
            build_population(cfg, RngStreams(0))


class TestJackknife:
    def test_matches_direct_leave_one_out(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        direct = np.array([np.var(np.delete(x, i), ddof=1) for i in range(len(x))])
        expected = math.sqrt((len(x) - 1) / len(x) * ((direct - direct.mean()) ** 2).sum())
        assert jackknife_variance_se(x) == pytest.approx(expected, rel=1e-10)


class TestVarianceSweep:
    def test_no_noise_point_matches_ht_variance(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.0},
                "replications": 4000,
            }
        )
        tables, _ = run_variance_sweep(cfg, 5)
        rows = {r["mechanism"]: r for r in tables["results"] if r["status"] == "ok"}
        for name in ("no_dp", "cluster_dp"):
            row = rows[name]
            assert row["mc_variance"] == pytest.approx(
                rows["no_dp"]["theory_variance_or_bound"], abs=6 * row["mc_variance_se"]
            )
            assert abs(row["mc_bias"]) < 0.1

    def test_unstratified_row_matches_its_closed_form(self):
        # at lambda = 0.05 the design term dominates: the unstratified closed form
        # (complete randomization) is far above the variance of stratified draws
        cfg = ExperimentConfig.from_dict({"mechanism": {"lambda": 0.05}, "replications": 300})
        tables, _ = run_variance_sweep(cfg, 3)
        row = next(r for r in tables["results"] if r["mechanism"] == "uniform_prior_unstratified")
        gap = abs(row["mc_variance"] - row["theory_variance_or_bound"])
        assert gap <= 4.0 * row["mc_variance_se"]

    def test_infeasible_point_flagged_and_run_continues(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "targets": {"epsilon": 0.05, "delta": 1e-4},  # below the sigma=10 prior spend
                "replications": 30,
            }
        )
        tables, _ = run_variance_sweep(cfg, 5)
        statuses = [r["status"] for r in tables["results"] if r["mechanism"] == "cluster_dp"]
        assert statuses and all(s.startswith("infeasible") for s in statuses)
        assert any(r["mechanism"].startswith("uniform_prior") for r in tables["results"])

    def test_infinite_target_every_row_ok(self):
        # at sigma = 0 and gamma = 0 the prior spends an infinite budget, yet an
        # infinite target leaves an infinite resampling share: lambda 0 everywhere
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "mechanism": {"gamma": 0.02, "sigma": 0.0, "lambda": 0.5},
                "targets": {"epsilon": "inf", "delta": 0.0},
                "gamma_grid": [0.0, 0.02],
                "replications": 20,
            }
        )
        rows = run_variance_sweep(cfg, 5)[0]["results"]
        assert len(rows) == 7 and all(r["status"] == "ok" for r in rows)
        assert all(r["lambda"] == 0.0 for r in rows if r["mechanism"] != "no_dp")
        assert all(r["delta"] == 0.0 for r in rows)  # every mechanism meets (inf, 0)

    def test_pure_eps_rows_report_zero_delta(self):
        # without targets every row is a pure-epsilon guarantee; the delta
        # identity evaluated at its own eps_tilde leaves a rounding residue
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.05},
                "gamma_grid": [0.001],
                "replications": 3,
            }
        )
        tables, _ = run_variance_sweep(cfg, 5)
        rows = [r for r in tables["results"] if r["mechanism"] != "no_dp"]
        assert len(rows) == 4
        for row in rows:
            sigma = math.inf if row["sigma"] == "" else row["sigma"]
            params = MechanismParams(
                kind=MechanismKind.CLUSTER_DP, gamma=row["gamma"], sigma=sigma, lam=0.05
            )
            assert row["delta"] == 0.0
            assert row["epsilon"] == accounting.cluster_dp_pure_eps(params)

    def test_emitted_privacy_matches_accountant(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "targets": {"epsilon": 0.4, "delta": 1e-4},
                "gamma_grid": [0.02, 0.05],
                "replications": 30,
            }
        )
        tables, _ = run_variance_sweep(cfg, 5)
        for row in tables["results"]:
            if row["status"] != "ok" or row["mechanism"] == "no_dp":
                continue
            if row["mechanism"].startswith("uniform_prior"):
                params = MechanismParams.uniform_prior(6, row["lambda"])
            else:
                params = MechanismParams(
                    kind=MechanismKind.CLUSTER_DP,
                    gamma=row["gamma"],
                    sigma=row["sigma"],
                    lam=row["lambda"],
                )
            report = accounting.cluster_dp_eps_delta(
                params, 0.4 - accounting.prior_budget(params.gamma, params.sigma)
            )
            assert row["epsilon"] == report.epsilon
            assert row["delta"] == report.delta


@pytest.fixture(scope="module")
def sweep():
    cfg = ExperimentConfig.from_dict(
        {
            "population": {**TINY_GMM, "k_prime": 5, "cluster_sizes": [160, 220, 300]},
            "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.8},
            "beta_grid": [0.0, 4.5],
            "lambda_grid": [0.5, 0.8],
            "replications": 700,
        }
    )
    tables, _ = run_homogeneity_sweep(cfg, 42)
    return tables["results"]


class TestHomogeneitySweep:
    def test_uninformative_clusters_ratio_near_one(self, sweep):
        for row in sweep:
            if row["beta"] == 0.0:
                assert row["ratio"] == pytest.approx(1.0, abs=5 * row["ratio_se"])

    def test_informative_clusters_ratio_below_one(self, sweep):
        row = next(r for r in sweep if r["beta"] == 4.5 and r["lambda"] == 0.5)
        assert row["ratio"] < 1.0 - 2 * row["ratio_se"]

    def test_benefit_stronger_at_smaller_lambda(self, sweep):
        lo = next(r for r in sweep if r["beta"] == 4.5 and r["lambda"] == 0.5)
        hi = next(r for r in sweep if r["beta"] == 4.5 and r["lambda"] == 0.8)
        assert lo["ratio"] <= hi["ratio"] + 2 * math.hypot(lo["ratio_se"], hi["ratio_se"])

    def test_requires_gmm_source(self):
        cfg = ExperimentConfig.from_dict(
            {"population": {"kind": "csv", "path": "x.csv", "values": [0, 1]}}
        )
        with pytest.raises(ValidationError, match="gmm"):
            run_homogeneity_sweep(cfg, 0)

    def test_spearman_blank_where_undefined(self):
        # lambda = 0: both kinds estimate with the same draws, so every ratio is 1
        cfg = ExperimentConfig.from_dict({
            "population": {**TINY_GMM, "cluster_sizes": [6, 8]}, "beta_grid": [0.0, 2.0],
            "lambda_grid": [0.0], "replications": 3,
        })
        rows = run_homogeneity_sweep(cfg, 0)[0]["results"]
        assert [r["ratio"] for r in rows] == [1.0, 1.0]
        assert [r["spearman_beta_ratio"] for r in rows] == ["", ""]

    @pytest.mark.parametrize("runner", [run_homogeneity_sweep, run_bound_validation])
    @pytest.mark.parametrize("beta", [math.nan, {}], ids=["nan", "object"])
    def test_population_checked_although_beta_is_overridden(self, runner, beta):
        # the manifest echoes population.beta, which the beta grid overrides
        cfg = ExperimentConfig.from_dict(
            {"population": {**TINY_GMM, "beta": beta}, "beta_grid": [], "replications": 3}
        )
        with pytest.raises(ValidationError, match="population.beta"):
            runner(cfg, 0)


class TestBoundValidation:
    def test_no_resampling_gap_and_bound_vanish(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "mechanism": {"gamma": 0.0, "sigma": 0.0, "lambda": 0.0},
                "beta_grid": [2.0],
                "replications": 2500,
            }
        )
        tables, _ = run_bound_validation(cfg, 3)
        row = tables["results"][0]
        assert row["gap_upper_band"] == 0.0
        assert abs(row["mc_gap"]) <= 2 * row["mc_variance_se"]
        assert row["contained"]

    def test_contained_allows_monte_carlo_error_on_both_sides(self):
        # at lambda = 0 the exact gap and gap_upper are both 0, so the verdict is |gap| <= 2 SE
        for seed in range(8):
            cfg = ExperimentConfig.from_dict(
                {
                    "population": TINY_GMM,
                    "mechanism": {"gamma": 0.0, "sigma": 0.0, "lambda": 0.0},
                    "beta_grid": [2.0],
                    "replications": 300,
                }
            )
            row = run_bound_validation(cfg, seed)[0]["results"][0]
            assert row["gap_upper_band"] == 0.0
            assert row["contained"] == (abs(row["mc_gap"]) <= 2 * row["mc_variance_se"])

    def test_defaults_contained(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "beta_grid": [0.0, 4.0],
                "replications": 400,
            }
        )
        tables, _ = run_bound_validation(cfg, 3)
        assert all(r["contained"] for r in tables["results"])

    def test_gap_decreases_toward_homogeneous_clusters(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": {**TINY_GMM, "k_prime": 5, "cluster_sizes": [160, 220, 300]},
                "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.5},
                "beta_grid": [0.0, 5.0],
                "replications": 1200,
            }
        )
        tables, _ = run_bound_validation(cfg, 42)
        gaps = {r["beta"]: r for r in tables["results"]}
        joint = math.hypot(gaps[0.0]["mc_variance_se"], gaps[5.0]["mc_variance_se"])
        assert gaps[5.0]["mc_gap"] < gaps[0.0]["mc_gap"] - joint


BIAS_GMM = {
    "kind": "gmm",
    "beta": 4.5,
    "v": 5.0,
    "k_prime": 5,
    "tau": 1,
    "cluster_sizes": [250, 400, 600],
}


@pytest.fixture(scope="module")
def bias_rows():
    cfg = ExperimentConfig.from_dict(
        {
            "population": BIAS_GMM,
            "subpop_sizes": [125, 200, 300],
            "epsilon_grid": [0.5, "inf"],
            "noise_draws": 6,
            "subpop_draws": 100,
        }
    )
    tables, _ = run_baseline_bias(cfg, 21)
    return tables["results"]


class TestBaselineBias:
    def test_no_noise_limit_unbiased(self, bias_rows):
        for row in bias_rows:
            if row["status"] == "ok" and math.isinf(row["epsilon"]):
                assert abs(row["bias_mean"]) < 4 * row["mc_se_within"]

    def test_no_noise_rows_bit_identical(self, bias_rows):
        # at epsilon = inf every estimator is the stratified difference in means
        # summed per cluster, so the three rows agree bit for bit
        rows = [r for r in bias_rows if math.isinf(r["epsilon"])]
        assert [r["mechanism"] for r in rows] == ["cluster_dp", "noisy_ht", "noisy_histogram"]
        for key in ("bias_mean", "bias_abs_mean", "bias_spread", "mc_se_within"):
            assert len({r[key] for r in rows}) == 1, key

    def test_unit_level_bias_consistent_with_zero_aggregates_not(self, bias_rows):
        # the one-shot aggregate noise persists as real conditional bias; the
        # unit-level release's conditional bias is zero up to its MC error
        cdp = next(r for r in bias_rows if r["mechanism"] == "cluster_dp" and r["epsilon"] == 0.5)
        nht = next(r for r in bias_rows if r["mechanism"] == "noisy_ht" and r["epsilon"] == 0.5)
        assert cdp["bias_abs_mean"] < 4 * cdp["mc_se_within"]
        assert nht["bias_abs_mean"] > 3 * nht["mc_se_within"]

    @pytest.mark.xfail(
        strict=True,
        reason="with the accountant-calibrated resampling rate the unit-level "
        "estimator's Monte Carlo noise at desk scale exceeds the aggregate "
        "baselines' conditional bias, so the literal comparison inverts",
    )
    def test_literal_small_eps_ordering(self, bias_rows):
        cdp = next(r for r in bias_rows if r["mechanism"] == "cluster_dp" and r["epsilon"] == 0.5)
        nht = next(r for r in bias_rows if r["mechanism"] == "noisy_ht" and r["epsilon"] == 0.5)
        assert cdp["bias_abs_mean"] < nht["bias_abs_mean"]

    def test_infinite_epsilon_needs_no_prior_budget(self):
        # gamma = sigma = 0 spends an infinite prior budget: epsilon = 1 is out of
        # reach, epsilon = inf is met at lambda 0
        cfg = ExperimentConfig.from_dict(
            {
                "population": TINY_GMM,
                "mechanism": {"gamma": 0.0, "sigma": 0.0, "lambda": 0.5},
                "subpop_sizes": [20, 20, 30],
                "epsilon_grid": [1.0, "inf"],
                "noise_draws": 2,
                "subpop_draws": 3,
            }
        )
        rows = run_baseline_bias(cfg, 5)[0]["results"]
        assert [(r["mechanism"], r["epsilon"], r["status"][:10]) for r in rows] == [
            ("cluster_dp", 1.0, "infeasible"),
            ("cluster_dp", math.inf, "ok"),
            ("noisy_ht", math.inf, "ok"),
            ("noisy_histogram", math.inf, "ok"),
        ]
        assert rows[1]["lambda"] == 0.0

    def test_small_population_warns(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": {**TINY_GMM, "k_prime": 5, "cluster_sizes": [20, 30, 40]},
                "subpop_sizes": [10, 10, 10],
                "epsilon_grid": ["inf"],
                "noise_draws": 1,
                "subpop_draws": 3,
            }
        )
        with pytest.warns(UserWarning, match="n >> K"):
            run_baseline_bias(cfg, 0)


class TestDistributionCheck:
    def test_no_dp_point_gaussian_and_unbiased(self):
        cfg = ExperimentConfig.from_dict(
            {
                "population": {**TINY_GMM, "k_prime": 5, "cluster_sizes": [160, 220, 300]},
                "mechanism": {"gamma": 0.0, "sigma": 0.0, "lambda": 0.0},
                "replications": 500,
            }
        )
        tables, _ = run_distribution_check(cfg, 8)
        row = tables["results"][0]
        assert row["normal_at_1pct"]
        assert abs(row["mean_deviation"]) < 4 * row["mean_se"]
        assert len(tables["samples"]) == 500

    def test_default_mechanism_unbiased(self):
        cfg = ExperimentConfig.from_dict(
            {"population": TINY_GMM, "replications": 500}
        )
        tables, _ = run_distribution_check(cfg, 8)
        row = tables["results"][0]
        assert abs(row["mean_deviation"]) < 4 * row["mean_se"]


class TestDeterminism:
    def small_config(self):
        return {
            "population": TINY_GMM,
            "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.6},
            "beta_grid": [0.0, 4.0],
            "lambda_grid": [0.5],
            "epsilon_grid": [1.0],
            "replications": 40,
            "subpop_draws": 10,
            "noise_draws": 2,
            "subpop_sizes": [12, 18, 24],
        }

    @pytest.mark.filterwarnings("ignore:subpopulation size")
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_rerun_and_worker_count_byte_identical(self, name, tmp_path):
        outputs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 8)):
            config = {**self.small_config(), "workers": workers}
            outdir = tmp_path / f"{name}_{tag}"
            run_experiment(name, config, seed=12, outdir=outdir)
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
            )
        assert outputs[0] == outputs[1]
        assert outputs[0] == outputs[2]

    def test_manifest_carries_provenance(self, tmp_path):
        tables, manifest = run_experiment(
            "distribution",
            {**self.small_config(), "replications": 20},
            seed=4,
            outdir=tmp_path,
        )
        assert manifest["seed"] == 4
        assert manifest["config_hash"] == ExperimentConfig.from_dict(
            {**self.small_config(), "replications": 20}
        ).config_hash
        written = json.loads((tmp_path / "distribution_manifest.json").read_text())
        assert written["config_hash"] == manifest["config_hash"]
        for row in tables["results"]:
            assert row["seed"] == 4 and row["config_hash"] == manifest["config_hash"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValidationError, match="unknown experiment"):
            run_experiment("nope", None, 0)


# Two clusters of 20 000 units: above the size at which replications run on two threads
LARGE_GMM = {**TINY_GMM, "k_prime": 5, "cluster_sizes": [20000, 20000]}


@pytest.fixture(scope="module")
def large_pop():
    return build_population(ExperimentConfig.from_dict({"population": LARGE_GMM}), RngStreams(3))


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count that cluster_mechanism_taus sees (two threads need two)."""
    def use(count):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: count)
    return use


class TestThreadedReplications:
    @staticmethod
    def params(kind, lam=0.8):
        if kind is MechanismKind.UNIFORM_PRIOR_DP:
            return MechanismParams.uniform_prior(12, lam)
        return MechanismParams(kind=kind, gamma=0.02, sigma=10.0, lam=lam)

    def test_thread_rule(self):
        least = 1 << 15
        assert _replication_threads(least, 2, 2) == 2
        assert _replication_threads(10**6, 24, 64) == 2  # never more than two
        # one thread below the size, for a single replication, or on a single CPU
        assert [_replication_threads(*call) for call in [
            (least - 1, 24, 2), (875, 200, 2), (10**6, 1, 2), (10**6, 24, 1)]] == [1] * 4

    @pytest.mark.parametrize("kind", list(MechanismKind))
    def test_matches_serial_loop(self, large_pop, cpus, kind):
        cpus(2)
        assert _replication_threads(large_pop.n, 5, 2) == 2
        params, streams = self.params(kind), RngStreams(11)
        got = cluster_mechanism_taus(large_pop, params, 0.5, streams, 5)
        want = cluster_mechanism_taus_serial(large_pop, params, 0.5, streams, 5)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_error_in_a_replication_reaches_the_caller(self, large_pop, cpus):
        cpus(2)
        with pytest.raises(ValidationError, match="no debias rows"):
            cluster_mechanism_taus(large_pop, self.params(MechanismKind.CLUSTER_DP, lam=1.0),
                                   0.5, RngStreams(11), 4)

    def test_error_of_the_first_failing_replication(self, large_pop, cpus, monkeypatch):
        # replications 2 and up fail; on either thread count the caller sees replication 2's
        release = experiments.cluster_dp

        def failing(pop, design, params, node):
            if node.path[-1] >= 2:
                raise ValidationError(f"replication {node.path[-1]}")
            return release(pop, design, params, node)

        monkeypatch.setattr(experiments, "cluster_dp", failing)
        for count in (1, 2):
            cpus(count)
            with pytest.raises(ValidationError, match="replication 2$"):
                cluster_mechanism_taus(large_pop, self.params(MechanismKind.CLUSTER_DP),
                                       0.5, RngStreams(11), 6)

    def test_distribution_tables_on_one_thread_and_two(self, cpus, tmp_path):
        config = {"population": LARGE_GMM, "replications": 4}
        tables = []
        for tag, count in (("a", 2), ("b", 2), ("c", 1)):
            cpus(count)
            run_experiment("distribution", config, seed=5, outdir=tmp_path / tag)
            tables.append({p.name: p.read_bytes() for p in sorted((tmp_path / tag).glob("*.csv"))})
        assert tables[0] == tables[1] == tables[2]
