import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clusterdp
from clusterdp.cli import EXIT_STDOUT_CLOSED, build_parser, main
from clusterdp.mechanisms import read_release
from clusterdp.model import OutcomeSpace
from clusterdp.rng import STREAM_VERSION, RngStreams
from clusterdp.simdata import GmmConfig, GraphPopConfig, gen_graph_population, ingest_csv


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_gmm_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "pop.csv"
        code, stdout, _ = run_cli(
            capsys, "generate", "gmm", "--kprime", "2", "--beta", "3.0",
            "--sizes", "30", "40", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 70 and payload["k"] == 6
        pop = ingest_csv(out, OutcomeSpace(tuple(float(v) for v in range(-2, 4))))
        assert pop.n == 70

    def test_graph(self, tmp_path, capsys):
        out = tmp_path / "gpop.csv"
        code, stdout, _ = run_cli(
            capsys, "generate", "graph", "--communities", "20", "30", "44",
            "--pin", "0.3", "--pout", "0.02", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["clusters"] == 3

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["gmm", "--v", "inf"], "v < inf", id="gmm_v_inf"),
            pytest.param(["graph", "--communities", "6", "7", "--tau", "inf"], "finite",
                         id="graph_tau_inf"),
        ],
    )
    def test_infinite_parameter_exit_code(self, tmp_path, capsys, argv, named):
        out = tmp_path / "pop.csv"
        code, stdout, err = run_cli(capsys, "generate", *argv, "--out", str(out))
        assert code == 2
        assert stdout == "" and named in err and not out.exists()

    @pytest.mark.parametrize(
        "argv, config_cls",
        [
            pytest.param(["gmm"], GmmConfig, id="gmm"),
            pytest.param(["graph", "--communities", "6", "7"], GraphPopConfig, id="graph"),
        ],
    )
    def test_every_config_field_is_a_flag(self, argv, config_cls):
        args = vars(build_parser().parse_args(["generate", *argv, "--out", "pop.csv"]))
        missing = [f.name for f in dataclasses.fields(config_cls) if f.name not in args]
        assert missing == []

    def test_graph_flags_reach_the_config(self, tmp_path, capsys):
        out = tmp_path / "gpop.csv"
        flags = ["--communities", "20", "30", "44", "--pin", "0.3", "--pout", "0.02",
                 "--beta-vec", "1", "0", "2", "0.5", "--v", "0.2", "--k", "5", "--tau", "0.5"]
        code, _, _ = run_cli(capsys, "generate", "graph", *flags, "--seed", "2", "--out", str(out))
        assert code == 0
        config = GraphPopConfig((20, 30, 44), 0.3, 0.02, (1.0, 0.0, 2.0, 0.5), 0.2, 5, 0.5)
        pop = gen_graph_population(config, RngStreams(2))
        assert ingest_csv(out, pop.space).y0.tolist() == pop.y0.tolist()

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "20", "30",
                    "--seed", "9", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestPrivatizeEstimate:
    def test_pipeline(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        release_csv = tmp_path / "rel.csv"
        sidecar = tmp_path / "rel.json"
        code, stdout, _ = run_cli(
            capsys, "privatize", "--pop", str(pop_csv), "--kind", "cluster_dp",
            "--gamma", "0.05", "--sigma", "5", "--lam", "0.6", "--seed", "4",
            "--out", str(release_csv), "--sidecar", str(sidecar),
        )
        assert code == 0
        code, stdout, _ = run_cli(
            capsys, "estimate", "--release", str(release_csv), "--sidecar", str(sidecar)
        )
        assert code == 0
        payload = json.loads(stdout)
        assert math.isfinite(payload["tau_hat"])
        assert sum(payload["per_cluster"].values()) == pytest.approx(payload["tau_hat"])
        release = read_release(release_csv, sidecar)
        assert release.params.lam == 0.6

    def test_lambda_zero_recovers_no_dp_estimate(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        release_csv, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        run_cli(capsys, "privatize", "--pop", str(pop_csv), "--lam", "0", "--seed", "4",
                "--out", str(release_csv), "--sidecar", str(sidecar))
        code, stdout, _ = run_cli(
            capsys, "estimate", "--release", str(release_csv), "--sidecar", str(sidecar)
        )
        payload = json.loads(stdout)
        from clusterdp.estimation import tau_no_dp
        from clusterdp.model import Design
        from clusterdp.rng import RngStreams
        from clusterdp.model import draw_design

        space = OutcomeSpace(tuple(float(v) for v in range(-2, 4)))
        pop = ingest_csv(pop_csv, space)
        design = draw_design(pop, 0.5, RngStreams(4).generator("assignment"))
        assert payload["tau_hat"] == pytest.approx(tau_no_dp(pop, design), abs=1e-12)


class TestAccountCalibrate:
    def test_account_pure(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "account", "--gamma", "0.02", "--sigma", "10", "--lam", "0.8"
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["epsilon"] == pytest.approx(0.1 + math.log(13.5), abs=1e-12)
        assert payload["delta"] == 0.0
        assert payload["resample_budget"] == math.log1p(0.2 / (0.8 * 0.02))

    def test_account_eps_delta_uniform(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "account", "--kind", "uniform_prior_dp", "--k", "12",
            "--lam", "0.8", "--eps-tilde", str(math.log(4.0)),
        )
        payload = json.loads(stdout)
        assert payload["delta"] == pytest.approx(0.0, abs=1e-15)

    def test_account_infinite_eps_tilde_zero_delta(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "account", "--lam", "0", "--eps-tilde", "inf", "--gamma", "0.02",
            "--sigma", "10",
        )
        assert code == 0
        assert json.loads(stdout) == {"epsilon": "inf", "delta": 0.0, "prior_budget": 0.1,
                                      "resample_budget": "inf"}

    def test_calibrate(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "calibrate", "--target-eps", "0.2", "--target-delta", "1e-4",
            "--gamma", "0.02", "--sigma", "10",
        )
        assert code == 0
        assert json.loads(stdout)["lambda"] == pytest.approx(0.99780, abs=2e-5)

    def test_calibrate_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "calibrate", "--target-eps", "0.05", "--gamma", "0.02", "--sigma", "10"
        )
        assert code == 3
        assert "budget exhausted" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["calibrate", "--gamma", "0", "--target-eps", "1"], id="gamma_zero"),
            pytest.param(["calibrate", "--kind", "uniform_prior_dp", "--k", "2",
                          "--target-eps", "1e-300"], id="uniform_eps_below_resolution"),
        ],
    )
    def test_calibrate_lambda_one_exit_code(self, capsys, argv):
        """At lambda = 1 there are no debias rows, so it is no answer."""
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3
        assert stdout == "" and "no lambda < 1 meets target_eps=" in err

    def test_calibrate_infinite_target_gamma_zero(self, capsys):
        code, stdout, _ = run_cli(capsys, "calibrate", "--target-eps", "inf", "--gamma", "0")
        assert code == 0 and json.loads(stdout) == {"lambda": 0.0}

    def test_calibrate_infinite_target_infinite_prior_budget(self, capsys):
        # gamma = sigma = 0 spends an infinite prior budget; an infinite target is
        # still met by every mechanism
        code, stdout, _ = run_cli(
            capsys, "calibrate", "--target-eps", "inf", "--gamma", "0", "--sigma", "0"
        )
        assert code == 0 and json.loads(stdout) == {"lambda": 0.0}

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["account", "--kind", "uniform_prior_dp", "--lam", "0.8"], "--k",
                         id="account_uniform_without_k"),
            pytest.param(["calibrate", "--kind", "uniform_prior_dp", "--target-eps", "1"], "--k",
                         id="calibrate_uniform_without_k"),
            pytest.param(["calibrate", "--kind", "uniform_prior_dp", "--target-eps", "1",
                          "--k", "0"], "--k", id="calibrate_uniform_k_zero"),
            pytest.param(["account", "--kind", "cluster_dp", "--sigma", "inf", "--k", "0",
                          "--lam", "0.8"], "--k", id="account_cluster_k_zero"),
            pytest.param(["account", "--kind", "uniform_prior_dp", "--k", "12", "--lam", "1.5"],
                         "lambda", id="account_uniform_lambda_above_one"),
            pytest.param(["account", "--kind", "uniform_prior_dp", "--k", "0", "--lam", "0.8"],
                         "--k", id="account_uniform_k_zero"),
            pytest.param(["calibrate", "--kind", "uniform_prior_dp", "--target-eps", "1",
                          "--k", "-3"], "--k", id="calibrate_uniform_k_negative"),
            pytest.param(["account", "--gamma", "0.9", "--k", "4"], "gamma",
                         id="account_gamma_above_one_over_k"),
            pytest.param(["calibrate", "--target-eps", "1", "--gamma", "0.9", "--k", "4"],
                         "gamma", id="calibrate_gamma_above_one_over_k"),
        ],
    )
    def test_bad_k_gamma_or_lambda_exit_code(self, capsys, argv, named):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and err.startswith("error:") and named in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["calibrate", "--target-eps", "1e300"], id="calibrate_eps_past_exp_range"),
            pytest.param(["calibrate", "--target-eps", "inf", "--gamma", "0"],
                         id="calibrate_gamma_zero_eps_inf"),
            pytest.param(["account", "--eps-tilde", "1e300"], id="account_eps_past_exp_range"),
            pytest.param(["account", "--gamma", "0", "--sigma", "0", "--lam", "0.5"],
                         id="account_gamma_zero_sigma_zero"),
        ],
    )
    def test_extreme_budget_prints_numbers(self, capsys, argv):
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads(stdout, parse_constant=pytest.fail)  # NaN and Infinity fail
        assert payload.get("lambda", 0.0) in (0.0, 1.0) and payload.get("delta", 0.0) == 0.0

    def test_validation_exit_code(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "privatize", "--pop", str(tmp_path / "missing.csv"),
                               "--out", str(tmp_path / "o.csv"), "--sidecar", str(tmp_path / "o.json"))
        assert code == 2


class TestAnalyze:
    def test_report_structure(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        code, stdout, _ = run_cli(
            capsys, "analyze", "--pop", str(pop_csv), "--gamma", "0.05", "--sigma", "5",
            "--lam", "0.5", "--epsilon", "1.0",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["cluster_dp_bound"]["kind"] == "upper_bound"
        assert {"homogeneity_term", "a_term", "gap_lower", "gap_upper"} <= set(
            payload["cluster_dp_bound"]["components"]
        )
        assert payload["baseline_gaps"]["noisy_ht"] <= payload["baseline_gaps"]["noisy_histogram"]

    def test_epsilon_past_float_square(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        code, stdout, _ = run_cli(capsys, "analyze", "--pop", str(pop_csv), "--epsilon", "1e300")
        assert code == 0
        assert json.loads(stdout)["baseline_gaps"] == {"noisy_ht": 0.0, "noisy_histogram": 0.0}

    @pytest.mark.parametrize(
        "flags, named",
        [
            pytest.param(["--gamma", "0.9"], "gamma", id="gamma_above_one_over_k"),
            pytest.param(["--lam", "1"], "lambda", id="lambda_one"),
            pytest.param(["--treated-fraction", "1e300"], "treated fraction",
                         id="treated_fraction_past_int_range"),
            pytest.param(["--epsilon", "1e-300"], "epsilon", id="epsilon_gaps_overflow"),
        ],
    )
    def test_bound_parameters_exit_code(self, tmp_path, capsys, flags, named):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        code, stdout, err = run_cli(capsys, "analyze", "--pop", str(pop_csv), *flags)
        assert code == 2
        assert stdout == "" and err.startswith("error:") and named in err

    def test_bound_continuous_in_sigma(self, tmp_path, capsys):
        """At sigma = 1e20 the bound used to lose the noise bracket to cancellation (16.6 against
        815 at sigma = inf on one population); it now reaches the sigma = inf limit."""
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        bounds = {}
        for sigma in ("1e12", "1e16", "1e20", "inf"):
            code, stdout, _ = run_cli(capsys, "analyze", "--pop", str(pop_csv), "--sigma", sigma)
            assert code == 0
            bounds[sigma] = json.loads(stdout)["cluster_dp_bound"]["value"]
        for sigma in ("1e12", "1e16", "1e20"):
            assert bounds[sigma] == pytest.approx(bounds["inf"], rel=1e-9), sigma

    @pytest.mark.parametrize(
        "big, flags",
        [
            pytest.param("1e+200", ["--values=-1,0,1,2,1e200"], id="max_abs_squared_past_range"),
            pytest.param("1.3e+154", ["--values=0,1,1.3e154"], id="sum_of_squares_past_range"),
            pytest.param("1e+200", [], id="inferred_from_file"),
        ],
    )
    def test_values_past_float_square(self, tmp_path, capsys, big, flags):
        """Outcome values whose squares overflow: analyze exits 2, privatize and estimate run."""
        pop_csv, release_csv, sidecar = tmp_path / "pop.csv", tmp_path / "r.csv", tmp_path / "r.json"
        rows = [f"u{i},{i // 6},{i % 2},{i % 3 % 2}" for i in range(12)]
        if not flags:
            rows[2] = "u2,0,0,1e200"
        _write_population(pop_csv, rows)
        code, stdout, err = run_cli(capsys, "analyze", "--pop", str(pop_csv), *flags)
        assert code == 2
        assert stdout == "" and err.startswith("error: outcome values") and big in err
        code, _, _ = run_cli(capsys, "privatize", "--pop", str(pop_csv), *flags, "--seed", "1",
                             "--out", str(release_csv), "--sidecar", str(sidecar))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "estimate", "--release", str(release_csv),
                                  "--sidecar", str(sidecar))
        assert code == 0
        assert math.isfinite(json.loads(stdout)["tau_hat"])


class TestExperimentCommand:
    def test_runs_and_writes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"kind": "gmm", "beta": 3.0, "v": 5.0, "k_prime": 2,
                            "tau": 1, "cluster_sizes": [20, 30]},
            "mechanism": {"gamma": 0.05, "sigma": 10.0, "lambda": 0.5},
            "replications": 25,
        }))
        outdir = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "experiment", "distribution", "--config", str(cfg),
            "--seed", "6", "--out", str(outdir),
        )
        assert code == 0
        assert (outdir / "distribution_results.csv").exists()
        assert (outdir / "distribution_samples.csv").exists()
        manifest = json.loads((outdir / "distribution_manifest.json").read_text())
        assert manifest["seed"] == 6
        assert manifest["stream_version"] == STREAM_VERSION == json.loads(stdout)["stream_version"]

    @pytest.mark.parametrize(
        "name, config",
        [
            pytest.param("variance_sweep",
                         {"gamma_grid": [0.0, 0.02], "targets": {"epsilon": 2.0, "delta": 0.0},
                          "replications": 3}, id="variance_sweep"),
            pytest.param("baseline_bias",
                         {"mechanism": {"gamma": 0.0}, "epsilon_grid": ["inf", 1.0],
                          "subpop_sizes": [30, 35], "noise_draws": 1, "subpop_draws": 2},
                         id="baseline_bias"),
        ],
    )
    def test_gamma_zero_point_infeasible(self, tmp_path, capsys, name, config):
        """At gamma = 0 no lambda < 1 meets a finite target; that point alone is infeasible."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "population": {"kind": "gmm", "beta": 3.0, "v": 5.0, "k_prime": 2,
                           "cluster_sizes": [40, 60]},
            **config,
        }))
        code, _, err = run_cli(
            capsys, "experiment", name, "--config", str(cfg), "--seed", "2",
            "--out", str(tmp_path / "o"),
        )
        assert code == 0, err
        with open(tmp_path / "o" / f"{name}_results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            infeasible = row["mechanism"].startswith("cluster") and (
                row["gamma"] == "0.0" if name == "variance_sweep" else row["epsilon"] == "1.0")
            if infeasible:
                assert row["status"].startswith("infeasible: no lambda < 1 meets"), row
            else:
                assert row["status"] == "ok", row
        assert any(r["status"] != "ok" for r in rows) and any(r["status"] == "ok" for r in rows)

    @pytest.mark.parametrize(
        "name, config, key",
        [
            pytest.param("distribution", {"bogus": 1}, "bogus", id="unknown_key"),
            pytest.param("distribution", {"replications": "5"}, "replications",
                         id="replications_string"),
            pytest.param("distribution", {"replications": True}, "replications",
                         id="replications_bool"),
            pytest.param("distribution", {"replications": 5.7}, "replications",
                         id="replications_fraction"),
            pytest.param("distribution", {"workers": "two"}, "workers", id="workers_string"),
            pytest.param("distribution", {"workers": 0}, "workers must be >= 1",
                         id="workers_zero"),
            pytest.param("distribution", {"mechanism": {"gamma": "0.1"}}, "gamma",
                         id="gamma_string"),
            pytest.param("distribution", {"gamma_grid": 0.1}, "gamma_grid", id="grid_scalar"),
            pytest.param("distribution", {"treated_fraction": 10**400}, "treated_fraction",
                         id="treated_fraction_past_float_range"),
            pytest.param("distribution", {"population": {"kind": "gmm", "bogus": 1}}, "bogus",
                         id="unknown_population_key"),
            # draw counts too small for a variance: the tables would hold nan cells
            pytest.param("distribution", {"replications": 1}, "replications",
                         id="replications_one"),
            pytest.param("distribution", {"replications": 2}, "replications",
                         id="replications_two"),
            pytest.param("distribution", {"noise_draws": 0}, "noise_draws",
                         id="noise_draws_zero"),
            pytest.param("distribution", {"subpop_draws": 1}, "subpop_draws",
                         id="subpop_draws_one"),
            # open() takes a list as an error and a bool as file descriptor 0 or 1
            pytest.param("distribution",
                         {"population": {"kind": "csv", "path": ["a"], "values": [0, 1]}},
                         "population.path", id="csv_path_list"),
            pytest.param("distribution",
                         {"population": {"kind": "csv", "path": True, "values": [0, 1]}},
                         "population.path", id="csv_path_bool"),
            pytest.param("distribution",
                         {"population": {"kind": "gmm", "beta": 1.0, "v": 5.0, "k_prime": 2,
                                         "cluster_sizes": []}}, "cluster_sizes", id="no_clusters"),
            pytest.param("distribution", {"mechanism": []}, "mechanism",
                         id="mechanism_empty_list"),
            # K = 6, so gamma = 0.5 exceeds 1/K; the prior fit must reject it
            pytest.param("baseline_bias",
                         {"population": {"kind": "gmm", "beta": 1.0, "v": 5.0, "k_prime": 2,
                                         "cluster_sizes": [40, 60]},
                          "mechanism": {"gamma": 0.5}, "subpop_sizes": [30, 40],
                          "epsilon_grid": ["inf"], "noise_draws": 1, "subpop_draws": 2},
                         "gamma", id="baseline_bias_gamma_above_one_over_k"),
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, capsys, name, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, stdout, err = run_cli(
            capsys, "experiment", name, "--config", str(cfg),
            "--seed", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert key in err and stdout == ""
        if 10**400 in config.values():  # the echoed integer is cut, not 401 digits
            assert len(err.rstrip("\n")) <= 100

    @pytest.mark.parametrize(
        "text, named",
        [
            pytest.param('{"replications": 5', "config is not JSON", id="not_json"),
            pytest.param("[1, 2]", "config must be an object", id="top_level_list"),
            pytest.param('"x"', "config must be an object", id="top_level_string"),
        ],
    )
    def test_malformed_config_file_exit_code(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, stdout, err = run_cli(
            capsys, "experiment", "distribution", "--config", str(cfg),
            "--seed", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert named in err and stdout == "" and not (tmp_path / "o").exists()


def _mutate_release(release_csv, sidecar, case):
    meta = json.loads(sidecar.read_text())
    if case == "short_debias_rows":
        meta["debias_rows"] = meta["debias_rows"][:-1]
    elif case == "short_q_tilde":
        meta["q_tilde"] = meta["q_tilde"][:-1]
    elif case == "lambda_above_one":
        meta["params"]["lambda"] = 1.5
    elif case == "unknown_kind":
        meta["kind"] = "bogus"
    elif case == "gamma_string":
        meta["params"]["gamma"] = "abc"
    elif case == "sigma_list":
        meta["params"]["sigma"] = [1]
    elif case == "sigma_negative":
        meta["params"]["sigma"] = -1
    elif case == "gamma_negative":
        meta["params"]["gamma"] = -0.5
    elif case == "space_entry_string":
        meta["space"][0] = "x"
    elif case == "gamma_past_float_range":  # JSON integers that no float holds
        meta["params"]["gamma"] = 10**400
    elif case == "space_entry_past_float_range":
        meta["space"][0] = 10**400
    elif case == "q_tilde_past_float_range":
        meta["q_tilde"][0][0][0] = 10**400
    elif case == "q_tilde_off_simplex":
        meta["q_tilde"][0][0][0] = 0.9
    elif case == "q_tilde_below_gamma":
        k = len(meta["space"])
        meta["q_tilde"][0][0] = [1.0] + [0.0] * (k - 1)
    elif case == "debias_row_shifted":
        meta["debias_rows"][0][0] = [v + 100.0 for v in meta["debias_rows"][0][0]]
    elif case.endswith("_strings"):  # each number as the text NumPy would parse back
        key = case.removesuffix("_strings")
        meta[key] = [[[repr(v) for v in arm] for arm in cluster] for cluster in meta[key]]
    elif case.endswith("_true"):
        meta[case.removesuffix("_true")][0][1][0] = True
    elif case == "bad_header":
        release_csv.write_text(release_csv.read_text().replace("y_tilde", "y", 1))
    elif case in ("z_outside_arms", "y_tilde_not_a_number", "unknown_cluster", "short_row",
                  "long_row"):
        lines = release_csv.read_text().splitlines()
        row = lines[1].split(",")  # unit_id, cluster, z, y_tilde
        if case == "z_outside_arms":
            row[2] = "2"
        elif case == "unknown_cluster":
            row[1] = "no_such_cluster"
        elif case == "short_row":
            row = row[:3]
        elif case == "long_row":
            row = row + ["extra"]
        else:
            row[3] = "abc"
        lines[1] = ",".join(row)
        release_csv.write_text("\n".join(lines) + "\n")
    sidecar.write_text("{" if case == "not_json" else json.dumps(meta))


def _write_population(path, rows):
    path.write_text("unit_id,cluster,y0,y1\n" + "".join(f"{r}\n" for r in rows))


class TestMalformedInput:
    @pytest.mark.parametrize(
        "case, named",
        [
            pytest.param(case, named, id=case)
            for case, named in [
                ("short_debias_rows", "debias_rows"), ("short_q_tilde", "q_tilde"),
                ("lambda_above_one", "lambda"), ("unknown_kind", "kind"),
                ("z_outside_arms", "line 2"), ("y_tilde_not_a_number", "line 2"),
                ("gamma_string", "gamma"), ("sigma_list", "sigma"),
                ("sigma_negative", "sigma"), ("gamma_negative", "gamma"),
                ("space_entry_string", "space"), ("unknown_cluster", "line 2"),
                ("short_row", "line 2"), ("long_row", "line 2: expected 4 fields"),
                ("bad_header", "expected header 'unit_id,cluster,z,y_tilde'"),
                ("not_json", "JSON"),
                ("q_tilde_off_simplex", "q_tilde"), ("q_tilde_below_gamma", "q_tilde"),
                ("debias_row_shifted", "debias_rows"),
                ("gamma_past_float_range", "sidecar params.gamma must be a finite number"),
                ("space_entry_past_float_range", "sidecar space entry must be a finite number"),
                ("q_tilde_past_float_range", "sidecar q_tilde entries must be finite numbers"),
                *[(f"{key}_{entry}", f"sidecar {key} entries must be JSON numbers")
                  for key in ("q_tilde", "debias_rows") for entry in ("strings", "true")],
            ]
        ],
    )
    def test_malformed_release_exit_code(self, tmp_path, capsys, case, named):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        release_csv, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "privatize", "--pop", str(pop_csv), "--seed", "4",
                             "--out", str(release_csv), "--sidecar", str(sidecar))
        assert code == 0
        _mutate_release(release_csv, sidecar, case)
        code, stdout, err = run_cli(
            capsys, "estimate", "--release", str(release_csv), "--sidecar", str(sidecar)
        )
        assert code == 2
        assert stdout == "" and err.startswith("error:") and named in err
        if case.endswith("_past_float_range"):  # the echoed integer is cut, not 401 digits
            assert len(err.rstrip("\n")) <= 100

    @pytest.mark.parametrize("kind", ["cluster_dp", "uniform_prior_dp"])
    @pytest.mark.parametrize("lam", ["1", "0.99999999999999999"])
    def test_privatize_lambda_one_exit_code(self, tmp_path, capsys, kind, lam):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        release_csv, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        code, stdout, err = run_cli(capsys, "privatize", "--pop", str(pop_csv), "--kind", kind,
                                    "--lam", lam, "--out", str(release_csv),
                                    "--sidecar", str(sidecar))
        assert code == 2
        assert stdout == "" and "lambda" in err
        assert not release_csv.exists() and not sidecar.exists()

    def test_privatize_debias_overflow_exit_code(self, tmp_path, capsys):
        """Outcomes near the float range overflow the debias rows at lambda = 0.8: refused,
        where a sidecar would hold Infinity, which is not JSON."""
        pop_csv = tmp_path / "pop.csv"
        _write_population(pop_csv, [f"{u},{c},{a},{b}" for c in "cd" for u, a, b in (
            (f"{c}1", -1e308, 1e308), (f"{c}2", 1e308, -1e308),
            (f"{c}3", -1e308, -1e308), (f"{c}4", 1e308, 1e308))])
        release_csv, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        code, stdout, err = run_cli(capsys, "privatize", "--pop", str(pop_csv), "--lam", "0.8",
                                    "--out", str(release_csv), "--sidecar", str(sidecar))
        assert code == 2
        assert stdout == "" and err == "error: debias rows overflow the float range\n"
        assert not release_csv.exists() and not sidecar.exists()

    @pytest.mark.parametrize(
        "rows, values, named",
        [
            pytest.param(["a,0,0,1", "b,0,1,inf", "c,1,0,1", "d,1,1,0"], None, "finite",
                         id="inf_outcome_inferred"),
            pytest.param(["a,0,0,1", "b,0,1,0", "c,1,0,1", "d,1,1,0"], "0,1,inf", "finite",
                         id="inf_in_values"),
            pytest.param(["a,0,0,1", "b,0,1,x", "c,1,0,1", "d,1,1,0"], None,
                         "line 3: malformed outcome value", id="malformed_outcome_inferred"),
            pytest.param(["a,0,0", "b,0,1", "c,1,0", "d,1,1"], None, "line 2: expected 4 fields",
                         id="missing_field_inferred"),
            pytest.param(["a,0,0,1", "b,0,1,0", "c,1,0,1", "d,1,1,0"], "", "not a number: ''",
                         id="empty_values"),
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "privatize"])
    def test_malformed_population_exit_code(self, tmp_path, capsys, command, rows, values, named):
        pop_csv, sidecar = tmp_path / "pop.csv", tmp_path / "r.json"
        _write_population(pop_csv, rows)
        argv = [command, "--pop", str(pop_csv)] + ([] if values is None else ["--values", values])
        if command == "privatize":
            argv += ["--out", str(tmp_path / "r.csv"), "--sidecar", str(sidecar)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and named in err
        assert not sidecar.exists()

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("fault", ["non_utf8", "oversized"])
    @pytest.mark.parametrize("command", ["analyze", "estimate", "experiment"])
    def test_undecodable_or_oversized_field_exit_code(self, tmp_path, capsys, command, fault,
                                                      quoted):
        """A non-UTF-8 byte or a field over csv.field_size_limit() on line 3 is named by file
        and line, whether the file is split as plain text or read by csv.reader (a quote)."""
        pop_csv = tmp_path / "pop.csv"
        _write_population(pop_csv, [f"{c}{i},c{c},{i % 2},{(i + c) % 2}"
                                    for c in range(2) for i in range(3)])
        target, argv = pop_csv, ["analyze", "--pop", str(pop_csv), "--values", "0,1"]
        if command == "estimate":
            target, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
            run_cli(capsys, "privatize", "--pop", str(pop_csv), "--values", "0,1",
                    "--out", str(target), "--sidecar", str(sidecar))
            argv = ["estimate", "--release", str(target), "--sidecar", str(sidecar)]
        elif command == "experiment":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"population": {"kind": "csv", "path": str(pop_csv),
                                                      "values": [0, 1]}, "replications": 3}))
            argv = ["experiment", "distribution", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]
        lines = target.read_bytes().split(b"\n")
        bad = b"\xff" if fault == "non_utf8" else b"x" * csv.field_size_limit()
        lines[2] = bad + lines[2]  # the unit id of line 3
        if quoted:
            lines[1] = b'"' + lines[1].replace(b",", b'",', 1)
        target.write_bytes(b"\n".join(lines))
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and f"{target}, line 3: " in err

    def test_population_without_y1_column_names_header(self, tmp_path, capsys):
        pop_csv = tmp_path / "pop.csv"
        pop_csv.write_text("unit_id,cluster,y0\na,0,0\nb,0,1\n")
        code, stdout, err = run_cli(capsys, "analyze", "--pop", str(pop_csv))
        assert code == 2
        assert stdout == "" and "expected header" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["account", "--sigma", "nan"], id="account_sigma"),
            pytest.param(["calibrate", "--target-eps", "nan"], id="calibrate_target_eps"),
        ],
    )
    def test_nan_flag_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == "" and "'nan'" in out.err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["generate", "gmm", "--out", "{d}/g.csv"], id="generate_gmm"),
            pytest.param(["generate", "graph", "--communities", "4", "4", "--out", "{d}/g.csv"],
                         id="generate_graph"),
            pytest.param(["privatize", "--pop", "{d}/pop.csv", "--out", "{d}/r.csv",
                          "--sidecar", "{d}/r.json"], id="privatize"),
            pytest.param(["experiment", "distribution", "--out", "{d}/o"], id="experiment"),
        ],
    )
    def test_negative_seed_exit_code(self, tmp_path, capsys, argv):
        pop_csv = tmp_path / "pop.csv"
        _write_population(pop_csv, ["a,0,0,1", "b,0,1,0", "c,1,0,1", "d,1,1,0"])
        with pytest.raises(SystemExit) as exc:
            main([a.format(d=tmp_path) for a in argv] + ["--seed", "-1"])
        out = capsys.readouterr()
        assert exc.value.code == 2
        assert out.out == "" and "--seed" in out.err
        assert list(tmp_path.iterdir()) == [pop_csv]


class TestClosedStdout:
    """A reader that leaves before the output is written: exit EXIT_STDOUT_CLOSED (141),
    not 2, and nothing on stderr, no "Exception ignored" trace at shutdown included."""

    @staticmethod
    def _cli(*argv, **kwargs):
        """The CLI in a child process, its stdout block-buffered as it is in a shell pipe."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(clusterdp.__file__).resolve().parent.parent)
        return subprocess.Popen([sys.executable, "-m", "clusterdp.cli", *argv],
                                stderr=subprocess.PIPE, env=env, **kwargs)

    def test_reader_closes_mid_output(self, tmp_path, capsys):
        """`estimate ... | head -c 10`: 3000 clusters print about 88 KB, more than a
        64 KiB pipe holds, so the write is cut."""
        pop_csv, release_csv, sidecar = tmp_path / "pop.csv", tmp_path / "r.csv", tmp_path / "r.json"
        _write_population(pop_csv, [f"u{i},c{i // 2},0,{i % 2}" for i in range(6000)])
        code, _, _ = run_cli(capsys, "privatize", "--pop", str(pop_csv), "--out", str(release_csv),
                             "--sidecar", str(sidecar))
        assert code == 0
        child = self._cli("estimate", "--release", str(release_csv), "--sidecar", str(sidecar),
                          stdout=subprocess.PIPE)
        assert child.stdout.read(10) == b'{\n  "per_c'
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == EXIT_STDOUT_CLOSED == 141
        assert err == b""

    def test_reader_gone_before_a_short_output(self):
        """A short output waits in stdout's buffer, so only a flush meets the closed pipe."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = self._cli("account", stdout=write_end)
        finally:
            os.close(write_end)
        err = child.stderr.read()
        assert child.wait(timeout=60) == EXIT_STDOUT_CLOSED
        assert err == b""
