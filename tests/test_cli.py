import json
import math

import pytest

from clusterdp.cli import main
from clusterdp.mechanisms import read_release
from clusterdp.model import OutcomeSpace
from clusterdp.simdata import ingest_csv


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
        assert release.lam == 0.6

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

    def test_account_eps_delta_uniform(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "account", "--kind", "uniform_prior_dp", "--k", "12",
            "--lam", "0.8", "--eps-tilde", str(math.log(4.0)),
        )
        payload = json.loads(stdout)
        assert payload["delta"] == pytest.approx(0.0, abs=1e-15)

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

    @pytest.mark.parametrize(
        "flags, named",
        [
            pytest.param(["--gamma", "0.9"], "gamma", id="gamma_above_one_over_k"),
            pytest.param(["--lam", "1"], "lambda", id="lambda_one"),
        ],
    )
    def test_bound_parameters_exit_code(self, tmp_path, capsys, flags, named):
        pop_csv = tmp_path / "pop.csv"
        run_cli(capsys, "generate", "gmm", "--kprime", "2", "--sizes", "40", "60",
                "--seed", "3", "--out", str(pop_csv))
        code, stdout, err = run_cli(capsys, "analyze", "--pop", str(pop_csv), *flags)
        assert code == 2
        assert stdout == "" and err.startswith("error:") and named in err


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

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_code(self, tmp_path, capsys, workers):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"replications": 5}))
        outdir = tmp_path / "o"
        code, stdout, err = run_cli(
            capsys, "experiment", "distribution", "--config", str(cfg),
            "--workers", workers, "--seed", "1", "--out", str(outdir),
        )
        assert code == 2
        assert "workers must be >= 1" in err
        assert stdout == "" and not outdir.exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            pytest.param({"bogus": 1}, "bogus", id="unknown_key"),
            pytest.param({"replications": "5"}, "replications", id="replications_string"),
            pytest.param({"replications": True}, "replications", id="replications_bool"),
            pytest.param({"replications": 5.7}, "replications", id="replications_fraction"),
            pytest.param({"workers": "two"}, "workers", id="workers_string"),
            pytest.param({"mechanism": {"gamma": "0.1"}}, "gamma", id="gamma_string"),
            pytest.param({"gamma_grid": 0.1}, "gamma_grid", id="grid_scalar"),
            pytest.param({"population": {"kind": "gmm", "bogus": 1}}, "bogus",
                         id="unknown_population_key"),
            # draw counts too small for a variance: the tables would hold nan cells
            pytest.param({"replications": 1}, "replications", id="replications_one"),
            pytest.param({"replications": 2}, "replications", id="replications_two"),
            pytest.param({"noise_draws": 0}, "noise_draws", id="noise_draws_zero"),
            pytest.param({"subpop_draws": 1}, "subpop_draws", id="subpop_draws_one"),
            # open() takes a list as an error and a bool as file descriptor 0 or 1
            pytest.param({"population": {"kind": "csv", "path": ["a"], "values": [0, 1]}},
                         "population.path", id="csv_path_list"),
            pytest.param({"population": {"kind": "csv", "path": True, "values": [0, 1]}},
                         "population.path", id="csv_path_bool"),
            pytest.param({"population": {"kind": "gmm", "beta": 1.0, "v": 5.0, "k_prime": 2,
                                         "cluster_sizes": []}}, "cluster_sizes", id="no_clusters"),
            pytest.param({"mechanism": []}, "mechanism", id="mechanism_empty_list"),
        ],
    )
    def test_bad_config_exit_code(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, stdout, err = run_cli(
            capsys, "experiment", "distribution", "--config", str(cfg),
            "--seed", "1", "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert key in err and stdout == ""

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
    elif case == "space_entry_string":
        meta["space"][0] = "x"
    elif case == "q_tilde_off_simplex":
        meta["q_tilde"][0][0][0] = 0.9
    elif case == "q_tilde_below_gamma":
        k = len(meta["space"])
        meta["q_tilde"][0][0] = [1.0] + [0.0] * (k - 1)
    elif case == "debias_row_shifted":
        meta["debias_rows"][0][0] = [v + 100.0 for v in meta["debias_rows"][0][0]]
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
                ("space_entry_string", "space"), ("unknown_cluster", "line 2"),
                ("short_row", "line 2"), ("long_row", "line 2: expected 4 fields"),
                ("bad_header", "expected header 'unit_id,cluster,z,y_tilde'"),
                ("not_json", "JSON"),
                ("q_tilde_off_simplex", "q_tilde"), ("q_tilde_below_gamma", "q_tilde"),
                ("debias_row_shifted", "debias_rows"),
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
        ],
    )
    @pytest.mark.parametrize("command", ["analyze", "privatize"])
    def test_malformed_population_exit_code(self, tmp_path, capsys, command, rows, values, named):
        pop_csv, sidecar = tmp_path / "pop.csv", tmp_path / "r.json"
        _write_population(pop_csv, rows)
        argv = [command, "--pop", str(pop_csv)] + (["--values", values] if values else [])
        if command == "privatize":
            argv += ["--out", str(tmp_path / "r.csv"), "--sidecar", str(sidecar)]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 2
        assert stdout == "" and named in err
        assert not sidecar.exists()

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
