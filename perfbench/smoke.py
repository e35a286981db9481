"""Smoke test of the benchmark itself, at toy sizes (about two minutes).

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced and a traced run pass their
output checks, print every metric the benchmark defines with a unit, repeat
their output digests on a rerun of the same seed, and that a corrupted
release is caught and counted in fail_ratio.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ALL_E2E = {"setup_s", "cal_wall_s", "wall_s", "ref_unit_ms", "peak_rss_mb", "fail_ratio"}
CLI_E2E = ALL_E2E | {"generate_s", "privatize_s", "estimate_s", "analyze_s"}
MC_SMALL_E2E = ALL_E2E | {
    "mc_reps_per_s", "variance_sweep_s", "homogeneity_s", "bound_validation_s",
    "baseline_bias_s", "distribution_s", "mc_eff_reps_per_s", "scalar_calls_per_s",
}
MC_LARGE_E2E = ALL_E2E | {"mc_reps_per_s", "distribution_s"}

ALL_LAYERS = set(run.PER_LAYER)
CLI_LAYERS = ALL_LAYERS | {
    "cli.generate_self_s", "cli.privatize_self_s", "cli.estimate_self_s",
    "cli.analyze_self_s", "simdata.write_population_csv_s", "simdata.ingest_csv_s",
    "simdata.ingest_csv_peak_mb", "simdata.csv_rows", "simdata.csv_bytes",
    "mechanisms.write_release_s", "mechanisms.read_release_s",
    "mechanisms.read_release_peak_mb", "mechanisms.release_csv_bytes",
    "mechanisms.sidecar_bytes", "estimation.tau_q_s", "variance.ht_variance_s",
    "variance.homogeneity_s", "variance.cluster_dp_variance_bound_s",
    "variance.uniform_prior_variance_s", "variance.baseline_gaps_s",
    "experiments.counts_design_s",
}
MC_LAYERS = ALL_LAYERS | {
    "experiments.cluster_mechanism_taus_s", "experiments.replications",
    "experiments.rep_ms", "experiments.runner_self_s", "experiments.write_table_s",
    "experiments.warnings",
}
MC_SMALL_LAYERS = MC_LAYERS | {
    "simdata.subsample_s", "simdata.subsample_calls", "mechanisms.noisy_ht_s",
    "mechanisms.noisy_histogram_s", "estimation.tau_no_dp_s", "variance.ht_variance_s",
    "variance.homogeneity_s", "variance.cluster_dp_variance_bound_s",
    "variance.uniform_prior_variance_s", "experiments.counts_design_s",
    "experiments.nodp_taus_s", "experiments.uniform_prior_taus_s",
}

TOY = {
    "cli_1m": ({"clusters": 3, "cluster_size": 200}, CLI_E2E, CLI_LAYERS),
    "cli_many_clusters": ({"clusters": 40, "cluster_size": 20}, CLI_E2E, CLI_LAYERS),
    "mc_small": (
        {"experiments": {
            **run.WORKLOADS["mc_small"]["experiments"],
            "variance_sweep": {**run.WORKLOADS["mc_small"]["experiments"]["variance_sweep"],
                               "replications": 100},
            "homogeneity": {"replications": 20, "workers": 1},
            "baseline_bias": {"noise_draws": 1, "subpop_draws": 20, "workers": 1},
            "distribution": {"replications": 100, "workers": 1},
        }, "scalar": {"epsilon": 1.0, "batches": 2, "calls": 200}},
        MC_SMALL_E2E, MC_SMALL_LAYERS),
    "mc_large": (
        {"experiments": {"distribution": {
            "population": {**run._LARGE_POP, "cluster_sizes": [500] * 4},
            "replications": 10, "workers": 1}}},
        MC_LARGE_E2E, MC_LAYERS),
}
SEED = 7


def _check_line(line: dict, names: set) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert set(line["metrics"]) == names, set(line["metrics"]) ^ names
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and metric["unit"], metric


def _check_report(report: dict, expected: set) -> None:
    got = report["metrics"]
    missing = expected - set(got)
    assert not missing, f"{report['workload']}: metrics not printed: {sorted(missing)}"
    assert all(m["unit"] for m in got.values())


def main() -> int:
    for name, (overrides, e2e, layers) in TOY.items():
        report, line = run.run_workload(name, SEED, 0.0, False, overrides)
        assert line["correct"] and line["failed"] == 0, report["failures"]
        _check_line(line, set(run.END_TO_END))
        _check_report(report, e2e)
        assert report["metrics"]["fail_ratio"]["value"] == 0.0

        again, _ = run.run_workload(name, SEED, 0.0, False, overrides)
        assert again["digests"] == report["digests"], f"{name}: digests differ on rerun"

        traced, tline = run.run_workload(name, SEED, 0.0, True, overrides)
        assert tline["correct"] and tline["failed"] == 0, traced["failures"]
        _check_line(tline, set(run.PER_LAYER))
        _check_report(traced, layers)
        print(f"ok {name}: {len(report['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics")

    overrides = {**TOY["cli_1m"][0], "corrupt": True}
    report, line = run.run_workload("cli_1m", SEED, 0.0, False, overrides)
    assert not line["correct"] and line["failed"] >= 1, report
    assert report["metrics"]["fail_ratio"]["value"] > 0.0
    assert any("debias rows" in f for f in report["failures"]), report["failures"]
    print(f"ok corrupted release: fail_ratio {report['metrics']['fail_ratio']['value']}, "
          f"{report['failures']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
