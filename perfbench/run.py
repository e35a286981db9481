"""clusterdp benchmark: one workload per run, outputs checked, one JSON line last.

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 20 --trace 0

Run from the repository root. With --trace 0 the last line holds the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics of a traced run. The line before it is a report with
every metric of the workload, the output digests and the run's provenance.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

K = 12
_MC_SMALL = {
    "variance_sweep": {
        "targets": {"epsilon": 0.2, "delta": 1e-4},
        "gamma_grid": [0.1 / K, 0.5 / K, 1.0 / K],
        "replications": 100,
    },
    "homogeneity": {"replications": 15},
    "bound_validation": {"replications": 100},
    "baseline_bias": {"noise_draws": 2, "subpop_draws": 25},
    "distribution": {"replications": 200},
}
_LARGE_POP = {"kind": "gmm", "beta": 4.5, "v": 5.0, "k_prime": 5, "tau": 1,
              "cluster_sizes": [20000] * 50}

WORKLOADS = {
    "cli_1m": {"kind": "cli", "clusters": 50, "cluster_size": 20000, "kprime": 5},
    "cli_many_clusters": {"kind": "cli", "clusters": 5000, "cluster_size": 20, "kprime": 5},
    "mc_small": {
        "kind": "mc",
        "experiments": {name: {**cfg, "workers": 1} for name, cfg in _MC_SMALL.items()},
        "scalar": {"epsilon": 1.0, "batches": 2, "calls": 250},
    },
    "mc_large": {
        "kind": "mc",
        "experiments": {"distribution": {"population": _LARGE_POP, "replications": 24,
                                         "workers": 1}},
    },
}

# Gated (BENCHMARK.json end_to_end): present, non-zero and steady on every workload.
END_TO_END = {"setup_s": "s", "cal_wall_s": "s", "peak_rss_mb": "MB"}
# Reported on the report line only: wall_s is too noisy on a shared host to
# gate, the others apply to some workloads, and fail_ratio is zero when all
# is well (it is also `failed` / `attempted`).
REPORTED = {
    "wall_s": "s", "ref_unit_ms": "ms", "fail_ratio": "1", "generate_s": "s",
    "privatize_s": "s", "estimate_s": "s", "analyze_s": "s", "mc_reps_per_s": "1/s",
    "variance_sweep_s": "s", "homogeneity_s": "s", "bound_validation_s": "s",
    "baseline_bias_s": "s", "distribution_s": "s", "mc_eff_reps_per_s": "1/s",
    "scalar_calls_per_s": "1/s",
}
# Per-layer metrics every workload's traced run produces (the final line).
PER_LAYER = {
    "import.clusterdp_s": "s", "import.scipy_stats_s": "s",
    "rng.generator_s": "s", "rng.generator_calls": "count",
    "model.draw_design_s": "s", "model.draw_design_calls": "count",
    "mechanisms.arm_histograms_s": "s", "mechanisms.fit_priors_s": "s",
    "mechanisms.prior_cells": "count", "mechanisms.resample_outcomes_s": "s",
    "mechanisms.units_resampled": "count", "mechanisms.resample_useful_ratio": "1",
    "mechanisms.resample_bytes_computed": "B",
    "estimation.debias_rows_s": "s", "estimation.per_cluster_contributions_s": "s",
    "simdata.gen_gmm_s": "s", "trace.overhead_s": "s",
}


def layer_unit(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("_peak_mb"):
        return "MB"
    if name in ("mechanisms.noisy_ht_s", "mechanisms.noisy_histogram_s"):
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name == "experiments.rep_ms":
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": git_sha(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "threads_pinned": {v: _env()[v] for v in THREAD_VARS},
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git directly (no git in a plain copy)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _env() -> dict:
    """Environment of every process the benchmark measures: one thread each."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(THREAD_VARS, "1")}


IMPORT_CMD = "import clusterdp.cli, clusterdp.experiments"
# Time of one reference-kernel unit (worker.ReferenceClock) that cal_wall_s
# is scaled to: about its median on the 2-vCPU host the README describes.
REF_UNIT_S = 0.008
# Only operations shorter than this are scaled. The kernel blocks on either
# side of an operation show the host's speed at its start and end, which is
# the speed it ran at only when it is short against the host's swings (a few
# seconds). A longer operation averages over the swings itself, and scaling
# it by its two ends made the 10 s mc_large pass noisier, not steadier.
CAL_MAX_OP_S = 1.0


def calibrated(op: dict) -> float:
    """An operation's time, scaled to the reference speed when it is short."""
    if op["seconds"] >= CAL_MAX_OP_S:
        return op["seconds"]
    return op["seconds"] * REF_UNIT_S / op["ref_s"]


def setup_seconds(samples: int = 3) -> float:
    """Median wall time of a fresh interpreter importing the CLI and the harness."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], env=_env(), check=True,
                       cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_layers(samples: int = 3) -> dict:
    """Cumulative import time of clusterdp and of scipy.stats, from -X importtime."""
    found = {"clusterdp": [], "scipy.stats": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                              env=_env(), check=True, cwd=ROOT, timeout=60,
                              capture_output=True, text=True)
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {"import.clusterdp_s": statistics.median(found["clusterdp"]),
            "import.scipy_stats_s": statistics.median(found["scipy.stats"])}


def peak_mb(span: str, args: list) -> float:
    """Peak RSS growth of one traced parser call, repeated in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--peak", span, json.dumps(args)],
        env=_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
    return float(proc.stdout)


def _output_problems(spec: dict, p: dict) -> list[list[str]]:
    import checks

    ops = p["ops"]
    problems = [[] for _ in ops]
    if spec["kind"] == "cli":
        found = checks.cli_pass(spec, Path(p["dir"]), {op["name"]: op for op in ops})
        return [found[op["name"]] for op in ops]
    batches = []
    for i, op in enumerate(ops):
        if op["payload"] is None:
            continue
        if op["name"] == "scalar_batch":
            batches.append(i)
        else:
            problems[i] += checks.experiment_problems(op["name"], op["payload"]["results"])
    if batches:
        problems[batches[-1]] += checks.scalar_problems([ops[i]["payload"] for i in batches])
    return problems


def check_passes(spec: dict, passes: list[dict]) -> list[list[str]]:
    """Problems of every operation, pass by pass, in operation order."""
    out = []
    for p in passes:
        problems = [[op["error"]] if op["error"] else [] for op in p["ops"]]
        for i, op in enumerate(p["ops"]):
            if op.get("untraced_error"):
                problems[i].append(f"untraced run: {op['untraced_error']}")
        try:
            found = _output_problems(spec, p)
        except Exception as exc:  # output the checks cannot read is a failed output
            found = [[f"output check raised {type(exc).__name__}: {exc}"] for _ in p["ops"]]
        out.append([a + b for a, b in zip(problems, found)])
    # the same seed must give the same bytes in every pass
    for p, problems in zip(passes[1:], out[1:]):
        for i, (op, first) in enumerate(zip(p["ops"], passes[0]["ops"])):
            if op["digest"] and first["digest"] and op["digest"] != first["digest"]:
                problems[i].append("output digest differs from the first pass")
    return out


def replications(spec: dict, name: str, results: list[dict]) -> int:
    cfg = spec["experiments"][name]
    if name == "homogeneity":
        return 2 * cfg["replications"] * len(results)
    if name == "baseline_bias":
        ok = [r for r in results if r["mechanism"] == "cluster_dp" and r["status"] == "ok"]
        return len(ok) * cfg["noise_draws"] * cfg["subpop_draws"]
    return int(sum(r.get("replications", 0) or 0 for r in results
                   if r.get("status", "ok") == "ok"))


def reported_metrics(spec: dict, passes: list[dict]) -> dict:
    """Every end-to-end metric that applies to this workload, medians over passes."""
    per_op: dict[str, list[float]] = {}
    walls, cal_walls, reps_rate, eff_rate, scalar_rate = [], [], [], [], []
    for p in passes:
        ops = [op for op in p["ops"] if op["seconds"] is not None]
        walls.append(sum(op["seconds"] for op in ops))
        cal_walls.append(sum(calibrated(op) for op in ops))
        times = {}
        for op in ops:
            times[op["name"]] = times.get(op["name"], 0.0) + op["seconds"]
        for name, t in times.items():
            if name != "scalar_batch":
                per_op.setdefault(f"{name}_s", []).append(t)
        if spec["kind"] != "mc":
            continue
        exp_ops = [op for op in ops if op["name"] in spec["experiments"]]
        if exp_ops:
            reps = sum(replications(spec, op["name"], op["payload"]["results"])
                       for op in exp_ops)
            reps_rate.append(reps / sum(op["seconds"] for op in exp_ops))
        eff_ops = [op for op in exp_ops if op["name"] in ("variance_sweep", "bound_validation")]
        if len(eff_ops) == 2:
            eff = sum(2.0 * (r["mc_variance"] / r["mc_variance_se"]) ** 2
                      for op in eff_ops for r in op["payload"]["results"]
                      if isinstance(r.get("mc_variance_se"), float) and r["mc_variance_se"] > 0)
            eff_rate.append(eff / sum(op["seconds"] for op in eff_ops))
        batches = [op for op in ops if op["name"] == "scalar_batch"]
        if batches:
            scalar_rate.append(sum(op["payload"]["calls"] for op in batches)
                               / sum(op["seconds"] for op in batches))
    out = {"wall_s": statistics.median(walls), "cal_wall_s": statistics.median(cal_walls)}
    out.update({k: statistics.median(v) for k, v in per_op.items()})
    for key, values in (("mc_reps_per_s", reps_rate), ("mc_eff_reps_per_s", eff_rate),
                        ("scalar_calls_per_s", scalar_rate)):
        if values:
            out[key] = statistics.median(values)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None) -> tuple[dict, dict]:
    """Run one workload in a pinned child process; return (report, result line)."""
    if not (ROOT / "src" / "clusterdp" / "__init__.py").is_file():
        raise BenchError(f"no clusterdp sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = {**WORKLOADS[name], **(overrides or {}), "seed": seed, "seconds": seconds,
            "trace": trace}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT))
    try:
        spec["workdir"] = str(work)
        (work / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"),
             str(work / "result.json")],
            env=_env(), cwd=ROOT, timeout=170, capture_output=True, text=True)
        if proc.returncode != 0 or not (work / "result.json").is_file():
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads((work / "result.json").read_text())
        # before this process grows: a child inherits its parent's peak RSS
        peaks = {f"{span}_peak_mb": peak_mb(span, args)
                 for span, args in result.get("peak_calls", {}).items()}
        passes = result["passes"]
        problems = check_passes(spec, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(1 for probs in problems for pr in probs if pr)
    failures = [f"pass {i} {op['name']}: {'; '.join(pr)}"
                for i, (p, probs) in enumerate(zip(passes, problems))
                for op, pr in zip(p["ops"], probs) if pr]
    report = {
        "workload": name,
        "trace": trace,
        "pass_walls_s": [sum(op["seconds"] or 0.0 for op in p["ops"]) for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": {f"{op['name']}#{i}": op["digest"] for i, op in enumerate(passes[0]["ops"])},
        "provenance": provenance(seed),
    }
    if trace:
        layers = {**result["layers"], **peaks, **import_layers()}
        if result["replay_failures"]:
            failed += 1
            attempted += 1
            failures += result["replay_failures"]
        report.update(failed=failed, attempted=attempted, failures=failures)
        report["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                             for k, v in sorted(layers.items())}
        trace_file = OUT / f"trace_{name}_seed{seed}.json"
        trace_file.write_text(json.dumps({"report": report, "spans": result["spans"]}))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        missing = sorted(set(PER_LAYER) - set(layers))
        if missing:
            raise BenchError(f"traced run produced no {missing}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        e2e = reported_metrics(spec, passes)
        e2e["peak_rss_mb"] = result["peak_rss_mb"]
        e2e["ref_unit_ms"] = 1e3 * statistics.median(result["ref_unit_s"])
        e2e["setup_s"] = setup_seconds()
        e2e["fail_ratio"] = failed / attempted
        units = {**END_TO_END, **REPORTED}
        report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in sorted(e2e.items())}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return report, line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report, line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
