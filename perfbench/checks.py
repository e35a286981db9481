"""Output checks. Each returns the problems it found for one operation; an
operation with any problem counts as failed.

The CLI checks use released data alone: the release CSV, its sidecar and
the JSON the commands print. The Monte Carlo checks compare the tables
with the closed forms the tables themselves report.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from clusterdp.estimation import debias_rows


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def recompute_tau(release: Path, sidecar: dict) -> float:
    """Stratified debiased estimate from the release file, written independently
    of clusterdp.estimation: per-unit debias entries averaged within arms."""
    dense = {label: i for i, label in enumerate(sidecar["cluster_labels"])}
    index = {float(v): j for j, v in enumerate(sidecar["space"])}
    rows = np.asarray(sidecar["debias_rows"], dtype=float)
    cluster, z, y = [], [], []
    with open(release) as fh:
        next(fh)
        for line in fh:
            _, label, arm, value = line.rstrip("\n").split(",")
            cluster.append(dense[label])
            z.append(int(arm))
            y.append(index[float(value)])
    cluster, z, y = np.array(cluster), np.array(z), np.array(y)
    c = len(dense)
    per_unit = rows[cluster, z, y]
    sizes = np.bincount(cluster, minlength=c)
    n1c = np.bincount(cluster[z == 1], minlength=c)
    n0c = sizes - n1c
    treated = np.bincount(cluster[z == 1], weights=per_unit[z == 1], minlength=c)
    control = np.bincount(cluster[z == 0], weights=per_unit[z == 0], minlength=c)
    return float(np.sum(sizes / sizes.sum() * (treated / n1c - control / n0c)))


def cli_pass(spec: dict, d: Path, ops: dict) -> dict[str, list[str]]:
    """Problems per CLI stage of one pass; `ops` maps stage name to its record."""
    n = spec["clusters"] * spec["cluster_size"]
    k = 2 * (spec["kprime"] + 1)
    problems = {name: [] for name in ops}
    gen = ops["generate"]["payload"]
    if gen is not None:
        if (gen["n"], gen["clusters"], gen["k"]) != (n, spec["clusters"], k):
            problems["generate"].append(f"generate reported n, C, K = {gen['n']}, "
                                        f"{gen['clusters']}, {gen['k']}")
        if _data_rows(d / "pop.csv") != n:
            problems["generate"].append("population file does not have n rows")
    tau = None
    if ops["privatize"]["payload"] is not None:
        sidecar = json.loads((d / "sidecar.json").read_text())
        problems["privatize"] += release_problems(d / "release.csv", sidecar, n, spec["clusters"])
        if ops["estimate"]["payload"] is not None:
            tau = ops["estimate"]["payload"]["tau_hat"]
            own = recompute_tau(d / "release.csv", sidecar)
            if not abs(tau - own) <= 1e-9:
                problems["estimate"].append(f"tau_hat {tau!r} != recomputed {own!r}")
    ana = ops["analyze"]["payload"]
    if ana is not None:
        bound = ana["cluster_dp_bound"]["value"]
        if not (math.isfinite(bound) and bound > 0):
            problems["analyze"].append(f"variance bound {bound!r} is not a positive number")
        elif tau is not None and gen is not None:
            if not abs(tau - gen["ate"]) <= 6.0 * math.sqrt(bound):
                problems["analyze"].append(
                    f"|tau_hat - ATE| = {abs(tau - gen['ate']):.4g} > 6 sqrt(bound)")
    return problems


def release_problems(release: Path, sidecar: dict, n: int, c: int) -> list[str]:
    """The release has n rows; q_tilde is (C, 2, K) on the simplex with entries >= gamma;
    the debias rows are those of q_tilde. K is the sidecar's space, which privatize
    infers from the outcomes present in the population file."""
    out = []
    k = len(sidecar["space"])
    if _data_rows(release) != n:
        out.append("release does not have n rows")
    q = np.asarray(sidecar["q_tilde"], dtype=float)
    gamma = float(sidecar["params"]["gamma"])
    lam = float(sidecar["params"]["lambda"])
    if q.shape != (c, 2, k):
        return out + [f"q_tilde has shape {q.shape}, expected {(c, 2, k)}"]
    if np.max(np.abs(q.sum(axis=-1) - 1.0)) > 1e-12:
        out.append("q_tilde rows do not sum to 1 within 1e-12")
    if np.min(q) < gamma:
        out.append(f"q_tilde entry {np.min(q)!r} below gamma {gamma!r}")
    rows = np.asarray(sidecar["debias_rows"], dtype=float)
    expected = debias_rows(np.asarray(sidecar["space"], dtype=float), q, lam)
    if rows.shape != expected.shape or np.max(np.abs(rows - expected)) > 1e-12:
        out.append("sidecar debias rows differ from debias_rows(space, q_tilde, lambda)")
    return out


def _variance_se(x: np.ndarray) -> float:
    """Large-sample standard error of the sample variance: sqrt((m4 - s^4) / n)."""
    dev = x - x.mean()
    return float(math.sqrt(max(np.mean(dev**4) - np.mean(dev**2) ** 2, 0.0) / len(x)))


def experiment_problems(name: str, results: list[dict]) -> list[str]:
    out = []
    if not results:
        return ["empty results table"]
    if name == "variance_sweep":
        exact = {"no_dp", "uniform_prior_stratified", "uniform_prior_unstratified"}
        for row in results:
            if row["mechanism"] in exact:
                gap = abs(row["mc_variance"] - row["theory_variance_or_bound"])
                if not gap <= 4.0 * row["mc_variance_se"]:
                    out.append(f"{row['mechanism']}: |mc - exact| = {gap:.4g} "
                               f"> 4 se = {4.0 * row['mc_variance_se']:.4g}")
    elif name == "bound_validation":
        out += [f"beta={row['beta']}: gap outside the band" for row in results
                if row["contained"] is not True]
    elif name == "distribution":
        row = results[0]
        if not abs(row["mean_deviation"]) <= 4.0 * row["mean_se"]:
            out.append(f"|mean deviation| {abs(row['mean_deviation']):.4g} > 4 se")
    elif name == "homogeneity":
        out += [f"beta={row['beta']}: ratio {row['ratio']!r}" for row in results
                if not math.isfinite(row["ratio"])]
    elif name == "baseline_bias":
        out += [f"{row['mechanism']} eps={row['epsilon']}: {row['status']}" for row in results
                if row["status"] == "ok" and not math.isfinite(row["bias_mean"])]
    return out


def scalar_problems(batches: list[dict]) -> list[str]:
    """Noise variances of all scalar releases of a pass against baseline_gaps."""
    out = []
    gaps = batches[-1]["gaps"]
    for key, gap in zip(("nht", "nh"), gaps):
        draws = np.concatenate([np.asarray(b[key]) for b in batches])
        var = float(np.var(draws, ddof=1))
        se = _variance_se(draws)
        if not abs(var - gap) <= 5.0 * se:
            out.append(f"{key}: variance {var:.4g} vs closed form {gap:.4g} (se {se:.3g})")
    return out
