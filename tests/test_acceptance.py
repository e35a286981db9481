"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion table
with measured values and elapsed times. Every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from clusterdp import accounting
from clusterdp.accounting import (
    CalibrationError,
    calibrate_lambda,
    cluster_dp_eps_delta,
    cluster_dp_pure_eps,
    prior_budget,
)
from clusterdp.estimation import debias_rows, tau_no_dp
from clusterdp.experiments import (
    ExperimentConfig,
    build_population,
    cluster_mechanism_taus,
    counts_design,
    jackknife_variance_se,
    run_experiment,
    run_homogeneity_sweep,
    uniform_prior_taus,
)
from clusterdp.mechanisms import (
    fit_priors,
    noisy_histogram,
    noisy_ht,
    perturb_clip,
    renormalize,
)
from clusterdp.model import MechanismKind, MechanismParams, draw_design
from clusterdp.rng import RngStreams, laplace_noise
from clusterdp.variance import (
    baseline_gaps,
    cluster_dp_variance_bound,
    ht_variance,
    uniform_prior_variance,
)

from conftest import make_population, pooled_with_design, random_population
from oracles import (
    cluster_taus_fixed_design,
    singular_value_bound,
    uniform_prior_eps,
)

from test_mechanisms import fixed_design
from test_variance import enumeration_ht_variance


def report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} {name}: {detail} ({elapsed:.1f}s / limit {limit}s)"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded the {limit}s runtime limit"


def cluster_params(gamma, sigma, lam):
    return MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=gamma, sigma=sigma, lam=lam)


def test_01_accounting_round_trip():
    start = time.perf_counter()
    delta_target = 1e-4
    checked = 0
    worst = 0.0
    for gamma in (0.002, 0.02, 1.0 / 12.0):
        for sigma in (1.0, 10.0, math.inf):
            for eps in (0.2, 0.5, 1.2, 2.0, 4.0, 8.0):
                prior = prior_budget(gamma, sigma)
                if eps <= prior:
                    with pytest.raises(CalibrationError):
                        calibrate_lambda(eps, delta_target, gamma, sigma)
                    continue
                lam = calibrate_lambda(eps, delta_target, gamma, sigma)
                got = cluster_dp_eps_delta(cluster_params(gamma, sigma, lam), eps - prior)
                worst = max(worst, abs(got.epsilon - eps), abs(got.delta - delta_target))
                checked += 1
    elapsed = time.perf_counter() - start
    report(1, "privacy accounting round-trip", worst < 1e-12,
           f"{checked} feasible grid points, max drift {worst:.2e}", elapsed, 1.0)


def test_02_reduction_identity():
    start = time.perf_counter()
    worst = 0.0
    for k in (2, 5, 12):
        for lam in np.linspace(0.1, 0.99, 90):
            cluster = cluster_dp_pure_eps(cluster_params(1.0 / k, math.inf, float(lam)))
            worst = max(worst, abs(cluster - uniform_prior_eps(k, float(lam))))
    elapsed = time.perf_counter() - start
    report(2, "uniform-prior reduction identity", worst < 1e-12,
           f"max |cluster - uniform| = {worst:.2e}", elapsed, 1.0)


def test_03_unbiasedness():
    start = time.perf_counter()
    values = (0.0, 1.0, 2.0, 3.0)
    rng = np.random.default_rng(12)
    clusters = {
        c: [(values[rng.integers(0, 4)], values[rng.integers(0, 4)]) for _ in range(8)]
        for c in ("a", "b", "c")
    }
    pop = make_population(values, clusters)
    assert pop.n == 24 and pop.n_clusters == 3
    design = fixed_design(pop, [4, 4, 4])
    target = tau_no_dp(pop, design)
    reps = 100_000
    details = []
    ok = True
    for i, (gamma, sigma, lam) in enumerate([(0.02, 10.0, 0.8), (0.05, 1.0, 0.5)]):
        taus = cluster_taus_fixed_design(
            pop, design, cluster_params(gamma, sigma, lam), RngStreams(31).child("mc", i), reps
        )
        se = taus.std(ddof=1) / math.sqrt(reps)
        dev = abs(taus.mean() - target) / se
        ok = ok and dev < 4.0
        details.append(f"({gamma},{sigma},{lam}): {dev:.2f} se")
    elapsed = time.perf_counter() - start
    report(3, "conditional unbiasedness of the debiased estimator", ok,
           "; ".join(details), elapsed, 30.0)


def test_04_ht_variance_exact():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        k = int(rng.integers(2, 5))
        values = tuple(sorted(rng.choice(np.arange(-4.0, 5.0), size=k, replace=False)))
        pop = random_population(
            rng, n_clusters=int(rng.integers(1, 4)), size_range=(2, 6), space_values=values
        )
        n1c = [int(rng.integers(1, s)) for s in pop.cluster_sizes]
        design = fixed_design(pop, n1c)
        diff = abs(ht_variance(pop, design) - enumeration_ht_variance(pop, design))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    report(4, "exact stratified variance vs enumeration", worst < 1e-10,
           f"200 populations, max |formula - enumeration| = {worst:.2e}", elapsed, 10.0)


def test_05_uniform_prior_exact_variance():
    start = time.perf_counter()
    rng = np.random.default_rng(77)

    def rand_pop(values, sizes):
        return make_population(
            values,
            {
                c: [
                    (values[rng.integers(0, len(values))], values[rng.integers(0, len(values))])
                    for _ in range(size)
                ]
                for c, size in enumerate(sizes)
            },
        )

    fixtures = [
        (rand_pop((-2.0, -1.0, 0.0, 1.0, 3.0), (6, 6, 6)), 0.5, True),
        (rand_pop((0.0, 1.0), (12,)), 0.3, False),  # binary, unstratified
        (rand_pop((0.0, 1.0, 2.0), (4, 6, 8)), 0.8, True),
        (rand_pop(tuple(float(v) for v in range(-5, 7)), (10,)), 0.5, False),
        (rand_pop((-1.0, 0.0, 0.5, 2.0), (6, 6)), 0.65, True),
    ]
    reps = 200_000
    worst_rel = 0.0
    for i, (pop, lam, stratified) in enumerate(fixtures):
        design = counts_design(pop, 0.5)
        if not stratified:
            pop, design = pooled_with_design(pop, design)
        formula = uniform_prior_variance(pop, design, lam)
        taus = uniform_prior_taus(pop, lam, design.n1c, RngStreams(55).child("fix", i), reps)
        worst_rel = max(worst_rel, abs(float(np.var(taus, ddof=1)) - formula) / formula)
    # binary simplification holds algebraically on random binary populations
    worst_binary = 0.0
    for _ in range(30):
        pop = rand_pop((0.0, 1.0), tuple(int(rng.integers(3, 9)) for _ in range(int(rng.integers(1, 4)))))
        design = counts_design(pop, 0.5)
        pooled = pooled_with_design(pop, design)
        for lam in (0.1, 0.5, 0.9):
            gap = uniform_prior_variance(*pooled, lam) - ht_variance(*pooled)
            simplified = (
                pop.n / (design.n0 * design.n1) * (lam / 2) * (1 - lam / 2) / (1 - lam) ** 2
            )
            worst_binary = max(worst_binary, abs(gap - simplified))
    ok = worst_rel < 0.03 and worst_binary < 1e-12
    elapsed = time.perf_counter() - start
    report(5, "uniform-prior exact variance vs MC", ok,
           f"max rel err {worst_rel:.4f} over 5 fixtures at {reps} reps; "
           f"binary reduction drift {worst_binary:.2e}", elapsed, 60.0)


def test_06_variance_gap_containment():
    start = time.perf_counter()
    params = cluster_params(0.02, 10.0, 0.8)
    reps = 1500
    streams = RngStreams(606)
    details = []
    ok = True
    for bi, beta in enumerate((0.0, 2.0, 4.0, 4.5)):
        cfg = ExperimentConfig.from_dict(
            {"population": {"kind": "gmm", "beta": beta, "v": 5.0, "k_prime": 5,
                             "tau": 1, "cluster_sizes": [125, 250, 500]}}
        )
        pop = build_population(cfg, streams)
        design = counts_design(pop, 0.5)
        taus = cluster_mechanism_taus(pop, params, 0.5, streams.child("mc", bi), reps)
        gap = float(np.var(taus, ddof=1)) - ht_variance(pop, design)
        se = jackknife_variance_se(taus)
        bound = cluster_dp_variance_bound(pop, design, params).components["gap_upper"]
        point_ok = (gap >= -2.0 * se) and (gap <= bound)
        ok = ok and point_ok
        details.append(f"beta={beta}: gap={gap:.3f} (se {se:.3f}) <= bound {bound:.1f}")
    elapsed = time.perf_counter() - start
    report(6, "variance-gap band containment", ok, "; ".join(details), elapsed, 120.0)


def test_07_neighboring_prior_stability():
    start = time.perf_counter()
    streams = RngStreams(707)
    violations = 0
    trials = 0
    for k in (2, 5, 12):
        rng = np.random.default_rng(k)
        for trial in range(334):
            n = int(rng.integers(2, 40))
            gamma = float(rng.uniform(0.0, 1.0 / k))
            labels = rng.integers(0, k, size=n)
            neighbor = labels.copy()
            neighbor[rng.integers(0, n)] = rng.integers(0, k)
            scale = float(rng.choice([0.0, 0.05, 0.2, 0.5]))
            noise = laplace_noise(streams.generator("w", k, trial), scale, k)
            q1 = renormalize(
                perturb_clip(np.bincount(labels, minlength=k) / n, gamma, noise),
                gamma,
            )
            q2 = renormalize(
                perturb_clip(np.bincount(neighbor, minlength=k) / n, gamma, noise),
                gamma,
            )
            trials += 1
            if np.max(np.abs(q1 - q2)) > 2.0 / n + 1e-12:
                violations += 1
    elapsed = time.perf_counter() - start
    report(7, "neighboring-dataset prior stability", violations == 0,
           f"{violations} violations over {trials} shared-noise triples", elapsed, 10.0)


def test_08_singular_value_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_excess = -math.inf
    for _ in range(10_000):
        k = int(rng.integers(2, 13))
        q = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 4.0))
        lam = float(rng.uniform(0.0, 0.98))
        inverse = (np.eye(k) - lam * np.outer(q, np.ones(k))) / (1.0 - lam)
        top = np.linalg.svd(inverse, compute_uv=False)[0]
        worst_excess = max(worst_excess, top - singular_value_bound(lam, k))
    elapsed = time.perf_counter() - start
    report(8, "singular-value bound on the debiasing matrix", worst_excess <= 1e-9,
           f"max excess over bound {worst_excess:.2e} on 10^4 draws", elapsed, 10.0)


def test_09_closed_form_vs_dense_inverse():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        values = np.sort(rng.normal(size=k) * 4)
        q = rng.dirichlet(np.ones(k))
        lam = float(rng.uniform(0.0, 0.95))
        matrix = (1 - lam) * np.eye(k) + lam * np.outer(q, np.ones(k))
        dense_row = values @ np.linalg.inv(matrix)
        closed_row = debias_rows(values, q, lam)
        worst = max(worst, float(np.max(np.abs(dense_row - closed_row))))
    elapsed = time.perf_counter() - start
    report(9, "closed-form debias rows vs dense inversion", worst < 1e-10,
           f"max row drift {worst:.2e} on 10^3 matrices", elapsed, 5.0)


def resampling_variance_floor(pop, design, eps, delta, gamma):
    """Lower bound on Var(tau_hat) for any release with prior floor gamma meeting (eps, delta).

    Built from (eps, delta, gamma, K) and the design counts alone, never from
    ``calibrate_lambda``; the proof is in the docstring of criterion 10.
    Returns (floor, lam_min).
    """
    var_uniform = pop.space.mean_sq - pop.space.mean**2
    lam_min = (1.0 - delta) / (1.0 + gamma * math.expm1(eps))
    per_unit = lam_min * pop.space.k * gamma * var_uniform / (1.0 - lam_min) ** 2
    weights = (pop.cluster_sizes / pop.n) ** 2 * (1.0 / design.n0c + 1.0 / design.n1c)
    return ht_variance(pop, design) + per_unit * float(weights.sum()), lam_min


def test_10_privacy_matched_mechanism_ordering():
    """Privacy-matched variance ordering of the three unit-level mechanisms.

    At (eps, delta) = (0.2, 1e-4) with gamma = 0.1/K the accountant forces the
    uniform prior to win, whatever the clustering, sigma or implementation:

    1. A release with prior floor gamma meeting (eps, delta) has
       delta >= 1 - lam (1 + gamma (e^eps_tilde - 1)) with eps_tilde <= eps,
       so lam >= lam_min = (1 - delta) / (1 + gamma (e^eps - 1)), whatever
       the prior budget is.
    2. Any q with every q_y >= gamma is K gamma Uniform + (1 - K gamma) r for
       a distribution r, so by the law of total variance
       Var_q >= K gamma Var_U.
    3. Given the design and q, one debiased value (y_tilde - lam mu_q)/(1 - lam)
       has variance lam [Var_q + (1 - lam)(y - mu_q)^2] / (1 - lam)^2, which
       is at least lam_min K gamma Var_U / (1 - lam_min)^2 (increasing in lam).
    4. Conditional unbiasedness (criterion 03) and the law of total variance
       give Var(tau_hat) >= ht_variance + that bound times
       sum_c (n_c/n)^2 (1/n_0c + 1/n_1c).

    Here lam_min = 0.99806 and the floor is about 1442, while the uniform
    prior (gamma = 1/K, lam_u = 0.98179) has exact variance about 162: a gap
    of about 8.9x. The test checks that privacy is matched, that the
    cluster and pooled mechanisms respect the floor, that the uniform Monte
    Carlo variance matches its exact value, that the floor lies above it, and
    that the priors ``fit_priors`` returns meet the floor's premise (step 2).
    Where clusters win at equal (eps, delta), if anywhere, is a question for
    a map over (gamma, sigma, delta, K, beta), not for this point.
    """
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {"population": {"kind": "gmm", "beta": 4.5, "v": 5.0, "k_prime": 5,
                         "tau": 1, "cluster_sizes": [125, 250, 500]}}
    )
    streams = RngStreams(1010)
    pop = build_population(cfg, streams)
    k = pop.space.k
    vals = pop.space.array
    eps, delta = 0.2, 1e-4
    gamma, sigma = 0.1 / k, 10.0
    lam_cluster = calibrate_lambda(eps, delta, gamma, sigma)
    uniform = MechanismParams.uniform_prior(k)
    lam_uniform = calibrate_lambda(eps, delta, uniform.gamma, uniform.sigma)
    design = counts_design(pop, 0.5)
    floor, lam_min = resampling_variance_floor(pop, design, eps, delta, gamma)
    exact_u = uniform_prior_variance(pop, design, lam_uniform)

    got_c = cluster_dp_eps_delta(
        cluster_params(gamma, sigma, lam_cluster), eps - prior_budget(gamma, sigma)
    )
    got_u = cluster_dp_eps_delta(
        MechanismParams.uniform_prior(k, lam_uniform),
        eps - prior_budget(uniform.gamma, uniform.sigma),
    )
    drift = max(abs(r.epsilon - eps) + abs(r.delta - delta) for r in (got_c, got_u))
    matched = drift < 1e-12

    reps = 1200
    results = {}
    premise = True
    var_u = pop.space.mean_sq - pop.space.mean**2
    for kind in (MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP):
        params = MechanismParams(kind=kind, gamma=gamma, sigma=sigma, lam=lam_cluster)
        mc_streams = streams.child("mc", kind.value)
        # the priors of the first 50 replications, from the same stream nodes
        for r in range(50):
            node = mc_streams.child("rep", r)
            design_r = draw_design(pop, 0.5, node.generator("assignment"))
            q = fit_priors(pop, design_r, params, node.generator("laplace")).q
            var_q = q @ vals**2 - (q @ vals) ** 2
            premise = premise and bool(np.all(q >= gamma)) and bool(
                np.all(var_q >= k * gamma * var_u)
            )
        taus = cluster_mechanism_taus(pop, params, 0.5, mc_streams, reps)
        results[kind.value] = (float(np.var(taus, ddof=1)), jackknife_variance_se(taus))
    taus_u = uniform_prior_taus(pop, lam_uniform, 0.5, streams.child("mc", "uniform"), 30_000)
    results["uniform_prior_stratified"] = (
        float(np.var(taus_u, ddof=1)),
        jackknife_variance_se(taus_u),
    )
    vc, se_c = results["cluster_dp"]
    vf, se_f = results["cluster_free_dp"]
    vu, se_u = results["uniform_prior_stratified"]
    above_floor = vc >= floor - 2.0 * se_c and vf >= floor - 2.0 * se_f
    uniform_exact = abs(vu - exact_u) <= 2.0 * se_u
    ordering = floor > exact_u
    elapsed = time.perf_counter() - start
    report(
        10,
        "privacy-matched variance ordering",
        matched and premise and above_floor and uniform_exact and ordering,
        f"cluster={vc:.0f} (se {se_c:.0f}), pooled={vf:.0f} (se {se_f:.0f}), "
        f"uniform={vu:.1f} (se {se_u:.1f}, exact {exact_u:.1f}); "
        f"lam_cluster={lam_cluster:.5f}, lam_uniform={lam_uniform:.5f}, "
        f"lam_min={lam_min:.5f}; floor={floor:.1f}, floor/uniform={floor / exact_u:.2f}; "
        f"privacy drift {drift:.1e}, prior premise holds: {premise}",
        elapsed,
        120.0,
    )


def test_11_homogeneity_trend():
    start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "population": {"kind": "gmm", "beta": 4.5, "v": 5.0, "k_prime": 5,
                            "tau": 1, "cluster_sizes": [500, 1000, 2000]},
            "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.8},
            "beta_grid": [0.0, 1.0, 2.0, 3.0, 4.0, 4.5],
            "lambda_grid": [0.5],
            "replications": 800,
        }
    )
    tables, _ = run_homogeneity_sweep(cfg, 42)
    rows = tables["results"]
    rho = rows[0]["spearman_beta_ratio"]
    elapsed = time.perf_counter() - start
    report(11, "variance-ratio trend in cluster quality", rho <= -0.8,
           f"Spearman(beta, ratio) = {rho:.2f} at lambda=0.5, "
           f"ratios {[round(r['ratio'], 3) for r in rows]}", elapsed, 120.0)


def test_12_baseline_gap_formulas():
    start = time.perf_counter()
    pop = make_population(
        (-1.0, 0.0, 1.0, 2.0),
        {"a": [(0, 1), (1, 2), (-1, 0), (2, 1)], "b": [(1, 1), (0, 2), (2, -1), (-1, 0), (0, 1), (1, 0)]},
    )
    design = fixed_design(pop, [2, 3])
    eps = 1.0
    nht_gap, nh_gap = baseline_gaps(pop, design, eps)
    base = tau_no_dp(pop, design)
    reps = 200_000
    streams = RngStreams(1212)
    nht_draws = np.array(
        [noisy_ht(pop, design, eps, streams.child("nht", r)).value - base for r in range(reps)]
    )
    nh_draws = np.array(
        [noisy_histogram(pop, design, eps, streams.child("nh", r)) - base for r in range(reps)]
    )
    rel_nht = abs(float(np.var(nht_draws, ddof=1)) - nht_gap) / nht_gap
    rel_nh = abs(float(np.var(nh_draws, ddof=1)) - nh_gap) / nh_gap
    rng = np.random.default_rng(3)
    dominance = True
    for _ in range(100):
        values = tuple(sorted(rng.choice(np.arange(-6.0, 7.0), size=int(rng.integers(2, 6)), replace=False)))
        rpop = random_population(rng, n_clusters=int(rng.integers(1, 5)), size_range=(3, 9),
                                 space_values=values)
        rdesign = fixed_design(rpop, [int(rng.integers(1, s)) for s in rpop.cluster_sizes])
        g_nht, g_nh = baseline_gaps(rpop, rdesign, float(rng.uniform(0.1, 5.0)))
        dominance = dominance and g_nht <= g_nh + 1e-15
    ok = rel_nht < 0.03 and rel_nh < 0.03 and dominance
    elapsed = time.perf_counter() - start
    report(12, "aggregate-baseline gap formulas", ok,
           f"rel err noisy-HT {rel_nht:.4f}, noisy-histogram {rel_nh:.4f}; "
           f"dominance on 100 instances: {dominance}", elapsed, 60.0)


def test_13_determinism_across_workers(tmp_path):
    start = time.perf_counter()
    config = {
        "population": {"kind": "gmm", "beta": 4.0, "v": 5.0, "k_prime": 2,
                        "tau": 1, "cluster_sizes": [24, 36, 48]},
        "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.6},
        "beta_grid": [0.0, 4.0],
        "lambda_grid": [0.5],
        "epsilon_grid": [1.0],
        "replications": 40,
        "subpop_draws": 10,
        "noise_draws": 2,
        "subpop_sizes": [12, 18, 24],
    }
    names = ("variance_sweep", "homogeneity", "bound_validation", "baseline_bias", "distribution")
    ok = True
    import warnings

    for name in names:
        blobs = []
        for tag, workers in (("w1", 1), ("w1b", 1), ("w8", 8)):
            outdir = tmp_path / f"{name}_{tag}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                run_experiment(name, {**config, "workers": workers}, seed=13, outdir=outdir)
            blobs.append({p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))})
        ok = ok and blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - start
    report(13, "byte-identical outputs across reruns and worker counts", ok,
           f"{len(names)} experiments x (rerun, 8 workers)", elapsed, 120.0)
