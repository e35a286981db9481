"""Seeded Monte Carlo harness reproducing the benchmark experiments at desk scale.

Five runners, each a pure function of (config, seed) that emits tidy tables:

* ``variance_sweep``   - mechanism variances on a truncation grid at a fixed
                         privacy target (plus a no-noise reference row).
* ``homogeneity``      - variance ratio of the clustered vs pooled mechanism
                         as cluster informativeness grows.
* ``bound_validation`` - Monte Carlo variance gap against the closed-form band.
* ``baseline_bias``    - conditional bias of unit-level vs aggregate releases
                         under one-shot noise and repeated subpopulation draws.
* ``distribution``     - normality and bias diagnostics of the debiased estimator.

Replications derive their random streams from (seed, replication or chunk
index), so tables are byte-identical for a given (config, seed). The Monte Carlo
of ``variance_sweep``, ``homogeneity`` and ``bound_validation`` simulates
per-(cluster, arm) counts (``count_level_taus``), the sweep's reference rows
included: ``no_dp`` is the kernel at lam = 0 and ``uniform_prior_*`` at q = 1/K
(``nodp_taus``, ``uniform_prior_taus``). ``distribution`` replays the unit-level
release (``cluster_mechanism_taus``), and ``baseline_bias`` freezes per-unit draws.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.stats as scipy_stats  # a statement, so -X importtime logs scipy.stats
from scipy.special import log_ndtr

from . import accounting
from .estimation import debias_rows, per_cluster_contributions, tau_no_dp, tau_q
from .mechanisms import (
    cluster_dp, fit_priors, histogram_noise_term, ht_noise_term, prior_from_counts,
    resample_from_uniforms,
)
from .model import (
    Design,
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
    draw_design,
    finite_number,
    resolve_treated_counts,
)
from .rng import STREAM_VERSION, RngStreams, laplace_noise, open_uniform
from .simdata import GmmConfig, GraphPopConfig, gen_gmm, gen_graph_population, ingest_csv, subsample
from .variance import (
    cluster_dp_variance_bound,
    homogeneity,
    ht_variance,
    uniform_prior_variance,
)

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "run_experiment",
    "run_variance_sweep",
    "run_homogeneity_sweep",
    "run_bound_validation",
    "run_baseline_bias",
    "run_distribution_check",
    "build_population",
    "counts_design",
    "cluster_mechanism_taus",
    "count_level_taus",
    "uniform_prior_taus",
    "nodp_taus",
    "jackknife_variance_se",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_DEFAULTS: dict = {
    "population": {
        "kind": "gmm",
        "beta": 4.5,
        "v": 5.0,
        "k_prime": 5,
        "tau": 1,
        "cluster_sizes": [125, 250, 500],
    },
    "mechanism": {"gamma": 0.02, "sigma": 10.0, "lambda": 0.8},
    "targets": None,
    "gamma_grid": [],
    "beta_grid": [0.0, 1.0, 2.0, 3.0, 4.0, 4.5],
    "lambda_grid": [0.5, 0.8],
    "epsilon_grid": [0.5, 1.0, 2.0, 4.0],
    "replications": 500,
    "subpop_draws": 500,
    "noise_draws": 20,
    "subpop_sizes": None,
    "treated_fraction": 0.5,
    "workers": 1,
}


def _check_keys(where: str, raw: dict, allowed) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown {where} keys: {sorted(unknown)}")


def _number(key: str, x) -> float:
    return finite_number(f"config {key}", x)


def _number_or_inf(key: str, x) -> float:
    return math.inf if x == "inf" else _number(key, x)


def _integer(key: str, x) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValidationError(f"config {key} must be an integer, got {x!r}")
    return int(x)


def _object(key: str, x) -> dict:
    if not isinstance(x, dict):
        raise ValidationError(f"config {key} must be an object, got {x!r}")
    return x


def _items(key: str, xs, check) -> tuple:
    """A JSON list with every entry passed through ``check``."""
    if not isinstance(xs, (list, tuple)):
        raise ValidationError(f"config {key} must be a list, got {xs!r}")
    return tuple(check(key, x) for x in xs)


@dataclass(frozen=True)
class ExperimentConfig:
    population: dict
    mechanism: dict
    targets: dict | None
    gamma_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    lambda_grid: tuple[float, ...]
    epsilon_grid: tuple[float, ...]
    replications: int
    subpop_draws: int
    noise_draws: int
    subpop_sizes: tuple[int, ...] | None
    treated_fraction: float
    workers: int

    @classmethod
    def from_dict(cls, raw: dict | None) -> "ExperimentConfig":
        raw = dict(raw or {})
        _check_keys("config", raw, _DEFAULTS)
        merged = {**_DEFAULTS, **raw}
        mech = _object("mechanism", {} if merged["mechanism"] is None else merged["mechanism"])
        _check_keys("mechanism", mech, _DEFAULTS["mechanism"])
        mech = {**_DEFAULTS["mechanism"], **mech}
        # checked but kept as given: tables and the config hash echo them
        _number("mechanism.gamma", mech["gamma"])
        _number("mechanism.lambda", mech["lambda"])
        mech["sigma"] = _number_or_inf("mechanism.sigma", mech["sigma"])
        targets = merged["targets"]
        if targets is not None:
            _check_keys("targets", _object("targets", targets), ("epsilon", "delta"))
            targets = {
                "epsilon": _number_or_inf("targets.epsilon", targets["epsilon"]),
                "delta": _number("targets.delta", targets.get("delta", 0.0)),
            }
        # the fewest draws that give every table cell a variance or standard error
        least = {"replications": 3, "subpop_draws": 2, "noise_draws": 1, "workers": 1}
        counts = {key: _integer(key, merged[key]) for key in least}
        for key, count in counts.items():
            if count < least[key]:
                raise ValidationError(f"{key} must be >= {least[key]}")
        return cls(
            population=dict(_object("population", merged["population"])),
            mechanism=mech,
            targets=targets,
            gamma_grid=_items("gamma_grid", merged["gamma_grid"], _number),
            beta_grid=_items("beta_grid", merged["beta_grid"], _number),
            lambda_grid=_items("lambda_grid", merged["lambda_grid"], _number),
            epsilon_grid=_items("epsilon_grid", merged["epsilon_grid"], _number_or_inf),
            **counts,
            subpop_sizes=None
            if merged["subpop_sizes"] is None
            else _items("subpop_sizes", merged["subpop_sizes"], _integer),
            treated_fraction=_number("treated_fraction", merged["treated_fraction"]),
        )

    def canonical_json(self) -> str:
        def enc(obj):
            if isinstance(obj, float) and math.isinf(obj):
                return "inf"
            if isinstance(obj, tuple):
                return [enc(v) for v in obj]
            if isinstance(obj, dict):
                return {k: enc(v) for k, v in obj.items()}
            if isinstance(obj, list):
                return [enc(v) for v in obj]
            return obj

        # workers is accepted for saved configs but has no effect (no table
        # depends on the thread count); it is not part of the configuration
        payload = {k: enc(getattr(self, k)) for k in _DEFAULTS if k != "workers"}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:12]


def _generator_config(config_cls, spec: dict):
    """``config_cls`` built from JSON values checked against its field annotations."""
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    _check_keys("population", spec, fields)
    missing = [k for k, f in fields.items() if k not in spec and f.default is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"missing population keys: {missing}")
    args = {}
    for name, value in spec.items():
        key, annotation = f"population.{name}", fields[name].type
        check = _integer if annotation.startswith(("int", "tuple[int")) else _number
        args[name] = _items(key, value, check) if annotation.startswith("tuple") else check(key, value)
    return config_cls(**args)


def _beta_populations(cfg: ExperimentConfig, streams: RngStreams, runner: str) -> list:
    """(beta, population) per beta grid point: one gmm draw that each beta rescales. The gmm
    population as given is checked even for an empty grid, since the manifest echoes it."""
    spec = dict(cfg.population)
    if spec.pop("kind", "gmm") != "gmm":
        raise ValidationError(f"{runner} requires a gmm population source")
    config, node = _generator_config(GmmConfig, spec), streams.child("population")
    return [(beta, gen_gmm(dataclasses.replace(config, beta=beta), node)) for beta in cfg.beta_grid]


def build_population(cfg: ExperimentConfig, streams: RngStreams) -> PopulationDataset:
    spec = dict(cfg.population)
    kind = spec.pop("kind", "gmm")
    if kind == "gmm":
        return gen_gmm(_generator_config(GmmConfig, spec), streams.child("population"))
    if kind == "graph":
        return gen_graph_population(
            _generator_config(GraphPopConfig, spec), streams.child("population")
        )
    if kind == "csv":
        _check_keys("population", spec, ("path", "values"))
        path, values = spec.get("path"), spec.get("values")
        if not isinstance(path, str):  # open() would take a bool or int as a file descriptor
            raise ValidationError(f"config population.path must be a file name, got {path!r}")
        if values is None:
            raise ValidationError("csv population needs an explicit 'values' list")
        return ingest_csv(path, OutcomeSpace(_items("population.values", values, _number)))
    raise ValidationError(f"unknown population kind {kind!r}")


def counts_design(pop: PopulationDataset, treated) -> Design:
    """A deterministic design carrying the requested counts (for count-only formulas)."""
    n1c = resolve_treated_counts(pop, treated)
    z = np.zeros(pop.n, dtype=np.int8)
    for c, members in enumerate(pop.members):
        z[members[: n1c[c]]] = 1
    return Design(z=z, n1c=n1c, n0c=pop.cluster_sizes - n1c)


# ---------------------------------------------------------------------------
# Monte Carlo kernels
# ---------------------------------------------------------------------------

# Units a replication must have before cluster_mechanism_taus runs its replications on
# two threads: below about 2^15 a second thread cost more than it saved (see README).
_THREAD_MIN_UNITS = 1 << 15


def _replication_threads(units: int, reps: int, cpus: int) -> int:
    """Threads for ``reps`` replications of ``units`` units each on ``cpus`` CPUs: two
    from _THREAD_MIN_UNITS units, two replications and two CPUs up, else one. Each
    thread holds one replication in memory; more than two were never measured."""
    return 2 if units >= _THREAD_MIN_UNITS and reps >= 2 and cpus >= 2 else 1


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where the OS cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        return os.cpu_count() or 1


def cluster_mechanism_taus(
    pop: PopulationDataset,
    params: MechanismParams,
    treated,
    streams: RngStreams,
    reps: int,
) -> np.ndarray:
    """Debiased estimates over replications of (assignment, release, estimate).

    Replication r is the public release and estimator on the stream node
    ``streams.child("rep", r)``: a design drawn from its "assignment" stream,
    then ``tau_q(cluster_dp(...))``, which consumes its "laplace" and
    "resample" streams.

    The calling thread takes the next replication in turn and writes its estimate
    into slot r; on a large population (``_replication_threads``) one helper thread
    runs the same loop beside it. A replication reads only its own streams and the
    population, so every estimate has the same bits on one thread or two; almost all
    of its time is in NumPy and Philox calls that release the GIL. If replications
    raise, the error of the first of them is raised here.
    """
    n1c = resolve_treated_counts(pop, treated)
    taus = np.empty(reps)

    def one(r: int) -> None:
        node = streams.child("rep", r)
        design = draw_design(pop, n1c, node.generator("assignment"))
        taus[r] = tau_q(cluster_dp(pop, design, params, node))

    todo, lock, errors = iter(range(reps)), threading.Lock(), {}

    def work() -> None:
        while not errors:
            with lock:
                r = next(todo, None)
            if r is None:
                return
            try:
                one(r)
            except BaseException as exc:  # raised in the caller, after both threads stop
                errors[r] = exc

    helper = None
    if _replication_threads(pop.n, reps, _usable_cpus()) == 2:
        helper = threading.Thread(target=work, name="cluster_mechanism_taus")
        helper.start()
    try:
        work()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return taus


# Cells (replication, cluster, arm, outcome) per chunk of count_level_taus: it bounds
# the chunk's arrays. The chunk size fixes which draws each chunk's streams make, so
# changing it changes every table the kernel feeds.
_COUNT_CHUNK_CELLS = 1 << 16


def _arm_histogram_draws(pop, n1c, rng, m) -> np.ndarray:
    """(m, C, 2, K) arm histograms of m stratified assignments: in each cluster, one
    multivariate hypergeometric draw of how many units of each (y0, y1) type are treated."""
    cluster, y0, y1, count = pop.types
    k = pop.space.k
    onehot = np.eye(k, dtype=np.int64)
    hist = np.empty((m, pop.n_clusters, 2, k), dtype=np.int64)
    ends = np.searchsorted(cluster, np.arange(pop.n_clusters + 1))
    for c in range(pop.n_clusters):
        cell = slice(ends[c], ends[c + 1])
        treated = rng.multivariate_hypergeometric(count[cell], n1c[c], size=m)
        hist[:, c, 1] = treated @ onehot[y1[cell]]
        hist[:, c, 0] = (count[cell] - treated) @ onehot[y0[cell]]
    return hist


def count_level_taus(
    pop: PopulationDataset,
    params: MechanismParams,
    treated,
    streams: RngStreams,
    reps: int,
) -> np.ndarray:
    """The estimates of ``cluster_mechanism_taus`` in distribution, simulated on counts.

    The estimate reads the units only through each (cluster, arm) histogram, so a
    replication draws histograms, not units: the treated type counts of each cluster
    (``_arm_histogram_draws``), q_tilde from them by ``prior_from_counts``, and the
    released histogram as keep + Multinomial(n_ac - sum(keep), q_tilde) with
    keep_y ~ Binomial(h_y, 1 - lam). Then tau_hat = sum_c (n_c/n) (r_c1 / n1c - r_c0 / n0c),
    where r_ca sums the released counts times the debias row of (c, a).

    Replications run in chunks of at most ``_COUNT_CHUNK_CELLS`` cells; chunk i draws
    from the generators "assignment", "laplace" and "resample" of the node
    ``streams.child("chunk", i)``, in that order, so two kinds run on one node share
    their designs and keep draws.
    """
    n1c = resolve_treated_counts(pop, treated)
    n_ac = np.stack([pop.cluster_sizes - n1c, n1c], axis=1)
    weights = pop.cluster_sizes / pop.n
    per_chunk = max(1, _COUNT_CHUNK_CELLS // (n_ac.size * pop.space.k))
    out = np.empty(reps)
    for ci, start in enumerate(range(0, reps, per_chunk)):
        m = min(per_chunk, reps - start)
        node = streams.child("chunk", ci)
        hist = _arm_histogram_draws(pop, n1c, node.generator("assignment"), m)
        q = prior_from_counts(hist, n_ac, params, node.generator("laplace"))
        rows = debias_rows(pop.space.array, q, params.lam)
        g = node.generator("resample")
        kept = g.binomial(hist, 1.0 - params.lam)
        released = kept + g.multinomial(n_ac - kept.sum(axis=-1), q)
        arm_means = (released * rows).sum(axis=-1) / n_ac
        out[start : start + m] = (arm_means[..., 1] - arm_means[..., 0]) @ weights
    return out


def uniform_prior_taus(
    pop: PopulationDataset,
    lam: float,
    treated,
    streams: RngStreams,
    reps: int,
) -> np.ndarray:
    """``count_level_taus`` of the uniform prior q = 1/K at resampling probability lam.

    Assignments are stratified by cluster; on ``pop.pooled()`` they are
    completely randomized over all units.
    """
    return count_level_taus(pop, MechanismParams.uniform_prior(pop.space.k, lam), treated,
                            streams, reps)


def nodp_taus(pop: PopulationDataset, treated, streams: RngStreams, reps: int) -> np.ndarray:
    """True-outcome difference-in-means over assignment replications: lam = 0 keeps
    every outcome, so nothing is redrawn."""
    return uniform_prior_taus(pop, 0.0, treated, streams, reps)


def jackknife_variance_se(x) -> float:
    """Delete-one jackknife standard error of the sample variance."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 3:
        return float("nan")
    s1, s2 = x.sum(), float(x @ x)
    loo_mean = (s1 - x) / (n - 1)
    loo_var = ((s2 - x**2) - (n - 1) * loo_mean**2) / (n - 2)
    return float(np.sqrt((n - 1) / n * ((loo_var - loo_var.mean()) ** 2).sum()))


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------

def _cluster_params(cfg: ExperimentConfig, **changes) -> MechanismParams:
    """The config's mechanism as Cluster-DP parameters, with ``changes`` to its fields."""
    mech = cfg.mechanism
    fields = {"gamma": mech["gamma"], "sigma": mech["sigma"], "lam": mech["lambda"], **changes}
    return MechanismParams(**{"kind": MechanismKind.CLUSTER_DP, **fields})


def _mc_summary(taus: np.ndarray) -> tuple[float, float]:
    """Monte Carlo variance of the estimates and its jackknife standard error."""
    return float(np.var(taus, ddof=1)), jackknife_variance_se(taus)


def _mc_row(taus: np.ndarray, truth: float) -> dict:
    variance, se = _mc_summary(taus)
    return {"replications": len(taus), "mc_variance": variance, "mc_variance_se": se,
            "mc_bias": float(np.mean(taus) - truth)}


def _calibrated(cfg, gamma, sigma) -> tuple[float, float, float]:
    """(lam, eps, delta) at one grid point: pure epsilon without targets, else calibrated."""
    if cfg.targets is None:
        params, eps_tilde = _cluster_params(cfg, gamma=gamma, sigma=sigma), None
    else:
        eps_t, delta_t = cfg.targets["epsilon"], cfg.targets["delta"]
        lam = accounting.calibrate_lambda(eps_t, delta_t, gamma, sigma)
        params = _cluster_params(cfg, gamma=gamma, sigma=sigma, lam=lam)
        eps_tilde = accounting.resample_share(eps_t, gamma, sigma)
    report = accounting.report(params, eps_tilde=eps_tilde)
    return params.lam, report.epsilon, report.delta


def run_variance_sweep(cfg: ExperimentConfig, seed: int):
    """Mechanism variance table on a truncation grid at a fixed privacy target."""
    streams = RngStreams(seed)
    pop = build_population(cfg, streams)
    design = counts_design(pop, cfg.treated_fraction)
    truth = pop.ate
    reps = cfg.replications
    phi = {"phi0": homogeneity(pop, design, 0), "phi1": homogeneity(pop, design, 1)}

    def row(mechanism, gamma, sigma, lam, eps, delta, theory, taus) -> dict:
        return {"mechanism": mechanism, "gamma": gamma, "sigma": sigma, "lambda": lam,
                "epsilon": eps, "delta": delta, "status": "ok",
                "theory_variance_or_bound": theory, **_mc_row(taus, truth), **phi}

    taus = nodp_taus(pop, cfg.treated_fraction, streams.child("nodp"), reps)
    rows = [row("no_dp", "", "", "", math.inf, 0.0, ht_variance(pop, design), taus)]

    grid = cfg.gamma_grid or (cfg.mechanism["gamma"],)
    sigma = cfg.mechanism["sigma"]
    for kind in (MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP):
        for gi, gamma in enumerate(grid):
            try:
                lam, eps, delta = _calibrated(cfg, gamma, sigma)
            except accounting.CalibrationError as exc:
                rows.append({"mechanism": kind.value, "gamma": gamma, "sigma": sigma,
                             "lambda": "", "epsilon": "", "delta": "",
                             "status": f"infeasible: {exc}", **phi})
                continue
            params = _cluster_params(cfg, kind=kind, gamma=gamma, lam=lam)
            taus = count_level_taus(
                pop, params, cfg.treated_fraction,
                streams.child("sweep", kind.value, gi), reps,
            )
            bound = cluster_dp_variance_bound(pop, design, params).value
            rows.append(row(kind.value, gamma, sigma, lam, eps, delta, bound, taus))

    uniform = MechanismParams.uniform_prior(pop.space.k)
    lam, eps, delta = _calibrated(cfg, uniform.gamma, uniform.sigma)
    pooled = pop.pooled()
    # unstratified: complete randomization of all units with the stratified arm totals
    for name, units, units_design in (
        ("uniform_prior_stratified", pop, design),
        ("uniform_prior_unstratified", pooled, counts_design(pooled, [design.n1])),
    ):
        taus = uniform_prior_taus(units, lam, units_design.n1c, streams.child("sweep", name), reps)
        theory = uniform_prior_variance(units, units_design, lam)
        rows.append(row(name, uniform.gamma, "", lam, eps, delta, theory, taus))
    return {"results": rows}, {"population_n": pop.n, "outcomes_k": pop.space.k}


def run_homogeneity_sweep(cfg: ExperimentConfig, seed: int):
    """Var(clustered)/Var(pooled) across the cluster-dependence grid."""
    streams = RngStreams(seed)
    pops = _beta_populations(cfg, streams, "homogeneity sweep")
    sigma, gamma = cfg.mechanism["sigma"], cfg.mechanism["gamma"]
    rows = []
    for li, lam in enumerate(cfg.lambda_grid):
        for bi, (beta, pop) in enumerate(pops):
            variances = {}
            for kind in (MechanismKind.CLUSTER_DP, MechanismKind.CLUSTER_FREE_DP):
                params = _cluster_params(cfg, kind=kind, lam=lam)
                # Both mechanisms share each chunk's assignment and
                # resampling streams (common random numbers), which sharpens
                # the variance ratio considerably.
                taus = count_level_taus(
                    pop, params, cfg.treated_fraction,
                    streams.child("mc", li, bi), cfg.replications,
                )
                variances[kind] = _mc_summary(taus)
            vc, se_c = variances[MechanismKind.CLUSTER_DP]
            vf, se_f = variances[MechanismKind.CLUSTER_FREE_DP]
            ratio = vc / vf
            rows.append(
                {
                    "beta": beta,
                    "lambda": lam,
                    "gamma": gamma,
                    "sigma": sigma,
                    "var_cluster_dp": vc,
                    "var_cluster_free_dp": vf,
                    "ratio": ratio,
                    "ratio_se": ratio * math.sqrt((se_c / vc) ** 2 + (se_f / vf) ** 2),
                }
            )
    for lam in cfg.lambda_grid:
        group = [r for r in rows if r["lambda"] == lam]
        betas, ratios = [r["beta"] for r in group], [r["ratio"] for r in group]
        # blank where undefined: one beta, or lambda = 0, where both kinds give equal variances
        defined = len(set(betas)) > 1 and len(set(ratios)) > 1
        rho = float(scipy_stats.spearmanr(betas, ratios).statistic) if defined else ""
        for r in group:
            r["spearman_beta_ratio"] = rho
    return {"results": rows}, {}


def run_bound_validation(cfg: ExperimentConfig, seed: int):
    """Monte Carlo variance gap against the closed-form band, across cluster quality."""
    streams = RngStreams(seed)
    pops = _beta_populations(cfg, streams, "bound validation")
    mech = cfg.mechanism
    params = _cluster_params(cfg)
    rows = []
    for bi, (beta, pop) in enumerate(pops):
        design = counts_design(pop, cfg.treated_fraction)
        taus = count_level_taus(
            pop, params, cfg.treated_fraction, streams.child("mc", bi), cfg.replications,
        )
        exact_no_dp = ht_variance(pop, design)
        mc_var, se = _mc_summary(taus)
        report = cluster_dp_variance_bound(pop, design, params)
        gap_lower = report.components["gap_lower"]
        gap_upper = report.components["gap_upper"]
        gap = mc_var - exact_no_dp
        # the Monte Carlo gap meets the band within 2 SE on either side: at lambda = 0
        # the exact gap equals gap_upper (both 0), and an estimate of it is above half the time
        contained = -2.0 * se <= gap <= gap_upper + 2.0 * se
        rows.append(
            {
                "beta": beta,
                "gamma": mech["gamma"],
                "sigma": mech["sigma"],
                "lambda": mech["lambda"],
                "no_dp_variance": exact_no_dp,
                "mc_variance": mc_var,
                "mc_variance_se": se,
                "mc_gap": gap,
                "gap_lower_band": gap_lower,
                "gap_upper_band": gap_upper,
                "contained": bool(contained),
                "replications": cfg.replications,
            }
        )
    return {"results": rows}, {}


def run_baseline_bias(cfg: ExperimentConfig, seed: int):
    """Conditional bias of unit-level vs aggregate mechanisms under one-shot noise.

    Mechanism noise is frozen per outer realization j: every prior fit draws
    from a fresh generator on the node ("noise", ei, j, "prior"), and the
    resampling uniforms are drawn once per superpopulation unit. Subpopulations
    and assignments are redrawn; each bias is taken over those redraws.
    """
    streams = RngStreams(seed)
    superpop = build_population(cfg, streams)
    if cfg.subpop_sizes is not None:
        counts = np.asarray(cfg.subpop_sizes, dtype=np.int64)
    else:
        counts = np.maximum(superpop.cluster_sizes // 5, 2)
    sub_n = int(counts.sum())
    k, c = superpop.space.k, superpop.n_clusters
    if sub_n < 10 * max(k, c):
        warnings.warn(
            f"subpopulation size n={sub_n} is below 10*max(K={k}, C={c}); the "
            "unit-level bias advantage needs n >> K and n >> C",
            stacklevel=2,
        )
    mech = cfg.mechanism
    rows = []
    for ei, eps in enumerate(cfg.epsilon_grid):
        try:
            lam = accounting.calibrate_lambda(eps, 0.0, mech["gamma"], mech["sigma"])
        except accounting.CalibrationError as exc:
            rows.append({"mechanism": "cluster_dp", "epsilon": eps,
                         "status": f"infeasible: {exc}"})
            continue
        params = _cluster_params(cfg, lam=lam)
        devs = np.empty((cfg.noise_draws, 3, cfg.subpop_draws))
        for j in range(cfg.noise_draws):
            noise = streams.child("noise", ei, j)
            u_keep = noise.generator("resample").random(superpop.n)
            u_cat = open_uniform(noise.generator("resample_cat"), superpop.n)
            std_nht = laplace_noise(noise.generator("nht"), 1.0, c)
            std_nh = laplace_noise(noise.generator("nh"), 1.0, (c, 2, k))
            for s in range(cfg.subpop_draws):
                node = streams.child("subpop", ei, j, s)
                sub, kept = subsample(superpop, counts, node.generator("sample"))
                design = draw_design(sub, cfg.treated_fraction, node.generator("assignment"))
                truth = sub.ate
                base_tau = tau_no_dp(sub, design)
                observed = sub.observed(design)
                q = fit_priors(sub, design, params, noise.generator("prior"), observed).q
                y_t = resample_from_uniforms(
                    observed, sub.cluster, design.z, q, lam, u_keep[kept], u_cat[kept]
                )
                table = debias_rows(sub.space.array, q, lam)
                tau = per_cluster_contributions(y_t, sub.cluster, design, table).sum()
                nht_term, _ = ht_noise_term(sub, design, eps, std_nht)
                devs[j, :, s] = (  # cluster_dp, noisy_ht, noisy_histogram
                    float(tau) - truth,
                    base_tau + nht_term - truth,
                    base_tau + histogram_noise_term(sub, design, eps, std_nh) - truth,
                )
        biases = devs.mean(axis=2)
        se_within = devs.std(axis=2, ddof=1) / math.sqrt(cfg.subpop_draws)
        for m, name in enumerate(("cluster_dp", "noisy_ht", "noisy_histogram")):
            b = biases[:, m]
            rows.append(
                {
                    "mechanism": name,
                    "epsilon": eps,
                    "lambda": lam if name == "cluster_dp" else "",
                    "status": "ok",
                    "bias_mean": float(b.mean()),
                    "bias_abs_mean": float(np.abs(b).mean()),
                    "bias_spread": float(b.std(ddof=1)) if len(b) > 1 else 0.0,
                    "mc_se_within": float(np.mean(se_within[:, m])),
                    "noise_draws": cfg.noise_draws,
                    "subpop_draws": cfg.subpop_draws,
                }
            )
    return {"results": rows}, {"subpop_n": sub_n}


def _anderson_normal(x: np.ndarray) -> tuple[float, float]:
    """Anderson-Darling A^2 for normality (mean and sd estimated) and its 1% critical value.

    Same arithmetic as ``scipy.stats.anderson(x, "norm")``: Stephens' (1974)
    1% point 1.035 with the finite-sample correction 1 + 0.75/N + 2.25/N^2.
    """
    n = len(x)
    w = (np.sort(x) - np.mean(x)) / np.std(x, ddof=1)
    i = np.arange(1, n + 1)
    a2 = -n - np.sum((2 * i - 1.0) / n * (log_ndtr(w) + log_ndtr(-w)[::-1]))
    return float(a2), float(np.around(1.035 / (1.0 + 0.75 / n + 2.25 / n / n), 3))


def run_distribution_check(cfg: ExperimentConfig, seed: int):
    """Bias and normality diagnostics of the debiased estimator."""
    streams = RngStreams(seed)
    pop = build_population(cfg, streams)
    mech = cfg.mechanism
    params = _cluster_params(cfg)
    taus = cluster_mechanism_taus(
        pop, params, cfg.treated_fraction, streams.child("mc"), cfg.replications,
    )
    dev = taus - pop.ate
    ad_statistic, crit_1pct = _anderson_normal(dev)
    ttest = scipy_stats.ttest_1samp(dev, 0.0)
    se = float(dev.std(ddof=1) / math.sqrt(len(dev)))
    summary = {
        "mechanism": MechanismKind.CLUSTER_DP.value,
        "gamma": mech["gamma"],
        "sigma": mech["sigma"],
        "lambda": mech["lambda"],
        "replications": cfg.replications,
        "mean_deviation": float(dev.mean()),
        "mean_se": se,
        "t_statistic": float(ttest.statistic),
        "t_pvalue": float(ttest.pvalue),
        "ad_statistic": ad_statistic,
        "ad_critical_1pct": crit_1pct,
        "normal_at_1pct": bool(ad_statistic < crit_1pct),
    }
    samples = [{"replication": i, "tau_hat": float(t), "deviation": float(d)}
               for i, (t, d) in enumerate(zip(taus, dev))]
    return {"results": [summary], "samples": samples}, {}


EXPERIMENTS = {
    "variance_sweep": run_variance_sweep,
    "homogeneity": run_homogeneity_sweep,
    "bound_validation": run_bound_validation,
    "baseline_bias": run_baseline_bias,
    "distribution": run_distribution_check,
}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _format_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)

def write_table(rows: list[dict], path) -> None:
    columns = sorted({key for row in rows for key in row})
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(col, "")) for col in columns) + "\n")


def run_experiment(
    name: str,
    config: dict | ExperimentConfig | None,
    seed: int,
    outdir=None,
):
    """Run one named experiment; optionally write its tables and manifest."""
    if name not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    cfg = config if isinstance(config, ExperimentConfig) else ExperimentConfig.from_dict(config)
    started = time.perf_counter()
    tables, meta = EXPERIMENTS[name](cfg, seed)
    runtime_ms = 1000.0 * (time.perf_counter() - started)
    for row in tables["results"]:
        row.update(seed=seed, config_hash=cfg.config_hash)
    manifest = {
        "experiment": name,
        "seed": seed,
        "config": json.loads(cfg.canonical_json()),
        "config_hash": cfg.config_hash,
        "stream_version": STREAM_VERSION,  # which streams drew the tables (see README)
        "runtime_ms": runtime_ms,  # volatile; kept out of the CSV tables
        **meta,
    }
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for table_name, rows in tables.items():
            write_table(rows, outdir / f"{name}_{table_name}.csv")
        with open(outdir / f"{name}_manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return tables, manifest
