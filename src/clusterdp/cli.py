"""Command-line interface.

Subcommands: generate, privatize, estimate, account, calibrate, analyze,
experiment. Exit codes: 0 success, 2 validation error, 3 infeasible
calibration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import accounting, estimation, experiments, mechanisms, simdata, variance
from .model import (
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    ValidationError,
    draw_design,
)
from .rng import RngStreams

EXIT_VALIDATION = 2
EXIT_CALIBRATION = 3


def _float_arg(text: str) -> float:
    """A number or ``inf``; NaN is rejected (exit 2 as a flag or a ``--values`` entry)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValidationError(f"not a number: {text!r}")
    return value


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _space_from_pop_file(path, values_arg):
    if values_arg:
        return OutcomeSpace(tuple(_float_arg(v) for v in values_arg.split(",")))
    return simdata.infer_space(path)


def _cmd_generate(args) -> None:
    streams = RngStreams(args.seed)
    if args.model == "gmm":
        config = simdata.GmmConfig(
            beta=args.beta,
            v=args.v,
            k_prime=args.kprime,
            tau=args.tau,
            cluster_sizes=tuple(args.sizes),
        )
        pop = simdata.gen_gmm(config, streams)
    else:
        config = simdata.GraphPopConfig(
            community_sizes=tuple(args.communities),
            p_in=args.pin,
            p_out=args.pout,
            beta=tuple(args.beta_vec),
            v=args.v,
            k=args.k,
            tau=args.tau,
        )
        pop = simdata.gen_graph_population(config, streams)
    simdata.write_population_csv(pop, args.out)
    _emit({"written": str(args.out), "n": pop.n, "clusters": pop.n_clusters,
           "k": pop.space.k, "ate": pop.ate})


def _mechanism_params(args, k: int | None, lam: float = 0.0) -> MechanismParams:
    """The mechanism the flags name; the uniform kind takes gamma = 1/K and sigma = inf."""
    if k is not None and k < 2:
        raise ValidationError(f"--k must be an integer >= 2, got {k}")
    kind = MechanismKind(args.kind)
    if kind is MechanismKind.UNIFORM_PRIOR_DP:
        if k is None:
            raise ValidationError("--kind uniform_prior_dp needs --k")
        return MechanismParams.uniform_prior(k, lam)
    params = MechanismParams(kind=kind, gamma=args.gamma, sigma=args.sigma, lam=lam)
    if k is not None:
        params.check_gamma(k)
    return params


def _cmd_privatize(args) -> None:
    if args.lam >= 1.0:  # checked first, so nothing is read or written
        raise ValidationError("privatize needs lambda < 1: a lambda = 1 release cannot be debiased")
    space = _space_from_pop_file(args.pop, args.values)
    pop = simdata.ingest_csv(args.pop, space)
    streams = RngStreams(args.seed)
    design = draw_design(pop, args.treated_fraction, streams.generator("assignment"))
    params = _mechanism_params(args, pop.space.k, args.lam)
    release = mechanisms.cluster_dp(pop, design, params, streams)
    mechanisms.write_release(release, args.out, args.sidecar)
    _emit({"written": str(args.out), "sidecar": str(args.sidecar), "n": release.n})


def _cmd_estimate(args) -> None:
    release = mechanisms.read_release(args.release, args.sidecar)
    design = release.design
    tau = estimation.tau_q(release)
    rows = release.debias[release.cluster, design.z, release.y_tilde]
    contributions = estimation.per_cluster_contributions(rows, release.cluster, design)
    _emit(
        {
            "tau_hat": tau,
            "per_cluster": {
                str(release.cluster_labels[c]): float(contributions[c])
                for c in range(len(release.cluster_labels))
            },
        }
    )


def _cmd_account(args) -> None:
    params = _mechanism_params(args, args.k, args.lam)
    if args.eps_tilde is not None:
        report = accounting.cluster_dp_eps_delta(params, args.eps_tilde, args.k)
    else:
        eps = accounting.cluster_dp_pure_eps(params, args.k)
        prior = accounting.prior_budget(params.gamma, params.sigma)
        report = accounting.PrivacyReport(eps, 0.0, prior, eps - prior)
    _emit(report.as_dict())


def _cmd_calibrate(args) -> None:
    params = _mechanism_params(args, args.k)
    lam = accounting.calibrate_lambda(
        args.target_eps, args.target_delta, params.gamma, params.sigma, args.k
    )
    _emit({"lambda": lam})


def _cmd_analyze(args) -> None:
    space = _space_from_pop_file(args.pop, args.values)
    pop = simdata.ingest_csv(args.pop, space)
    design = experiments.counts_design(pop, args.treated_fraction)
    params = MechanismParams(
        kind=MechanismKind.CLUSTER_DP, gamma=args.gamma, sigma=args.sigma, lam=args.lam
    )
    report = variance.cluster_dp_variance_bound(pop, design, params)
    payload = {
        "cluster_dp_bound": report.as_dict(),
        "uniform_prior_exact": {
            "stratified": variance.uniform_prior_variance(pop, design, args.lam, True),
            "unstratified": variance.uniform_prior_variance(pop, design, args.lam, False),
        },
    }
    if args.epsilon is not None:
        nht, nh = variance.baseline_gaps(pop, design, args.epsilon)
        payload["baseline_gaps"] = {"noisy_ht": nht, "noisy_histogram": nh}
    _emit(payload)


def _cmd_experiment(args) -> None:
    config = None
    if args.config:
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValidationError(f"config is not JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ValidationError(f"config must be an object, got {config!r}")
    if args.workers is not None:
        config = dict(config or {})
        config["workers"] = args.workers
    _, manifest = experiments.run_experiment(args.name, config, args.seed, args.out)
    _emit(manifest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterdp",
        description="Label-private randomized response for cluster-stratified experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic population CSV")
    gen_sub = gen.add_subparsers(dest="model", required=True)
    gmm = gen_sub.add_parser("gmm")
    gmm.add_argument("--beta", type=_float_arg, default=4.5)
    gmm.add_argument("--v", type=_float_arg, default=5.0)
    gmm.add_argument("--kprime", type=int, default=5)
    gmm.add_argument("--tau", type=int, default=1)
    gmm.add_argument("--sizes", type=int, nargs="+", default=[500, 1000, 2000])
    gmm.add_argument("--seed", type=int, default=0)
    gmm.add_argument("--out", required=True)
    gmm.set_defaults(func=_cmd_generate)
    graph = gen_sub.add_parser("graph")
    graph.add_argument("--communities", type=int, nargs="+", required=True)
    graph.add_argument("--pin", type=_float_arg, default=0.1)
    graph.add_argument("--pout", type=_float_arg, default=0.01)
    graph.add_argument("--beta-vec", type=_float_arg, nargs=4, default=[1.0, 1.0, 1.0, 1.0])
    graph.add_argument("--v", type=_float_arg, default=0.1)
    graph.add_argument("--k", type=int, default=8)
    graph.add_argument("--tau", type=_float_arg, default=1.0)
    graph.add_argument("--seed", type=int, default=0)
    graph.add_argument("--out", required=True)
    graph.set_defaults(func=_cmd_generate)

    priv = sub.add_parser("privatize", help="privatize a population file")
    priv.add_argument("--pop", required=True)
    priv.add_argument("--values", help="comma-separated outcome space (default: inferred)")
    priv.add_argument("--kind", default="cluster_dp",
                      choices=["cluster_dp", "cluster_free_dp", "uniform_prior_dp"])
    priv.add_argument("--gamma", type=_float_arg, default=0.02)
    priv.add_argument("--sigma", type=_float_arg, default=10.0)
    priv.add_argument("--lam", "--lambda", dest="lam", type=_float_arg, default=0.8)
    priv.add_argument("--treated-fraction", type=_float_arg, default=0.5)
    priv.add_argument("--seed", type=int, default=0)
    priv.add_argument("--out", required=True)
    priv.add_argument("--sidecar", required=True)
    priv.set_defaults(func=_cmd_privatize)

    est = sub.add_parser("estimate", help="debiased estimate from a release")
    est.add_argument("--release", required=True)
    est.add_argument("--sidecar", required=True)
    est.set_defaults(func=_cmd_estimate)

    acct = sub.add_parser("account", help="print a privacy report as JSON")
    acct.add_argument("--kind", default="cluster_dp",
                      choices=["cluster_dp", "uniform_prior_dp"])
    acct.add_argument("--gamma", type=_float_arg, default=0.02)
    acct.add_argument("--sigma", type=_float_arg, default=10.0)
    acct.add_argument("--lam", "--lambda", dest="lam", type=_float_arg, default=0.8)
    acct.add_argument("--eps-tilde", type=_float_arg)
    acct.add_argument("--k", type=int)
    acct.set_defaults(func=_cmd_account)

    cal = sub.add_parser("calibrate", help="solve for the resampling probability")
    cal.add_argument("--kind", default="cluster_dp",
                     choices=["cluster_dp", "uniform_prior_dp"])
    cal.add_argument("--target-eps", type=_float_arg, required=True)
    cal.add_argument("--target-delta", type=_float_arg, default=0.0)
    cal.add_argument("--gamma", type=_float_arg, default=0.02)
    cal.add_argument("--sigma", type=_float_arg, default=10.0)
    cal.add_argument("--k", type=int)
    cal.set_defaults(func=_cmd_calibrate)

    ana = sub.add_parser("analyze", help="variance report for a population")
    ana.add_argument("--pop", required=True)
    ana.add_argument("--values")
    ana.add_argument("--gamma", type=_float_arg, default=0.02)
    ana.add_argument("--sigma", type=_float_arg, default=10.0)
    ana.add_argument("--lam", "--lambda", dest="lam", type=_float_arg, default=0.8)
    ana.add_argument("--treated-fraction", type=_float_arg, default=0.5)
    ana.add_argument("--epsilon", type=_float_arg)
    ana.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp.add_argument("name", choices=sorted(experiments.EXPERIMENTS))
    exp.add_argument("--config", help="JSON config file (defaults used if omitted)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--out", required=True)
    exp.add_argument(
        "--workers", type=int,
        help="accepted for older scripts; has no effect (replications run in one thread)",
    )
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except accounting.CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (ValidationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
