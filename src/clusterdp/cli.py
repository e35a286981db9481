"""Command-line interface.

Subcommands: generate, privatize, estimate, account, calibrate, analyze,
experiment. Exit codes: 0 success, 2 validation error, 3 infeasible
calibration, 141 stdout closed by its reader before the output was written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
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
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE: what a shell reports for a writer whose reader left


class _StdoutClosed(Exception):
    """stdout's reader closed the pipe before the output was written."""


def _float_arg(text: str) -> float:
    """A number or ``inf``; NaN is rejected (exit 2 as a flag or a ``--values`` entry)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise ValidationError(f"not a number: {text!r}")
    return value


def _seed_arg(text: str) -> int:
    """Decimal digits only: SeedSequence rejects a negative master seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _emit(payload) -> None:
    """Print and flush, so that a closed stdout shows here and not at exit."""
    try:
        print(json.dumps(payload, sort_keys=True, indent=2), flush=True)
    except BrokenPipeError:
        # the unwritten rest stays buffered; with fd 1 on devnull the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _StdoutClosed from None


def _space_from_pop_file(path, values_arg):
    if values_arg is not None:  # an empty list is a bad list, not an absent one
        return OutcomeSpace(tuple(_float_arg(v) for v in values_arg.split(",")))
    return simdata.infer_space(path)


def _cmd_generate(args) -> None:
    """Each config field is the ``dest`` of one flag; nargs lists become tuples."""
    config_cls, gen = {"gmm": (simdata.GmmConfig, simdata.gen_gmm),
                       "graph": (simdata.GraphPopConfig, simdata.gen_graph_population)}[args.model]
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(config_cls)}
    config = config_cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
    pop = gen(config, RngStreams(args.seed))
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
    contributions = estimation.per_cluster_contributions(
        release.y_tilde, release.cluster, design, release.debias)
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
    _emit(accounting.report(params, args.eps_tilde).as_dict())


def _cmd_calibrate(args) -> None:
    params = _mechanism_params(args, args.k)
    lam = accounting.calibrate_lambda(args.target_eps, args.target_delta, params.gamma,
                                      params.sigma)
    _emit({"lambda": lam})


def _cmd_analyze(args) -> None:
    space = _space_from_pop_file(args.pop, args.values)
    pop = simdata.ingest_csv(args.pop, space)
    design = experiments.counts_design(pop, args.treated_fraction)
    params = _mechanism_params(args, pop.space.k, args.lam)
    report = variance.cluster_dp_variance_bound(pop, design, params)
    pooled = pop.pooled()
    pooled_design = experiments.counts_design(pooled, [design.n1])
    payload = {
        "cluster_dp_bound": report.as_dict(),
        "uniform_prior_exact": {
            "stratified": variance.uniform_prior_variance(pop, design, args.lam),
            "unstratified": variance.uniform_prior_variance(pooled, pooled_design, args.lam),
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
    _, manifest = experiments.run_experiment(args.name, config, args.seed, args.out)
    _emit(manifest)


# argparse reads a list that starts with "-" as a flag, so such a list needs the "=" form
_VALUES_HELP = ("comma-separated outcome space (default: inferred); a list that starts "
                "with a negative value needs the = form, as in --values=-5,-4,0")


def _mechanism_flags(parser, kinds=(), lam=True) -> None:
    """--gamma, --sigma and (with ``lam``) --lam; --kind over ``kinds``, else cluster_dp."""
    if kinds:
        parser.add_argument("--kind", default="cluster_dp", choices=kinds)
    else:
        parser.set_defaults(kind="cluster_dp")
    parser.add_argument("--gamma", type=_float_arg, default=0.02)
    parser.add_argument("--sigma", type=_float_arg, default=10.0)
    if lam:
        parser.add_argument("--lam", "--lambda", dest="lam", type=_float_arg, default=0.8)


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
    gmm.add_argument("--kprime", dest="k_prime", type=int, default=5)
    gmm.add_argument("--tau", type=int, default=1)
    gmm.add_argument("--sizes", dest="cluster_sizes", type=int, nargs="+",
                     default=[500, 1000, 2000])
    gmm.add_argument("--seed", type=_seed_arg, default=0)
    gmm.add_argument("--out", required=True)
    gmm.set_defaults(func=_cmd_generate)
    graph = gen_sub.add_parser("graph")
    graph.add_argument("--communities", dest="community_sizes", type=int, nargs="+",
                       required=True)
    graph.add_argument("--pin", dest="p_in", type=_float_arg, default=0.1)
    graph.add_argument("--pout", dest="p_out", type=_float_arg, default=0.01)
    graph.add_argument("--beta-vec", dest="beta", type=_float_arg, nargs=4, default=[1.0] * 4)
    graph.add_argument("--v", type=_float_arg, default=0.1)
    graph.add_argument("--k", type=int, default=8)
    graph.add_argument("--tau", type=_float_arg, default=1.0)
    graph.add_argument("--seed", type=_seed_arg, default=0)
    graph.add_argument("--out", required=True)
    graph.set_defaults(func=_cmd_generate)

    priv = sub.add_parser("privatize", help="privatize a population file")
    priv.add_argument("--pop", required=True)
    priv.add_argument("--values", help=_VALUES_HELP)
    _mechanism_flags(priv, kinds=[kind.value for kind in MechanismKind])
    priv.add_argument("--treated-fraction", type=_float_arg, default=0.5)
    priv.add_argument("--seed", type=_seed_arg, default=0)
    priv.add_argument("--out", required=True)
    priv.add_argument("--sidecar", required=True)
    priv.set_defaults(func=_cmd_privatize)

    est = sub.add_parser("estimate", help="debiased estimate from a release")
    est.add_argument("--release", required=True)
    est.add_argument("--sidecar", required=True)
    est.set_defaults(func=_cmd_estimate)

    acct = sub.add_parser("account", help="print a privacy report as JSON")
    _mechanism_flags(acct, kinds=["cluster_dp", "uniform_prior_dp"])
    acct.add_argument("--eps-tilde", type=_float_arg)
    acct.add_argument("--k", type=int)
    acct.set_defaults(func=_cmd_account)

    cal = sub.add_parser("calibrate", help="solve for the resampling probability")
    _mechanism_flags(cal, kinds=["cluster_dp", "uniform_prior_dp"], lam=False)
    cal.add_argument("--target-eps", type=_float_arg, required=True)
    cal.add_argument("--target-delta", type=_float_arg, default=0.0)
    cal.add_argument("--k", type=int)
    cal.set_defaults(func=_cmd_calibrate)

    ana = sub.add_parser("analyze", help="variance report for a population")
    ana.add_argument("--pop", required=True)
    ana.add_argument("--values", help=_VALUES_HELP)
    _mechanism_flags(ana)
    ana.add_argument("--treated-fraction", type=_float_arg, default=0.5)
    ana.add_argument("--epsilon", type=_float_arg)
    ana.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("experiment", help="run a named experiment")
    exp.add_argument("name", choices=sorted(experiments.EXPERIMENTS))
    exp.add_argument("--config", help="JSON config file (defaults used if omitted)")
    exp.add_argument("--seed", type=_seed_arg, default=0)
    exp.add_argument("--out", required=True)
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except _StdoutClosed:  # not bad input: a reader such as `head` took what it wanted
        return EXIT_STDOUT_CLOSED
    except accounting.CalibrationError as exc:
        print(f"calibration error: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (ValidationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
