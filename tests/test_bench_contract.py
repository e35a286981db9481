"""The benchmark's view of the package, checked without running the benchmark.

``perfbench/tracing.py`` wraps the functions it lists in ``TRACED`` and binds
some of their arguments by name. A rename or a dropped parameter in ``src/``
would otherwise only show up as a failed ``perfbench/run.py --trace 1`` run.
``perfbench/checks.py`` parses release files on its own; a writer change it
rejects would otherwise only show up as failed benchmark operations. The
experiment configs in ``perfbench/run.py``'s ``WORKLOADS`` must stay valid
configs, or every Monte Carlo operation of the benchmark fails. The
tracer also rebuilds replication 0 of ``cluster_mechanism_taus`` from the
public calls; a kernel change that breaks that parity is caught here too.
A traced call that moves into a private helper records no span, and
``perfbench/run.py --trace 1`` then exits 2 with "traced run produced no
[...]"; each per-layer span and counter is checked here on toy operations,
and every layer ``perfbench/smoke.py`` requires of ``mc_small`` on a toy traced
pass, so that moving an experiment to another kernel cannot drop one. The
import times come from ``-X importtime``, which must log both imports.
The modules are loaded from their files and never modified.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from clusterdp import estimation, experiments, mechanisms, model
from clusterdp.cli import main
from clusterdp.experiments import (
    EXPERIMENTS, ExperimentConfig, build_population, cluster_mechanism_taus,
)
from clusterdp.mechanisms import _RESAMPLE_BLOCK, _bucket_count, fit_priors
from clusterdp.model import MechanismKind, MechanismParams, draw_design
from clusterdp.rng import RngStreams
from clusterdp.simdata import GmmConfig, gen_gmm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The arguments the tracer reads from each call it binds.
BOUND = {
    "mechanisms.resample_outcomes": ("y_observed", "q_tilde", "lam", "rng"),
    "simdata.ingest_csv": ("path", "space"),
    "mechanisms.read_release": ("csv_path", "sidecar_path"),
    "experiments.cluster_mechanism_taus": ("pop", "params", "treated", "streams"),
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def _function(name: str):
    module, fn = name.split(".")
    return getattr(importlib.import_module(f"clusterdp.{module}"), fn, None)


def test_traced_functions_exist(tracing):
    names = [f"{module}.{fn}" for module, fns in tracing.TRACED.items() for fn in fns]
    assert [name for name in names if not callable(_function(name))] == []
    assert callable(RngStreams.generator)


def test_bound_parameters_exist(tracing):
    assert set(tracing._NEEDS_ARGUMENTS) == set(BOUND)
    for name, params in BOUND.items():
        signature = inspect.signature(_function(name))
        assert set(params) <= set(signature.parameters), name


def _params(kind, k):
    if kind is MechanismKind.UNIFORM_PRIOR_DP:
        return MechanismParams.uniform_prior(k, 0.5)
    return MechanismParams(kind=kind, gamma=0.1, sigma=10.0, lam=0.5)


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_fit_priors_result_has_q(small_pop, streams, kind):
    k = small_pop.space.k
    params = _params(kind, k)
    design = draw_design(small_pop, 0.5, streams.generator("assignment"))
    prior = fit_priors(small_pop, design, params, streams.generator("laplace"))
    assert isinstance(prior.q, np.ndarray)
    assert prior.q.shape == (small_pop.n_clusters, 2, k)


def test_workload_configs_accepted():
    run = _load("run")
    configs = [(name, config) for workload in run.WORKLOADS.values()
               for name, config in workload.get("experiments", {}).items()]
    assert configs and all(name in EXPERIMENTS for name, _ in configs)
    for name, config in configs:
        assert ExperimentConfig.from_dict(config).workers == config["workers"], name
    # the scalar batches' population, built as worker.py builds it
    pop = build_population(ExperimentConfig.from_dict({}), RngStreams(1).child("scalar"))
    assert pop.n == sum(ExperimentConfig.from_dict({}).population["cluster_sizes"])


def test_import_layers_find_both_imports():
    # -X importtime logs an import statement, not scipy's lazy ``from scipy import stats``
    # when nothing imported scipy.stats before; a missing line fails every traced run
    layers = _load("run").import_layers(samples=1)
    assert set(layers) == {"import.clusterdp_s", "import.scipy_stats_s"}
    assert all(seconds > 0 for seconds in layers.values())


def test_checks_accept_the_cli_release(tmp_path, capsys):
    checks = _load("checks")
    pop, release, sidecar = tmp_path / "pop.csv", tmp_path / "r.csv", tmp_path / "r.json"
    assert main(["generate", "gmm", "--kprime", "2", "--sizes", "8", "12", "10",
                 "--seed", "3", "--out", str(pop)]) == 0
    assert main(["privatize", "--pop", str(pop), "--seed", "4",
                 "--out", str(release), "--sidecar", str(sidecar)]) == 0
    capsys.readouterr()
    assert main(["estimate", "--release", str(release), "--sidecar", str(sidecar)]) == 0
    tau_hat = json.loads(capsys.readouterr().out)["tau_hat"]
    meta = json.loads(sidecar.read_text())
    assert checks.release_problems(release, meta, 30, 3) == []
    assert abs(checks.recompute_tau(release, meta) - tau_hat) <= 1e-9


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_tracer_replays_replication_zero(tracing, small_pop, streams, kind):
    args = {"pop": small_pop, "params": _params(kind, small_pop.space.k),
            "treated": 0.5, "streams": streams}
    taus = cluster_mechanism_taus(**args, reps=2)
    assert len(taus) == 2
    assert tracing._replay_replication(args, taus) is True


@pytest.fixture(scope="module")
def two_block_pop():
    config = GmmConfig(beta=4.5, v=5.0, k_prime=5, cluster_sizes=(20000, 15000))
    return gen_gmm(config, RngStreams(6))


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_tracer_replays_replication_zero_past_one_block(tracing, two_block_pop, kind):
    # the resampling kernel works in blocks of units; this population spans three
    assert two_block_pop.n > 2 * _RESAMPLE_BLOCK
    k = two_block_pop.space.k
    params = (MechanismParams.uniform_prior(k, 0.8) if kind is MechanismKind.UNIFORM_PRIOR_DP
              else MechanismParams(kind=kind, gamma=0.02, sigma=10.0, lam=0.8))
    args = {"pop": two_block_pop, "params": params, "treated": 0.5, "streams": RngStreams(7)}
    taus = cluster_mechanism_taus(**args, reps=1)
    assert tracing._replay_replication(args, taus) is True


# The per-layer spans (as "<span>_s" in run.PER_LAYER) and the counters behind
# run.PER_LAYER metrics that a Monte Carlo replication or one release records.
RELEASE_SPANS = {
    "model.draw_design", "mechanisms.arm_histograms", "mechanisms.fit_priors",
    "mechanisms.resample_outcomes", "estimation.debias_rows",
    "estimation.per_cluster_contributions", "rng.generator",
}
RELEASE_COUNTERS = {
    "prior_cells": "mechanisms.prior_cells",
    "units_resampled": "mechanisms.units_resampled",
    "units_redrawn": "mechanisms.resample_useful_ratio",
    "resample_bytes_computed": "mechanisms.resample_bytes_computed",
}
_TOY = {"population": {"kind": "gmm", "beta": 4.5, "v": 5.0, "k_prime": 3, "tau": 1,
                       "cluster_sizes": [8, 12]}}


def _toy_distribution():
    experiments.run_experiment("distribution", {**_TOY, "replications": 3}, 3)


def _toy_release(pop, streams):
    design = model.draw_design(pop, 0.5, streams.generator("assignment"))
    params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.02, sigma=10.0, lam=0.5)
    estimation.tau_q(mechanisms.cluster_dp(pop, design, params, streams))


def _toy_scalars(pop, streams):
    design = experiments.counts_design(pop, 0.5)
    mechanisms.noisy_ht(pop, design, 1.0, streams.child("nht"))
    mechanisms.noisy_histogram(pop, design, 1.0, streams.child("nh"))


@pytest.mark.parametrize("op, spans, counters", [
    (_toy_distribution, RELEASE_SPANS, set(RELEASE_COUNTERS)),
    (_toy_release, RELEASE_SPANS, set(RELEASE_COUNTERS)),
    (_toy_scalars, {"rng.generator", "estimation.per_cluster_contributions"}, set()),
])
def test_traced_operations_feed_their_layers(tracing, small_pop, streams, op, spans, counters):
    run = _load("run")
    assert {f"{name}_s" for name in spans} | {RELEASE_COUNTERS[c] for c in counters} <= set(
        run.PER_LAYER)
    rec = tracing.Recorder()
    with tracing.instrumented(rec):
        op() if op is _toy_distribution else op(small_pop, streams)
    assert spans - {span[0] for span in rec.spans} == set()
    assert counters - set(rec.counters) == set()
    assert rec.replay_failures == []


# Per-layer metrics of a traced mc_small run that are not read from its spans:
# run.import_layers times the imports, worker.traced the tracing overhead.
_NOT_FROM_SPANS = {"import.clusterdp_s", "import.scipy_stats_s", "trace.overhead_s"}


def test_traced_mc_small_pass_feeds_every_layer(tracing, tmp_path):
    # the five experiments and the scalar batches, as the traced mc_small run makes them
    smoke, worker = _load("smoke"), _load("worker")
    spec = {**smoke.run.WORKLOADS["mc_small"], **smoke.TOY["mc_small"][0], "seed": smoke.SEED}
    rec = tracing.Recorder()
    with tracing.instrumented(rec):
        ops = [worker._op(name, body) for name, body in worker.mc_ops(spec, tmp_path)]
    assert [op["error"] for op in ops if op["error"]] == []
    assert {op["name"] for op in ops} == set(spec["experiments"]) | {"scalar_batch"}
    metrics = worker.layer_metrics(rec, spec, tmp_path, ops)
    assert smoke.MC_SMALL_LAYERS - _NOT_FROM_SPANS - set(metrics) == set()
    assert rec.replay_failures == []


def test_traced_mc_large_pass_feeds_every_layer(tracing, tmp_path):
    # the distribution experiment as the traced mc_large run makes it, on 2 x 20 000 units
    # and 3 replications: enough units per (cluster, arm) row for the resampler's table
    smoke, worker = _load("smoke"), _load("worker")
    workload = smoke.run.WORKLOADS["mc_large"]
    config = workload["experiments"]["distribution"]
    population = {**config["population"], "cluster_sizes": [20000, 20000]}
    spec = {**workload, "seed": smoke.SEED, "experiments": {
        "distribution": {**config, "population": population, "replications": 3}}}
    assert _bucket_count(sum(population["cluster_sizes"]), 2 * 2) > 0
    rec = tracing.Recorder()
    with tracing.instrumented(rec):
        ops = [worker._op(name, body) for name, body in worker.mc_ops(spec, tmp_path)]
    assert [op["error"] for op in ops if op["error"]] == []
    assert [op["name"] for op in ops] == ["distribution"]
    metrics = worker.layer_metrics(rec, spec, tmp_path, ops)
    assert smoke.MC_LAYERS - _NOT_FROM_SPANS - set(metrics) == set()
    assert metrics["experiments.replications"] == 3
    assert rec.replay_failures == []


# Per-layer metrics of a traced CLI pass that run.py adds: each "<span>_peak_mb" comes
# from worker.peak_call in a fresh process, on the arguments the tracer recorded.
_CLI_PEAKS = {"simdata.ingest_csv_peak_mb", "mechanisms.read_release_peak_mb"}


def test_traced_cli_pass_feeds_every_layer(tmp_path):
    # the four CLI stages on 40 x 20 units, as the traced cli_many_clusters run makes them
    smoke, worker = _load("smoke"), _load("worker")
    spec = {**smoke.run.WORKLOADS["cli_many_clusters"], **smoke.TOY["cli_many_clusters"][0],
            "seed": smoke.SEED, "workdir": str(tmp_path)}
    passes, metrics, rec = worker.traced(spec)
    ops = passes[0]["ops"]
    assert [(op["name"], op["error"], op["untraced_error"]) for op in ops] == [
        (name, None, None) for name in ("generate", "privatize", "estimate", "analyze")]
    assert rec.replay_failures == []
    assert smoke.CLI_LAYERS - _NOT_FROM_SPANS - _CLI_PEAKS - set(metrics) == set()
    # the tracer reads the space that cli passes to ingest_csv, and the peak probe uses it
    path, values = rec.last_args["simdata.ingest_csv"]
    assert path == str(tmp_path / "pass0" / "pop.csv")
    assert values == list(GmmConfig(beta=4.5, v=5.0, k_prime=spec["kprime"]).space().values)
    assert set(rec.last_args) == {"simdata.ingest_csv", "mechanisms.read_release"}
    for name, args in rec.last_args.items():
        assert worker.peak_call(name, args) >= 0.0
