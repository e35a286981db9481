"""The benchmark tracer's view of the package, checked without running the benchmark.

``perfbench/tracing.py`` wraps the functions it lists in ``TRACED`` and binds
some of their arguments by name. A rename or a dropped parameter in ``src/``
would otherwise only show up as a failed ``perfbench/run.py --trace 1`` run.
The tracer module is loaded from its file and never modified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from clusterdp.mechanisms import fit_priors
from clusterdp.model import MechanismKind, MechanismParams, draw_design
from clusterdp.rng import RngStreams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# The arguments the tracer reads from each call it binds.
BOUND = {
    "mechanisms.resample_outcomes": ("y_observed", "q_tilde", "lam", "rng"),
    "simdata.ingest_csv": ("path", "space"),
    "mechanisms.read_release": ("csv_path", "sidecar_path"),
    "experiments.cluster_mechanism_taus": ("pop", "params", "treated", "streams"),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_fit_priors_result_has_q(small_pop, streams, kind):
    k = small_pop.space.k
    if kind is MechanismKind.UNIFORM_PRIOR_DP:
        params = MechanismParams.uniform_prior(k, 0.5)
    else:
        params = MechanismParams(kind=kind, gamma=0.1, sigma=10.0, lam=0.5)
    design = draw_design(small_pop, 0.5, streams.generator("assignment"))
    prior = fit_priors(small_pop, design, params, streams.generator("laplace"))
    assert isinstance(prior.q, np.ndarray)
    assert prior.q.shape == (small_pop.n_clusters, 2, k)
