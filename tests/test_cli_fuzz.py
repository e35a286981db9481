"""Fuzzing of the CLI's file inputs against the exit-code contract.

Each example takes a valid input file (an experiment config, a release
sidecar or a population CSV), changes the type or structure of one value in
it, and runs the command in process. Whatever the change, the command must
return 0, 2 or 3 without raising, and when it returns 0 its stdout must be a
JSON document with no NaN or infinity in it.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from clusterdp.cli import main

# Small numbers only: a mutated count or size must not make a run slow.
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.sampled_from([0.0, -0.0, 0.5, 2.5, -1.0, 1e300, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["", "x", "inf", "nan", "0.5", "csv", "gmm", "cluster_dp", "[]"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["", "a", "kind", "path", "params"]), inner, max_size=2),
    max_leaves=4,
)
CSV_FIELDS = st.one_of(
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "-0", " 1", "1,2", '"', "0\n1",
                     "2", "c0", "u1", "﻿0"]),
    st.text(max_size=4),
)

POPULATION = ["unit_id,cluster,y0,y1"] + [
    f"u{c}{i},c{c},{(c + i) % 3},{(c * i + 1) % 3}" for c in range(3) for i in range(4)
]
GMM = {"kind": "gmm", "beta": 3.0, "v": 5.0, "k_prime": 2, "tau": 1, "cluster_sizes": [6, 8]}
MECHANISM = {"gamma": 0.05, "sigma": 10.0, "lambda": 0.5}
CONFIGS = {
    "distribution": {"population": GMM, "mechanism": MECHANISM, "replications": 4},
    "variance_sweep": {
        "population": GMM, "targets": {"epsilon": 2.0, "delta": 1e-4},
        "gamma_grid": [0.05], "replications": 3,
    },
    "homogeneity": {"population": GMM, "beta_grid": [0.0, 2.0], "lambda_grid": [0.5],
                    "replications": 3},
    "bound_validation": {"population": GMM, "beta_grid": [1.0], "replications": 3},
    "baseline_bias": {"population": GMM, "epsilon_grid": [1.0], "noise_draws": 1,
                      "subpop_draws": 2, "subpop_sizes": [3, 3]},
}
FUZZ = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the whole document first."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc = copy.deepcopy(doc)
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutated_json(data, doc) -> str:
    """``doc`` with one value replaced, or its text cut short."""
    text = json.dumps(doc)
    if data.draw(st.booleans(), label="truncate"):
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value = data.draw(JSON_VALUES, label="value")
    assume(path or value != {})  # an empty config runs the full-size defaults
    return json.dumps(_replace(doc, path, value))


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def _run(*argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "" and err.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "pop.csv").write_text("\n".join(POPULATION) + "\n")
    _run("privatize", "--pop", d / "pop.csv", "--values", "0,1,2", "--seed", 1,
         "--out", d / "release.csv", "--sidecar", d / "sidecar.json")
    return d


@pytest.mark.filterwarnings("ignore:subpopulation size:UserWarning")  # the tiny baseline_bias run
@settings(FUZZ, max_examples=400)  # six base configs share the examples
@given(data=st.data(), name=st.sampled_from(sorted(CONFIGS) + ["csv"]))
def test_experiment_config(workdir, data, name):
    if name == "csv":
        population = {"kind": "csv", "path": str(workdir / "pop.csv"), "values": [0, 1, 2]}
        name, base = "distribution", {"population": population, "replications": 3}
    else:
        base = CONFIGS[name]
    cfg = workdir / "config.json"
    cfg.write_text(_mutated_json(data, base))
    _run("experiment", name, "--config", cfg, "--seed", 1, "--out", workdir / "out")


@FUZZ
@given(data=st.data())
def test_release_sidecar(workdir, data):
    sidecar = workdir / "sidecar_mutated.json"
    sidecar.write_text(_mutated_json(data, json.loads((workdir / "sidecar.json").read_text())))
    _run("estimate", "--release", workdir / "release.csv", "--sidecar", sidecar)


@FUZZ
@given(
    row=st.integers(0, len(POPULATION) - 1),
    field=st.integers(0, 3),
    value=CSV_FIELDS,
    command=st.sampled_from(["privatize", "analyze"]),
    values=st.sampled_from([None, "0,1,2"]),
)
def test_population_field(workdir, row, field, value, command, values):
    lines = [line.split(",") for line in POPULATION]
    lines[row][field] = value
    pop = workdir / "pop_mutated.csv"
    pop.write_text("\n".join(",".join(line) for line in lines) + "\n")
    argv = [command, "--pop", pop] + (["--values", values] if values else [])
    if command == "privatize":
        argv += ["--out", workdir / "r.csv", "--sidecar", workdir / "r.json"]
    _run(*argv)
