"""Fuzzing of the CLI's inputs against the exit-code contract.

Each example takes a valid input (an experiment config, a release sidecar,
a population or release CSV, or a command line), changes the type or
structure of one value in it, or puts bytes the CSV reader treats apart
(a quote, a CR, a NUL, a byte that is not UTF-8, a field over the csv field
size limit) into the raw file, and runs the command in process. Whatever the
change, the command must return 0, 2 or 3 without raising, and when it
returns 0 its stdout must be a JSON document with no NaN or infinity in it.
A flag that argparse rejects exits through ``SystemExit`` with code 2. A
mutated population must also give ``infer_space`` the space, or the message,
of one parse of the whole file (``oracles.infer_space_full``).
"""

import contextlib
import copy
import csv
import io
import json
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from clusterdp.cli import main
from clusterdp.model import ValidationError
from clusterdp.simdata import infer_space

from oracles import infer_space_full

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

# Flag values and flag names; the names include none that would drop a
# required input (an experiment without --config runs the full-size defaults).
# A quote or CR sends a file through csv.reader; the others keep it on the plain split.
RAW_BYTES = st.sampled_from([b'"', b"\r", b"\r\n", b"\0", b"\xff", b"\xc3",
                             b"x" * (csv.field_size_limit() + 1)])

FLAG_VALUES = st.sampled_from([
    "-2", "-1", "0", "1", "2", "8", "", "x", "nan", "inf", "-inf", "0.5", "-0.5", "1e300",
    "1e-300", "0,1", "0,1,2,2", "0,1,1.3e154", "--seed", "--k", "--lam", "--bogus",
])

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
# One valid command line per subcommand; "{d}" is the work directory.
COMMANDS = [
    ["generate", "gmm", "--beta", "1", "--v", "5", "--kprime", "2", "--tau", "1",
     "--sizes", "6", "8", "--seed", "1", "--out", "{d}/g.csv"],
    ["generate", "graph", "--communities", "6", "7", "--pin", "0.5", "--pout", "0.1",
     "--beta-vec", "1", "1", "1", "1", "--v", "0.1", "--k", "3", "--tau", "1",
     "--seed", "1", "--out", "{d}/g.csv"],
    ["privatize", "--pop", "{d}/pop.csv", "--values", "0,1,2", "--kind", "cluster_dp",
     "--gamma", "0.05", "--sigma", "10", "--lam", "0.5", "--treated-fraction", "0.5",
     "--seed", "1", "--out", "{d}/r.csv", "--sidecar", "{d}/r.json"],
    ["estimate", "--release", "{d}/release.csv", "--sidecar", "{d}/sidecar.json"],
    ["account", "--kind", "cluster_dp", "--gamma", "0.05", "--sigma", "10", "--lam", "0.5",
     "--eps-tilde", "1", "--k", "3"],
    ["account", "--kind", "cluster_dp", "--gamma", "0.05", "--sigma", "10", "--lam", "0.5",
     "--k", "3"],
    ["calibrate", "--kind", "cluster_dp", "--target-eps", "2", "--target-delta", "1e-4",
     "--gamma", "0.05", "--sigma", "10", "--k", "3"],
    ["analyze", "--pop", "{d}/pop.csv", "--values", "0,1,2", "--gamma", "0.05", "--sigma", "10",
     "--lam", "0.5", "--treated-fraction", "0.5", "--epsilon", "1"],
    ["experiment", "distribution", "--config", "{d}/distribution.json", "--seed", "1",
     "--out", "{d}/o"],
]
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


def _space_or_message(infer, path):
    try:
        return tuple(map(repr, infer(path).values))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def _run(*argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "" and err.getvalue(), err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "pop.csv").write_text("\n".join(POPULATION) + "\n")
    _run("privatize", "--pop", d / "pop.csv", "--values", "0,1,2", "--seed", 1,
         "--out", d / "release.csv", "--sidecar", d / "sidecar.json")
    (d / "distribution.json").write_text(json.dumps(CONFIGS["distribution"]))
    cwd = os.getcwd()
    os.chdir(d)  # a mutated flag can make any token a relative output path
    yield d
    os.chdir(cwd)


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
    assert _space_or_message(infer_space, pop) == _space_or_message(infer_space_full, pop)
    argv = [command, "--pop", pop] + (["--values", values] if values else [])
    if command == "privatize":
        argv += ["--out", workdir / "r.csv", "--sidecar", workdir / "r.json"]
    _run(*argv)


@FUZZ
@given(data=st.data())
def test_release_row(workdir, data):
    lines = (workdir / "release.csv").read_text().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1), label="row")
    action = data.draw(st.sampled_from(["field", "drop", "repeat"]), label="action")
    if action == "field":
        fields = lines[row].split(",")
        fields[data.draw(st.integers(0, 3), label="field")] = data.draw(CSV_FIELDS, label="value")
        lines[row] = ",".join(fields)
    elif action == "drop":
        del lines[row]
    else:
        lines.insert(row, lines[row])
    release = workdir / "release_mutated.csv"
    release.write_text("\n".join(lines) + "\n")
    _run("estimate", "--release", release, "--sidecar", workdir / "sidecar.json")


@FUZZ
@given(data=st.data(), target=st.sampled_from(["pop.csv", "release.csv"]))
def test_raw_bytes(workdir, data, target):
    raw = (workdir / target).read_bytes()
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        at = data.draw(st.integers(0, len(raw)), label="at")
        overwrite = data.draw(st.booleans(), label="overwrite")
        raw = raw[:at] + data.draw(RAW_BYTES, label="bytes") + raw[at + overwrite:]
    path = workdir / f"bytes_{target}"
    path.write_bytes(raw)
    if target == "release.csv":
        argv = ["estimate", "--release", path, "--sidecar", workdir / "sidecar.json"]
    else:
        argv = [data.draw(st.sampled_from(["privatize", "analyze"]), label="command"),
                "--pop", path]
        argv += data.draw(st.sampled_from([[], ["--values", "0,1,2"]]), label="values")
        if argv[0] == "privatize":
            argv += ["--out", workdir / "r.csv", "--sidecar", workdir / "r.json"]
    assert _run(*argv) in (0, 2)


@settings(FUZZ, max_examples=500)  # nine base command lines share the examples
@given(data=st.data(), command=st.sampled_from(COMMANDS))
def test_command_line(workdir, data, command):
    argv = [arg.format(d=workdir) for arg in command]
    i = data.draw(st.integers(1, len(argv) - 1), label="position")
    if data.draw(st.booleans(), label="drop"):
        del argv[i]
    else:
        argv[i] = data.draw(FLAG_VALUES, label="value")
    _run(*argv)
