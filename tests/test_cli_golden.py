"""Golden digests of the four CLI stages: every byte they write or print is pinned.

``generate`` → ``privatize`` → ``estimate`` → ``analyze`` run on a generated
population of 60 clusters of 20 units with an inferred outcome space, then
``privatize`` → ``estimate`` → ``analyze`` run with ``--values`` on the same
units under cluster labels that need quoting in a CSV file (a comma, a ``"``)
or are not ASCII. The SHA-256 digest of every file and of every stdout is
compared with ``golden/cli_digests.json``, which records the NumPy and SciPy
versions it was taken with. A change that moves a byte on purpose rewrites the
file and names the change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from clusterdp import simdata
from clusterdp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
SIZES = ["20"] * 60
VALUES = "--values=-2,-1,0,1,2,3,4"  # the generated space (-2..3) and one value none takes


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quoted_labels(pop):
    """The population under labels a CSV writer must quote, and one that is not ASCII."""
    forms = ("c,{}", 'say "{}"', "é{}")
    labels = tuple(forms[c % 3].format(c) for c in range(pop.n_clusters))
    return replace(pop, cluster_labels=labels)


def cli_digests() -> dict:
    """Run the stages in the current directory; digests of each file and stdout, by name."""
    digests = {}

    def run(name, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        assert code == 0, (name, code)
        digests[f"{name}.stdout"] = _sha256(out.getvalue().encode())

    def files(*names):
        digests.update({name: _sha256(Path(name).read_bytes()) for name in names})

    run("generate", "generate", "gmm", "--kprime", "2", "--sizes", *SIZES, "--seed", "3",
        "--out", "pop.csv")
    run("privatize", "privatize", "--pop", "pop.csv", "--seed", "4",
        "--out", "release.csv", "--sidecar", "sidecar.json")
    run("estimate", "estimate", "--release", "release.csv", "--sidecar", "sidecar.json")
    run("analyze", "analyze", "--pop", "pop.csv", "--epsilon", "1")
    files("pop.csv", "release.csv", "sidecar.json")

    pop = simdata.ingest_csv("pop.csv", simdata.infer_space("pop.csv"))
    simdata.write_population_csv(_quoted_labels(pop), "quoted.csv")
    run("privatize_quoted", "privatize", "--pop", "quoted.csv", VALUES, "--seed", "5",
        "--lam", "0.5", "--out", "quoted_release.csv", "--sidecar", "quoted_sidecar.json")
    run("estimate_quoted", "estimate", "--release", "quoted_release.csv",
        "--sidecar", "quoted_sidecar.json")
    run("analyze_quoted", "analyze", "--pop", "quoted.csv", VALUES, "--epsilon", "2")
    files("quoted.csv", "quoted_release.csv", "quoted_sidecar.json")
    return digests


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_cli_digests_match_golden(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    got = cli_digests()
    # the quoted run reaches the writers' csv.writer path
    assert '"c,0"' in Path("quoted.csv").read_text(encoding="utf-8")
    assert '"say ""1"""' in Path("quoted_release.csv").read_text(encoding="utf-8")
    changed = sorted(name for name in golden["digests"].keys() | got.keys()
                     if golden["digests"].get(name) != got.get(name))
    taken = {key: golden[key] for key in _versions()}
    assert changed == [], f"digests differ: {changed}; taken with {taken}, now {_versions()}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        digests = cli_digests()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({**_versions(), "digests": digests}, indent=2, sort_keys=True)
                      + "\n")
