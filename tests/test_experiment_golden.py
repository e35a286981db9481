"""Golden digests of the five experiments and of the scalar releases.

Every experiment runs through ``run_experiment`` at one toy config and seed, and
the SHA-256 digest of each CSV table it writes is compared with
``golden/experiment_digests.json``. The manifests are left out: they hold the
run time. ``noisy_ht`` and ``noisy_histogram`` are digested over the ``repr`` of
a few values at finite and infinite epsilon. The file records the NumPy and SciPy
versions it was taken with, since the bytes depend on them. A change that moves a
byte on purpose rewrites the file and names the change:

    PYTHONPATH=src python tests/test_experiment_golden.py
"""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import scipy

from clusterdp.experiments import (
    EXPERIMENTS, ExperimentConfig, build_population, counts_design, run_experiment,
)
from clusterdp.mechanisms import noisy_histogram, noisy_ht
from clusterdp.model import draw_design
from clusterdp.rng import RngStreams

GOLDEN = Path(__file__).resolve().parent / "golden" / "experiment_digests.json"
SEED = 7
TOY = {
    "population": {"kind": "gmm", "beta": 4.0, "v": 5.0, "k_prime": 2, "tau": 1,
                   "cluster_sizes": [24, 36, 48]},
    "targets": {"epsilon": 4.0, "delta": 1e-6},
    "gamma_grid": [0.02, 0.1],
    "beta_grid": [0.0, 2.0],
    "lambda_grid": [0.5],
    "epsilon_grid": [1.0, "inf"],
    "replications": 20,
    "subpop_draws": 3,
    "noise_draws": 2,
    "subpop_sizes": [20, 20, 20],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def scalar_release_values() -> list[float]:
    """``noisy_ht`` and ``noisy_histogram`` at eps 0.5, 2 and inf on two designs."""
    streams = RngStreams(SEED)
    pop = build_population(ExperimentConfig.from_dict(TOY), streams)
    values = []
    for d, design in enumerate((counts_design(pop, 0.5),
                                draw_design(pop, 0.5, streams.generator("design")))):
        for e, eps in enumerate((0.5, 2.0, math.inf)):
            node = streams.child("scalar", d, e)
            values.append(noisy_ht(pop, design, eps, node.child("nht")).value)
            values.append(noisy_histogram(pop, design, eps, node.child("nh")))
    return values


def experiment_digests(outdir: Path) -> dict:
    """Digests of every experiment table written under ``outdir`` and of the scalars."""
    cfg = ExperimentConfig.from_dict(TOY)
    for name in EXPERIMENTS:
        run_experiment(name, cfg, SEED, outdir)
    digests = {path.name: _sha256(path.read_bytes()) for path in sorted(outdir.glob("*.csv"))}
    digests["scalar_releases"] = _sha256(repr(scalar_release_values()).encode())
    return digests


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def test_experiment_digests_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = experiment_digests(tmp_path)
    assert len(got) == len(EXPERIMENTS) + 2  # distribution also writes its samples
    changed = sorted(name for name in golden["digests"].keys() | got.keys()
                     if golden["digests"].get(name) != got.get(name))
    taken = {key: golden[key] for key in _versions()}
    assert changed == [], f"digests differ: {changed}; taken with {taken}, now {_versions()}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = experiment_digests(Path(work))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({**_versions(), "digests": digests}, indent=2, sort_keys=True)
                      + "\n")
