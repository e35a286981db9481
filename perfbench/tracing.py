"""Span recorder and the wrappers that put spans around clusterdp's public functions.

Spans are recorded from the benchmark's side only: each wrapped function is
replaced, in every ``clusterdp`` module that holds a reference to it, by a
wrapper that times the call. The original bindings come back when tracing
ends; the program's own files are never edited.
"""

from __future__ import annotations

import copy
import inspect
import sys
import time
from contextlib import contextmanager

# (module, function) pairs wrapped in the traced run. A span is named
# "<module>.<function>"; "rng.generator" is the RngStreams.generator method.
TRACED = {
    "model": ["draw_design"],
    "mechanisms": [
        "arm_histograms", "fit_priors", "resample_outcomes", "write_release",
        "read_release", "noisy_ht", "noisy_histogram",
    ],
    "estimation": ["debias_rows", "per_cluster_contributions", "tau_q", "tau_no_dp"],
    "variance": [
        "ht_variance", "homogeneity", "cluster_dp_variance_bound",
        "uniform_prior_variance", "baseline_gaps",
    ],
    "simdata": ["gen_gmm", "write_population_csv", "ingest_csv", "subsample"],
    "experiments": [
        "counts_design", "cluster_mechanism_taus", "nodp_taus", "uniform_prior_taus",
        "write_table", "run_experiment",
    ],
}


class Recorder:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.rep_ms: list[float] = []
        self.last_args: dict[str, list] = {}
        self.replay_failures: list[str] = []
        self.active = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def self_time(self, name: str) -> float:
        """Duration of every `name` span minus the durations of its direct children."""
        child = {}
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] = child.get(s[3], 0.0) + s[2] - s[1]
        return sum(
            s[2] - s[1] - child.get(i, 0.0) for i, s in enumerate(self.spans) if s[0] == name
        )


_NEEDS_ARGUMENTS = {"mechanisms.resample_outcomes", "simdata.ingest_csv",
                    "mechanisms.read_release", "experiments.cluster_mechanism_taus"}


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_resample(rec: Recorder, a: dict) -> None:
    """Count units and redraws of one resample_outcomes call, outside its span.

    The redraw count replays the call's first draw (the keep/redraw uniform)
    on a copy of the generator it receives; every unit also gets a
    categorical draw in the kernel at this commit, hence the ratio.
    """
    n = len(a["y_observed"])
    k = a["q_tilde"].shape[-1]
    redrawn = int((copy.deepcopy(a["rng"]).random(n) < a["lam"]).sum())
    rec.count("units_resampled", n)
    rec.count("units_redrawn", redrawn)
    # gathered (n, K) float64 prior rows + (n, K) float64 cumsum + (n, K) bool
    # comparison, plus four length-n 8-byte arrays (two uniforms, draw, output)
    rec.count("resample_bytes_computed", n * k * 17 + n * 32)


def _replay_replication(a: dict, taus) -> bool:
    """Rebuild replication 0 of a cluster_mechanism_taus call from public calls."""
    from clusterdp.estimation import debias_rows, per_cluster_contributions
    from clusterdp.mechanisms import fit_priors, resample_outcomes
    from clusterdp.model import draw_design

    pop, params = a["pop"], a["params"]
    node = a["streams"].child("rep", 0)
    design = draw_design(pop, a["treated"], node.generator("assignment"))
    prior = fit_priors(pop, design, params, node.generator("laplace"))
    y_tilde = resample_outcomes(
        pop.observed(design), pop.cluster, design.z, prior.q, params.lam,
        node.generator("resample"),
    )
    rows = debias_rows(pop.space.array, prior.q, params.lam)
    per_unit = rows[pop.cluster, design.z, y_tilde]
    tau = float(per_cluster_contributions(per_unit, pop.cluster, design).sum())
    return len(taus) == 0 or tau == float(taus[0])


def _make_wrapper(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        a = _arguments(fn, args, kwargs) if name in _NEEDS_ARGUMENTS else {}
        if name == "mechanisms.resample_outcomes":
            _observe_resample(rec, a)
        elif name == "simdata.ingest_csv":
            rec.last_args[name] = [str(a["path"]), list(a["space"].values)]
        elif name == "mechanisms.read_release":
            rec.last_args[name] = [str(a["csv_path"]), str(a["sidecar_path"])]
        start = time.perf_counter()
        with rec.span(name):
            result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if name == "mechanisms.fit_priors":
            rec.count("prior_cells", result.q.size)
        elif name == "experiments.cluster_mechanism_taus":
            reps = len(result)
            rec.count("replications", reps)
            if reps:
                rec.rep_ms.append(1000.0 * elapsed / reps)
            with rec.paused():
                if not _replay_replication(a, result):
                    rec.replay_failures.append("cluster_mechanism_taus replication 0")
        return result

    return wrapper


@contextmanager
def instrumented(rec: Recorder):
    """Wrap every TRACED function in all clusterdp modules; restore on exit."""
    from clusterdp import rng

    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "clusterdp" or key.startswith("clusterdp."))]
    saved = []
    for mod_name, fns in TRACED.items():
        owner = sys.modules[f"clusterdp.{mod_name}"]
        for fn_name in fns:
            orig = getattr(owner, fn_name)
            wrapper = _make_wrapper(rec, f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
    orig_generator = rng.RngStreams.generator
    rng.RngStreams.generator = _make_wrapper(rec, "rng.generator", orig_generator)
    rec.active = True
    try:
        yield
    finally:
        rec.active = False
        rng.RngStreams.generator = orig_generator
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
