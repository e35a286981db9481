"""Measured process: runs one workload's operations and writes a JSON result.

Started by run.py with the thread-count variables pinned, so the peak RSS
it reports belongs to the program's operations and not to the output
checks, which run.py performs afterwards on the files left here.

    python3 perfbench/worker.py <spec.json> <result.json>
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from clusterdp import cli, estimation, experiments, mechanisms, simdata, variance  # noqa: E402
from clusterdp.model import OutcomeSpace, draw_design  # noqa: E402
from clusterdp.rng import RngStreams  # noqa: E402

import tracing  # noqa: E402


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _file_digest(*paths) -> str:
    return _sha256(*(Path(p).read_bytes() for p in paths))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _op(name: str, body) -> dict:
    """Run one operation; `body` returns (seconds, payload, digest) or raises."""
    try:
        seconds, payload, digest = body()
        return {"name": name, "seconds": seconds, "payload": payload,
                "digest": digest, "error": None}
    except Exception as exc:  # an operation that raises is a failed operation
        return {"name": name, "seconds": None, "payload": None, "digest": None,
                "error": f"{type(exc).__name__}: {exc}"}


def _cli_stage(argv, d: Path, outputs=()):
    def body():
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code
        seconds = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"exit {rc}: {err.getvalue().strip()[-300:]}")
        text = out.getvalue()
        payload = json.loads(text)
        # the printed paths name the pass's own directory
        stable = text.replace(str(d), "<dir>").encode()
        return seconds, payload, _sha256(stable, *(Path(p).read_bytes() for p in outputs))
    return body


def _corrupt_sidecar(path: Path) -> None:
    """Flip the sign of one debias row entry (used by the smoke test only)."""
    sidecar = json.loads(path.read_text())
    sidecar["debias_rows"][0][0][0] = -sidecar["debias_rows"][0][0][0] - 1.0
    path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def cli_ops(spec: dict, d: Path):
    seed = str(spec["seed"])
    pop, rel, side = d / "pop.csv", d / "release.csv", d / "sidecar.json"
    sizes = [str(spec["cluster_size"])] * spec["clusters"]
    yield "generate", _cli_stage(
        ["generate", "gmm", "--sizes", *sizes, "--kprime", str(spec["kprime"]),
         "--seed", seed, "--out", str(pop)], d, [pop])
    yield "privatize", _cli_stage(
        ["privatize", "--pop", str(pop), "--kind", "cluster_dp", "--seed", seed,
         "--out", str(rel), "--sidecar", str(side)], d, [rel, side])
    if spec.get("corrupt"):
        _corrupt_sidecar(side)
    yield "estimate", _cli_stage(["estimate", "--release", str(rel), "--sidecar", str(side)], d)
    yield "analyze", _cli_stage(["analyze", "--pop", str(pop), "--epsilon", "1"], d)


def _experiment(name: str, config: dict, seed: int, outdir: Path):
    def body():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            tables, _ = experiments.run_experiment(name, config, seed, outdir)
            seconds = time.perf_counter() - start
        digest = _file_digest(*sorted(outdir.glob(f"{name}_*.csv")))
        payload = {"results": tables["results"], "warnings": len(caught)}
        return seconds, payload, digest
    return body


def _scalar_batch(pop, design, eps, streams, batch: int, calls: int, base: float, gaps):
    def body():
        start = time.perf_counter()
        nht = [mechanisms.noisy_ht(pop, design, eps, streams.child("nht", batch, r)).value
               for r in range(calls)]
        nh = [mechanisms.noisy_histogram(pop, design, eps, streams.child("nh", batch, r))
              for r in range(calls)]
        seconds = time.perf_counter() - start
        nht, nh = np.array(nht) - base, np.array(nh) - base
        payload = {"nht": nht.tolist(), "nh": nh.tolist(), "calls": 2 * calls, "gaps": list(gaps)}
        return seconds, payload, _sha256(nht.tobytes(), nh.tobytes())
    return body


def mc_ops(spec: dict, d: Path):
    seed = spec["seed"]
    for name, config in spec["experiments"].items():
        yield name, _experiment(name, config, seed, d)
    scalar = spec.get("scalar")
    if scalar:
        streams = RngStreams(seed).child("scalar")
        pop = experiments.build_population(experiments.ExperimentConfig.from_dict({}), streams)
        design = draw_design(pop, 0.5, streams.generator("design"))
        eps = scalar["epsilon"]
        base = estimation.tau_no_dp(pop, design)
        gaps = variance.baseline_gaps(pop, design, eps)
        for b in range(scalar["batches"]):
            yield "scalar_batch", _scalar_batch(
                pop, design, eps, streams, b, scalar["calls"], base, gaps)


def _ops(spec: dict, d: Path):
    d.mkdir(parents=True, exist_ok=True)
    return cli_ops(spec, d) if spec["kind"] == "cli" else mc_ops(spec, d)


class ReferenceClock:
    """Times a fixed kernel that does not use clusterdp, between operations.

    The host's speed swings by a fifth or more within seconds. The kernel's
    median time just before and just after a short operation measures the
    speed that operation got, so run.py can scale its time to a fixed speed
    (`cal_wall_s`). The kernel takes about REF_SHARE of the measured time.
    """

    REF_SHARE = 0.05
    UNIT_STEPS = 500

    def __init__(self):
        rng = np.random.default_rng(0)
        self._arrays = [rng.random(n) for n in (8, 32, 64, 128)]
        self._labels = rng.integers(0, 8, 64)
        self._owed = 0.0
        self.samples: list[float] = []
        for _ in range(3):  # warm-up, untimed
            self._unit()

    def _unit(self) -> float:
        """Many small NumPy calls from Python and a Philox generator: the shape
        of clusterdp's per-cluster and per-replication work. Of the kernels
        tried, this one followed the host's speed most closely."""
        gen = np.random.Generator(np.random.Philox(7))
        total = 0.0
        for j in range(self.UNIT_STEPS):
            values = self._arrays[j % 4]
            shifted = np.add(values, 1.0)
            total += float(np.sum(np.where(shifted > 1.5, shifted, 0.0)))
            total += float(np.max(values)) + float(gen.random())
            total += int(np.bincount(self._labels, minlength=8)[0])
        return total

    def pay(self, worked_s: float) -> list[float]:
        """Time kernel units until REF_SHARE of `worked_s` is spent, at least
        one; return their times."""
        self._owed += self.REF_SHARE * worked_s
        block = []
        while not block or self._owed > 0.0:
            start = time.perf_counter()
            self._unit()
            block.append(time.perf_counter() - start)
            self._owed -= block[-1]
        self.samples += block
        return block


def untraced(spec: dict) -> tuple[list[dict], list[float]]:
    """Whole passes until `seconds` have elapsed, at least one, and every
    reference-kernel time. Each operation's `ref_s` is the median kernel time
    of the blocks just before and just after it."""
    passes = []
    ref = ReferenceClock()
    before = ref.pay(0.0)
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < spec["seconds"]:
        d = Path(spec["workdir"]) / f"pass{len(passes)}"
        ops = []
        for name, body in _ops(spec, d):
            op_start = time.perf_counter()
            op = _op(name, body)
            after = ref.pay(time.perf_counter() - op_start)
            op["ref_s"] = float(np.median(before + after))
            ops.append(op)
            before = after
        passes.append({"dir": str(d), "ops": ops})
    return passes, ref.samples


def traced(spec: dict):
    """One pass. Each operation runs untraced, then again with spans around every
    public call it makes; the two runs must give the same bytes."""
    rec = tracing.Recorder()
    d = Path(spec["workdir"]) / "pass0"
    ops, plain_s, traced_s = [], 0.0, 0.0
    for name, body in _ops(spec, d):
        plain = _op(name, body)
        with tracing.instrumented(rec):
            if spec["kind"] == "cli":
                with rec.span(f"cli.{name}"):
                    again = _op(name, body)
            else:
                again = _op(name, body)
        if plain["error"] is None and again["error"] is None:
            plain_s += plain["seconds"]
            traced_s += again["seconds"]
            if plain["digest"] != again["digest"]:
                again["error"] = "traced replay output differs from the untraced run"
        again["untraced_error"] = plain["error"]
        ops.append(again)
    metrics = layer_metrics(rec, spec, d, ops)
    metrics["trace.overhead_s"] = traced_s - plain_s
    return [{"dir": str(d), "ops": ops}], metrics, rec


def peak_call(fn_name: str, args: list) -> float:
    """Growth of this process's peak RSS over one parser call.

    Run by run.py in a fresh process that it starts while it is itself still
    small, since a process started with exec inherits its parent's peak RSS.
    """
    before = _rss_mb()
    if fn_name == "simdata.ingest_csv":
        simdata.ingest_csv(args[0], OutcomeSpace(tuple(args[1])))
    else:
        mechanisms.read_release(*args)
    return _rss_mb() - before


def layer_metrics(rec: tracing.Recorder, spec: dict, d: Path, ops) -> dict:
    """Per-layer metrics of the layers this workload ran (absent layers are omitted).

    `<span>_s` is the total time in that span, children included; the CLI
    stages and the experiment runner report self time instead.
    """
    totals, counts = {}, {}
    for name, start, end, _ in rec.spans:
        totals[name] = totals.get(name, 0.0) + end - start
        counts[name] = counts.get(name, 0) + 1
    m = {}
    for name, total in totals.items():
        if name.startswith("cli."):
            m[f"{name}_self_s"] = rec.self_time(name)
        elif name == "experiments.run_experiment":
            m["experiments.runner_self_s"] = rec.self_time(name)
            m["experiments.warnings"] = sum(op["payload"].get("warnings", 0) for op in ops
                                            if op["payload"])
        elif name in ("mechanisms.noisy_ht", "mechanisms.noisy_histogram"):
            m[f"{name}_s"] = 1e6 * total / counts[name]  # microseconds per call
        else:
            m[f"{name}_s"] = total
    for name in ("rng.generator", "model.draw_design", "simdata.subsample"):
        if name in counts:
            m[f"{name}_calls"] = counts[name]
    if "prior_cells" in rec.counters:
        m["mechanisms.prior_cells"] = rec.counters["prior_cells"]
    if rec.counters.get("units_resampled"):
        m["mechanisms.units_resampled"] = rec.counters["units_resampled"]
        m["mechanisms.resample_useful_ratio"] = (
            rec.counters["units_redrawn"] / rec.counters["units_resampled"])
        m["mechanisms.resample_bytes_computed"] = rec.counters["resample_bytes_computed"]
    if rec.rep_ms:
        m["experiments.replications"] = rec.counters["replications"]
        m["experiments.rep_ms"] = float(np.median(rec.rep_ms))
    if spec["kind"] == "cli" and (d / "pop.csv").exists():
        with open(d / "pop.csv", "rb") as fh:
            m["simdata.csv_rows"] = sum(1 for _ in fh) - 1
    for metric, name in (("simdata.csv_bytes", "pop.csv"),
                         ("mechanisms.release_csv_bytes", "release.csv"),
                         ("mechanisms.sidecar_bytes", "sidecar.json")):
        if (d / name).exists():
            m[metric] = (d / name).stat().st_size
    return m


def main(spec_path: str, result_path: str) -> None:
    if spec_path == "--peak":
        print(peak_call(result_path, json.loads(sys.argv[3])))
        return
    spec = json.loads(Path(spec_path).read_text())
    result = {"trace": bool(spec["trace"])}
    if spec["trace"]:
        passes, metrics, rec = traced(spec)
        result.update(layers=metrics, replay_failures=rec.replay_failures, spans=rec.spans,
                      peak_calls=rec.last_args)
    else:
        passes, result["ref_unit_s"] = untraced(spec)
    result["passes"] = passes
    result["peak_rss_mb"] = _rss_mb()
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
