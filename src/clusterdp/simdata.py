"""Synthetic population generators, quantization, and CSV ingestion.

Two generators: a Gaussian mixture whose cluster dependence is a single knob
(variance is held fixed as the knob moves), and a planted-partition community
graph whose per-cluster structural features drive the outcomes. Both emit
integer-grid or binned outcome spaces suitable for the randomized-response
mechanisms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import OutcomeSpace, PopulationDataset, ValidationError
from .rng import RngStreams, standard_normal

__all__ = [
    "GmmConfig",
    "GraphPopConfig",
    "quantize",
    "gen_gmm",
    "gen_graph_population",
    "infer_space",
    "ingest_csv",
    "write_population_csv",
    "subsample",
]


@dataclass(frozen=True)
class GmmConfig:
    """Gaussian-mixture population: y' = sqrt(beta) mu_c + sqrt(v - beta) w_i.

    ``beta`` in [0, v] moves response mass from unit noise to the cluster
    center while keeping Var(y') = v fixed. Outcomes are quantized onto the
    integer grid -k_prime..k_prime and the control outcome is shifted by the
    additive integer effect ``tau`` (0 or 1 so the grid is preserved).
    """

    beta: float
    v: float
    k_prime: int
    tau: int = 1
    cluster_sizes: tuple[int, ...] = (500, 1000, 2000)

    def __post_init__(self):
        if not 0.0 <= self.beta <= self.v:
            raise ValidationError("need 0 <= beta <= v")
        if self.k_prime < 1:
            raise ValidationError("k_prime must be >= 1")
        if self.tau not in (0, 1):
            raise ValidationError("tau must be 0 or 1 to stay inside the outcome grid")
        if not self.cluster_sizes:
            raise ValidationError("cluster_sizes must name at least one cluster")
        if any(s < 2 for s in self.cluster_sizes):
            raise ValidationError("cluster sizes must be >= 2")

    @property
    def k(self) -> int:
        return 2 * (self.k_prime + 1)

    def space(self) -> OutcomeSpace:
        return OutcomeSpace(tuple(range(-self.k_prime, self.k_prime + 2)))


def quantize(y_prime, v: float, k_prime: int):
    """Map a continuous response onto the integer grid [-k_prime, k_prime].

    Values beyond +/- 2 sqrt(v) saturate at +/- k_prime; inside that range the
    response is divided by the grid step 2 sqrt(v)/k_prime and rounded to the
    nearest integer, half away from zero so the map is symmetric about 0.
    """
    if v <= 0:
        raise ValidationError("v must be > 0")
    y = np.asarray(y_prime, dtype=float)
    delta = 2.0 * math.sqrt(v) / k_prime
    scaled = y / delta
    rounded = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
    out = np.where(
        y > 2.0 * math.sqrt(v),
        k_prime,
        np.where(y < -2.0 * math.sqrt(v), -k_prime, rounded),
    ).astype(np.int64)
    return out if out.ndim else int(out)


def gen_gmm(config: GmmConfig, streams: RngStreams) -> PopulationDataset:
    """Draw a mixture population; control outcomes quantized, treated = control + tau."""
    sizes = np.asarray(config.cluster_sizes, dtype=np.int64)
    n = int(sizes.sum())
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    mu = standard_normal(streams.generator("mu"), len(sizes))
    w = standard_normal(streams.generator("noise"), n)
    y_prime = math.sqrt(config.beta) * mu[cluster] + math.sqrt(config.v - config.beta) * w
    y0_level = quantize(y_prime, config.v, config.k_prime)
    space = config.space()
    y0 = y0_level + config.k_prime
    return PopulationDataset(
        space=space,
        unit_ids=tuple(f"u{i:06d}" for i in range(n)),
        cluster=cluster,
        y0=y0,
        y1=y0 + config.tau,
        cluster_labels=tuple(range(len(sizes))),
    )


@dataclass(frozen=True)
class GraphPopConfig:
    """Community-graph population: outcomes are linear in per-cluster graph features.

    A planted-partition graph is drawn (edge prob ``p_in`` within a community,
    ``p_out`` across); each community's feature vector is (node count, edge
    count, cross-edge count, density), standardized to zero mean and unit
    l2 norm across communities. Outcomes x^T beta + Normal(0, v^2) are binned
    into ``k`` equal-width levels between the 0.5th and 99.5th percentile of
    the control responses, with tau added on the continuous scale before the
    shared binning.
    """

    community_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    beta: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    v: float = 0.1
    k: int = 8
    tau: float = 1.0

    def __post_init__(self):
        if len(self.community_sizes) < 2:
            raise ValidationError("need at least 2 communities")
        if any(s < 2 for s in self.community_sizes):
            raise ValidationError("community sizes must be >= 2")
        if len(self.beta) != 4:
            raise ValidationError("beta must have 4 coefficients")
        if not (0.0 <= self.p_in <= 1.0 and 0.0 <= self.p_out <= 1.0):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        if self.k < 2:
            raise ValidationError("k must be >= 2")


def _planted_partition_features(config: GraphPopConfig, rng) -> np.ndarray:
    """Per-community (nodes, edges, cross-edges, density) from a sampled graph."""
    sizes = config.community_sizes
    c = len(sizes)
    edges = np.zeros(c)
    cross = np.zeros(c)
    for a in range(c):
        na = sizes[a]
        block = rng.random((na, na)) < config.p_in
        edges[a] = np.triu(block, k=1).sum()
        for b in range(a + 1, c):
            cut = (rng.random((na, sizes[b])) < config.p_out).sum()
            cross[a] += cut
            cross[b] += cut
    nodes = np.asarray(sizes, dtype=float)
    density = edges / (nodes * (nodes - 1) / 2.0)
    return np.stack([nodes, edges, cross, density], axis=1)


def _standardize_columns(features: np.ndarray) -> np.ndarray:
    centered = features - features.mean(axis=0)
    norms = np.linalg.norm(centered, axis=0)
    if np.any(norms < 1e-12):
        raise ValidationError(
            "feature standardization undefined: a feature is constant across clusters"
        )
    return centered / norms


def gen_graph_population(config: GraphPopConfig, streams: RngStreams) -> PopulationDataset:
    features = _planted_partition_features(config, streams.generator("graph"))
    x = _standardize_columns(features)
    cluster_effect = x @ np.asarray(config.beta, dtype=float)
    sizes = np.asarray(config.community_sizes, dtype=np.int64)
    n = int(sizes.sum())
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    w = standard_normal(streams.generator("noise"), n) * config.v
    y0_cont = cluster_effect[cluster] + w
    y1_cont = y0_cont + config.tau
    lo, hi = np.percentile(y0_cont, [0.5, 99.5])
    if not hi > lo:
        raise ValidationError("degenerate outcome range; cannot bin")
    width = (hi - lo) / config.k
    mids = lo + width * (np.arange(config.k) + 0.5)

    def bin_idx(y):
        return np.clip(np.floor((y - lo) / width), 0, config.k - 1).astype(np.int64)

    return PopulationDataset(
        space=OutcomeSpace(tuple(float(m) for m in mids)),
        unit_ids=tuple(f"u{i:06d}" for i in range(n)),
        cluster=cluster,
        y0=bin_idx(y0_cont),
        y1=bin_idx(y1_cont),
        cluster_labels=tuple(range(len(sizes))),
    )


# ---------------------------------------------------------------------------
# CSV files, read and written by column. Population files: unit_id,cluster,y0,y1
# (header required); release files are written and read in mechanisms.
# ---------------------------------------------------------------------------

POPULATION_HEADER = ["unit_id", "cluster", "y0", "y1"]


def read_columns(path, header: list[str]) -> list[list[str]]:
    """The columns of a CSV file under ``header``; rows of the wrong length are named by line.

    Rows are moved into the columns a block at a time, so only one block of
    row lists is alive at once.
    """
    width = len(header)
    columns: list[list[str]] = [[] for _ in header]
    misfits = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise ValidationError(f"expected header {','.join(header)!r}, got {first!r}")
        line = 2  # of the block's first row
        while block := list(islice(reader, 4096)):
            misfits += [f"line {i}: expected {width} fields"
                        for i, row in enumerate(block, start=line) if len(row) != width]
            line += len(block)
            if not misfits:
                for column, values in zip(columns, zip(*block)):
                    column.extend(values)
    if misfits:
        raise ValidationError("; ".join(misfits))
    return columns


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def float_column(column) -> np.ndarray:
    """Each field through Python ``float``; NaN where ``float`` rejects it."""
    try:
        return np.fromiter(map(float, column), float, len(column))
    except ValueError:
        return np.array([float(t) if _is_number(t) else math.nan for t in column])


def format_value(v: float) -> str:
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _read_population(path):
    """(unit ids, cluster labels, y0, y1) of a population file; errors carry line numbers."""
    unit_ids, labels, y0_text, y1_text = read_columns(path, POPULATION_HEADER)
    y0, y1 = float_column(y0_text), float_column(y1_text)
    malformed = [
        f"line {i + 2}: malformed outcome value"
        for i in np.flatnonzero(np.isnan(y0) | np.isnan(y1))
        if not (_is_number(y0_text[i]) and _is_number(y1_text[i]))
    ]
    if malformed:
        raise ValidationError("; ".join(malformed))
    return unit_ids, labels, y0, y1


def infer_space(path) -> OutcomeSpace:
    """The sorted distinct y0 and y1 values of a population file (of 0.0 and -0.0, the first)."""
    values = np.column_stack(_read_population(path)[2:]).ravel()
    return OutcomeSpace(tuple(values[np.unique(values, return_index=True)[1]].tolist()))


def ingest_csv(path, space: OutcomeSpace) -> PopulationDataset:
    """Load and validate a population file; errors carry 1-based line numbers."""
    return PopulationDataset.from_columns(*_read_population(path), space)


def write_population_csv(pop: PopulationDataset, path) -> None:
    text = np.array([format_value(v) for v in pop.space.values], dtype=object)
    labels = np.array([str(lab) for lab in pop.cluster_labels], dtype=object)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(POPULATION_HEADER)
        columns = (labels[pop.cluster], text[pop.y0], text[pop.y1])
        writer.writerows(zip(pop.unit_ids, *(c.tolist() for c in columns)))


def subsample(
    pop: PopulationDataset, counts, rng: np.random.Generator
) -> PopulationDataset:
    """Uniform without-replacement per-cluster subsample, deterministic per seed."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (pop.n_clusters,):
        raise ValidationError("need one count per cluster")
    if np.any(counts > pop.cluster_sizes):
        raise ValidationError("subsample count exceeds cluster size")
    if np.any(counts < 2):
        raise ValidationError("subsample counts must be >= 2")
    keep = []
    for c, members in enumerate(pop.members):
        picked = rng.permutation(len(members))[: counts[c]]
        keep.append(members[np.sort(picked)])
    keep = np.concatenate(keep)
    return PopulationDataset(
        space=pop.space,
        unit_ids=tuple(pop.unit_ids[i] for i in keep),
        cluster=pop.cluster[keep],
        y0=pop.y0[keep],
        y1=pop.y1[keep],
        cluster_labels=pop.cluster_labels,
    )
