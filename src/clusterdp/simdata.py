"""Synthetic population generators, quantization, and CSV ingestion.

Two generators: a Gaussian mixture whose cluster dependence is a single knob
(variance is held fixed as the knob moves), and a planted-partition community
graph whose per-cluster structural features drive the outcomes. Both emit
integer-grid or binned outcome spaces suitable for the randomized-response
mechanisms.
"""

from __future__ import annotations

import codecs
import csv
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .model import (
    OutcomeSpace, PopulationDataset, SerialIds, ValidationError, index_type, unit_blocks,
)
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
        if not 0.0 <= self.beta <= self.v < math.inf:
            raise ValidationError("need 0 <= beta <= v < inf")
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
    The rounding runs in place in one float array; y / delta has the sign of y,
    since delta > 0, so the rounded magnitude takes its sign from y.
    """
    if v <= 0:
        raise ValidationError("v must be > 0")
    y = np.asarray(y_prime, dtype=float)
    edge = 2.0 * math.sqrt(v)
    rounded = np.array(y)
    rounded /= edge / k_prime
    np.abs(rounded, out=rounded)
    rounded += 0.5
    np.floor(rounded, out=rounded)
    np.copysign(rounded, y, out=rounded)
    np.copyto(rounded, k_prime, where=y > edge)
    np.copyto(rounded, -k_prime, where=y < -edge)
    out = rounded.astype(np.int64)
    return out if out.ndim else int(out)


def gen_gmm(config: GmmConfig, streams: RngStreams) -> PopulationDataset:
    """Draw a mixture population; control outcomes quantized, treated = control + tau.

    y' is built in place in the noise draws: each is scaled, then its cluster's scaled
    mean is added a block of units at a time. Addition commutes in IEEE arithmetic, so
    these are the bits of sqrt(beta) mu_c + sqrt(v - beta) w_i.
    """
    sizes = np.asarray(config.cluster_sizes, dtype=np.int64)
    n = int(sizes.sum())
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    centers = math.sqrt(config.beta) * standard_normal(streams.generator("mu"), len(sizes))
    y_prime = standard_normal(streams.generator("noise"), n)
    y_prime *= math.sqrt(config.v - config.beta)
    for part in unit_blocks(n):
        y_prime[part] += centers.take(cluster[part])
    level = quantize(y_prime, config.v, config.k_prime)
    del y_prime
    level += config.k_prime
    space = config.space()
    y0 = level.astype(index_type(space.k))
    del level
    return PopulationDataset(
        space=space,
        unit_ids=SerialIds(np.arange(n)),
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
        if not all(map(math.isfinite, (*self.beta, self.v, self.tau))):
            raise ValidationError("beta, v and tau must be finite")
        if not (0.0 <= self.p_in <= 1.0 and 0.0 <= self.p_out <= 1.0):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        if self.k < 2:
            raise ValidationError("k must be >= 2")


def _planted_partition_features(config: GraphPopConfig, rng) -> np.ndarray:
    """Per-community (nodes, edges, cross-edges, density); a block's edges are one binomial draw."""
    sizes = config.community_sizes
    c = len(sizes)
    edges = np.zeros(c)
    cross = np.zeros(c)
    for a in range(c):
        na = sizes[a]
        edges[a] = rng.binomial(na * (na - 1) // 2, config.p_in)
        for b in range(a + 1, c):
            cut = rng.binomial(na * sizes[b], config.p_out)
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
        return np.clip(np.floor((y - lo) / width), 0, config.k - 1).astype(index_type(config.k))

    return PopulationDataset(
        space=OutcomeSpace(tuple(float(m) for m in mids)),
        unit_ids=SerialIds(np.arange(n)),
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
_BLOCK_CHARS = 1 << 16
_ROW_BLOCK = 1 << 13  # rows joined per write


def read_columns(path, header: list[str]) -> list[list[str]]:
    """The columns of a CSV file under ``header``; rows of the wrong length are named by line.

    A well-formed file with no ``"`` and no ``\\r`` is split a block of text at
    a time (``_plain_columns``). Every other file goes through ``csv.reader``
    from its start (``_csv_columns``), which names each row fault. Text that
    does not decode, and a field longer than ``csv.field_size_limit()``, are
    named by file and line.
    """
    try:
        columns = _plain_columns(path, header)
        return _csv_columns(path, header) if columns is None else columns
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path, exc.encoding)
        raise ValidationError(
            f"{path}, line {line}: not {exc.encoding} text ({exc.reason})") from None


def _plain_columns(path, header: list[str]) -> list[list[str]] | None:
    """Columns of a file split at commas and line breaks, or None if it needs ``csv.reader``."""
    width = len(header)
    columns: list[list[str]] = [[] for _ in header]
    for fields in _plain_blocks(path, header):
        if fields is None:
            return None
        for j, column in enumerate(columns):
            column.extend(fields[j::width + 1])
    return columns


def _plain_blocks(path, header: list[str]):
    """The fields of each block of a file split at commas and line breaks; None (and no
    more) at the first block that needs ``csv.reader``.

    Each block is about 64 KB of text cut at a line break. Each line break
    becomes a field of its own, so a block whose rows all hold ``width``
    fields splits into rows of ``width`` fields and a ``"\\n"``: field j of
    every row is ``fields[j::width + 1]``, and no list or string per row is
    built. A file with another header, or a block with a ``"``, a ``\\r``,
    a row of another width or more characters than the field limit (no
    shorter block holds a field over it) gives None: ``csv.reader`` reads the
    file, or names its fault.
    """
    width, limit = len(header), csv.field_size_limit()
    with open(path, newline="") as fh:
        if (fh.readline().removesuffix("\n") != ",".join(header)
                or max(map(len, header)) > limit):  # csv.reader names such a header field
            yield None
            return
        while block := fh.read(_BLOCK_CHARS):
            block = (block + fh.readline()).removesuffix("\n")
            rows = block.count("\n") + 1
            fields = block.replace("\n", ",\n,").split(",")
            if ('"' in block or "\r" in block or len(block) > limit
                    or len(fields) != rows * (width + 1) - 1
                    or fields[width::width + 1].count("\n") != rows - 1):
                yield None
                return
            yield fields


def _csv_columns(path, header: list[str]) -> list[list[str]]:
    """Columns through ``csv.reader``, which reads quoted fields and CR line ends.

    Rows are moved into the columns a block at a time, so only one block of
    row lists is alive at once.
    """
    width = len(header)
    columns: list[list[str]] = [[] for _ in header]
    misfits = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
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
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    if misfits:
        raise ValidationError("; ".join(misfits))
    return columns


def _undecodable_line(path, encoding: str) -> int:
    """The line of the first byte of ``path`` that ``encoding`` cannot decode."""
    decoder = codecs.getincrementaldecoder(encoding)()
    line = 1
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_BLOCK_CHARS)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:  # exc.object is the decoder's held bytes + chunk
                return line + exc.object.count(b"\n", 0, exc.start)
            if not chunk:
                return line
            line += chunk.count(b"\n")


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
    """The sorted distinct y0 and y1 values of a population file (of 0.0 and -0.0, the first).

    A plain file (``_plain_blocks``) is scanned for its distinct outcome texts,
    and only those go through ``float``. Any other file, a text that is not a
    finite number, and a file that holds both 0.0 and -0.0 (the first one read
    wins) are read whole by ``_read_population``, which names each fault.
    """
    try:
        values = _scanned_outcomes(path)
    except UnicodeDecodeError:
        values = None
    if values is None:
        values = np.column_stack(_read_population(path)[2:]).ravel()
        values = values[np.unique(values, return_index=True)[1]].tolist()
    return OutcomeSpace(tuple(values))


def _scanned_outcomes(path) -> list[float] | None:
    """The sorted distinct outcome values of a plain file of finite numbers, else None."""
    texts, stride = set(), len(POPULATION_HEADER) + 1
    for fields in _plain_blocks(path, POPULATION_HEADER):
        if fields is None:
            return None
        texts.update(fields[2::stride], fields[3::stride])
    try:
        values = list(map(float, texts))
    except ValueError:
        return None
    zero_signs = {math.copysign(1.0, v) for v in values if v == 0.0}
    if not all(map(math.isfinite, values)) or len(zero_signs) == 2:
        return None
    return sorted(set(values))


def ingest_csv(path, space: OutcomeSpace) -> PopulationDataset:
    """Load and validate a population file; errors carry 1-based line numbers."""
    return PopulationDataset.from_columns(*_read_population(path), space)


def write_population_csv(pop: PopulationDataset, path) -> None:
    text = np.array([format_value(v) for v in pop.space.values], dtype=object)
    labels = np.array([str(lab) for lab in pop.cluster_labels], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(POPULATION_HEADER) + "\n")
        write_rows(fh, (pop.unit_ids, labels[pop.cluster], text[pop.y0], text[pop.y1]))


def write_rows(fh, columns) -> None:
    """Write two or more equal-length columns as CSV rows: the bytes that
    ``csv.writer(fh, lineterminator="\\n").writerows(zip(*columns))`` writes.

    Each block of ``_ROW_BLOCK`` rows is joined with ``","`` and ``"\\n"``. The
    joined text is kept when it holds rows * (width - 1) commas, ``rows`` line
    breaks, no ``"`` and no ``\\r``: then no field needed quoting (the plain
    split's rule, mirrored). Otherwise, and when a field is not a string, that
    block goes through ``csv.writer``. A column that is a NumPy array becomes a
    list a block at a time, so only one block of lists and text is alive at once.
    """
    width, writer = len(columns), csv.writer(fh, lineterminator="\n")
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = [column[start:start + _ROW_BLOCK] for column in columns]
        block = [part.tolist() if isinstance(part, np.ndarray) else part for part in block]
        rows = len(block[0])
        try:
            text = "\n".join(map(",".join, zip(*block))) + "\n"
        except TypeError:  # csv.writer formats what is not a string
            text = ""
        if (text.count(",") != rows * (width - 1) or text.count("\n") != rows
                or '"' in text or "\r" in text):
            writer.writerows(zip(*block))
        else:
            fh.write(text)


def subsample(
    pop: PopulationDataset, counts, rng: np.random.Generator
) -> tuple[PopulationDataset, np.ndarray]:
    """Uniform per-cluster subsample without replacement, and the index in ``pop`` of its units."""
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
    ids = pop.unit_ids
    return PopulationDataset(
        space=pop.space,
        unit_ids=ids[keep] if isinstance(ids, SerialIds) else tuple(ids[i] for i in keep),
        cluster=pop.cluster[keep],
        y0=pop.y0[keep],
        y1=pop.y1[keep],
        cluster_labels=pop.cluster_labels,
    ), keep
