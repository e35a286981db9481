"""Core domain types: outcome spaces, populations, designs, parameters, and releases.

Outcomes are stored internally as integer indices into an :class:`OutcomeSpace`;
membership checks are exact index lookups, never floating comparisons. Cluster
ids are dense integers ``0..C-1`` after ingestion, with the original labels
preserved for serialization. All types are immutable after construction.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "ValidationError",
    "OutcomeSpace",
    "SerialIds",
    "PopulationDataset",
    "Design",
    "arm_cells",
    "MechanismKind",
    "MechanismParams",
    "ProjectedPrior",
    "PrivatizedRelease",
    "draw_design",
]

MIN_CLUSTER_SIZE = 2
# Units per block of a per-unit pass over a large population: a block's temporaries stay
# in cache, and the pass holds no array of n entries besides its input and output.
UNIT_BLOCK = 1 << 13


class ValidationError(ValueError):
    """Malformed population, design, or parameters (CLI exit code 2)."""


def finite_number(name: str, x) -> float:
    """A finite JSON number; strings, booleans, NaN, infinities and integers past the float
    range are rejected, naming ``name`` and echoing the value in at most 40 characters."""
    try:
        if not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x):
            return float(x)
    except OverflowError:  # an integer that no float holds
        pass
    text = repr(x)  # cut, since a JSON integer may run to hundreds of digits
    text = f"{text[:20]}...{text[-17:]}" if len(text) > 40 else text
    raise ValidationError(f"{name} must be a finite number, got {text}")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def index_type(k: int) -> np.dtype:
    """The narrowest unsigned type that holds every outcome index 0..k - 1: one byte a
    unit for k <= 256."""
    return np.min_scalar_type(k - 1)


def _index_array(values, high: int, dtype, what: str) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array of whole numbers in 0..high - 1, else a
    ``ValidationError`` that names them as ``what``.

    The range is checked on the values as given, before the cast, and exactly for every
    integer type; a float that the cast would change (0.5, NaN) is refused, not truncated.
    """
    raw = np.asarray(values)
    kind = raw.dtype.kind
    ok = kind in "biuf"
    if ok and raw.size:
        if kind == "f":
            ok = raw.min() >= 0 and raw.max() < high  # NaN fails this too
        elif kind == "i" and high > 1 << (8 * raw.itemsize - 1):
            # an int8 -1 reads as 255 in the unsigned view, an index at K = 256
            ok = int(raw.min()) >= 0 and int(raw.max()) < high
        else:  # one pass: a negative entry reads as 2**(bits - 1) or more unsigned
            ok = int(raw.view(f"u{raw.itemsize}").max()) < high
    arr = _frozen_array(raw, dtype) if ok else None
    if not ok or (kind == "f" and not np.array_equal(arr, raw)):
        raise ValidationError(f"{what} must be whole numbers in 0..{high - 1}")
    return arr


@dataclass(frozen=True)
class OutcomeSpace:
    """Finite response space: K >= 2 strictly increasing real values.

    The fixed ordering of ``values`` defines every vector and matrix index
    used elsewhere (histograms, randomization matrices, debiasing rows).
    The scalars ``max_abs`` (the sup norm, B in the variance bounds), ``l2_sq``,
    ``mean`` and ``mean_sq`` of the values are fixed at construction; one past
    the float range is inf, which the variance formulas that read it report.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise ValidationError("outcome space needs at least 2 distinct values")
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"outcome values must be finite, got {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("outcome values must be strictly increasing")
        arr = _frozen_array(vals, float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "max_abs", float(np.max(np.abs(arr))))
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "l2_sq", float(np.dot(arr, arr)))
            object.__setattr__(self, "mean", float(arr.mean()))
            object.__setattr__(self, "mean_sq", float((arr**2).mean()))

    @property
    def k(self) -> int:
        return len(self.values)

    @property
    def array(self) -> np.ndarray:
        return self._array

    def lookup(self, values) -> tuple[np.ndarray, np.ndarray]:
        """Index of each value, and whether the space holds it exactly (NaN never)."""
        values = np.asarray(values, dtype=float)
        idx = np.minimum(np.searchsorted(self._array, values), self.k - 1)
        return idx, self._array[idx] == values


class SerialIds(Sequence):
    """Unit ids ``u%06d`` of generated units, kept as a read-only int64 array.

    An int index gives the id's text; a slice or an index array gives the
    ``SerialIds`` of the selected units, so subsetting formats nothing.
    Iteration formats one id at a time. Equal to any sequence of the same
    strings, on either side of ``==``.
    """

    __slots__ = ("serials",)

    def __init__(self, serials):
        self.serials = _frozen_array(serials, np.int64)

    def __len__(self) -> int:
        return len(self.serials)

    def __getitem__(self, index):
        if isinstance(index, numbers.Integral):
            return f"u{self.serials[index]:06d}"
        return SerialIds(self.serials[index])

    def __iter__(self):
        return map("u{:06d}".format, self.serials.tolist())

    def __eq__(self, other):
        if isinstance(other, SerialIds):
            return np.array_equal(self.serials, other.serials)
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"SerialIds({self.serials!r})"


@dataclass(frozen=True, eq=False)
class PopulationDataset:
    """Units with both potential outcomes and a dense cluster id per unit.

    ``y0``/``y1`` hold indices into ``space`` in ``index_type(K)``, one byte a unit for
    K <= 256; the int64 ``cluster`` holds dense ids. Each column must hold whole numbers
    in range: a value that the cast would change is refused, not truncated.
    ``cluster_labels[c]`` is the original label of dense cluster ``c``. ``members[c]``
    holds the indices of cluster ``c``'s units in ascending order; it is the one
    grouping of units by cluster, so per-cluster work never rescans all units.
    ``types`` lists the nonzero cells of the (C, K, K) table of unit counts per
    (cluster, y0 index, y1 index), the table that every closed-form variance reads.
    """

    space: OutcomeSpace
    unit_ids: Sequence[str]
    cluster: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    cluster_labels: tuple

    def __post_init__(self):
        n, k, c = len(self.unit_ids), self.space.k, len(self.cluster_labels)
        if n == 0:
            raise ValidationError("population is empty")
        index = index_type(k)
        for name, what, high, dtype in (("cluster", "cluster ids", c, np.int64),
                                        ("y0", "y0 indices", k, index),
                                        ("y1", "y1 indices", k, index)):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValidationError(f"{name} must have one entry per unit")
            object.__setattr__(self, name, _index_array(arr, high, dtype, what))
        sizes = np.bincount(self.cluster, minlength=c)
        object.__setattr__(self, "cluster_sizes", _frozen_array(sizes, np.int64))
        order = _frozen_array(np.argsort(self.cluster, kind="stable"), np.int64)
        ends = np.cumsum(sizes).tolist()
        members = tuple(order[a:b] for a, b in zip([0, *ends], ends))  # read-only views
        object.__setattr__(self, "members", members)

    @classmethod
    def from_columns(cls, unit_ids, labels, y0, y1, space: OutcomeSpace) -> "PopulationDataset":
        """A population from one id, cluster label and pair of outcome values per unit.

        Every fault is named, grouped by kind: duplicate ids, then y0 and y1
        values outside ``space``, then clusters below the minimum size.
        Dense cluster ids follow the labels sorted as strings.
        """
        unit_ids = tuple(unit_ids)
        n = len(unit_ids)
        if not len(labels) == len(y0) == len(y1) == n:
            raise ValidationError("need one cluster label and two outcomes per unit")
        problems = []
        if len(set(unit_ids)) < n:
            seen: set = set()  # every repeat, in row order
            problems += [f"duplicate unit id {u!r}" for u in unit_ids if u in seen or seen.add(u)]
        indices = []
        for name, values in (("y0", y0), ("y1", y1)):
            values = np.asarray(values, dtype=float)
            idx, found = space.lookup(values)
            problems += [
                f"unit {unit_ids[i]!r}: {name}={float(values[i])!r} outside space"
                for i in np.flatnonzero(~found)
            ]
            indices.append(idx)
        cluster_labels = sorted(set(labels), key=str)
        dense = {label: c for c, label in enumerate(cluster_labels)}
        cluster = np.fromiter(map(dense.__getitem__, labels), np.int64, n)
        sizes = np.bincount(cluster, minlength=len(cluster_labels))
        problems += [
            f"cluster {cluster_labels[c]!r} below minimum size {MIN_CLUSTER_SIZE}"
            for c in np.flatnonzero(sizes < MIN_CLUSTER_SIZE)
        ]
        if problems:
            raise ValidationError("; ".join(problems))
        return cls(
            space=space,
            unit_ids=unit_ids,
            cluster=cluster,
            y0=indices[0],
            y1=indices[1],
            cluster_labels=tuple(cluster_labels),
        )

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_labels)

    def pooled(self) -> "PopulationDataset":
        """The same units as one stratum, in their original order (complete randomization)."""
        one = np.zeros(self.n, dtype=np.int64)
        return PopulationDataset(self.space, self.unit_ids, one, self.y0, self.y1, ("pooled",))

    @cached_property
    def types(self) -> tuple[np.ndarray, ...]:
        """Read-only int64 ``(cluster, y0, y1, count)``: the nonzero cells, at most n,
        in ascending (cluster, y0, y1) order. One sort of the units, kept once read."""
        k = self.space.k
        cell, count = np.unique((self.cluster * k + self.y0) * k + self.y1, return_counts=True)
        coords = np.unravel_index(cell, (self.n_clusters, k, k))
        return tuple(_frozen_array(a, np.int64) for a in (*coords, count))

    @property
    def ate(self) -> float:
        """Finite-sample average treatment effect over the full population.

        The effects vals[y1] - vals[y0] are written into one float array a block of
        units at a time: the same subtractions, then one mean."""
        vals, effect = self.space.array, np.empty(self.n)
        for part in unit_blocks(self.n):
            np.subtract(vals.take(self.y1[part]), vals.take(self.y0[part]), out=effect[part])
        return float(np.mean(effect))

    def observed(self, design: "Design") -> np.ndarray:
        """Observed outcome indices under a realized assignment, in the index type of y0.

        They are y0 + z (y1 - y0), built in place and read through z's uint8 view: the
        subtraction may wrap around, and the addition undoes the wrap, so the result
        is y1 where z = 1 and y0 where z = 0 (``Design`` holds only 0/1 entries)."""
        y = self.y1 - self.y0
        y *= design.z.view(np.uint8)
        y += self.y0
        return y


@dataclass(frozen=True, eq=False)
class Design:
    """Realized treatment assignment plus the fixed per-cluster arm counts."""

    z: np.ndarray
    n1c: np.ndarray
    n0c: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.z)
        z = _frozen_array(raw, np.int8)
        # one pass over the int8 entries: a negative one reads as >= 128 in the uint8 view;
        # an entry that a cast lost (256, 0.5) differs from its int8 value
        if z.size and (z.view(np.uint8).max() > 1 or (z is not raw and not np.array_equal(raw, z))):
            raise ValidationError("assignment must be one 0/1 entry per unit")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "n1c", _frozen_array(self.n1c, np.int64))
        object.__setattr__(self, "n0c", _frozen_array(self.n0c, np.int64))
        # .min() is one pass per array; the size guards keep a zero-cluster design valid
        if (self.n1c.size and self.n1c.min() < 1) or (self.n0c.size and self.n0c.min() < 1):
            raise ValidationError("every cluster needs at least one unit per arm")

    @classmethod
    def from_assignment(cls, cluster, z, n_clusters: int) -> "Design":
        """The design of a realized 0/1 assignment of units with dense cluster ids."""
        cluster, z = np.asarray(cluster), np.asarray(z)
        if z.shape != cluster.shape:
            raise ValidationError("assignment must be one 0/1 entry per unit")
        n1c = np.bincount(cluster[z == 1], minlength=n_clusters)
        n0c = np.bincount(cluster[z == 0], minlength=n_clusters)
        return cls(z=z, n1c=n1c, n0c=n0c)

    @property
    def n1(self) -> int:
        return int(self.n1c.sum())

    @property
    def n0(self) -> int:
        return int(self.n0c.sum())

    def arm_counts(self) -> np.ndarray:
        """(C, 2) array with column 0 = control counts, column 1 = treated counts."""
        counts = np.empty((len(self.n0c), 2), dtype=np.int64)
        counts[:, 0], counts[:, 1] = self.n0c, self.n1c
        return counts


def unit_blocks(n: int, block: int = UNIT_BLOCK) -> list[slice]:
    """Slices of ``block`` consecutive units that cover 0..n - 1 in order, the last one
    shorter."""
    return [slice(start, start + block) for start in range(0, n, block)]


def arm_cells(cluster, z, y=None, k: int = 0, index=None) -> np.ndarray:
    """Each unit's row ``cluster * 2 + z`` of a (C, 2, ...) table, or with ``y`` its cell
    ``(cluster * 2 + z) * k + y`` of a flattened (C, 2, K) table.

    The index is built in place in the one array ``cluster * 2``: the same integer
    operations as the expression, with no temporary per operation. A caller that holds
    the row index already passes it as ``index`` with ``y``; the cell is then built in
    ``index * k``, and ``index`` is left as it was.
    """
    if index is not None:
        cell = index * k
    else:
        cell = cluster * 2
        cell += z
        if y is None:
            return cell
        cell *= k
    cell += y
    return cell


def resolve_treated_counts(pop: PopulationDataset, treated) -> np.ndarray:
    """Turn a scalar treated fraction or per-cluster counts into validated counts."""
    sizes = pop.cluster_sizes
    if np.isscalar(treated):
        if not 0.0 < float(treated) < 1.0:  # also keeps the integer cast in range
            raise ValidationError(f"treated fraction must lie in (0, 1), got {treated!r}")
        n1c = np.round(sizes * float(treated)).astype(np.int64)
    else:
        n1c = np.asarray(treated, dtype=np.int64)
        if n1c.shape != sizes.shape:
            raise ValidationError("need one treated count per cluster")
    if n1c.size and (n1c.min() < 1 or (sizes - n1c).min() < 1):
        raise ValidationError(
            "treated counts must leave at least one unit in each arm of every cluster"
        )
    return n1c


def draw_design(pop: PopulationDataset, treated, rng: np.random.Generator) -> Design:
    """Completely randomized assignment within each cluster, exact counts.

    ``treated`` is either a scalar treated fraction or per-cluster treated
    counts; counts of 0 or n_c are rejected (no estimator exists there).
    """
    n1c = resolve_treated_counts(pop, treated)
    z = np.zeros(pop.n, dtype=np.int8)
    for c, members in enumerate(pop.members):
        picked = rng.permutation(len(members))[: n1c[c]]
        z[members[picked]] = 1
    return Design(z=z, n1c=n1c, n0c=pop.cluster_sizes - n1c)


class MechanismKind(str, Enum):
    CLUSTER_DP = "cluster_dp"
    CLUSTER_FREE_DP = "cluster_free_dp"
    UNIFORM_PRIOR_DP = "uniform_prior_dp"


@dataclass(frozen=True)
class MechanismParams:
    """Knobs consumed by the mechanisms, the accountant, and the variance formulas.

    ``sigma`` is the Laplace scale of the prior step: 0 is the noiseless fit, and
    ``math.inf`` the infinite-noise limit, whose prior never reads the data
    (``mechanisms.prior_from_counts``). No field has a default.
    """

    kind: MechanismKind
    gamma: float
    sigma: float
    lam: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValidationError("gamma must lie in [0, 1/K] (at most 1)")
        if not self.sigma >= 0:  # NaN fails this too
            raise ValidationError("sigma must be >= 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError("lambda must lie in [0, 1]")

    @classmethod
    def uniform_prior(cls, k: int, lam: float = 0.0) -> "MechanismParams":
        """The uniform prior as Cluster-DP: q = 1/K, so gamma = 1/K and no prior noise."""
        return cls(kind=MechanismKind.UNIFORM_PRIOR_DP, gamma=1.0 / k, sigma=math.inf, lam=lam)

    def check_gamma(self, k: int) -> None:
        if self.gamma > 1.0 / k + 1e-12:
            raise ValidationError(f"gamma={self.gamma} exceeds 1/K with K={k}")


@dataclass(frozen=True, eq=False)
class ProjectedPrior:
    """Noise/clip/renormalize output: one probability vector per (cluster, arm).

    ``q[c, a]`` is the length-K resampling distribution for arm ``a`` of
    cluster ``c``; every entry is >= gamma and each vector sums to one.
    """

    q: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen_array(self.q, float))
        if self.q.ndim != 3 or self.q.shape[1] != 2:
            raise ValidationError("prior table must have shape (C, 2, K)")


@dataclass(frozen=True, eq=False)
class PrivatizedRelease:
    """Everything the central unit ships: per-unit privatized outcomes and the
    design they were assigned under, plus the per-(cluster, arm) priors q_tilde
    and the mechanism parameters that produced them.

    Third parties can estimate treatment effects from this object alone; no
    true outcomes are present. The debiasing rows are derived: see ``debias``.
    ``y_tilde`` holds indices into ``space`` in ``index_type(K)`` and ``cluster`` the
    int64 dense ids; like ``PopulationDataset``, both refuse a value outside their range
    or one that the cast would change.
    """

    space: OutcomeSpace
    unit_ids: Sequence[str]
    cluster: np.ndarray
    cluster_labels: tuple
    design: Design
    y_tilde: np.ndarray
    q_tilde: np.ndarray
    params: MechanismParams

    def __post_init__(self):
        k, c = self.space.k, len(self.cluster_labels)
        object.__setattr__(self, "cluster", _index_array(
            self.cluster, c, np.int64, "release cluster ids"))
        object.__setattr__(self, "y_tilde", _index_array(
            self.y_tilde, k, index_type(k), "release outcome indices"))
        object.__setattr__(self, "q_tilde", _frozen_array(self.q_tilde, float))

    @property
    def n(self) -> int:
        return len(self.unit_ids)

    @cached_property
    def debias(self) -> np.ndarray:
        """Read-only (C, 2, K) rows y^T Q^{-1} of q_tilde and lambda; raises at lambda = 1."""
        from .estimation import debias_rows  # estimation imports this module

        return _frozen_array(debias_rows(self.space.array, self.q_tilde, self.params.lam), float)
