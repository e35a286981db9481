"""Outcome indices in the narrowest unsigned type, at the edges of that type.

Populations and releases keep outcome indices in ``index_type(K)``: uint8 up to
K = 256 and uint16 from K = 257. Each result that reads them is checked against the
same computation on int64 columns, at K = 2, 256 and 257.
"""

import dataclasses
import math

import numpy as np
import pytest

from clusterdp.estimation import debias_rows, per_cluster_contributions, tau_q
from clusterdp.mechanisms import (
    cluster_dp, fit_priors, read_release, resample_outcomes, write_release,
)
from clusterdp.model import (
    MechanismKind, MechanismParams, OutcomeSpace, PopulationDataset, SerialIds,
    ValidationError, draw_design, index_type,
)
from clusterdp.rng import RngStreams
from clusterdp.simdata import format_value, subsample

SIZES = (40, 300, 7, 250)


class Case:
    """A population over K values and its int64 columns, with 0 and K - 1 in both."""

    def __init__(self, k):
        rng = np.random.default_rng(k)
        n = sum(SIZES)
        self.k = k
        self.cluster = np.repeat(np.arange(len(SIZES)), SIZES)
        self.y0, self.y1 = rng.integers(0, k, n), rng.integers(0, k, n)
        self.y0[:2], self.y1[:2] = [0, k - 1], [k - 1, 0]
        self.pop = PopulationDataset(OutcomeSpace(tuple(range(k))), SerialIds(np.arange(n)),
                                     self.cluster, self.y0, self.y1, tuple(range(len(SIZES))))
        self.streams = RngStreams(k)
        self.design = draw_design(self.pop, 0.5, self.streams.generator("assignment"))
        self.params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.2 / k,
                                      sigma=1.0, lam=0.7)


@pytest.fixture(params=[2, 256, 257], ids=lambda k: f"K{k}")
def case(request):
    return Case(request.param)


def test_columns_take_the_narrowest_type(case):
    pop = case.pop
    assert index_type(case.k) == (np.uint8 if case.k <= 256 else np.uint16)
    assert pop.y0.dtype == pop.y1.dtype == index_type(case.k)
    assert pop.cluster.dtype == np.int64
    assert np.array_equal(pop.y0, case.y0) and np.array_equal(pop.y1, case.y1)


def test_observed_wraps_back(case):
    # y1 - y0 wraps below zero wherever y1 < y0; the addition of y0 undoes the wrap
    z = case.design.z
    assert np.any((case.y1 < case.y0) & (z == 1))
    got = case.pop.observed(case.design)
    assert got.dtype == index_type(case.k)
    assert np.array_equal(got, np.where(z == 1, case.y1, case.y0))


def _int64_release(case):
    """The outcomes, prior and estimate of ``cluster_dp`` and ``tau_q``, from int64
    observed outcomes through the public kernels."""
    observed = np.where(case.design.z == 1, case.y1, case.y0)
    q = fit_priors(case.pop, case.design, case.params, case.streams.generator("laplace"),
                   observed).q
    y_tilde = resample_outcomes(observed, case.cluster, case.design.z, q, case.params.lam,
                                case.streams.generator("resample"))
    rows = debias_rows(case.pop.space.array, q, case.params.lam)
    tau = float(per_cluster_contributions(y_tilde, case.cluster, case.design, rows).sum())
    return y_tilde, q, tau


def test_release_and_estimate_bits(case):
    release = cluster_dp(case.pop, case.design, case.params, case.streams)
    y_tilde, q, tau = _int64_release(case)
    assert y_tilde.dtype == np.int64 and release.y_tilde.dtype == index_type(case.k)
    assert np.array_equal(release.y_tilde, y_tilde)
    assert release.q_tilde.tobytes() == q.tobytes()
    assert tau_q(release) == tau
    if case.k == 257:
        assert release.y_tilde.max() == 256  # an index past one byte


def test_release_files_round_trip(case, tmp_path):
    release = cluster_dp(case.pop, case.design, case.params, case.streams)
    y_tilde = _int64_release(case)[0]
    first, second = tmp_path / "a", tmp_path / "b"
    write_release(release, first.with_suffix(".csv"), first.with_suffix(".json"))
    lines = first.with_suffix(".csv").read_text().splitlines()[1:]
    text = [format_value(v) for v in case.pop.space.values]
    assert [line.rsplit(",", 1)[1] for line in lines] == [text[y] for y in y_tilde]
    back = read_release(first.with_suffix(".csv"), first.with_suffix(".json"))
    assert back.y_tilde.dtype == index_type(case.k) and np.array_equal(back.y_tilde, y_tilde)
    write_release(back, second.with_suffix(".csv"), second.with_suffix(".json"))
    for suffix in (".csv", ".json"):
        assert first.with_suffix(suffix).read_bytes() == second.with_suffix(suffix).read_bytes()


def test_pooled_subsample_and_types(case):
    pop, index = case.pop, index_type(case.k)
    pooled = pop.pooled()
    assert pooled.y0.dtype == pooled.y1.dtype == index
    assert np.array_equal(pooled.y0, case.y0) and np.array_equal(pooled.y1, case.y1)
    sub, keep = subsample(pop, [2, 30, 7, 25], case.streams.generator("sample"))
    assert sub.y0.dtype == sub.y1.dtype == index
    assert np.array_equal(sub.y0, case.y0[keep]) and np.array_equal(sub.y1, case.y1[keep])
    k = case.k
    cell, count = np.unique((case.cluster * k + case.y0) * k + case.y1, return_counts=True)
    want = (*np.unravel_index(cell, (len(SIZES), k, k)), count)
    for got, expected in zip(pop.types, want, strict=True):
        assert got.dtype == np.int64 and np.array_equal(got, expected)


class TestReleaseValidation:
    """The constructor checks each column alone; a release of K = 3 and 4 clusters."""

    @pytest.fixture
    def release(self):
        case = Case(3)
        return cluster_dp(case.pop, case.design, case.params, case.streams)

    @pytest.mark.parametrize("field, values", [
        ("y_tilde", [0.5, 1.2, 2.9, 0.0]), ("y_tilde", [0.0, math.nan, 1.0, 2.0]),
        ("cluster", [0.0, 0.5, 1.0, 3.0]),
    ])
    def test_rejects_values_that_a_cast_would_change(self, release, field, values):
        # truncation would store y_tilde [0, 1, 2, 0]
        with pytest.raises(ValidationError, match="must be whole numbers"):
            dataclasses.replace(release, **{field: np.array(values)})

    @pytest.mark.parametrize("values", [
        np.array([0, 3]), np.array([0, -1], dtype=np.int8), np.array([2**64 - 1], dtype=np.uint64),
    ])
    def test_rejects_indices_outside_the_space(self, release, values):
        with pytest.raises(ValidationError, match="outcome indices must be whole numbers in 0..2"):
            dataclasses.replace(release, y_tilde=values)

    def test_rejects_a_cluster_outside_the_labels(self, release):
        cluster = release.cluster.copy()
        cluster[0] = len(release.cluster_labels)
        with pytest.raises(ValidationError, match="cluster ids must be whole numbers in 0..3"):
            dataclasses.replace(release, cluster=cluster)
