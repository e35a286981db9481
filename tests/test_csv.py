"""Population and release files, written and read back by column.

The round trips check that every id, label and array survives the writers
and the one column reader. The parity corpus checks the column reader of
population files against the row-by-row record reader it replaced
(``oracles.read_records``): both accept and reject the same files and build
the same populations.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp.mechanisms import cluster_dp, read_release, write_release
from clusterdp.model import (
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    ValidationError,
    draw_design,
)
from clusterdp.rng import RngStreams
from clusterdp.simdata import infer_space, ingest_csv, write_population_csv

from oracles import read_records, records_population, records_space

# Labels that sort differently as strings and as numbers, and labels that need quoting.
LABELS = st.one_of(
    st.sampled_from(["c2", "c10", "1", "10", "2", "a,b", 'say "x"', '"', ",", " pad "]),
    st.text(alphabet='ab,"1 -', max_size=4),
)
OUTCOMES = st.one_of(
    st.sampled_from([-0.0, -1.5, 0.1, -3.0, 2.5, 1e-7, -1e6, 7.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


@st.composite
def populations(draw):
    values = draw(st.lists(OUTCOMES, min_size=2, max_size=6, unique_by=float))
    space = OutcomeSpace(tuple(sorted(values)))
    labels = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    sizes = draw(st.lists(st.integers(2, 5), min_size=len(labels), max_size=len(labels)))
    unit_labels = [lab for lab, size in zip(labels, sizes) for _ in range(size)]
    order = draw(st.permutations(range(len(unit_labels))))  # interleaves the clusters
    n = len(order)
    prefix = draw(st.sampled_from(["u", "u,", 'u"', ""]))
    y0 = draw(st.lists(st.sampled_from(space.values), min_size=n, max_size=n))
    y1 = draw(st.lists(st.sampled_from(space.values), min_size=n, max_size=n))
    return PopulationDataset.from_columns(
        [f"{prefix}{i}" for i in range(n)], [unit_labels[i] for i in order], y0, y1, space
    )


def assert_same_population(a, b):
    assert a.unit_ids == b.unit_ids
    assert a.cluster_labels == b.cluster_labels
    assert a.space.values == b.space.values
    for name in ("cluster", "y0", "y1"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestRoundTrip:
    @given(populations())
    @settings(max_examples=60, deadline=None)
    def test_population(self, pop):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pop.csv"
            write_population_csv(pop, path)
            assert_same_population(ingest_csv(path, pop.space), pop)
            present = tuple(np.union1d(pop.space.array[pop.y0], pop.space.array[pop.y1]).tolist())
            if len(present) < 2:
                with pytest.raises(ValidationError, match="at least 2"):
                    infer_space(path)
            else:
                assert infer_space(path).values == present

    @given(populations(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_release(self, pop, seed):
        streams = RngStreams(seed)
        design = draw_design(pop, 0.5, streams.generator("assignment"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.1 / pop.space.k,
                                 sigma=10.0, lam=0.5)
        release = cluster_dp(pop, design, params, streams)
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, sidecar = Path(tmp) / "r.csv", Path(tmp) / "r.json"
            write_release(release, csv_path, sidecar)
            back = read_release(csv_path, sidecar)
        assert back.unit_ids == release.unit_ids
        assert back.cluster_labels == release.cluster_labels
        assert back.space.values == release.space.values
        for name in ("cluster", "y_tilde", "debias", "q_tilde"):
            assert np.array_equal(getattr(back, name), getattr(release, name)), name
        for name in ("z", "n1c", "n0c"):
            assert np.array_equal(getattr(back.design, name), getattr(release.design, name)), name
        assert (back.kind, back.gamma, back.sigma, back.lam) == (
            release.kind, release.gamma, release.sigma, release.lam
        )


HEADER = "unit_id,cluster,y0,y1\n"
GOOD = ["a,c2,0,1", "b,c10,1,2", "c,c2,2,2", "d,c10,0,0"]
CORPUS = {
    "well_formed": HEADER + "\n".join(GOOD) + "\n",
    "short_row": HEADER + "\n".join(GOOD + ["e,c2,1"]) + "\n",
    "long_row": HEADER + "\n".join(GOOD + ["e,c2,1,1,1"]) + "\n",
    "bad_number": HEADER + "\n".join(GOOD + ["e,c2,1,x"]) + "\n",
    "underscore": HEADER + "\n".join(GOOD + ["e,c2,1_000,1"]) + "\n",
    "padded": HEADER + "\n".join(GOOD + ["e,c2, 2 ,1"]) + "\n",
    "nan": HEADER + "\n".join(GOOD + ["e,c2,nan,1"]) + "\n",
    "inf": HEADER + "\n".join(GOOD + ["e,c2,1,inf"]) + "\n",
    "duplicate_id": HEADER + "\n".join(GOOD + ["a,c2,1,1"]) + "\n",
    "singleton_cluster": HEADER + "\n".join(GOOD + ["e,c3,1,1"]) + "\n",
    "several_faults": HEADER + "\n".join(GOOD + ["a,c3,1,9", "e,c2,7,1"]) + "\n",
    "header_only": HEADER,
    "empty": "",
}
SPACES = {"given": OutcomeSpace((0.0, 1.0, 2.0, 1000.0)), "inferred": None}


def _outcome(read):
    try:
        return read()
    except ValidationError as exc:
        return exc


@pytest.mark.parametrize("space_from", sorted(SPACES))
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_column_reader_matches_record_reader(tmp_path, case, space_from):
    path = tmp_path / "pop.csv"
    path.write_text(CORPUS[case])
    space = SPACES[space_from]

    def columns():
        return ingest_csv(path, space or infer_space(path))

    def records():
        recs = read_records(path)
        return records_population(recs, space or records_space(recs))

    new, ref = _outcome(columns), _outcome(records)
    if isinstance(ref, ValidationError):
        assert isinstance(new, ValidationError), case
    else:
        assert isinstance(new, PopulationDataset), (case, new)
        assert_same_population(new, ref)


def test_corpus_holds_both_verdicts(tmp_path):
    """Parity on a corpus the reference accepts whole, or rejects whole, would show nothing."""
    verdicts = {}
    for case, text in CORPUS.items():
        path = tmp_path / f"{case}.csv"
        path.write_text(text)
        verdicts[case] = not isinstance(
            _outcome(lambda: records_population(read_records(path), SPACES["given"])),
            ValidationError,
        )
    assert verdicts["well_formed"] and verdicts["underscore"] and verdicts["padded"]
    assert not any(verdicts[c] for c in ("short_row", "nan", "inf", "duplicate_id", "empty"))


def test_several_faults_grouped_by_kind(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(CORPUS["several_faults"])
    with pytest.raises(ValidationError) as exc:
        ingest_csv(path, SPACES["given"])
    assert str(exc.value).split("; ") == [
        "duplicate unit id 'a'",
        "unit 'e': y0=7.0 outside space",
        "unit 'a': y1=9.0 outside space",
        "cluster 'c3' below minimum size 2",
    ]


def test_short_rows_named_before_bad_numbers(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(HEADER + "\n".join(GOOD + ["e,c2,x,1", "f,c2,1", "g,c2,1,1,1"]) + "\n")
    with pytest.raises(ValidationError) as exc:
        ingest_csv(path, SPACES["given"])
    assert str(exc.value) == "line 7: expected 4 fields; line 8: expected 4 fields"


def test_every_malformed_value_named_by_line(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text(HEADER + "\n".join(GOOD + ["e,c2,nan,1", "f,c2,1,x", "g,c2,y,z"]) + "\n")
    with pytest.raises(ValidationError) as exc:
        ingest_csv(path, SPACES["given"])
    # line 6's nan is a number to Python's float; only the space check rejects it
    assert str(exc.value) == "line 7: malformed outcome value; line 8: malformed outcome value"


def test_misfit_lines_numbered_across_blocks(tmp_path):
    """The reader moves rows into columns in blocks; line numbers must run on across them."""
    rows = [f"u{i},c{i % 7},0,1" for i in range(9000)]
    rows[1] = "u1,c1,0"
    rows[8500] = "u8500,c3,0,1,1"
    path = tmp_path / "pop.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n")
    with pytest.raises(ValidationError) as new:
        ingest_csv(path, SPACES["given"])
    with pytest.raises(ValidationError) as ref:
        read_records(path)
    assert str(new.value) == str(ref.value) == (
        "line 3: expected 4 fields; line 8502: expected 4 fields"
    )
