"""Population and release files, written and read back by column.

The round trips check that every id, label and array survives the writers
and the one column reader. The parity corpus checks the column reader of
population files against the row-by-row record reader it replaced
(``oracles.read_records``): both accept and reject the same files and build
the same populations. Every corpus file has twins with a quoted field and
with CRLF line ends, which the reader sends through ``csv.reader``; on the
files without, its plain text split must give the columns ``csv.reader``
gives, or None where ``csv.reader`` names a fault.
The sidecar writer must match one ``json.dumps`` byte for byte, and neither
writer nor reader may use more memory than the implementations they replaced.
The row writer's join, the tables' ``%s`` template and ``infer_space``'s scan of
outcome texts must give the bytes, or the space and messages, of the forms they
replaced (``oracles.write_rows_csv``, ``write_table_json``, ``infer_space_full``).
"""

import csv
import gc
import io
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterdp import simdata
from clusterdp.mechanisms import (
    _TABLE_BLOCK, RELEASE_HEADER, _write_table, cluster_dp, read_release, write_release,
)
from clusterdp.model import (
    MechanismKind,
    MechanismParams,
    OutcomeSpace,
    PopulationDataset,
    SerialIds,
    ValidationError,
    draw_design,
)
from clusterdp.rng import RngStreams
from clusterdp.simdata import (
    _BLOCK_CHARS, _ROW_BLOCK, POPULATION_HEADER, GmmConfig, _csv_columns, _plain_columns,
    _scanned_outcomes, gen_gmm, infer_space, ingest_csv, read_columns, write_population_csv,
    write_rows,
)

from oracles import (
    infer_space_full, read_records, records_population, records_space, sidecar_text,
    write_rows_csv, write_table_json,
)

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
        assert (back.params.kind, back.params.gamma, back.params.sigma, back.params.lam) == (
            release.params.kind, release.params.gamma, release.params.sigma, release.params.lam
        )


class TestGeneratedIds:
    """Generated ids are integers; the writers print them as the ``u%06d`` text ids were printed."""

    @pytest.fixture
    def pop(self):
        return gen_gmm(GmmConfig(beta=1.0, v=5.0, k_prime=2, cluster_sizes=(6, 9)), RngStreams(5))

    @staticmethod
    def with_text_ids(data):
        return replace(data, unit_ids=tuple(f"u{i:06d}" for i in range(data.n)))

    def test_population_file(self, pop, tmp_path):
        serial, text = tmp_path / "serial.csv", tmp_path / "text.csv"
        write_population_csv(pop, serial)
        write_population_csv(self.with_text_ids(pop), text)
        assert serial.read_bytes() == text.read_bytes()
        assert serial.read_text().splitlines()[1].startswith("u000000,")
        back = ingest_csv(serial, pop.space)
        assert type(back.unit_ids) is tuple
        assert back.unit_ids == pop.unit_ids and pop.unit_ids == back.unit_ids
        for name in ("cluster", "y0", "y1"):
            assert np.array_equal(getattr(back, name), getattr(pop, name)), name

    def test_release_files(self, pop, tmp_path):
        streams = RngStreams(6)
        design = draw_design(pop, 0.5, streams.generator("assignment"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=10.0, lam=0.5)
        release = cluster_dp(pop, design, params, streams)
        assert release.unit_ids is pop.unit_ids
        paths = {}
        for name, data in (("serial", release), ("text", self.with_text_ids(release))):
            paths[name] = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            write_release(data, *paths[name])
        for serial, text in zip(paths["serial"], paths["text"]):
            assert serial.read_bytes() == text.read_bytes()
        back = read_release(*paths["serial"])
        assert type(back.unit_ids) is tuple
        assert back.unit_ids == release.unit_ids and release.unit_ids == back.unit_ids
        assert np.array_equal(back.y_tilde, release.y_tilde)


HEADER = "unit_id,cluster,y0,y1\n"
GOOD = ["a,c2,0,1", "b,c10,1,2", "c,c2,2,2", "d,c10,0,0"]
# Rows of 14 characters and a newline. The first block is one read of _BLOCK_CHARS
# characters after the header, completed to the end of its line by readline.
ROW_CHARS = 15
BLOCK_ROWS = _BLOCK_CHARS // ROW_CHARS + 1
WIDE = [f"u{i:06d},c{i % 7},0,1" for i in range(3 * BLOCK_ROWS)]
MISFIT_WIDE = list(WIDE)
MISFIT_WIDE[BLOCK_ROWS - 1] = f"u{BLOCK_ROWS - 1:06d},c0,001"  # 3 fields, last of block 1
MISFIT_WIDE[BLOCK_ROWS] = f"u{BLOCK_ROWS % 10**4:04d},c0,0,1,1"  # 5 fields, first of block 2
PLAIN_CORPUS = {
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
    "no_trailing_newline": HEADER + "\n".join(GOOD),
    "blank_middle_line": HEADER + "\n".join(GOOD[:2] + [""] + GOOD[2:]) + "\n",
    "trailing_blank_line": HEADER + "\n".join(GOOD) + "\n\n",
    "nul_in_id": HEADER + "\n".join(GOOD + ["e\0,c2,1,1"]) + "\n",
    "three_blocks": HEADER + "\n".join(WIDE) + "\n",
    "misfits_at_block_edge": HEADER + "\n".join(MISFIT_WIDE) + "\n",
}
# Twins that read the same through csv.reader but cannot be split as plain text.
TWINS = {"quoted": lambda text: text.replace("unit_id", '"unit_id"', 1),
         "crlf": lambda text: text.replace("\n", "\r\n")}
CORPUS = {
    **PLAIN_CORPUS,
    **{f"{case}~{twin}": make(text) for case, text in PLAIN_CORPUS.items()
       for twin, make in TWINS.items()},
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
    path.write_bytes(CORPUS[case].encode())
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
        path.write_bytes(text.encode())
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


def _columns_or_message(read):
    try:
        return read()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _assert_plain_split(path, header, exact=True) -> None:
    """The plain split gives None where csv.reader names a fault, else csv.reader's columns
    (or None too, unless ``exact``); read_columns gives csv.reader's columns or message."""
    plain = _plain_columns(path, header)
    reference = _columns_or_message(lambda: _csv_columns(path, header))
    if isinstance(reference, str):
        assert plain is None
    else:
        assert plain == reference or (not exact and plain is None)
    assert _columns_or_message(lambda: read_columns(path, header)) == reference


# Files the package writes; they must take the plain split. 5000 rows span two blocks.
WRITTEN = {"written_serial_ids": lambda pop: pop,
           "written_text_ids": TestGeneratedIds.with_text_ids}


@pytest.mark.parametrize("case", sorted(PLAIN_CORPUS) + sorted(WRITTEN))
def test_plain_split_matches_csv_reader(tmp_path, case):
    """On a file with no quote and no CR the plain split gives what csv.reader gives."""
    path = tmp_path / "pop.csv"
    if case in WRITTEN:
        config = GmmConfig(beta=1.0, v=5.0, k_prime=2, cluster_sizes=(2000, 3000))
        write_population_csv(WRITTEN[case](gen_gmm(config, RngStreams(7))), path)
        assert len(path.read_bytes()) > _BLOCK_CHARS
        assert _plain_columns(path, POPULATION_HEADER) is not None
    else:
        path.write_bytes(PLAIN_CORPUS[case].encode())
    _assert_plain_split(path, POPULATION_HEADER)


@given(st.text(alphabet="ab1,\n\0\x85 ", max_size=40), st.sampled_from([4, _BLOCK_CHARS]),
       st.sampled_from([3, 7, csv.field_size_limit()]))
@settings(max_examples=300, deadline=None)
def test_plain_split_matches_csv_reader_on_any_plain_text(body, block_chars, field_limit):
    """Also with blocks of a few characters, and with a field limit that short fields
    pass (7, the longest header field) or that a header field breaks (3). Under a short
    limit the plain split may leave a well-formed file to csv.reader."""
    default_limit = csv.field_size_limit(field_limit)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(simdata, "_BLOCK_CHARS", block_chars):
            path = Path(tmp) / "pop.csv"
            path.write_bytes((HEADER + body).encode())
            _assert_plain_split(path, POPULATION_HEADER, exact=field_limit == default_limit)
    finally:
        csv.field_size_limit(default_limit)


@pytest.mark.parametrize("twin", sorted(TWINS))
@pytest.mark.parametrize("case", sorted(PLAIN_CORPUS))
def test_twins_read_through_csv_reader(tmp_path, case, twin):
    plain, other = tmp_path / "plain.csv", tmp_path / "twin.csv"
    plain.write_bytes(PLAIN_CORPUS[case].encode())
    other.write_bytes(CORPUS[f"{case}~{twin}"].encode())
    assert _plain_columns(other, POPULATION_HEADER) is None
    assert (_columns_or_message(lambda: read_columns(other, POPULATION_HEADER))
            == _columns_or_message(lambda: read_columns(plain, POPULATION_HEADER)))


def test_misfits_named_on_both_sides_of_a_block_edge(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_bytes(PLAIN_CORPUS["misfits_at_block_edge"].encode())
    assert len(path.read_bytes()) > 2 * _BLOCK_CHARS
    assert _plain_columns(path, POPULATION_HEADER) is None
    with pytest.raises(ValidationError) as exc:
        read_columns(path, POPULATION_HEADER)
    assert str(exc.value) == (f"line {BLOCK_ROWS + 1}: expected 4 fields; "
                              f"line {BLOCK_ROWS + 2}: expected 4 fields")


@pytest.mark.parametrize("extra, fault", [(0, None), (1, "field larger than field limit"),
                                           (None, "not utf-8 text")])
def test_long_field_and_undecodable_byte_named_alike(tmp_path, extra, fault):
    """A field may be csv.field_size_limit() characters long; one more, or a byte that
    is not UTF-8, is named by file and line on the plain split and through csv.reader."""
    bad = b"\xff" if extra is None else b"x" * (csv.field_size_limit() - 1 + extra)
    lines = [line.encode() for line in [HEADER.strip(), *GOOD]]
    lines[3] = bad + lines[3]  # the unit id "c" on line 4
    path = tmp_path / "pop.csv"
    outcomes = []
    for header in (lines[0], lines[0].replace(b"unit_id", b'"unit_id"')):
        path.write_bytes(b"\n".join([header, *lines[1:]]))
        outcomes.append(_columns_or_message(lambda: read_columns(path, POPULATION_HEADER)))
    assert outcomes[0] == outcomes[1]
    if fault is None:
        assert outcomes[0][0][2] == bad.decode() + "c"
    else:
        assert outcomes[0].startswith(f"ValidationError: {path}, line 4: {fault}")


@pytest.fixture
def small_release():
    pop = gen_gmm(GmmConfig(beta=1.0, v=5.0, k_prime=2, cluster_sizes=(6, 9, 7)), RngStreams(3))
    streams = RngStreams(4)
    design = draw_design(pop, 0.5, streams.generator("assignment"))
    params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.05, sigma=10.0, lam=0.5)
    return cluster_dp(pop, design, params, streams)


def test_release_file_on_both_readers(tmp_path, small_release):
    """Release rows read the same from the plain file and from its csv.reader twins."""
    csv_path, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
    write_release(small_release, csv_path, sidecar)
    text = csv_path.read_text()
    short = text.split("\n")
    short[2] = short[2].rsplit(",", 1)[0]  # line 3 loses its y_tilde
    for lines, expected in ((text, None), ("\n".join(short), "line 3: expected 4 fields")):
        csv_path.write_bytes(lines.encode())
        _assert_plain_split(csv_path, RELEASE_HEADER)
        assert expected is None or _columns_or_message(
            lambda: read_columns(csv_path, RELEASE_HEADER)) == f"ValidationError: {expected}"
        for make in TWINS.values():
            twin = tmp_path / "twin.csv"
            twin.write_bytes(make(lines).encode())
            assert _plain_columns(twin, RELEASE_HEADER) is None
            if expected:
                with pytest.raises(ValidationError, match=expected):
                    read_release(twin, sidecar)
                continue
            back = read_release(twin, sidecar)
            assert back.unit_ids == small_release.unit_ids
            assert np.array_equal(back.y_tilde, small_release.y_tilde)
            assert np.array_equal(back.design.z, small_release.design.z)


class TestSidecarBytes:
    """write_release's sidecar equals json.dumps(sidecar, sort_keys=True, indent=2) + newline."""

    @staticmethod
    def assert_same_bytes(release, tmp_path):
        csv_path, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        write_release(release, csv_path, sidecar)
        text = sidecar.read_bytes().decode()
        assert text == sidecar_text(release)
        return text

    @staticmethod
    def release(sizes, k_prime=5, seed=0):
        pop = gen_gmm(GmmConfig(beta=4.5, v=5.0, k_prime=k_prime, cluster_sizes=sizes),
                      RngStreams(seed))
        streams = RngStreams(seed)
        design = draw_design(pop, 0.5, streams.generator("assignment"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.02, sigma=10.0, lam=0.8)
        return cluster_dp(pop, design, params, streams)

    def test_default_release(self, tmp_path):
        self.assert_same_bytes(self.release((500, 1000, 2000)), tmp_path)

    def test_more_clusters_than_one_block(self, tmp_path):
        release = self.release((4,) * (2 * _TABLE_BLOCK + 1), k_prime=1)
        self.assert_same_bytes(release, tmp_path)

    def test_debias_rows_overflow_refused(self, tmp_path):
        # rows past the float range would be written as Infinity, which is not JSON
        release = self.release((6, 8), k_prime=1)
        release = replace(release, space=OutcomeSpace((-1.7e308, -1e308, 1e308, 1.7e308)))
        csv_path, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        with pytest.raises(ValidationError, match="debias rows overflow the float range"):
            write_release(release, csv_path, sidecar)
        assert not csv_path.exists() and not sidecar.exists()

    def test_negative_zero(self, tmp_path):
        """At lambda = 0 the rows are the space's values, so a -0.0 outcome gives -0.0 rows."""
        release = self.release((6, 8), k_prime=1)
        assert release.space.values == (-1.0, 0.0, 1.0, 2.0)
        q_tilde = release.q_tilde.copy()
        q_tilde[1, 0, 0] = -0.0
        release = replace(release, space=OutcomeSpace((-1.0, -0.0, 1.0, 2.0)), q_tilde=q_tilde,
                          params=replace(release.params, lam=0.0))
        assert np.signbit(release.debias[..., 1]).all()
        text = self.assert_same_bytes(release, tmp_path)
        assert "-0.0" in text


class TestPeakMemory:
    """tracemalloc peaks at 5000 clusters of 20 units (K = 12), no higher than before.

    Before the plain split and the block-wise sidecar writer (csv.reader row
    lists, and one json.dump of the whole sidecar) these tests measured
    18.24 MB for read_columns and 12.02 MB for write_release, with Python
    3.11.7 and NumPy 2.4.6; they measure 18.11 MB and 8.48 MB now.
    """

    @pytest.fixture(scope="class")
    def pop(self):
        config = GmmConfig(beta=4.5, v=5.0, k_prime=5, cluster_sizes=(20,) * 5000)
        return gen_gmm(config, RngStreams(4))

    @staticmethod
    def peak_mb(call) -> float:
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_read_columns(self, tmp_path, pop):
        path = tmp_path / "pop.csv"
        write_population_csv(pop, path)
        assert self.peak_mb(lambda: read_columns(path, POPULATION_HEADER)) <= 18.24

    def test_write_release(self, tmp_path, pop):
        streams = RngStreams(4)
        design = draw_design(pop, 0.5, streams.generator("assignment"))
        params = MechanismParams(kind=MechanismKind.CLUSTER_DP, gamma=0.02, sigma=10.0, lam=0.8)
        release = cluster_dp(pop, design, params, streams)
        csv_path, sidecar = tmp_path / "r.csv", tmp_path / "r.json"
        assert self.peak_mb(lambda: write_release(release, csv_path, sidecar)) <= 12.02


# Fields csv.writer quotes or passes through as they are.
ODD_FIELDS = ["a,b", 'say "x"', "cr\rlf", "lf\nx", "nul\0", "", "é中", '"', ","]


def _rows_text(write, columns) -> str:
    fh = io.StringIO(newline="")
    write(fh, columns)
    return fh.getvalue()


@pytest.mark.parametrize("odd", [None, *ODD_FIELDS])
@pytest.mark.parametrize("ids", ["serial", "tuple", "int"])
@pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK, _ROW_BLOCK + 1])
def test_row_writer_matches_csv_writer(n, ids, odd):
    """Every block joined, or the last one (with the odd field) through csv.writer."""
    unit_ids = {"serial": SerialIds(np.arange(n)), "tuple": tuple(f"u{i}" for i in range(n)),
                "int": tuple(range(n))}[ids]
    labels = [f"c{i % 7}" for i in range(n)]
    y0, y1 = np.array(["1.5"] * n, dtype=object), ["-2"] * n  # the writers pass object arrays
    if odd is not None and n:
        labels[-1] = odd
    columns = (unit_ids, labels, y0, y1)
    assert _rows_text(write_rows, columns) == _rows_text(write_rows_csv, columns)


@given(st.lists(st.tuples(*[st.sampled_from(["x", "1", *ODD_FIELDS])] * 4), max_size=12),
       st.sampled_from([1, 2, 5, _ROW_BLOCK]))
@settings(max_examples=200, deadline=None)
def test_row_writer_matches_csv_writer_on_any_rows(rows, block_rows):
    columns = tuple(map(list, zip(*rows))) if rows else ([], [], [], [])
    with mock.patch.object(simdata, "_ROW_BLOCK", block_rows):
        assert _rows_text(write_rows, columns) == _rows_text(write_rows_csv, columns)


# finite only: write_release's tables are, since debias_rows refuses non-finite rows
TABLE_VALUES = [-0.0, 1e-07, 1e16, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
                0.1, -3.0]


@pytest.mark.parametrize("shape", [(0, 2, 3), (1, 2, 2), (_TABLE_BLOCK, 2, 3),
                                   (_TABLE_BLOCK + 1, 2, 4)])
def test_table_writer_matches_json_form(shape):
    rng = np.random.default_rng(sum(shape))
    table = rng.random(shape)
    m = min(len(TABLE_VALUES), table.size)
    table.ravel()[:m] = TABLE_VALUES[:m]
    if table.size:
        table[-1, -1, -1] = -0.0  # in the last block too
    new, ref = io.StringIO(), io.StringIO()
    _write_table(new, table)
    write_table_json(ref, table, _TABLE_BLOCK)
    assert new.getvalue() == ref.getvalue()


POPULATION_TEXTS = {  # name: (file text, read by the scan)
    "zero_then_negative_zero": (HEADER + "a,c,0,1\nb,c,-0,1\n", False),
    "negative_zero_then_zero": (HEADER + "a,c,-0.0,1\nb,c,0,1\n", False),
    "negative_zero_alone": (HEADER + "a,c,-0,1\nb,c,1,-0.0\n", True),
    "three_and_three_point_zero": (HEADER + "a,c,3,3.0\nb,c,1,3\n", True),
    "nan": (HEADER + "a,c,nan,1\nb,c,1,1\n", False),
    "inf": (HEADER + "a,c,1,inf\nb,c,1,1\n", False),
    "padded": (HEADER + "a,c, 2 ,1\nb,c,1,1\n", True),
    "underscore": (HEADER + "a,c,1_000,1\nb,c,1,1\n", True),
    "malformed": (HEADER + "a,c,1,x\nb,c,y,1\n", False),
    "one_value": (HEADER + "a,c,1,1\nb,c,1,1\n", True),
    "header_only": (HEADER, True),
    "not_utf8": (HEADER + "a,c,1,2\nb\xff,c,1,1\n", False),
    "quoted": (HEADER + 'a,"c",1,2\nb,c,1,1\n', False),
    "crlf": (HEADER + "a,c,1,2\r\nb,c,1,1\r\n", False),
    "wrong_header": ("unit_id,cluster,y0,y2\na,c,1,2\n", False),
    "short_row": (HEADER + "a,c,1,2\nb,c,1\n", False),
    "many_blocks": (HEADER + "\n".join(WIDE) + "\n", True),
}


def _space_or_message(read):
    try:
        return tuple(map(repr, read().values))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@pytest.mark.parametrize("case", sorted(POPULATION_TEXTS))
def test_outcome_scan_matches_full_parse(tmp_path, case):
    text, scanned = POPULATION_TEXTS[case]
    path = tmp_path / "pop.csv"
    path.write_bytes(text.encode("latin-1" if case == "not_utf8" else "utf-8"))
    try:
        assert (_scanned_outcomes(path) is not None) is scanned
    except UnicodeDecodeError:
        assert not scanned
    assert _space_or_message(lambda: infer_space(path)) == _space_or_message(
        lambda: infer_space_full(path))
