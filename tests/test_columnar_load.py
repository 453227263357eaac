"""The columnar loader against the row-by-row reference loader.

A small synthetic corpus is written as CSV, TSV or JSON Lines, and up to
three of its cells are replaced from a catalogue of faults: bad or blank
ids, non-integer, out-of-range or incomplete scores, weight maps that do
not sum to 1 or hold inf or nan, external percentiles, numbers too large
for a float, citation counts above 2**53, rows without a review,
duplicate ids, extra or missing fields and years after the census year;
and ids that extend another by "~", which both loaders load.
Both loaders must raise the same exception with the same message, or load
equal corpora. The columnar loader reads and converts a chunk of rows at a
time, so the comparisons also run with chunks of 1 and 3 rows, where faults
fall in different chunks.
"""

import codecs
import csv
import io
import itertools
import json
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibagree import (
    Corpus,
    CorpusParseError,
    PublicationRecord,
    PubCountSpec,
    ReviewerScore,
    SchemaOptions,
    SynthConfig,
    generate,
    load_corpus,
    save_corpus,
)
from bibagree import corpus as corpus_module
from bibagree.cli import main
from bibagree.corpus import CSV_COLUMNS, Columns
from record_pipeline import load_corpus as load_corpus_by_record

ID_COLUMNS = ["pub_id", "institution_id", "area_id", "journal_id"]
SCORE_COLUMNS = [c for c in CSV_COLUMNS if c.startswith("rev_")]
WEIGHT_COLUMNS = ["category_weights", "ref_category_weights"]
EXT_COLUMNS = ["ext_citation_percentile", "ext_journal_percentile"]

# Replacement cells of a CSV or TSV row, by column.
TABLE_CELLS = {
    **{c: ["", " ", " x ", "U1"] for c in ID_COLUMNS},
    "year": ["x", "", "2012.0", " 2013 ", "2016", "-3", "1_0", "99999999999999999999999"],
    "citations": ["x", "", "-1", " 7 ", "3.5", "99999999999999999999999", str(2**53 + 1), "1" + "0" * 400],
    **{c: ["", "0", "11", "x", "5", " 3 ", "-1", "10", "99999999999999999999999"] for c in SCORE_COLUMNS},
    **{
        c: [
            "", "A:0.5", "A:0.5;B:0.5", "A:0.5;A:0.5", "A:0.4;B:0.6;A:0.6", "A", "A:x", "A:inf", "A:nan",
            "A:1e308;B:1e308", "MULTI:1.0", " A : 1.0 ;", "A:0", "A:1.5;B:-0.5", "a:b:1.0", ";;A:1.0",
            "A:0.3;B:0.7000000001", "A:0.3;B:0.7000000015", "1.0", "A:0.2;A:1.0",
        ]
        for c in WEIGHT_COLUMNS
    },
    **{c: ["", "50", "155", "-1", "x", "nan", "100", "0", " 7.5 "] for c in EXT_COLUMNS},
}

# Replacement values of a JSON object, by field.
JSON_VALUES = {
    **{c: ["", " ", None, 7, "x", "U1"] for c in ID_COLUMNS},
    "year": [2012.5, True, "2012", "x", None, -3, 2016, 2013.0, float("inf"), [2012]],
    "citations": [3.5, False, "4", "x", None, -1, 7.0, 10**25, 2**53 + 1, 10**400, [1], {"n": 1}],
    "review_a": [None, {}, [1, 2, 3], "x", {"originality": 4, "rigour": 7}, {"originality": 0, "rigour": 7, "impact": 5}],
    "review_b": [
        {"originality": 7.5, "rigour": 7, "impact": 5}, {"originality": "7", "rigour": 7, "impact": 11},
        {"originality": None, "rigour": 7, "impact": 5}, {"originality": 7, "rigour": [7], "impact": 5},
    ],
    "category_weights": [
        {"A": 0.5}, {"A": 0.5, "B": 0.5}, {}, None, [1], {"A": "0.5", "B": 0.5}, {"A": float("inf")},
        {"A": float("nan")}, {"A": True}, {"MULTI": 1.0}, {"A": "x"}, {"A": 10**400},
    ],
    "ref_category_weights": [
        None, {}, 0, [1], "x", {"A": float("inf")}, {"A": 1e308, "B": 1e308}, {"A": None}, {"A": 2}, {"A": 10**400},
    ],
    **{c: [None, "", "  ", 50, 155, -1, "x", float("nan"), [1], True, 10**400] for c in EXT_COLUMNS},
}

fault = st.tuples(st.integers(0, 11), st.integers(0, 10**6), st.integers(0, 10**6))


@lru_cache(maxsize=None)
def base_corpus(seed: int):
    return generate(
        SynthConfig(n_institutions=3, n_areas=2, multidisciplinary_share=0.3, seed=seed, population_fraction=0.5)
    )


def corrupt_table(text: str, delimiter: str, faults) -> str:
    rows = list(csv.reader(io.StringIO(text), delimiter=delimiter))
    header, body = rows[0], rows[1:]
    for row_i, kind, choice in faults:
        row = body[row_i % len(body)]
        if kind % 10 == 0:  # a duplicate id
            row[0] = body[choice % len(body)][0]
        elif kind % 10 == 1:  # an extra or a missing field
            if choice % 2:
                row.append("extra")
            elif row:
                row.pop()
        else:
            column = sorted(TABLE_CELLS)[choice % len(TABLE_CELLS)]
            options = TABLE_CELLS[column]
            if header.index(column) < len(row):
                row[header.index(column)] = options[(choice // len(TABLE_CELLS)) % len(options)]
    out = io.StringIO()
    csv.writer(out, delimiter=delimiter).writerows([header, *body])
    return out.getvalue()


def corrupt_jsonl(text: str, faults) -> str:
    lines = text.splitlines()
    for row_i, kind, choice in faults:
        i = row_i % len(lines)
        if kind % 12 == 0:
            lines[i] = ["{", "[1, 2]", "", "null", '"x"'][choice % 5]
            continue
        try:
            obj = json.loads(lines[i])
        except json.JSONDecodeError:
            continue
        if not isinstance(obj, dict):
            continue
        if kind % 12 == 1:  # a duplicate id
            other = json.loads(lines[choice % len(lines)]) if lines[choice % len(lines)].startswith("{") else obj
            obj["pub_id"] = other.get("pub_id", "x") if isinstance(other, dict) else "x"
        elif kind % 12 == 2:  # an extra or a missing field
            if choice % 2:
                obj["extra"] = 1
            else:
                obj.pop(sorted(obj)[choice % len(obj)], None)
        else:
            field = sorted(JSON_VALUES)[choice % len(JSON_VALUES)]
            options = JSON_VALUES[field]
            obj[field] = options[(choice // len(JSON_VALUES)) % len(options)]
        lines[i] = json.dumps(obj)
    return "\n".join(lines) + "\n"


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The sorted distinct values, and each value's index among them."""
    distinct = sorted(set(values))
    code = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))


def column_values(columns: Columns) -> tuple:
    return (
        columns.pub_id,
        *[(getattr(columns, f"{name}s"), getattr(columns, name).tolist()) for name in ID_COLUMNS[1:]],
        columns.labels,
        columns.year.tolist(), columns.citations.tolist(), columns.review.tolist(), columns.has_review.tolist(),
        *[[None if v != v else v for v in pct.tolist()] for pct in (columns.ext_citation_percentile, columns.ext_journal_percentile)],
        *[(e.row.tolist(), e.label.tolist(), e.weight.tolist()) for e in (columns.weights, columns.refs)],
    )


def outcome(loader, path, options):
    """What loading gives: the exception, or the corpus with the columns a
    run reads, which for the reference are those of its records."""
    try:
        corpus = loader(path, options)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return ("raised", type(exc), str(exc))
    return (
        "loaded", corpus.records, column_values(corpus.columns), corpus.census_year, corpus.population_counts
    )


# A format, a base corpus, faults, a census year and a population sidecar.
LOAD_CASE = (
    st.sampled_from(["csv", "tsv", "jsonl"]),
    st.integers(0, 3),
    st.lists(fault, max_size=3),
    st.sampled_from([None, 2013, 2015]),
    st.sampled_from([None, "counts", "below-sample"]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(*LOAD_CASE)
def test_columnar_loader_matches_row_by_row_loader(tmp_path_factory, fmt, seed, faults, census_year, population):
    assert_loads_as_row_by_row(tmp_path_factory, fmt, seed, faults, census_year, population)


@pytest.mark.parametrize("chunk_rows", [1, 3])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(*LOAD_CASE)
def test_columnar_loader_matches_row_by_row_loader_in_small_chunks(
    tmp_path_factory, chunk_rows, fmt, seed, faults, census_year, population
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("bibagree.corpus._CHUNK_ROWS", chunk_rows)
        assert_loads_as_row_by_row(tmp_path_factory, fmt, seed, faults, census_year, population)


def assert_loads_as_row_by_row(tmp_path_factory, fmt, seed, faults, census_year, population):
    tmp = tmp_path_factory.mktemp("load")
    corpus = base_corpus(seed)
    path = tmp / f"corpus.{fmt}"
    save_corpus(corpus, path)
    text = path.read_text()
    if fmt == "jsonl":
        text = corrupt_jsonl(text, faults)
    else:
        text = corrupt_table(text, "\t" if fmt == "tsv" else ",", faults)
    path.write_text(text)

    population_path = None
    if population:
        counts = dict(corpus.population_counts)
        if population == "below-sample":
            counts[min(counts)] = 1
        population_path = tmp / "population.csv"
        population_path.write_text("institution_id,count\n" + "".join(f"{k},{v}\n" for k, v in counts.items()))
    options = SchemaOptions(census_year=census_year, population_path=population_path and str(population_path))

    expected = outcome(load_corpus_by_record, path, options)
    assert outcome(load_corpus, path, options) == expected


# One representative of each fault, for the pairwise test: (field, value),
# or a fault that is not a field value. A pub_id padded with spaces is no
# fault: it loads stripped. ("tilde", k) is no fault either: it makes
# a row's pub_id the pub_id of the row k rows on, plus "~1", which both
# loaders load, alone or beside any fault. Paired with "duplicate", a
# tilde row 1 and a repeat of it on row 0 make row 1 repeat row 0 while
# extending row 2's id by "~".
TABLE_FAULTS = [
    ("pub_id", ""), ("pub_id", " x "), ("area_id", " "), ("year", "x"), ("year", ""), ("year", "2016"), ("citations", "-1"),
    ("citations", str(2**53 + 1)),
    ("rev_a_originality", ""), ("rev_a_impact", "x"), ("rev_b_rigour", ""), ("rev_b_impact", "x"),
    ("rev_a_rigour", "11"), ("category_weights", "A:0.5"), ("category_weights", "A"), ("category_weights", "1.0"),
    ("category_weights", "A:x"), ("category_weights", "A:nan"), ("category_weights", "A:0.5;A:0.5"),
    ("category_weights", "A:0.3;B:0.7000000015"), ("category_weights", "A:1.0;B:0"), ("ref_category_weights", "A:inf"), ("ref_category_weights", "A:x"),
    ("ext_citation_percentile", "155"), ("ext_journal_percentile", "x"), ("duplicate", None), ("tilde", 1),
    ("tilde", -1), ("extra", None), ("missing", None), ("no-review", "rev_b"),
]
JSON_FAULTS = [
    ("pub_id", None), ("area_id", ""), ("year", 2012.5), ("year", 2016), ("year", None), ("citations", -1),
    ("citations", "x"), ("citations", [1]), ("citations", 10**400),
    ("review_a", {}), ("review_a", {"originality": 4.5, "rigour": 7, "impact": 5}), ("review_b", {"rigour": 7}),
    ("review_b", {"originality": "x", "rigour": 7, "impact": 5}), ("review_b", {"originality": None, "rigour": 7, "impact": 5}),
    ("review_a", {"originality": 11, "rigour": 7, "impact": 5}), ("category_weights", {"A": 0.5}),
    ("category_weights", [1]), ("category_weights", {"A": "x"}), ("category_weights", {"A": float("nan")}),
    ("category_weights", {"A": 1.0, "B": 0}),
    ("ref_category_weights", {"A": float("inf")}), ("ref_category_weights", "x"),
    ("ref_category_weights", {"A": 10**400}), ("ext_citation_percentile", 155), ("ext_journal_percentile", [1]),
    ("ext_citation_percentile", 10**400), ("duplicate", None), ("tilde", 1), ("tilde", -1), ("extra", None),
    ("missing", "year"), ("line", "{"), ("line", "[1]"),
]


def with_table_fault(header: list[str], body: list[list[str]], i: int, fault) -> None:
    field, value = fault
    row = body[i]
    if field == "duplicate":
        row[0] = body[(i + 1) % len(body)][0]
    elif field == "tilde":
        row[0] = body[(i + value) % len(body)][0] + "~1"
    elif field == "extra":
        row.append("extra")
    elif field == "missing":
        row.pop()
    elif field == "no-review":  # valid, but then blank scores are filled before an incomplete review is rejected
        for column in header:
            if column.startswith(value) and header.index(column) < len(row):
                row[header.index(column)] = ""
    elif header.index(field) < len(row):
        row[header.index(field)] = value


def with_json_fault(lines: list[str], i: int, fault) -> None:
    field, value = fault
    if field == "line":
        lines[i] = value
        return
    if not lines[i].startswith("{\""):
        return
    obj = json.loads(lines[i])
    if field in ("duplicate", "tilde"):
        other = lines[(i + (1 if field == "duplicate" else value)) % len(lines)]
        pub_id = json.loads(other).get("pub_id") if other.startswith("{\"") else "x"
        obj["pub_id"] = pub_id + "~1" if field == "tilde" and isinstance(pub_id, str) else pub_id
    elif field == "extra":
        obj["extra"] = 1
    elif field == "missing":
        obj.pop(value, None)
    else:
        obj[field] = value
    lines[i] = json.dumps(obj)


def four_rows(tmp_path, fmt: str) -> str:
    """The text of a valid four-record corpus file."""
    corpus = generate(SynthConfig(n_institutions=2, pubs_per_institution=PubCountSpec(value=2), seed=4))
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(corpus, path)
    return path.read_text()


def with_faults(text: str, fmt: str, faults) -> str:
    """The text with each (row, fault) of faults applied in turn."""
    if fmt == "jsonl":
        lines = text.splitlines()
        for i, f in faults:
            with_json_fault(lines, i, f)
        return "\n".join(lines) + "\n"
    delimiter = "\t" if fmt == "tsv" else ","
    header, *body = list(csv.reader(io.StringIO(text), delimiter=delimiter))
    for i, f in faults:
        with_table_fault(header, body, i, f)
    out = io.StringIO()
    csv.writer(out, delimiter=delimiter).writerows([header, *body])
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_every_pair_of_faults_raises_as_the_row_by_row_loader(tmp_path, fmt):
    # Two faults on two rows, in both orders, or on one row: the earliest
    # faulty row is named, parse faults before validation faults, and
    # within a row the checks run in the order of the row-by-row parse.
    assert_every_pair_of_faults_raises_as_row_by_row(tmp_path, fmt)


@pytest.mark.parametrize("chunk_rows", [1, 3])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_every_pair_of_faults_raises_as_the_row_by_row_loader_in_small_chunks(tmp_path, monkeypatch, fmt, chunk_rows):
    # Chunks of 1 row put the two faulty rows in two chunks; chunks of 3
    # rows put them in one, with a valid row in a second chunk.
    monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", chunk_rows)
    assert_every_pair_of_faults_raises_as_row_by_row(tmp_path, fmt)


def assert_every_pair_of_faults_raises_as_row_by_row(tmp_path, fmt):
    text = four_rows(tmp_path, fmt)
    options = SchemaOptions(census_year=2015)
    faults = JSON_FAULTS if fmt == "jsonl" else TABLE_FAULTS
    cases = itertools.product(itertools.product(faults, repeat=2), ((0, 1), (1, 0), (1, 1)))
    for n, ((a, b), (i, j)) in enumerate(cases):
        # Each case gets a file of its own: truncating a file written
        # moments before can cost tens of milliseconds on some filesystems.
        path = tmp_path / f"case{n}.{fmt}"
        path.write_text(with_faults(text, fmt, [(i, a), (j, b)]))
        got = outcome(load_corpus, path, options)
        assert got == outcome(load_corpus_by_record, path, options), (a, b, i, j)
        assert got[0] == "loaded" or not a[0] == b[0] == "tilde", got


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_converter_raising_an_unexpected_exception_surfaces_it_unreworded(tmp_path, monkeypatch, capsys, fmt):
    # A converter words a value that does not convert with an exception
    # that the coder keeps as the value's fault. Any other exception is a
    # converter fault: it surfaces as raised, exiting 2, not 1.
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(base_corpus(0), path)
    bug = RuntimeError("converter fault")

    def convert(value, field):
        raise bug

    monkeypatch.setitem(corpus_module._JSON_READ if fmt == "jsonl" else corpus_module._TABLE_READ, "integer", convert)
    with pytest.raises(RuntimeError) as raised:
        load_corpus(path)
    assert raised.value is bug
    assert main(["validate", "--corpus", str(path)]) == 2
    assert capsys.readouterr().err == "error: converter fault\n"


@pytest.mark.parametrize(
    "fmt, validation_fault, parse_fault, named",
    [
        ("csv", ("citations", "-1"), ("year", "x"), "corpus.csv row 5: bad year/citations"),
        ("jsonl", ("citations", -1), ("year", 2012.5), "corpus.jsonl line 4: non-integral year 2012.5"),
    ],
)
def test_a_parse_fault_in_a_later_chunk_beats_a_validation_fault_in_an_earlier_one(
    tmp_path, monkeypatch, fmt, validation_fault, parse_fault, named
):
    # Row 0 is in the first chunk of two rows and row 3 in the second: the
    # first chunk converts and is screened before the second is read.
    monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", 2)
    path = tmp_path / f"corpus.{fmt}"
    path.write_text(with_faults(four_rows(tmp_path, fmt), fmt, [(0, validation_fault), (3, parse_fault)]))
    with pytest.raises(CorpusParseError) as raised:
        load_corpus(path)
    assert str(raised.value) == named
    assert outcome(load_corpus, path, SchemaOptions()) == outcome(load_corpus_by_record, path, SchemaOptions())


@pytest.mark.parametrize(
    "fmt, faults, named",
    [
        ("csv", [("rev_a_originality", "0"), ("rev_a_rigour", "11")], "review_a.originality=0 outside 1..10"),
        ("jsonl", [("review_a", {"originality": 0, "rigour": 11, "impact": 5})], "review_a.originality=0 outside 1..10"),
        ("jsonl", [("review_b", {"originality": 7.5, "rigour": "x", "impact": 5})], "non-integral review_b.originality 7.5"),
        ("csv", [("category_weights", "A:0.3;B:0.7000000001;C:0")], "weight C=0 outside (0,1]"),
        ("jsonl", [("category_weights", {"A": 0.3, "B": 0.7000000001, "C": 0})], "weight C=0 outside (0,1]"),
    ],
)
def test_a_field_with_two_faults_is_named_for_its_first(tmp_path, fmt, faults, named):
    # A review is named for its first faulty criterion, and a category map
    # whose weights sum to 1 within the tolerance for its first weight out
    # of range.
    path = tmp_path / f"corpus.{fmt}"
    path.write_text(with_faults(four_rows(tmp_path, fmt), fmt, [(1, fault) for fault in faults]))
    got = outcome(load_corpus, path, SchemaOptions())
    assert got == outcome(load_corpus_by_record, path, SchemaOptions())
    assert got[2].endswith(f": {named}"), got


@pytest.mark.parametrize(
    "fmt, row_fault, read_fault, named",
    [
        ("csv", ("year", "x"), ("extra", None), "corpus.csv row 3: bad year/citations"),
        ("csv", ("rev_a_rigour", ""), ("missing", None), "corpus.csv row 3: incomplete reviewer score for rev_a"),
        ("jsonl", ("year", 2012.5), ("line", "{"), "corpus.jsonl line 2: non-integral year 2012.5"),
    ],
)
def test_a_faulty_row_beats_a_read_fault_after_it_in_the_same_chunk(
    tmp_path, monkeypatch, fmt, row_fault, read_fault, named
):
    # Reading stops at the wrong field count (or the line that is not
    # JSON) on row 2; row 1 of the same chunk of three rows does not parse.
    monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", 3)
    path = tmp_path / f"corpus.{fmt}"
    path.write_text(with_faults(four_rows(tmp_path, fmt), fmt, [(1, row_fault), (2, read_fault)]))
    with pytest.raises(CorpusParseError) as raised:
        load_corpus(path)
    assert str(raised.value) == named
    assert outcome(load_corpus, path, SchemaOptions()) == outcome(load_corpus_by_record, path, SchemaOptions())


@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_a_byte_order_mark_loads_as_the_plain_file(tmp_path, fmt):
    # Spreadsheet programs save "CSV UTF-8" with a byte-order mark; the
    # population sidecar may carry one too.
    corpus = base_corpus(1)
    plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
    save_corpus(corpus, plain)
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    population = tmp_path / "population.csv"
    population.write_bytes(
        codecs.BOM_UTF8 + ("institution_id,count\n" + "".join(f"{k},{v}\n" for k, v in corpus.population_counts.items())).encode()
    )
    options = SchemaOptions(population_path=str(population))
    loaded = outcome(load_corpus, marked, options)
    assert loaded[0] == "loaded"
    assert loaded == outcome(load_corpus, plain, options)
    assert loaded[4] == corpus.population_counts
    assert main(["validate", "--corpus", str(marked), "--population", str(population)]) == 0


HEADER = ",".join(CSV_COLUMNS) + "\n"
EDGE_FILES = {
    "empty.csv": "",
    "empty.tsv": "",
    "empty.jsonl": "",
    "header-only.csv": HEADER,
    "header-only.tsv": HEADER.replace(",", "\t"),
    "blank-lines.csv": "\n\n\n",
    "blank-lines.jsonl": "\n  \n\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_a_file_without_records_raises_as_the_row_by_row_loader(tmp_path, name):
    path = tmp_path / name
    path.write_text(EDGE_FILES[name])
    expected = outcome(load_corpus_by_record, path, SchemaOptions())
    assert expected[0] == "raised"
    assert outcome(load_corpus, path, SchemaOptions()) == expected


def coded_records(n: int, with_nuls: bool) -> list[PublicationRecord]:
    """n records whose institution, area and journal ids and weight labels
    keep first appearing throughout the file, in variants that differ only
    in case and, with_nuls, in a trailing NUL; and from the middle row on,
    a label that only reference weights carry."""
    variants = [str.lower, str.upper] + [lambda text: text.lower() + "\0"] * with_nuls

    def name(prefix: str, i: int, every: int) -> str:
        block = i // every
        return variants[block % len(variants)](f"{prefix}{block // len(variants)}")

    score = ReviewerScore(5, 6, 7)
    records = []
    for i in range(n):
        label = name("f", i, 11)
        refs = {name("f", i + 5, 11): 0.5, "REF-ONLY": 0.5} if i >= n // 2 else None
        records.append(
            PublicationRecord(
                f"p{i}", name("u", i, 20), name("a", i, 90), 2012 + i % 3, i % 9, name("j", i, 30),
                {label: 1.0}, refs, score, score,
            )
        )
    return records


@pytest.mark.parametrize("chunk_rows", [None, 7])
@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_loaded_codes_are_the_codes_of_the_decoded_strings(tmp_path, monkeypatch, fmt, chunk_rows):
    # The csv module reads a NUL from Python 3.11 on.
    with_nuls = fmt == "jsonl" or sys.version_info >= (3, 11)
    records = coded_records(2 * corpus_module._CHUNK_ROWS + 37, with_nuls)
    if chunk_rows:
        monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", chunk_rows)
    first_chunk = corpus_module._CHUNK_ROWS
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(Corpus(records=tuple(records), census_year=2015), path)
    columns = load_corpus(path).columns

    for name in ("institution_id", "area_id", "journal_id"):
        ids = [getattr(r, name) for r in records]
        assert set(ids[first_chunk:]) - set(ids[:first_chunk]), "no id first appears after the first chunk"
        names, codes = getattr(columns, f"{name}s"), getattr(columns, name)
        decoded = [names[code] for code in codes.tolist()]
        assert decoded == ids
        expected_names, expected_codes = _codes(decoded)
        assert names == expected_names
        assert codes.dtype == expected_codes.dtype
        assert codes.tolist() == expected_codes.tolist()

    # The file holds each weight map in sorted label order.
    labels = [label for r in records for label in sorted(r.category_weights)]
    labels += [label for r in records for label in sorted(r.ref_category_weights or {})]
    label_codes = np.concatenate([columns.weights.label, columns.refs.label])
    decoded = [columns.labels[code] for code in label_codes.tolist()]
    assert decoded == labels
    expected_labels, expected_codes = _codes(decoded)
    assert columns.labels == expected_labels
    assert label_codes.dtype == expected_codes.dtype
    assert label_codes.tolist() == expected_codes.tolist()
    assert "REF-ONLY" in columns.labels
    assert columns.labels.index("REF-ONLY") not in columns.weights.label.tolist()
    assert load_corpus(path).records == tuple(records)


@pytest.mark.parametrize("chunk_rows", [1, 2, 4])
@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_rows_filling_their_last_chunk_load_as_row_by_row(tmp_path, monkeypatch, fmt, chunk_rows):
    # Four rows in whole chunks: reading the chunk after the last finds no row.
    monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", chunk_rows)
    path = tmp_path / f"corpus.{fmt}"
    path.write_text(four_rows(tmp_path, fmt))
    expected = outcome(load_corpus_by_record, path, SchemaOptions())
    assert expected[0] == "loaded"
    assert outcome(load_corpus, path, SchemaOptions()) == expected


def with_byte(text: str, line: int) -> bytes:
    """The text as UTF-8, with a Latin-1 byte, which is not UTF-8, second on
    the given line (counted from 1)."""
    lines = text.encode().split(b"\n")
    lines[line - 1] = lines[line - 1][:1] + b"\xe9" + lines[line - 1][1:]
    return b"\n".join(lines)


NOT_UTF8 = "not UTF-8: byte 0xe9 at offset 1"


@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_a_byte_that_is_not_utf8_is_a_parse_fault_naming_its_line(tmp_path, capsys, fmt):
    # The four rows are decoded as one block of bytes, so the byte is met
    # while the header (or the first line) is read.
    path = tmp_path / f"corpus.{fmt}"
    line = 3 if fmt == "jsonl" else 4  # the third record
    path.write_bytes(with_byte(four_rows(tmp_path, fmt), line))
    assert main(["validate", "--corpus", str(path)]) == 1
    assert capsys.readouterr().err == f"error: corpus.{fmt} line {line}: {NOT_UTF8}\n"
    out = tmp_path / "out"
    assert main(["run", "--corpus", str(path), "--out", str(out), "--no-bootstrap"]) == 1
    assert f"error: [load] corpus.{fmt} line {line}: {NOT_UTF8}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "fmt, fault, named",
    [
        ("csv", ("year", "x"), "corpus.csv row 2: bad year/citations"),
        ("tsv", ("year", "x"), "corpus.tsv row 2: bad year/citations"),
        ("jsonl", ("year", 2012.5), "corpus.jsonl line 1: non-integral year 2012.5"),
        ("csv", ("citations", "-1"), f"corpus.csv line 201: {NOT_UTF8}"),
        ("tsv", ("citations", "-1"), f"corpus.tsv line 201: {NOT_UTF8}"),
        ("jsonl", ("citations", -1), f"corpus.jsonl line 200: {NOT_UTF8}"),
    ],
)
def test_a_byte_that_is_not_utf8_in_a_later_chunk_keeps_the_fault_order(tmp_path, monkeypatch, capsys, fmt, fault, named):
    # The byte is on the last of 200 rows, kilobytes into the file: the
    # first chunk of two rows is read, converted and parsed before it is
    # met. A parse fault in the first row still wins; a validation fault
    # there loses.
    monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", 2)
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(generate(SynthConfig(seed=7)), path)
    last = 200 if fmt == "jsonl" else 201
    path.write_bytes(with_byte(with_faults(path.read_text(), fmt, [(0, fault)]), last))
    assert main(["validate", "--corpus", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"


def test_a_population_sidecar_that_is_not_utf8_names_its_line(tmp_path, capsys):
    corpus = tmp_path / "c.csv"
    assert main(["generate", "--out", str(corpus), "--seed", "7"]) == 0
    population = tmp_path / "c.population.csv"
    population.write_bytes(with_byte(population.read_text(), 3))
    capsys.readouterr()
    for command in (["validate"], ["run", "--out", str(tmp_path / "out"), "--no-bootstrap"]):
        assert main(command + ["--corpus", str(corpus), "--population", str(population)]) == 1
        assert f"{population} line 3: {NOT_UTF8}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LONG_CELL = "A" * 140_000  # past csv.field_size_limit(), 131,072 characters
FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize(
    "fmt, record, fault, named",
    [
        ("csv", 0, None, f"corpus.csv row 2: {FIELD_LIMIT}"),
        ("tsv", 0, None, f"corpus.tsv row 2: {FIELD_LIMIT}"),
        ("csv", 2, None, f"corpus.csv row 4: {FIELD_LIMIT}"),
        ("tsv", 2, None, f"corpus.tsv row 4: {FIELD_LIMIT}"),
        ("csv", 2, ("year", "x"), "corpus.csv row 2: bad year/citations"),
        ("tsv", 2, ("year", "x"), "corpus.tsv row 2: bad year/citations"),
        ("csv", 2, ("citations", "-1"), f"corpus.csv row 4: {FIELD_LIMIT}"),
        ("tsv", 2, ("citations", "-1"), f"corpus.tsv row 4: {FIELD_LIMIT}"),
    ],
)
def test_an_over_long_cell_is_a_parse_fault_naming_its_row(tmp_path, monkeypatch, capsys, fmt, record, fault, named):
    # On the third record the cell is in the second chunk of two rows: the
    # first chunk is read, converted and parsed before it is met. A parse
    # fault in the first row wins; a validation fault there loses.
    monkeypatch.setattr("bibagree.corpus._CHUNK_ROWS", 2)
    path = tmp_path / f"corpus.{fmt}"
    faults = [(record, ("category_weights", LONG_CELL))] + ([(0, fault)] if fault else [])
    path.write_text(with_faults(four_rows(tmp_path, fmt), fmt, faults))
    assert main(["validate", "--corpus", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {named}\n"


@pytest.mark.parametrize("row", [1, 2, 3])
def test_an_over_long_cell_in_a_population_sidecar_names_its_row(tmp_path, capsys, row):
    corpus = tmp_path / "c.csv"
    assert main(["generate", "--out", str(corpus), "--seed", "7"]) == 0
    population = tmp_path / "c.population.csv"
    lines = population.read_text().splitlines(keepends=True)
    lines[row - 1] = LONG_CELL + lines[row - 1]
    population.write_text("".join(lines))
    capsys.readouterr()
    for command in (["validate"], ["run", "--out", str(tmp_path / "out"), "--no-bootstrap"]):
        assert main(command + ["--corpus", str(corpus), "--population", str(population)]) == 1
        assert f"{population} row {row}: {FIELD_LIMIT}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_json_line_nested_past_the_recursion_limit_is_invalid_json(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    path.write_text(with_faults(four_rows(tmp_path, "jsonl"), "jsonl", [(2, ("line", "[" * 100_000))]))
    assert main(["validate", "--corpus", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corpus.jsonl line 3: invalid JSON: maximum recursion depth exceeded")


def six_hundred_rows(tmp_path) -> str:
    """The text of a valid 600-record CSV corpus: three chunks of the
    default size, with weight maps that repeat across them."""
    corpus = generate(
        SynthConfig(
            n_institutions=6, pubs_per_institution=PubCountSpec(value=100), n_areas=2,
            multidisciplinary_share=0.3, seed=4,
        )
    )
    path = tmp_path / "corpus.csv"
    save_corpus(corpus, path)
    return path.read_text()


def test_each_distinct_weight_text_of_a_chunk_is_parsed_once(tmp_path, monkeypatch):
    path = tmp_path / "corpus.csv"
    path.write_text(six_hundred_rows(tmp_path))
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert len(rows) > 2 * corpus_module._CHUNK_ROWS
    parsed = []
    parse_weights = corpus_module._TABLE_READ["weights"]

    def counted(text, field):
        parsed.append(text)
        return parse_weights(text, field)

    monkeypatch.setitem(corpus_module._TABLE_READ, "weights", counted)
    load_corpus(path)
    size = corpus_module._CHUNK_ROWS
    chunks = [rows[start : start + size] for start in range(0, len(rows), size)]
    distinct = [text for chunk in chunks for column in WEIGHT_COLUMNS for text in dict.fromkeys(row[column] for row in chunk)]
    assert len(distinct) < len(rows)
    assert sorted(parsed) == sorted(distinct)


def test_each_distinct_year_text_of_a_file_is_converted_once(tmp_path, monkeypatch):
    path = tmp_path / "corpus.csv"
    path.write_text(six_hundred_rows(tmp_path))
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert len(rows) > 2 * corpus_module._CHUNK_ROWS
    converted = []
    convert = corpus_module._TABLE_READ["integer"]

    def counted(text, field):
        if field.name == "year":
            converted.append(text)
        return convert(text, field)

    monkeypatch.setitem(corpus_module._TABLE_READ, "integer", counted)
    load_corpus(path)
    assert sorted(converted) == sorted(set(row["year"] for row in rows))


def test_a_bad_year_first_seen_in_a_later_chunk_is_named_at_its_first_row(tmp_path):
    # Rows 300 and 500 are in the second and the third chunk of the default size.
    path = tmp_path / "corpus.csv"
    path.write_text(with_faults(six_hundred_rows(tmp_path), "csv", [(300, ("year", "x")), (500, ("year", "x"))]))
    assert outcome(load_corpus, path, SchemaOptions()) == ("raised", CorpusParseError, "corpus.csv row 302: bad year/citations")
    assert outcome(load_corpus_by_record, path, SchemaOptions()) == outcome(load_corpus, path, SchemaOptions())


@pytest.mark.parametrize("read_fault, read_named", [(("extra", None), "more fields than the header"), (("category_weights", LONG_CELL), FIELD_LIMIT)])
@pytest.mark.parametrize(
    "earlier, named",
    [(("year", "x"), "corpus.csv row 102: bad year/citations"), (("citations", "-1"), "corpus.csv row 152: {}")],
)
def test_a_read_fault_in_the_middle_of_a_chunk_keeps_the_fault_order(tmp_path, read_fault, read_named, earlier, named):
    # Rows 100 and 150 are in the first chunk of the default size: an
    # earlier parse fault wins over the read fault, which wins over an
    # earlier validation fault.
    path = tmp_path / "corpus.csv"
    path.write_text(with_faults(six_hundred_rows(tmp_path), "csv", [(100, earlier), (150, read_fault)]))
    assert outcome(load_corpus, path, SchemaOptions()) == ("raised", CorpusParseError, named.format(read_named))


@pytest.mark.parametrize(
    "field, first, second",
    [
        ("year", 1, True),
        ("review_a", {"originality": 1, "rigour": 7, "impact": 5}, {"originality": True, "rigour": 7, "impact": 5}),
        ("category_weights", {"A": 1}, {"A": True}),
        ("category_weights", {"A": 1}, {"A": 1.0}),
        ("ref_category_weights", {"A": 0.0, "B": 1.0}, {"A": -0.0, "B": 1.0}),
        ("ext_citation_percentile", 1, True),
        ("ext_citation_percentile", 0.0, -0.0),
    ],
)
@pytest.mark.parametrize("order", ["first-second", "second-first"])
def test_json_values_that_compare_equal_load_as_their_own_values(tmp_path, field, first, second, order):
    # A JSON value is its own key, and each weight map and percentile is
    # read on its own: true equals 1 as a key but is no number, and -0.0
    # equals 0.0.
    lines = four_rows(tmp_path, "jsonl").splitlines()
    for i, value in zip((0, 2), (first, second) if order == "first-second" else (second, first)):
        with_json_fault(lines, i, (field, value))
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    got = outcome(load_corpus, path, SchemaOptions())
    assert got == outcome(load_corpus_by_record, path, SchemaOptions())
    if got[0] == "loaded":
        records, columns = load_corpus_by_record(path).records, load_corpus(path).columns
        refs = [w for r in records for w in (r.ref_category_weights or {}).values()]
        assert np.signbit(columns.refs.weight).tolist() == np.signbit(refs).tolist()
        pct = [np.nan if r.ext_citation_percentile is None else r.ext_citation_percentile for r in records]
        assert np.signbit(columns.ext_citation_percentile).tolist() == np.signbit(pct).tolist()
