"""The columnar loader against the row-by-row reference loader.

A small synthetic corpus is written as CSV, TSV or JSON Lines, and up to
three of its cells are replaced from a catalogue of faults: bad or blank
ids, non-integer, out-of-range or incomplete scores, weight maps that do
not sum to 1 or hold inf or nan, external percentiles, numbers too large
for a float, rows without a review, duplicate ids, extra or missing fields
and years after the census year. Both loaders must raise the same
exception with the same message, or load equal corpora.
"""

import csv
import io
import itertools
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibagree import PubCountSpec, SchemaOptions, SynthConfig, generate, load_corpus, save_corpus
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
    "citations": ["x", "", "-1", " 7 ", "3.5", "99999999999999999999999"],
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
    "citations": [3.5, False, "4", "x", None, -1, 7.0, 10**25],
    "review_a": [None, {}, [1, 2, 3], "x", {"originality": 4, "rigour": 7}, {"originality": 0, "rigour": 7, "impact": 5}],
    "review_b": [{"originality": 7.5, "rigour": 7, "impact": 5}, {"originality": "7", "rigour": 7, "impact": 11}],
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


def column_values(columns: Columns) -> tuple:
    return (
        columns.pub_id, columns.institution_id, columns.area_id, columns.journal_id,
        columns.year.tolist(), columns.citations.tolist(), columns.review.tolist(), columns.has_review.tolist(),
        *[[None if v != v else v for v in pct.tolist()] for pct in (columns.ext_citation_percentile, columns.ext_journal_percentile)],
        *[(e.row.tolist(), e.label, e.weight.tolist()) for e in (columns.weights, columns.refs)],
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


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["csv", "tsv", "jsonl"]),
    st.integers(0, 3),
    st.lists(fault, max_size=3),
    st.sampled_from([None, 2013, 2015]),
    st.sampled_from([None, "counts", "below-sample"]),
)
def test_columnar_loader_matches_row_by_row_loader(tmp_path_factory, fmt, seed, faults, census_year, population):
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
# or a fault that is not a field value.
TABLE_FAULTS = [
    ("pub_id", ""), ("area_id", " "), ("year", "x"), ("year", "2016"), ("citations", "-1"),
    ("rev_a_originality", ""), ("rev_a_impact", "x"), ("rev_b_rigour", ""), ("rev_b_impact", "x"),
    ("rev_a_rigour", "11"), ("category_weights", "A:0.5"), ("category_weights", "A"), ("category_weights", "1.0"),
    ("category_weights", "A:x"), ("category_weights", "A:nan"), ("category_weights", "A:0.5;A:0.5"),
    ("category_weights", "A:0.3;B:0.7000000015"), ("ref_category_weights", "A:inf"), ("ref_category_weights", "A:x"),
    ("ext_citation_percentile", "155"), ("ext_journal_percentile", "x"), ("duplicate", None), ("extra", None),
    ("missing", None), ("no-review", "rev_b"),
]
JSON_FAULTS = [
    ("pub_id", None), ("area_id", ""), ("year", 2012.5), ("year", 2016), ("citations", -1), ("citations", "x"),
    ("review_a", {}), ("review_a", {"originality": 4.5, "rigour": 7, "impact": 5}), ("review_b", {"rigour": 7}),
    ("review_b", {"originality": "x", "rigour": 7, "impact": 5}),
    ("review_a", {"originality": 11, "rigour": 7, "impact": 5}), ("category_weights", {"A": 0.5}),
    ("category_weights", [1]), ("category_weights", {"A": "x"}), ("category_weights", {"A": float("nan")}),
    ("ref_category_weights", {"A": float("inf")}), ("ref_category_weights", "x"),
    ("ref_category_weights", {"A": 10**400}), ("ext_citation_percentile", 155), ("ext_journal_percentile", [1]),
    ("ext_citation_percentile", 10**400), ("duplicate", None), ("extra", None),
    ("missing", "year"), ("line", "{"), ("line", "[1]"),
]


def with_table_fault(header: list[str], body: list[list[str]], i: int, fault) -> None:
    field, value = fault
    row = body[i]
    if field == "duplicate":
        row[0] = body[(i + 1) % len(body)][0]
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
    if field == "duplicate":
        other = lines[(i + 1) % len(lines)]
        obj["pub_id"] = json.loads(other).get("pub_id") if other.startswith("{\"") else "x"
    elif field == "extra":
        obj["extra"] = 1
    elif field == "missing":
        obj.pop(value, None)
    else:
        obj[field] = value
    lines[i] = json.dumps(obj)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_every_pair_of_faults_raises_as_the_row_by_row_loader(tmp_path, fmt):
    # Two faults on two rows, in both orders, or on one row: the earliest
    # faulty row is named, parse faults before validation faults, and
    # within a row the checks run in the order of the row-by-row parse.
    corpus = generate(SynthConfig(n_institutions=2, pubs_per_institution=PubCountSpec(value=2), seed=4))
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(corpus, path)
    text = path.read_text()
    options = SchemaOptions(census_year=2015)
    faults = JSON_FAULTS if fmt == "jsonl" else TABLE_FAULTS
    cases = itertools.product(itertools.product(faults, repeat=2), ((0, 1), (1, 0), (1, 1)))
    for n, ((a, b), (i, j)) in enumerate(cases):
        # Each case gets a file of its own: truncating a file written
        # moments before can cost tens of milliseconds on some filesystems.
        path = tmp_path / f"case{n}.{fmt}"
        if fmt == "jsonl":
            lines = text.splitlines()
            with_json_fault(lines, i, a)
            with_json_fault(lines, j, b)
            path.write_text("\n".join(lines) + "\n")
        else:
            header, *body = list(csv.reader(io.StringIO(text)))
            with_table_fault(header, body, i, a)
            with_table_fault(header, body, j, b)
            out = io.StringIO()
            csv.writer(out).writerows([header, *body])
            path.write_text(out.getvalue())
        assert outcome(load_corpus, path, options) == outcome(load_corpus_by_record, path, options), (a, b, i, j)


def test_a_conversion_failing_on_rows_that_parse_is_a_runtime_error(tmp_path, monkeypatch, capsys):
    # Only the row parse words a faulty row. A conversion that fails when
    # every row parses is a converter fault: it surfaces, exiting 2, not 1.
    path = tmp_path / "corpus.csv"
    save_corpus(base_corpus(0), path)
    bug = RuntimeError("converter fault")

    def convert(cells):
        raise bug

    monkeypatch.setattr("bibagree.corpus._table_values", convert)
    with pytest.raises(AssertionError, match="a column conversion failed but every row parses") as raised:
        load_corpus(path)
    assert raised.value.__cause__ is bug
    assert main(["validate", "--corpus", str(path)]) == 2
    assert "a column conversion failed but every row parses" in capsys.readouterr().err
