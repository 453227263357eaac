"""Corpus loading, validation, serialization and reviewer role assignment."""

import builtins
import csv
import gc
import json
import random
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibagree import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    PublicationRecord,
    ReviewerScore,
    SchemaOptions,
    SynthConfig,
    assign_reviewer_roles,
    generate,
    load_corpus,
    overall_score,
    save_corpus,
)
from bibagree import corpus as corpus_module
from bibagree.corpus import CSV_COLUMNS, MULTIDISCIPLINARY_LABEL, _first_clash, load_population_counts, save_population_counts
from bibagree.indicators import reassign_multidisciplinary
from test_table import compensated_sum

CORPUS_FORMAT_DOC = Path(__file__).resolve().parents[1] / "docs" / "corpus_format.md"

FIXTURE_HEADER = (
    "pub_id,institution_id,area_id,year,citations,journal_id,category_weights,"
    "ref_category_weights,rev_a_originality,rev_a_rigour,rev_a_impact,"
    "rev_b_originality,rev_b_rigour,rev_b_impact,ext_citation_percentile,ext_journal_percentile\n"
)

THREE_ROWS = FIXTURE_HEADER + (
    "p1,U1,A,2012,5,J1,PHY:1.0,,4,7,5,3,6,6,55.0,60.0\n"
    "p2,U1,A,2013,0,J1,PHY:0.5;CHE:0.5,,10,10,10,9,9,9,,\n"
    "p3,U2,A,2012,2,J2,CHE:1.0,PHY:1.0,1,1,1,2,2,2,10.5,\n"
)


def by_id(corpus):
    return {r.pub_id: r for r in corpus.records}


def write(tmp_path, text, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_three_row_fixture(tmp_path):
    corpus = load_corpus(write(tmp_path, THREE_ROWS))
    assert len(corpus.records) == 3
    assert corpus.census_year == 2013
    rec = by_id(corpus)["p2"]
    assert rec.category_weights == {"PHY": 0.5, "CHE": 0.5}
    assert rec.ext_citation_percentile is None
    assert by_id(corpus)["p3"].ref_category_weights == {"PHY": 1.0}


def test_out_of_range_criterion_names_record(tmp_path):
    bad = THREE_ROWS.replace("4,7,5", "11,7,5")
    with pytest.raises(CorpusValidationError, match="p1"):
        load_corpus(write(tmp_path, bad))


def test_weights_not_summing_rejected(tmp_path):
    bad = THREE_ROWS.replace("PHY:0.5;CHE:0.5", "PHY:0.5;CHE:0.4")
    with pytest.raises(CorpusValidationError, match="weights sum 0.9"):
        load_corpus(write(tmp_path, bad))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_cancelling_weights_give_the_same_fault_on_every_python(tmp_path, monkeypatch, fmt):
    # Folded left, 1e16 + 1.0 rounds to 1e16 and the map sums to 0, as the
    # load's screen sums it; sum() compensates from Python 3.12 on, sums it
    # to 1 and would fault the weight A=1e16 instead.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    if fmt == "csv":
        path = write(tmp_path, THREE_ROWS.replace("PHY:0.5;CHE:0.5", "A:1e16;B:1.0;C:-1e16"))
    else:
        path = tmp_path / "corpus.jsonl"
        save_corpus(load_corpus(write(tmp_path, THREE_ROWS)), path)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["category_weights"] = {"A": 1e16, "B": 1.0, "C": -1e16}
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusValidationError, match=r"record 'p2': weights sum 0$"):
        load_corpus(path)


def test_negative_citations_rejected(tmp_path):
    bad = THREE_ROWS.replace("p1,U1,A,2012,5", "p1,U1,A,2012,-1")
    with pytest.raises(CorpusValidationError, match="negative citations"):
        load_corpus(write(tmp_path, bad))


def test_duplicate_pub_id_rejected(tmp_path):
    bad = THREE_ROWS.replace("p3,", "p1,")
    with pytest.raises(CorpusValidationError, match=re.escape("corpus.csv row 4: duplicate pub_id 'p1', first on row 2")):
        load_corpus(write(tmp_path, bad))


def test_duplicate_pub_id_names_its_jsonl_lines(tmp_path):
    corpus = load_corpus(write(tmp_path, THREE_ROWS))
    records = [replace(rec, pub_id="p2") if rec.pub_id == "p3" else rec for rec in corpus.records]
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(records=tuple(records), census_year=corpus.census_year), path)
    with pytest.raises(CorpusValidationError, match=re.escape("corpus.jsonl line 3: duplicate pub_id 'p2', first on line 2")):
        load_corpus(path)


def test_pub_ids_extending_another_by_tilde_load(tmp_path):
    text = THREE_ROWS.replace("p2,", "p1~2,").replace("p3,", "p1~,")
    corpus = load_corpus(write(tmp_path, text))
    assert [rec.pub_id for rec in corpus.records] == ["p1", "p1~2", "p1~"]


def test_tilde_in_a_pub_id_that_extends_no_other_loads(tmp_path):
    corpus = load_corpus(write(tmp_path, THREE_ROWS.replace("p3,", "p4~1,").replace("p2,", "p1x~1,")))
    assert [rec.pub_id for rec in corpus.records] == ["p1", "p1x~1", "p4~1"]


def test_earliest_row_fault_wins_over_a_duplicate(tmp_path):
    # A repeat belongs to the later of the two rows, and comes before the
    # validation of that row.
    bad_weights = THREE_ROWS.replace("p3,", "p1,").replace("PHY:0.5;CHE:0.5", "PHY:0.5;CHE:0.4")
    with pytest.raises(CorpusValidationError, match="weights sum 0.9"):
        load_corpus(write(tmp_path, bad_weights))
    bad_weights = THREE_ROWS.replace("p2,", "p1,").replace("PHY:0.5;CHE:0.5", "PHY:0.5;CHE:0.4")
    with pytest.raises(CorpusValidationError, match=re.escape("row 3: duplicate pub_id 'p1', first on row 2")):
        load_corpus(write(tmp_path, bad_weights))


def first_clash_of_every_pair(ids):
    """_first_clash by trying every pair of rows."""
    clashes = [(row, other) for row in range(len(ids)) for other in range(row) if ids[other] == ids[row]]
    return min(clashes, default=None)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.text(alphabet="ab~", max_size=4), max_size=8))
def test_first_clash_equals_a_scan_of_every_pair(ids):
    by_pub_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    assert _first_clash(ids, by_pub_id) == first_clash_of_every_pair(ids)


def csv_reads_nul() -> bool:
    """Whether the csv module reads a NUL in a cell (from Python 3.11)."""
    try:
        return next(csv.reader(["P1\0"])) == ["P1\0"]
    except csv.Error:
        return False


# Ids whose string order is not their numeric order, one that extends
# another by "~", and ids that differ from another only by trailing NULs,
# which numpy's fixed-width strings drop.
ORDER_IDS = ("P1", "P10", "P2", "P1~1", "P11", "P1\0", "P\0\0", "P", "P\0")


@pytest.mark.parametrize("source", ["csv", "jsonl", "records"])
def test_by_pub_id_ranks_the_rows_in_python_string_order(tmp_path, source):
    corpus = generate(SynthConfig(n_institutions=4, n_areas=2, multidisciplinary_share=0.3, seed=5))
    ids = [i for i in ORDER_IDS if source != "csv" or csv_reads_nul() or "\0" not in i]
    records = [replace(r, pub_id=i) for r, i in zip(corpus.records, ids)] + list(corpus.records[len(ids) :])
    random.Random(2).shuffle(records)
    corpus = Corpus(tuple(records), corpus.census_year)
    if source != "records":
        path = tmp_path / f"corpus.{source}"
        save_corpus(corpus, path)
        corpus = load_corpus(path)
    pub_id = corpus.columns.pub_id
    assert set(ids) <= set(pub_id)
    expected = sorted(range(len(pub_id)), key=pub_id.__getitem__)
    assert corpus.columns.by_pub_id.tolist() == expected
    roles = assign_reviewer_roles(corpus, seed=1)
    reassigned, _ = reassign_multidisciplinary(roles, MULTIDISCIPLINARY_LABEL)
    assert reassigned.columns.weights is not roles.columns.weights
    assert roles.columns.by_pub_id.tolist() == reassigned.columns.by_pub_id.tolist() == expected


def test_malformed_row_reports_row_number(tmp_path):
    bad = THREE_ROWS.replace("p2,U1,A,2013,0", "p2,U1,A,notayear,0")
    with pytest.raises(CorpusParseError, match="row 3"):
        load_corpus(write(tmp_path, bad))


def test_year_after_census_rejected(tmp_path):
    with pytest.raises(CorpusValidationError, match="census"):
        load_corpus(write(tmp_path, THREE_ROWS), SchemaOptions(census_year=2012))


def test_ext_percentile_range_checked(tmp_path):
    bad = THREE_ROWS.replace("55.0,60.0", "155.0,60.0")
    with pytest.raises(CorpusValidationError, match="ext_citation_percentile"):
        load_corpus(write(tmp_path, bad))


@pytest.mark.parametrize(
    "refs",
    ["PHY:inf", "PHY:nan", "PHY:1e308;CHE:1e308"],
    ids=["inf", "nan", "sum-overflows"],
)
def test_non_finite_reference_weights_rejected_in_csv(tmp_path, refs):
    bad = THREE_ROWS.replace("CHE:1.0,PHY:1.0", f"MULTI:1.0,{refs}")
    with pytest.raises(CorpusValidationError, match="record 'p3': reference weights not finite"):
        load_corpus(write(tmp_path, bad))


def test_infinite_reference_weight_rejected_in_jsonl(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus(load_corpus(write(tmp_path, THREE_ROWS)), path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    obj["category_weights"] = {"MULTI": 1.0}
    obj["ref_category_weights"] = {"PHY": float("inf")}
    lines[2] = json.dumps(obj)
    assert "Infinity" in lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusValidationError, match="record 'p3': reference weights not finite"):
        load_corpus(path)


@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_round_trip(tmp_path, fmt):
    corpus = generate(SynthConfig(n_institutions=8, seed=5, multidisciplinary_share=0.1))
    # External percentiles on every other record, so present and absent values both round-trip.
    n = len(corpus.records)
    records = [
        replace(r, ext_citation_percentile=100.0 * (i + 0.5) / n, ext_journal_percentile=100.0 / (i + 3))
        if i % 2 == 0 else r
        for i, r in enumerate(corpus.records)
    ]
    corpus = replace(corpus, records=tuple(records))
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(corpus, path)
    reloaded = load_corpus(path, SchemaOptions(census_year=corpus.census_year))
    assert reloaded.records == corpus.records


SAVED_RECORDS = (
    PublicationRecord("p1", "U1", "A", 2012, 5, "J1", {"MULTI": 1.0}, {"PHY": 0.6, "CHE": 0.4},
                      ReviewerScore(4, 7, 5), ReviewerScore(3, 6, 6), 55.5, None),
    PublicationRecord("p2", "U2", "B", 2013, 0, "J2", {"PHY": 0.25, "CHE": 0.75}, None,
                      ReviewerScore(10, 9, 8), None, None, 7.25),
)
SAVED_TABLE = [
    CSV_COLUMNS,
    ["p1", "U1", "A", "2012", "5", "J1", "MULTI:1.0", "CHE:0.4;PHY:0.6", "4", "7", "5", "3", "6", "6", "55.5", ""],
    ["p2", "U2", "B", "2013", "0", "J2", "CHE:0.75;PHY:0.25", "", "10", "9", "8", "", "", "", "", "7.25"],
]
SAVED_JSONL = (
    '{"pub_id": "p1", "institution_id": "U1", "area_id": "A", "year": 2012, "citations": 5, "journal_id": "J1", '
    '"category_weights": {"MULTI": 1.0}, "ref_category_weights": {"CHE": 0.4, "PHY": 0.6}, '
    '"review_a": {"originality": 4, "rigour": 7, "impact": 5}, "review_b": {"originality": 3, "rigour": 6, "impact": 6}, '
    '"ext_citation_percentile": 55.5, "ext_journal_percentile": null}\n'
    '{"pub_id": "p2", "institution_id": "U2", "area_id": "B", "year": 2013, "citations": 0, "journal_id": "J2", '
    '"category_weights": {"CHE": 0.75, "PHY": 0.25}, "ref_category_weights": null, '
    '"review_a": {"originality": 10, "rigour": 9, "impact": 8}, "review_b": null, '
    '"ext_citation_percentile": null, "ext_journal_percentile": 7.25}\n'
)


@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_saved_bytes(tmp_path, fmt):
    # Weight maps sorted by label, blank cells or null for what a record lacks.
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(Corpus(SAVED_RECORDS, 2013), path)
    if fmt == "jsonl":
        expected = SAVED_JSONL
    else:
        expected = "".join(("\t" if fmt == "tsv" else ",").join(row) + "\r\n" for row in SAVED_TABLE)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "tsv", "jsonl"])
def test_an_empty_reference_map_is_saved_as_an_absent_one(tmp_path, fmt):
    # A blank cell or null, which loads as no map.
    absent, empty = tmp_path / f"absent.{fmt}", tmp_path / f"empty.{fmt}"
    save_corpus(Corpus(SAVED_RECORDS, 2013), absent)
    save_corpus(Corpus((SAVED_RECORDS[0], replace(SAVED_RECORDS[1], ref_category_weights={})), 2013), empty)
    assert empty.read_bytes() == absent.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_save_holds_no_memory_on_the_records(tmp_path, fmt):
    # vars(record) or vars(score) gives each object a __dict__ of its own
    # (Python 3.11 on), which stays with the record after the write.
    corpus = generate(SynthConfig(seed=7))
    assert corpus.records  # the record view is built before tracing
    tracemalloc.start()
    try:
        save_corpus(corpus, tmp_path / f"corpus.{fmt}")
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 50 * len(corpus.records), held


@pytest.mark.parametrize("n_institutions", [300, 2000])
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_load_peaks_below_1_6_times_the_corpus_it_returns(tmp_path, fmt, n_institutions):
    # The file is read and converted a chunk of rows at a time, so the raw
    # cells of one chunk, not of the whole file, are held at once. The
    # scan for a repeated pub_id reads the ranking of the ids that the
    # columns keep; at 20,000 records a set of the ids, whose table is
    # about four times their number, made the load peak at 1.66 times.
    path = tmp_path / f"corpus.{fmt}"
    config = SynthConfig(n_institutions=n_institutions, n_areas=4, multidisciplinary_share=0.05, seed=3)
    save_corpus(generate(config), path)
    load_corpus(path)  # imports and first-call caches, outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        corpus = load_corpus(path)
        gc.collect()  # empties the free lists, which keep some of what the load released
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) == 10 * n_institutions
    assert peak < 1.6 * held, (peak, held)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_load_of_records_with_weight_maps_of_their_own_peaks_below_1_6_times_the_corpus(tmp_path, fmt):
    # No category or reference map repeats, as reference profiles seldom
    # do: tables of the distinct maps of a whole file would keep every raw
    # map alive until the columns are built.
    corpus = generate(SynthConfig(n_institutions=300, n_areas=4, multidisciplinary_share=0.05, seed=3))
    rng = random.Random(3)
    records = []
    for r in corpus.records:
        w = rng.uniform(0.05, 0.95)
        weights = {min(r.category_weights): w, "X": 1.0 - w}
        records.append(replace(r, category_weights=weights, ref_category_weights={f"F{k}": rng.random() for k in range(4)}))
    path = tmp_path / f"corpus.{fmt}"
    save_corpus(Corpus(tuple(records), corpus.census_year), path)
    load_corpus(path)  # imports and first-call caches, outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load_corpus(path)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 3000
    assert peak < 1.6 * held, (peak, held)


def test_population_counts_round_trip(tmp_path):
    counts = {"U2": 40, "U10": 0, "U1": 7}
    path = tmp_path / "corpus.population.csv"
    save_population_counts(counts, path)
    assert path.read_bytes() == b"institution_id,count\r\nU1,7\r\nU10,0\r\nU2,40\r\n"
    assert load_population_counts(path) == counts


def test_population_below_sample_names_the_first_institution_in_file_order(tmp_path):
    # U2 sorts after U1 but comes first in the file; both are below their sample.
    rows = [
        "p1,U2,A,2012,5,J1,PHY:1.0,,4,7,5,3,6,6,,\n",
        "p2,U1,A,2013,0,J1,PHY:1.0,,4,7,5,3,6,6,,\n",
        "p3,U1,A,2012,2,J2,PHY:1.0,,4,7,5,3,6,6,,\n",
        "p4,U2,A,2012,2,J2,PHY:1.0,,4,7,5,3,6,6,,\n",
    ]
    path = write(tmp_path, FIXTURE_HEADER + "".join(rows))
    population = tmp_path / "population.csv"
    save_population_counts({"U1": 1, "U2": 1}, population)
    with pytest.raises(CorpusValidationError) as err:
        load_corpus(path, SchemaOptions(population_path=str(population)))
    assert str(err.value) == f"{population}: institution 'U2' has population count 1 below its 2 records in the corpus"


def test_overall_score_bounds_and_arithmetic():
    assert overall_score(ReviewerScore(1, 1, 1)) == 3
    assert overall_score(ReviewerScore(10, 10, 10)) == 30
    assert overall_score(ReviewerScore(4, 7, 5)) == 16


def test_overall_score_strictly_monotone():
    rng = random.Random(0)
    for _ in range(50):
        o, r, i = (rng.randint(1, 9) for _ in range(3))
        base = overall_score(ReviewerScore(o, r, i))
        assert overall_score(ReviewerScore(o + 1, r, i)) > base
        assert overall_score(ReviewerScore(o, r + 1, i)) > base
        assert overall_score(ReviewerScore(o, r, i + 1)) > base


def test_role_assignment_deterministic(small_corpus):
    a = assign_reviewer_roles(small_corpus, seed=42)
    b = assign_reviewer_roles(small_corpus, seed=42)
    assert a == b
    c = assign_reviewer_roles(small_corpus, seed=43)
    assert c != a


def test_role_assignment_order_invariant(small_corpus):
    shuffled = list(small_corpus.records)
    random.Random(1).shuffle(shuffled)
    reordered = Corpus(tuple(shuffled), small_corpus.census_year, small_corpus.population_counts)
    a = by_id(assign_reviewer_roles(small_corpus, seed=9))
    b = by_id(assign_reviewer_roles(reordered, seed=9))
    assert a == b


def test_swap_fraction_near_half():
    # 99.99% binomial bound for n=10000, p=0.5 is about +/-0.0195,
    # comfortably inside the asserted [0.47, 0.53] window.
    from bibagree import PubCountSpec

    corpus = generate(
        SynthConfig(n_institutions=100, pubs_per_institution=PubCountSpec("constant", value=100), seed=2)
    )
    assert len(corpus.records) == 10_000
    assigned = assign_reviewer_roles(corpus, seed=123)
    before = by_id(corpus)
    swapped = sum(
        1 for rec in assigned.records if rec.review_a != before[rec.pub_id].review_a
    )
    # Records whose two reviews are identical cannot show a swap; exclude them.
    swappable = sum(
        1 for rec in corpus.records if rec.review_a != rec.review_b
    )
    assert 0.47 <= swapped / swappable <= 0.53


def test_missing_review_rejected(small_corpus):
    from dataclasses import replace

    broken = list(small_corpus.records)
    broken[3] = replace(broken[3], review_b=None)
    corpus = Corpus(tuple(broken), small_corpus.census_year)
    with pytest.raises(CorpusValidationError, match="missing reviewer score"):
        assign_reviewer_roles(corpus, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("year", 2012.7),
        ("citations", 3.7),
        ("year", True),
        ("citations", True),
        ("review_a.originality", 7.5),
        ("review_b.impact", False),
    ],
    ids=["year", "citations", "year-bool", "citations-bool", "score-float", "score-bool"],
)
def test_jsonl_non_integral_number_rejected(tmp_path, field, value):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate(SynthConfig(n_institutions=2, seed=5)), path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    *outer, key = field.split(".")
    (obj[outer[0]] if outer else obj)[key] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError, match=f"line 2: non-integral {field}"):
        load_corpus(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("year", None),
        ("citations", [1]),
        ("review_a.rigour", None),
        ("review_b.impact", {"n": 1}),
        ("ext_citation_percentile", [50]),
        ("category_weights.X", None),
    ],
    ids=["year-null", "citations-list", "score-null", "score-object", "percentile-list", "weight-null"],
)
def test_jsonl_value_that_is_not_a_number_rejected(tmp_path, field, value):
    path = tmp_path / "corpus.jsonl"
    save_corpus(generate(SynthConfig(n_institutions=2, seed=5)), path)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[1])
    *outer, key = field.split(".")
    (obj[outer[0]] if outer else obj)[key] = value
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusParseError) as raised:
        load_corpus(path)
    assert str(raised.value) == f"corpus.jsonl line 2: {field} must be a number, got {value!r}"


def doc_type(field) -> str:
    """A field's type and range as the "Columns" table of the format document writes them."""
    bound = {2**53: "2⁵³"}.get
    if field.kind == "id":
        return "string"
    if field.high is corpus_module._CENSUS:
        return "integer ≤ census year"
    if field.kind == "weights":
        return f"weight map, weights in ({field.low:g}, {field.high:g}]" if field.required else "weight map"
    word = "real" if field.kind == "percentile" else "integer"
    return f"{word} {bound(field.low, f'{field.low:g}')}–{bound(field.high, f'{field.high:g}')}"


def test_doc_column_table_matches_csv_columns():
    doc = CORPUS_FORMAT_DOC.read_text()
    section = doc.split("## Columns", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `(\w+)` \|", section, flags=re.M) == CSV_COLUMNS
    # Each column's type and range, and whether it is required, as the field table gives them.
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", section, flags=re.M)
    expected = [
        (column, doc_type(field), "no*" if field.kind == "review" else "yes" if field.required else "no")
        for field in corpus_module._FIELDS.values()
        for column in field.columns
    ]
    assert [(column, kind.strip(), required.strip()) for column, kind, required in rows] == expected


def test_doc_within_row_orders_match_the_field_table():
    doc = CORPUS_FORMAT_DOC.read_text()
    section = doc.split("## Error precedence", 1)[1].split("\n## ", 1)[0]
    bullets = dict(re.findall(r"^- (CSV/TSV parse|JSONL parse|Validation): (.*?)(?=^- |^$)", section, flags=re.M | re.S))
    named = {key: re.findall(r"`(\w+)`", text) for key, text in bullets.items()}
    assert named["CSV/TSV parse"] == [name for step in corpus_module._TABLE_ORDER for name in step]
    assert named["JSONL parse"] == [name for step in corpus_module._JSON_ORDER for name in step]
    # A repeated pub_id is found before validate_record checks the row.
    assert named["Validation"] == ["pub_id", *corpus_module._CHECK_ORDER]
    assert sorted(named["CSV/TSV parse"]) == sorted(named["JSONL parse"]) == sorted(corpus_module._FIELDS)


def test_doc_example_csv_loads(tmp_path):
    doc = CORPUS_FORMAT_DOC.read_text()
    example = doc.split("## Example (CSV)", 1)[1].split("```", 2)[1].lstrip("\n")
    corpus = load_corpus(write(tmp_path, example))
    assert len(corpus.records) == 3
    assert len(corpus.area_ids()) == 2
