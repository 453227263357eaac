"""The publication table against the record-by-record point pass, on the
corpus itself and on materialised bootstrap replicates."""

import builtins
import itertools
import json
import math
import sys
from dataclasses import asdict, replace

import bibagree.table
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibagree import (
    Corpus,
    PublicationRecord,
    ReviewerScore,
    SchemaOptions,
    SynthConfig,
    generate,
    indicators,
    load_corpus,
    run_bootstrap,
    save_corpus,
)
from bibagree.agreement import (
    LEVEL_INSTITUTION,
    LEVEL_PUBLICATION,
    VIEW_SIZE_DEPENDENT,
    VIEW_SIZE_INDEPENDENT,
    AgreementStatistic,
    CalibrationFit,
    SkipEntry,
)
from bibagree.indicators import reassign_multidisciplinary
from bibagree.pipeline import PipelineConfig, compute_pipeline_stats, run
from bibagree.resampling import replicate_counts
from bibagree.table import (
    _agreement,
    _median_rows,
    _midrank_percentiles,
    _pair_codes,
    _scores,
    build_table,
    reassign_codes,
    table_statistics,
)
from oracles import oracle_percentiles
from record_pipeline import (
    build_indicator_table,
    compute_baselines,
    record_pipeline_stats,
    record_statistic_values,
    resample_within_areas,
    unit_rows,
)

METRICS_R1 = ("reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile")
METRICS_NCS = ("reviewer1", "reviewer2", "njs", "citation_percentile", "journal_percentile")


def assert_same_statistics(got, ref):
    assert set(got) == set(ref), sorted(set(got) ^ set(ref))
    for key, value in ref.items():
        assert got[key] == value, (key, got[key], value)


def replicate_values(table, counts, config):
    """table_statistics as {key: value}, over a column for every (area,
    metric, level, view). The row starts at -inf, which no statistic can be
    (each is a median of absolute values), and every value written must be
    finite: in the bootstrap's replicate matrix NaN marks a missing value."""
    keys = list(
        itertools.product(
            table.area_ids,
            config.metric_labels,
            (LEVEL_INSTITUTION, LEVEL_PUBLICATION),
            (VIEW_SIZE_INDEPENDENT, VIEW_SIZE_DEPENDENT),
        )
    )
    row = np.full(len(keys), -np.inf)
    table_statistics(table, counts, config, {key: j for j, key in enumerate(keys)}, row)
    written = row != -np.inf
    assert np.isfinite(row[written]).all(), row
    return {key: value for key, value, w in zip(keys, row.tolist(), written) if w}


def _weights(layout, field):
    other = f"F{(field + 1) % 3}"
    own = f"F{field}"
    if layout == 0:
        return {own: 1.0}, None
    if layout == 1:
        return {own: 0.3, other: 0.7}, None
    if layout == 2:
        return {"MULTI": 1.0}, {own: 0.75, other: 0.25}
    if layout == 3:
        return {"MULTI": 1.0}, None  # cannot be redistributed
    if layout == 4:
        return {own: 0.6, "MULTI": 0.4}, {other: 1.0}
    if layout == 5:
        return {own: 0.6, "MULTI": 0.4}, {own: 0.5, other: 0.5}  # own field gains a share
    if layout == 6:
        return {"MULTI": 1.0}, {"MULTI": 1.0}  # only itself to redistribute over
    # A zero weight on field E or G, which no record weighs, leaves a cell
    # without a baseline; E sorts before the F fields, G after them.
    return {own: 1.0, "EG"[layout - 7]: 0.0}, None


RECORD = st.tuples(
    st.integers(0, 2),  # area
    st.integers(0, 4),  # institution
    st.sampled_from([2011, 2012]),
    st.integers(0, 4),  # citations, zero often
    st.integers(0, 8),  # category layout
    st.integers(0, 2),  # main field; fields are shared across areas
    st.integers(0, 2),  # journal
    st.lists(st.integers(1, 10), min_size=6, max_size=6),  # both reviews
)


# Fixed-width ids; ids like P1 and P10, where one is a prefix of the other;
# and ids where every other one extends the one before by "~" (P0, P0~1,
# P1, P1~3, ...). Every sum must run in pub_id order, each publication's
# copies together, whatever the ids.
ID_FORMATS = ("P{:03d}".format, "P{}".format, lambda i: f"P{i // 2}" + f"~{i}" * (i % 2))


@st.composite
def corpora(draw):
    """Small corpora, with ids of each family of ID_FORMATS."""
    rows = draw(st.lists(RECORD, min_size=1, max_size=40))
    ext = draw(st.sampled_from(["none", "all", "some"]))
    id_format = draw(st.sampled_from(ID_FORMATS))
    records = []
    for i, (area, inst, year, cites, layout, field, journal, scores) in enumerate(rows):
        weights, refs = _weights(layout, field)
        with_ext = ext == "all" or (ext == "some" and i % 2 == 0)
        records.append(
            PublicationRecord(
                pub_id=id_format(i),
                institution_id=f"U{inst}",
                area_id=f"A{area}",
                year=year,
                citations=cites,
                journal_id=f"J{journal}",
                category_weights=weights,
                ref_category_weights=refs,
                review_a=ReviewerScore(*scores[:3]),
                review_b=ReviewerScore(*scores[3:]),
                ext_citation_percentile=float((cites * 37) % 100) if with_ext else None,
                ext_journal_percentile=float(journal * 30 + 5) if with_ext else None,
            )
        )
    return Corpus(records=tuple(records), census_year=2015)


@st.composite
def configs(draw):
    """Either baseline, with any subset of the other series as metrics, in
    any order: the metrics of an area are fitted together, and must not
    depend on each other."""
    ncs_baseline = draw(st.booleans())
    metrics = draw(st.permutations(METRICS_NCS if ncs_baseline else METRICS_R1))
    return PipelineConfig(
        seed=draw(st.integers(0, 2**31)),
        min_pubs=draw(st.integers(1, 3)),
        baseline_label="ncs" if ncs_baseline else "reviewer1",
        metric_labels=tuple(metrics[: draw(st.integers(0, len(metrics)))]),
        n_replicates=8,
        assign_roles=False,
    )


CONFIGS = configs()


@settings(max_examples=150, deadline=None)
@given(corpora(), CONFIGS)
def test_replicate_counts_match_materialised_replicates(corpus, config):
    table = build_table(corpus, config.multidisciplinary_label)
    order = sorted(corpus.records, key=lambda r: (r.area_id, r.pub_id))
    for k in range(4):
        counts = replicate_counts(table.area_sizes, config.seed, k)
        resampled = resample_within_areas(corpus, np.random.default_rng([config.seed, k]))
        copies = {}
        for rec in resampled.records:
            origin = rec.pub_id.split("~", 2)[2]  # "<rank>~<n>~<pub_id>"
            copies[origin] = copies.get(origin, 0) + 1
        assert [copies.get(r.pub_id, 0) for r in order] == counts.tolist()
        assert_same_statistics(replicate_values(table, counts, config), record_statistic_values(resampled, config))


@settings(max_examples=100, deadline=None)
@given(corpora(), CONFIGS)
def test_all_ones_counts_give_point_statistics(corpus, config):
    # A replicate sums in pub_id order, as the point pass does.
    table = build_table(corpus, config.multidisciplinary_label)
    ones = np.ones(len(corpus.records), dtype=np.int64)
    assert_same_statistics(replicate_values(table, ones, config), record_statistic_values(corpus, config))


def assert_equals_record_pipeline(corpus, config):
    ref = record_pipeline_stats(corpus, config)
    assert compute_pipeline_stats(corpus, config) == replace(ref, aggregates=unit_rows(ref.aggregates))


@settings(max_examples=300, deadline=None)
@given(corpora(), CONFIGS)
def test_point_pass_equals_record_pipeline_exactly(corpus, config):
    # Statistics, skips, calibrations, unit means, flag counts and
    # exclusions, compared with ==, on ids like P1 and P10 too.
    assert_equals_record_pipeline(corpus, config)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_point_pass_sums_in_pub_id_order_on_unpadded_ids(seed):
    # With ids P0, P1, ..., P10, ... the pub_id order ("P1" < "P10" < "P2")
    # and the order of the ids plus "~" ("P10~" < "P1~") differ, and a
    # synth corpus's citations are large and varied enough that the order
    # of a sum changes its last bits, so summing in the second order fails.
    records = generate(SynthConfig(n_institutions=40, n_areas=2, multidisciplinary_share=0.1, seed=seed)).records
    corpus = _with_ids(records, lambda i, rec: f"P{i}")
    assert_equals_record_pipeline(corpus, PipelineConfig(seed=seed))


def compensated_sum(iterable, /, start=0):
    """The builtin sum() of Python 3.12 on: Neumaier-compensated over floats."""
    total, c = start, 0.0
    for x in iterable:
        if type(total) is float and type(x) is float:
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        elif type(total) is float and type(x) is int:
            total += x
        else:
            total, c = (total + c if c else total) + x, 0.0
    return total + c if c and math.isfinite(c) else total


def test_point_pass_equals_record_pipeline_under_compensated_sum(monkeypatch):
    # Percentiles 100 * (r - 0.5) / 3 sum to 150 when compensated and to
    # 149.99999999999997 when folded left, as np.bincount does.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    score = ReviewerScore(1, 1, 1)
    records = [
        PublicationRecord(pub_id, "U0", "A1", 2011, cites, "J0", {field: 1.0}, None, score, score)
        for pub_id, cites, field in (("P0", 1, "F0"), ("P1", 1, "F1"), ("P2", 0, "F0"))
    ]
    corpus = Corpus(records=tuple(records), census_year=2015)
    config = PipelineConfig(metric_labels=(), assign_roles=False)
    assert_equals_record_pipeline(corpus, config)


def against_pub_id_order() -> Corpus:
    """A synth corpus whose records run against pub_id order, with ids
    whose string order is not numeric (P1 < P10 < P2)."""
    corpus = generate(SynthConfig(n_institutions=4, multidisciplinary_share=0.3, seed=1))
    records = [replace(r, pub_id=f"P{i}") for i, r in enumerate(corpus.records)]
    return Corpus(tuple(reversed(records)), corpus.census_year)


@settings(max_examples=300, deadline=None)
@given(corpora(), st.lists(st.sampled_from(["", "E", "G"]), max_size=40), st.booleans())
# Explicit, so that a view pairing ids in file order fails at once rather
# than after minutes of shrinking a drawn corpus.
@example(against_pub_id_order(), [], False)
def test_indicator_view_equals_the_record_reference(corpus, zero_fields, reassign):
    # The four series and flag reasons by pub_id, on the corpus as it stands
    # and after reassignment, which moves entries and leaves MULTI ones. A
    # zero weight on field E or G, which no record weighs, leaves a cell
    # without a baseline; E sorts before the F fields, G after them, so a
    # record can have a zero-mean cell before or after an undefined one.
    zero_fields += [""] * len(corpus.records)
    records = [
        replace(r, category_weights={**r.category_weights, z: 0.0}) if z else r
        for r, z in zip(corpus.records, zero_fields)
    ]
    corpus = Corpus(tuple(records), corpus.census_year)
    if reassign:
        corpus, _ = reassign_multidisciplinary(corpus, "MULTI")
    got = indicators.build_indicator_table(corpus, indicators.compute_baselines(corpus))
    ref = build_indicator_table(corpus, compute_baselines(corpus))
    for name in ("ncs", "njs", "citation_percentile", "journal_percentile", "flagged"):
        assert getattr(got, name) == getattr(ref, name), name


@settings(max_examples=200, deadline=None)
@given(corpora(), CONFIGS)
def test_every_missing_statistic_has_a_skip_reason(corpus, config):
    stats = compute_pipeline_stats(corpus, config)
    reassigned, _ = reassign_multidisciplinary(corpus, config.multidisciplinary_label)
    unflagged = build_indicator_table(reassigned, compute_baselines(reassigned)).ncs
    areas = {r.area_id for r in corpus.records if r.pub_id in unflagged}
    present = {s.key() for s in stats.statistics}
    skipped = {(s.area_id, s.metric_label, s.level) for s in stats.skips}
    views = [
        (LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT),
        (LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT),
        (LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT),
    ]
    for area in areas:
        for metric in config.metric_labels:
            for level, view in views:
                key = (area, metric, level, view)
                assert key in present or key[:3] in skipped, key
    assert {key[0] for key in present} <= areas
    assert {key[0] for key in skipped} <= areas


@settings(max_examples=30, deadline=None)
@given(corpora(), CONFIGS, st.randoms(use_true_random=False))
def test_record_order_does_not_change_bootstrap(corpus, config, rnd):
    shuffled = list(corpus.records)
    rnd.shuffle(shuffled)
    base = run_bootstrap(corpus, config)
    other = run_bootstrap(replace(corpus, records=tuple(shuffled)), config)
    assert json.dumps([asdict(b) for b in base]) == json.dumps([asdict(b) for b in other])


def test_nonpositive_observed_score_is_skipped_on_both_paths():
    corpus = generate(SynthConfig(seed=7))
    corpus = replace(
        corpus,
        records=tuple(replace(r, citations=0) if r.institution_id == "U000" else r for r in corpus.records),
    )
    config = PipelineConfig(baseline_label="ncs", metric_labels=("reviewer1", "njs"), n_replicates=20)
    stats = compute_pipeline_stats(corpus, config)

    zero_areas = {r.area_id for r in corpus.records if r.institution_id == "U000"}
    skipped = {(s.area_id, s.metric_label, s.level) for s in stats.skips if "nonpositive observed score" in s.reason}
    assert skipped == {(a, m, LEVEL_INSTITUTION) for a in zero_areas for m in config.metric_labels}
    keys = {s.key() for s in stats.statistics}
    for area in zero_areas:
        for metric in config.metric_labels:
            assert (area, metric, LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT) in keys
            assert (area, metric, LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT) not in keys

    table = build_table(corpus, config.multidisciplinary_label)
    assert replicate_values(table, np.ones(len(corpus.records), dtype=np.int64), config).keys() == keys
    assert {b.key() for b in run_bootstrap(corpus, config)} <= keys


def assert_replicate_values_equal_objects(corpus, config, counts):
    """table_statistics against the point pass's result objects, built from
    the same replicate scores; returns the objects."""
    table = build_table(corpus, config.multidisciplinary_label)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = _agreement(table, _scores(table, counts), config)
    expected = {s.key(): s.value for s in result.statistics}
    got = replicate_values(table, counts, config)
    assert got.keys() == expected.keys()
    assert got == expected
    return result


@settings(max_examples=200, deadline=None)
@given(corpora(), CONFIGS, st.integers(0, 2**32 - 1), st.booleans())
def test_replicate_values_equal_the_object_path(corpus, config, seed, stratified):
    # Any count vector, zeros included: stratified draws as a bootstrap
    # makes them, or free counts that can empty whole areas.
    table = build_table(corpus, config.multidisciplinary_label)
    if stratified:
        counts = replicate_counts(table.area_sizes, seed, 0)
    else:
        counts = np.random.default_rng(seed).integers(0, 4, size=len(table.area))
    assert_replicate_values_equal_objects(corpus, config, counts)


def test_replicate_values_equal_the_object_path_on_degenerate_areas():
    # A0 has 2 institutions; in A1 reviewer2 is constant and U3 has no
    # citations, so its NCS baseline is 0.
    def record(i, inst, area, citations, a):
        review_b = ReviewerScore(2, 2, 2)
        return PublicationRecord(
            f"P{i:02d}", inst, area, 2012, citations, "J0", {"F0": 1.0}, None, ReviewerScore(a, 3, 4), review_b
        )

    records = [record(i, f"U{i % 2}", "A0", i + 1, 1 + i % 5) for i in range(5)]
    records += [record(10 + i, f"U{i % 4}", "A1", 0 if i % 4 == 3 else i + 2, 1 + i % 7) for i in range(12)]
    corpus = Corpus(records=tuple(records), census_year=2015)
    config = PipelineConfig(
        baseline_label="ncs", metric_labels=("reviewer1", "reviewer2", "njs"), n_replicates=2, assign_roles=False
    )
    for counts in (np.ones(len(records), dtype=np.intp), replicate_counts((5, 12), 3, 0)):
        result = assert_replicate_values_equal_objects(corpus, config, counts)
        reasons = [s.reason for s in result.skips]
        for reason in ("points, need >= 3", "zero predictor variance", "nonpositive observed score"):
            assert any(reason in r for r in reasons), (reason, reasons)


def test_replicate_builds_no_result_object(monkeypatch):
    # A replicate keeps only the values; the point pass keeps the objects
    # and the skip reasons.
    corpus = generate(SynthConfig(seed=7))
    corpus = replace(
        corpus,
        records=tuple(replace(r, citations=0) if r.institution_id == "U000" else r for r in corpus.records),
    )
    config = PipelineConfig(baseline_label="ncs", metric_labels=("reviewer1", "njs", "reviewer2"), n_replicates=4)
    built = {AgreementStatistic: 0, CalibrationFit: 0, SkipEntry: 0}
    for cls in built:

        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    stats = compute_pipeline_stats(corpus, config)
    assert all(built.values()), built
    for cls in built:
        built[cls] = 0
    table = stats.table
    values = [replicate_values(table, replicate_counts(table.area_sizes, 5, k), config) for k in range(4)]
    assert all(values)
    assert built == {AgreementStatistic: 0, CalibrationFit: 0, SkipEntry: 0}


def test_replicate_values_are_finite():
    # In the bootstrap's replicate matrix NaN marks a missing value, so no
    # statistic may be NaN or infinite; replicate_values checks each one.
    corpus = generate(SynthConfig(seed=7))
    zero = replace(
        corpus,
        records=tuple(replace(r, citations=0) if r.institution_id == "U000" else r for r in corpus.records),
    )
    ncs = PipelineConfig(baseline_label="ncs", metric_labels=METRICS_NCS)
    for corpus, config in ((corpus, PipelineConfig()), (corpus, ncs), (zero, ncs)):
        table = build_table(corpus, config.multidisciplinary_label)
        for k in range(10):
            assert replicate_values(table, replicate_counts(table.area_sizes, 5, k), config)


def test_run_codes_the_corpus_once(tmp_path, monkeypatch):
    # A loaded corpus holds its ids and labels as codes: no string is coded
    # after the load, which codes each chunk as it is read, and no columns
    # are built again from records.
    calls = {"build_table": 0, "reassign_codes": 0, "from_records": 0}
    for name in calls:
        owner = bibagree.corpus.Columns if name == "from_records" else bibagree.table
        original = getattr(owner, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        if owner is not bibagree.table:
            monkeypatch.setattr(owner, name, staticmethod(counted))
        for mod in [m for key, m in sys.modules.items() if key.startswith("bibagree")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    corpus_path = tmp_path / "corpus.csv"
    save_corpus(generate(SynthConfig(seed=7, multidisciplinary_share=0.2)), corpus_path)
    run(corpus_path, tmp_path / "out", PipelineConfig(seed=7, n_replicates=3))
    assert calls == {"build_table": 1, "reassign_codes": 1, "from_records": 0}


def test_rows_take_python_pub_id_order_with_trailing_nuls(tmp_path):
    # numpy's fixed-width strings drop trailing NULs, so there "p1\0" and
    # "p1" tie; the record reference sums in Python's order.
    score = ReviewerScore(5, 5, 5)
    records = [
        PublicationRecord(pub_id, "U0", "A0", 2012, cites, "J0", {"F0": 1.0}, None, score, score)
        for pub_id, cites in (("p1\0", 7), ("p1", 3), ("p0", 1))
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(Corpus(records=tuple(records), census_year=2015), path)
    table = build_table(load_corpus(path), "MULTI")
    assert table.citations[table.pub_order].tolist() == [1, 3, 7]


def _with_ids(records, pub_id):
    return Corpus(records=tuple(replace(rec, pub_id=pub_id(i, rec)) for i, rec in enumerate(records)), census_year=2015)


def _copy_order_cases():
    """Corpora in and out of pub_id order, with ids where one is a proper
    prefix of another, and where one extends another by "~"."""
    records = generate(SynthConfig(n_institutions=6, seed=4, multidisciplinary_share=0.3)).records
    shuffled = list(records)
    np.random.default_rng(2).shuffle(shuffled)
    return {
        "no-prefix": _with_ids(records, lambda i, rec: rec.pub_id),
        "P1-P10": _with_ids(shuffled, lambda i, rec: f"P{i}"),
        "prefix-then-e-acute": _with_ids(records, lambda i, rec: f"P{i // 2:04d}" + "é" * (i % 2)),
        "shuffled": _with_ids(shuffled, lambda i, rec: rec.pub_id),
        "tilde": _with_ids(shuffled, lambda i, rec: f"P{i // 2}" + "~1" * (i % 2)),
    }


COPY_ORDER_CASES = _copy_order_cases()


@pytest.mark.parametrize("ids", ["tilde", "unpadded"])
def test_replicates_on_unpadded_or_tilde_ids_equal_the_reference(ids):
    # "tilde": every third pub_id is the one before plus "~1" (P1 and P1~1);
    # copies named "<pub_id>~<n>" would interleave the two publications'
    # copies. "unpadded": P0, P1, ..., where "P1" < "P10" but "P10~" <
    # "P1~". The table sums each row's copies together, in pub_id order,
    # and so does the reference, which names copies by pub_id rank; a
    # synth corpus's citations are varied enough that another order
    # changes the last bits of a sum.
    records = generate(SynthConfig(n_institutions=6, seed=3)).records
    if ids == "tilde":
        corpus = _with_ids(records, lambda i, rec: records[i - 1].pub_id + "~1" if i % 3 == 2 else rec.pub_id)
    else:
        corpus = _with_ids(records, lambda i, rec: f"P{i}")
    config = PipelineConfig(seed=0, assign_roles=False)
    table = build_table(corpus, config.multidisciplinary_label)
    for k in range(20):
        counts = replicate_counts(table.area_sizes, config.seed, k)
        resampled = resample_within_areas(corpus, np.random.default_rng([config.seed, k]))
        assert_same_statistics(replicate_values(table, counts, config), record_statistic_values(resampled, config))


def test_reassigned_entries_keep_their_order_within_a_row():
    # A row's new entries follow its kept ones, in reference order. Each of
    # the six rows merges 41 entries under one row key, so only a stable
    # merge keeps that order: numpy's default argsort of so many equal
    # int64 keys does not.
    labels = [f"F{k:02d}" for k in range(40)][::-1]  # reference order against label order
    refs = {label: 1.0 + k for k, label in enumerate(labels)}
    records = [
        PublicationRecord(f"p{i}", "U", "A", 2012, 1, "J", {"A": 0.5, "MULTI": 0.5}, refs) for i in range(6)
    ]
    columns = bibagree.corpus.Columns.from_records(records)
    row, code, weight, flagged = reassign_codes(columns, "MULTI")
    total = sum(refs.values())
    assert row.tolist() == [i for i in range(6) for _ in range(41)]
    for i in range(6):
        assert [columns.labels[c] for c in code[row == i].tolist()] == ["A", *labels]
        assert weight[row == i].tolist() == [0.5, *(0.5 * w / total for w in refs.values())]
    assert flagged.tolist() == []


@pytest.mark.parametrize(
    "n_first, n_second, size",
    [(0, 0, 0), (1, 1, 5), (4, 600, 20_000), (30, 40, 100), (300, 300, 100), (5_000, 7, 3_000)],
)
def test_pair_codes_equal_np_unique(n_first, n_second, size):
    # Up to a range product of 4 * size + 1024 the codes come from a
    # presence array, above it from np.unique.
    rng = np.random.default_rng(size)
    first = rng.integers(0, max(n_first, 1), size)
    second = rng.integers(0, max(n_second, 1), size)
    n = int(second.max(initial=-1)) + 1
    pairs, codes = np.unique(first * n + second, return_inverse=True)
    got = _pair_codes(first, second)
    for got_codes, want in zip(got, (pairs // n, pairs % n, codes.reshape(-1))):
        assert got_codes.dtype == want.dtype
        assert got_codes.tolist() == want.tolist()


def _without_dense_codes(monkeypatch):
    def by_unique(values, low, size):
        distinct, codes = np.unique(values, return_inverse=True)
        return distinct, codes.reshape(-1)

    monkeypatch.setattr(bibagree.table, "_dense_codes", by_unique)


def test_dense_codes_give_the_np_unique_table(monkeypatch, tmp_path):
    # A year of -10**30 loads as an object column; its range takes the
    # np.unique fallback, and the point pass runs as on any other corpus.
    # An empty corpus has no year to start the range from.
    records = list(generate(SynthConfig(n_institutions=6, seed=4, multidisciplinary_share=0.3)).records)
    records[3] = replace(records[3], year=-(10**30))
    path = tmp_path / "corpus.csv"
    save_corpus(Corpus(records=tuple(records), census_year=2015), path)
    far_year = load_corpus(path)
    assert far_year.columns.year.dtype == object
    empty = Corpus(records=(), census_year=2015)
    corpora = [*COPY_ORDER_CASES.values(), far_year, empty]
    config = PipelineConfig(seed=0, assign_roles=False)
    tables = [build_table(corpus, config.multidisciplinary_label) for corpus in corpora]
    stats = [compute_pipeline_stats(corpus, config) for corpus in corpora]
    assert_equals_record_pipeline(far_year, config)
    _without_dense_codes(monkeypatch)
    for corpus, table, point in zip(corpora, tables, stats):
        want = build_table(corpus, config.multidisciplinary_label)
        for name, value in asdict(table).items():
            expected = getattr(want, name)
            if isinstance(value, np.ndarray):
                assert value.dtype == expected.dtype, name
                np.testing.assert_array_equal(value, expected, err_msg=name)
            else:
                assert value == expected, name
        assert compute_pipeline_stats(corpus, config) == point


def test_run_builds_no_record(tmp_path, monkeypatch):
    # A run reads, screens and codes the corpus columns; it never needs a
    # PublicationRecord, and building 20k of them costs more than the load.
    corpus = generate(SynthConfig(seed=7, multidisciplinary_share=0.2))
    corpus_path = tmp_path / "corpus.csv"
    save_corpus(corpus, corpus_path)
    population_path = tmp_path / "population.csv"
    population_path.write_text(
        "institution_id,count\n" + "".join(f"{inst},{n}\n" for inst, n in corpus.population_counts.items())
    )
    built = 0
    original = PublicationRecord.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(PublicationRecord, "__init__", counted)
    report = run(
        corpus_path, tmp_path / "out", PipelineConfig(seed=7, n_replicates=3), SchemaOptions(population_path=str(population_path))
    )
    assert report.coverage and report.statistics
    # Nor does the point pass's per-publication view.
    loaded = load_corpus(corpus_path)
    assert indicators.build_indicator_table(loaded, indicators.compute_baselines(loaded)).ncs
    assert built == 0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.one_of(st.integers(1, 9), st.integers(2000, 3001)),
    st.sampled_from([1, 2, 3, 10, None]),
    st.integers(0, 2**32 - 1),
)
def test_median_rows_equals_np_median(n_rows, length, n_distinct, seed):
    # Nonnegative rows, as deviations are: few distinct values (heavy ties,
    # zeros among them) or continuous values with some zeros.
    rng = np.random.default_rng(seed)
    if n_distinct is None:
        rows = rng.exponential(size=(n_rows, length))
        rows[rng.random(rows.shape) < 0.2] = 0.0
    else:
        rows = rng.integers(0, n_distinct, size=(n_rows, length)) * 0.1
    got = _median_rows(rows)
    assert got.tobytes() == np.median(rows, axis=1).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.25, 1.0, 2.5, 7.0]), st.integers(0, 3)),
        max_size=40,
    )
)
def test_midrank_percentiles_of_contiguous_groups_match_oracle(rows):
    rows = sorted(rows, key=lambda r: r[0])  # groups contiguous, values in any order
    group = np.array([g for g, _, _ in rows], dtype=np.intp)
    values = np.array([v for _, v, _ in rows])
    counts = np.array([c for _, _, c in rows], dtype=np.intp)
    got = _midrank_percentiles(group, values, counts)
    for i, (g, v, c) in enumerate(rows):
        if not c:
            assert got[i] == 0.0
            continue
        copies = [u for h, u, n in rows if h == g for _ in range(n)]
        assert got[i] == oracle_percentiles(copies)[copies.index(v)]


@settings(max_examples=150, deadline=None)
@given(corpora(), st.integers(0, 2**31), st.booleans())
def test_journal_percentiles_per_cell_equal_row_ranks(corpus, seed, point):
    # Without external percentiles the table ranks NJS itself, per
    # area x journal-year cell weighted by its kept copies.
    corpus = replace(
        corpus,
        records=tuple(replace(r, ext_citation_percentile=None, ext_journal_percentile=None) for r in corpus.records),
    )
    table = build_table(corpus, "MULTI")
    if point:
        counts = np.ones(len(table.area), dtype=np.intp)
    else:
        counts = replicate_counts(table.area_sizes, seed, 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # as in a pass
        scores = _scores(table, counts)
    w = np.where(scores.keep, counts, 0)
    rows = _midrank_percentiles(table.area, scores.series["njs"], w)
    assert scores.series["journal_percentile"][scores.keep].tobytes() == rows[scores.keep].tobytes()
