"""The publication table against the record-by-record point pass, on the
corpus itself and on materialised bootstrap replicates."""

import json
import sys
from dataclasses import asdict, replace

import bibagree.indicators
import bibagree.table
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bibagree import Corpus, PublicationRecord, ReviewerScore, SynthConfig, generate, run_bootstrap, save_corpus
from bibagree.agreement import LEVEL_INSTITUTION, LEVEL_PUBLICATION, VIEW_SIZE_DEPENDENT, VIEW_SIZE_INDEPENDENT
from bibagree.indicators import build_indicator_table, compute_baselines, reassign_multidisciplinary
from bibagree.pipeline import PipelineConfig, compute_pipeline_stats, run
from bibagree.resampling import resample_within_areas, replicate_counts
from bibagree.table import build_table, table_statistics
from record_pipeline import record_pipeline_stats, record_statistic_values

METRICS_R1 = ("reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile")
METRICS_NCS = ("reviewer1", "reviewer2", "njs", "citation_percentile", "journal_percentile")


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def assert_same_statistics(got, ref):
    assert set(got) == set(ref), sorted(set(got) ^ set(ref))
    for key, value in ref.items():
        assert close(got[key], value), (key, got[key], value)


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
    return {own: 0.6, "MULTI": 0.4}, {other: 1.0}


RECORD = st.tuples(
    st.integers(0, 2),  # area
    st.integers(0, 4),  # institution
    st.sampled_from([2011, 2012]),
    st.integers(0, 4),  # citations, zero often
    st.integers(0, 4),  # category layout
    st.integers(0, 2),  # main field; fields are shared across areas
    st.integers(0, 2),  # journal
    st.lists(st.integers(1, 10), min_size=6, max_size=6),  # both reviews
)


@st.composite
def corpora(draw, fixed_width_ids=False):
    """Small corpora; ids like P1 and P10, where one is a prefix of the
    other, sort differently once a replicate names copies "<pub_id>~<n>"."""
    rows = draw(st.lists(RECORD, min_size=1, max_size=40))
    ext = draw(st.sampled_from(["none", "all", "some"]))
    id_format = "P{:03d}" if fixed_width_ids or draw(st.booleans()) else "P{}"
    records = []
    for i, (area, inst, year, cites, layout, field, journal, scores) in enumerate(rows):
        weights, refs = _weights(layout, field)
        with_ext = ext == "all" or (ext == "some" and i % 2 == 0)
        records.append(
            PublicationRecord(
                pub_id=id_format.format(i),
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


CONFIGS = st.builds(
    lambda min_pubs, ncs_baseline, seed: PipelineConfig(
        seed=seed,
        min_pubs=min_pubs,
        baseline_label="ncs" if ncs_baseline else "reviewer1",
        metric_labels=METRICS_NCS if ncs_baseline else METRICS_R1,
        n_replicates=8,
        assign_roles=False,
    ),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**31),
)


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
            origin = rec.pub_id.split("~")[0]
            copies[origin] = copies.get(origin, 0) + 1
        assert [copies.get(r.pub_id, 0) for r in order] == counts.tolist()
        assert_same_statistics(table_statistics(table, counts, config), record_statistic_values(resampled, config))


@settings(max_examples=100, deadline=None)
@given(corpora(fixed_width_ids=True), CONFIGS)
def test_all_ones_counts_give_point_statistics(corpus, config):
    # The point pass sums in pub_id order and a replicate in copy pub_id
    # order; with fixed-width ids the two orders coincide.
    table = build_table(corpus, config.multidisciplinary_label)
    ones = np.ones(len(corpus.records), dtype=np.int64)
    assert_same_statistics(table_statistics(table, ones, config), record_statistic_values(corpus, config))


@settings(max_examples=300, deadline=None)
@given(corpora(), CONFIGS)
def test_point_pass_equals_record_pipeline_exactly(corpus, config):
    # Statistics, skips, calibrations, aggregates, flag counts and
    # exclusions, compared with ==, on ids like P1 and P10 too.
    assert compute_pipeline_stats(corpus, config) == record_pipeline_stats(corpus, config)


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
    assert table_statistics(table, np.ones(len(corpus.records), dtype=np.int64), config).keys() == keys
    assert {b.key() for b in run_bootstrap(corpus, config)} <= keys


def test_run_codes_the_corpus_once(tmp_path, monkeypatch):
    calls = {"build_table": 0, "reassign_multidisciplinary": 0}
    for module, name in ((bibagree.table, "build_table"), (bibagree.indicators, "reassign_multidisciplinary")):
        original = getattr(module, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("bibagree")]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    corpus_path = tmp_path / "corpus.csv"
    save_corpus(generate(SynthConfig(seed=7, multidisciplinary_share=0.2)), corpus_path)
    run(corpus_path, tmp_path / "out", PipelineConfig(seed=7, n_replicates=3))
    assert calls == {"build_table": 1, "reassign_multidisciplinary": 1}
