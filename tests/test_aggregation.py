"""Institutional aggregation: views, filters, conservation."""

import random

import pytest

from bibagree import Corpus, SynthConfig, generate
from record_pipeline import ScoreSeries, SeriesCoverageError, aggregate
from test_indicators import corpus_of, rec


def series_for(corpus, label="s", fn=lambda r: float(r.citations)):
    return ScoreSeries(label, {r.pub_id: fn(r) for r in corpus.records})


def test_singleton_institution():
    c = corpus_of(rec("p1", {"A": 1.0}, 7))
    aggs, excluded = aggregate(c, [ScoreSeries("s", {"p1": 7.0})])
    assert not excluded
    (a,) = aggs
    assert a.pub_count == 1
    assert a.mean_score["s"] == 7.0
    assert a.total_score["s"] == 7.0


def test_mean_and_total():
    c = corpus_of(rec("p1", {"A": 1.0}, 1), rec("p2", {"A": 1.0}, 1))
    aggs, _ = aggregate(c, [ScoreSeries("s", {"p1": 4.0, "p2": 6.0})])
    (a,) = aggs
    assert a.mean_score["s"] == 5.0
    assert a.total_score["s"] == 10.0


def test_min_pubs_filter_excludes_small_institutions():
    records = [rec(f"p{i}", {"A": 1.0}, i, inst="BIG") for i in range(6)]
    records += [rec(f"q{i}", {"A": 1.0}, i, inst="SMALL") for i in range(3)]
    c = corpus_of(*records)
    s = series_for(c)
    aggs, excluded = aggregate(c, [s], min_pubs=5)
    assert [a.institution_id for a in aggs] == ["BIG"]
    assert excluded == [("SMALL", "A")]


def test_mismatched_series_coverage_rejected(small_corpus):
    full = series_for(small_corpus, "full")
    partial = ScoreSeries("partial", dict(list(full.values.items())[:-1]))
    with pytest.raises(SeriesCoverageError, match="partial"):
        aggregate(small_corpus, [full, partial])


def test_sum_mean_consistency_and_grand_total(small_corpus):
    s1 = series_for(small_corpus, "cit")
    s2 = series_for(small_corpus, "year", lambda r: float(r.year))
    aggs, _ = aggregate(small_corpus, [s1, s2])
    for a in aggs:
        for label in ("cit", "year"):
            assert a.total_score[label] == pytest.approx(a.pub_count * a.mean_score[label], abs=1e-9)
    grand = sum(a.total_score["cit"] for a in aggs)
    assert grand == pytest.approx(sum(s1.values.values()), abs=1e-9)


def test_permutation_invariance(small_corpus):
    s = series_for(small_corpus)
    shuffled = list(small_corpus.records)
    random.Random(2).shuffle(shuffled)
    reordered = Corpus(tuple(shuffled), small_corpus.census_year)
    assert aggregate(small_corpus, [s]) == aggregate(reordered, [s])


def test_institutions_only_in_their_areas():
    corpus = generate(SynthConfig(n_institutions=6, n_areas=3, seed=1))
    aggs, _ = aggregate(corpus, [series_for(corpus)])
    present = {(r.institution_id, r.area_id) for r in corpus.records}
    assert {(a.institution_id, a.area_id) for a in aggs} == present
