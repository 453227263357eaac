"""NCS/NJS computation, baselines, percentiles and multidisciplinary reassignment."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibagree import (
    Corpus,
    PublicationRecord,
    ReviewerScore,
    SynthConfig,
    compute_baselines,
    compute_ncs,
    compute_njs,
    generate,
    percentile_normalize,
    reassign_multidisciplinary,
)
from bibagree.indicators import FieldYearBaseline, ZeroMeanCellError, build_indicator_table
from oracles import oracle_baselines, oracle_ncs, oracle_njs, oracle_percentiles
import record_pipeline
from record_pipeline import weighted_mean_ncs_by_year


def rec(pub_id, weights, citations, year=2012, journal="J1", refs=None, inst="U1", area="A"):
    score = ReviewerScore(5, 5, 5)
    return PublicationRecord(
        pub_id=pub_id,
        institution_id=inst,
        area_id=area,
        year=year,
        citations=citations,
        journal_id=journal,
        category_weights=weights,
        ref_category_weights=refs,
        review_a=score,
        review_b=score,
    )


def corpus_of(*records):
    return Corpus(records=tuple(records), census_year=2015)


class TestReassignment:
    def test_full_redistribution(self):
        c = corpus_of(rec("p1", {"MULTI": 1.0}, 3, refs={"PHY": 0.75, "CHE": 0.25}))
        out, flagged = reassign_multidisciplinary(c, "MULTI")
        assert not flagged
        assert out.records[0].category_weights == pytest.approx({"PHY": 0.75, "CHE": 0.25})

    def test_partial_redistribution_sums_to_one(self):
        c = corpus_of(rec("p1", {"MULTI": 0.5, "BIO": 0.5}, 3, refs={"PHY": 1.0}))
        out, flagged = reassign_multidisciplinary(c, "MULTI")
        w = out.records[0].category_weights
        assert w == pytest.approx({"PHY": 0.5, "BIO": 0.5})
        assert abs(sum(w.values()) - 1.0) <= 1e-9

    def test_no_multidisciplinary_mass_unchanged(self):
        c = corpus_of(rec("p1", {"BIO": 1.0}, 3, refs={"PHY": 1.0}))
        out, flagged = reassign_multidisciplinary(c, "MULTI")
        assert out.records[0].category_weights == {"BIO": 1.0}
        assert not flagged

    def test_missing_reference_profile_flagged(self):
        c = corpus_of(rec("p1", {"MULTI": 1.0}, 3))
        out, flagged = reassign_multidisciplinary(c, "MULTI")
        assert flagged == ["p1"]
        assert out.records[0].category_weights == {"MULTI": 1.0}

    def test_self_only_reference_profile_flagged(self):
        c = corpus_of(rec("p1", {"MULTI": 1.0}, 3, refs={"MULTI": 1.0}))
        out, flagged = reassign_multidisciplinary(c, "MULTI")
        assert flagged == ["p1"]

    def test_weight_total_preserved_on_random_corpus(self):
        corpus = generate(SynthConfig(n_institutions=10, seed=4, multidisciplinary_share=0.3))
        out, _ = reassign_multidisciplinary(corpus, "MULTI")
        for r in out.records:
            assert abs(sum(r.category_weights.values()) - 1.0) <= 1e-9


LABELS = ["A", "B", "C", "MULTI"]
# Category weights as parts of a whole, a zero multidisciplinary part
# included, in any label order.
CATEGORY_PARTS = st.dictionaries(st.sampled_from(LABELS), st.integers(0, 4), min_size=1).filter(
    lambda parts: sum(parts.values()) > 0
)
REF_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, -0.5, 1e-300, 1 / 3, 0.7, 2.0, 1e10]), st.floats(1e-3, 10.0)
)
REFERENCES = st.one_of(st.none(), st.dictionaries(st.sampled_from(LABELS), REF_WEIGHTS))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(CATEGORY_PARTS, REFERENCES), min_size=1, max_size=12))
def test_reassignment_equals_the_record_reference_bit_for_bit(rows):
    # Shares added to an existing field and appended ones, records flagged
    # for references that are missing, only multidisciplinary or not
    # positive, and multidisciplinary weights of 0.
    records = []
    for i, (parts, refs) in enumerate(rows):
        total = sum(parts.values())
        records.append(rec(f"P{i}", {label: k / total for label, k in parts.items()}, 3, refs=refs))
    corpus = corpus_of(*records)
    got, flagged = reassign_multidisciplinary(corpus, "MULTI")
    ref, ref_flagged = record_pipeline.reassign_multidisciplinary(corpus, "MULTI")
    assert flagged == ref_flagged
    assert (got is corpus) == (ref is corpus)
    entries, ref_entries = got.columns.weights, ref.columns.weights
    assert entries.row.dtype == ref_entries.row.dtype
    assert entries.row.tolist() == ref_entries.row.tolist()
    assert got.columns.labels == ref.columns.labels
    assert entries.label.tolist() == ref_entries.label.tolist()
    assert entries.weight.tobytes() == ref_entries.weight.tobytes()


class TestBaselines:
    def test_unweighted_mean(self):
        c = corpus_of(rec("p1", {"A": 1.0}, 2), rec("p2", {"A": 1.0}, 4))
        b = compute_baselines(c)
        assert b.mean_citations[("A", 2012)] == pytest.approx(3.0)

    def test_fractional_contribution(self):
        c = corpus_of(rec("p1", {"A": 0.5, "B": 0.5}, 10))
        b = compute_baselines(c)
        assert b.weight_mass[("A", 2012)] == pytest.approx(0.5)
        assert b.weight_mass[("B", 2012)] == pytest.approx(0.5)
        assert b.mean_citations[("A", 2012)] == pytest.approx(10.0)
        assert b.mean_citations[("B", 2012)] == pytest.approx(10.0)

    def test_mixed_weight_fixture_matches_oracle(self):
        rng = random.Random(7)
        records = [
            rec(
                f"p{i}",
                {"A": w, "B": round(1 - w, 6)} if (w := round(rng.uniform(0.1, 0.9), 6)) < 1 else {"A": 1.0},
                rng.randint(0, 30),
                year=rng.choice([2011, 2012]),
            )
            for i in range(6)
        ]
        b = compute_baselines(corpus_of(*records))
        expected = oracle_baselines(records)
        assert set(b.mean_citations) == set(expected)
        for cell, mean in expected.items():
            assert b.mean_citations[cell] == pytest.approx(mean, abs=1e-12)


class TestNcs:
    def test_self_normalization(self):
        c = corpus_of(rec("p1", {"A": 1.0}, 4), rec("p2", {"A": 1.0}, 4))
        b = compute_baselines(c)
        assert compute_ncs(c.records[0], b) == pytest.approx(1.0)

    def test_weighted_mean_of_ratios(self):
        b = FieldYearBaseline(
            mean_citations={("A", 2012): 2.0, ("B", 2012): 6.0},
            weight_mass={("A", 2012): 1.0, ("B", 2012): 1.0},
        )
        r = rec("p1", {"A": 0.5, "B": 0.5}, 6)
        assert compute_ncs(r, b) == pytest.approx(2.0)

    def test_random_fixture_matches_oracle(self):
        rng = random.Random(21)
        records = []
        for i in range(20):
            w = round(rng.uniform(0.2, 0.8), 6)
            weights = {"A": w, "B": round(1 - w, 6)} if rng.random() < 0.5 else {"A": 1.0}
            records.append(rec(f"p{i}", weights, rng.randint(1, 40), year=rng.choice([2011, 2012])))
        c = corpus_of(*records)
        b = compute_baselines(c)
        means = oracle_baselines(records)
        for r in records:
            assert compute_ncs(r, b) == pytest.approx(oracle_ncs(r, means), abs=1e-12)

    def test_zero_mean_cell_raises(self):
        c = corpus_of(rec("p1", {"A": 1.0}, 0), rec("p2", {"A": 1.0}, 0))
        b = compute_baselines(c)
        with pytest.raises(ZeroMeanCellError):
            compute_ncs(c.records[0], b)

    def test_homogeneous_in_citations(self):
        c = corpus_of(rec("p1", {"A": 0.4, "B": 0.6}, 6), rec("p2", {"A": 1.0}, 3))
        b = compute_baselines(c)
        from dataclasses import replace

        r = c.records[0]
        assert compute_ncs(replace(r, citations=12), b) == pytest.approx(2 * compute_ncs(r, b))


class TestNjs:
    def test_mean_of_two(self):
        c = corpus_of(
            rec("p1", {"A": 1.0}, 1, journal="J9"),
            rec("p2", {"A": 1.0}, 1, journal="J9"),
        )
        njs = compute_njs(c, {"p1": 1.0, "p2": 3.0})
        assert njs == {"p1": 2.0, "p2": 2.0}

    def test_singleton_group(self):
        c = corpus_of(rec("p1", {"A": 1.0}, 1))
        assert compute_njs(c, {"p1": 0.7}) == {"p1": 0.7}

    def test_fixture_matches_oracle(self):
        rng = random.Random(3)
        records = [
            rec(f"p{i}", {"A": 1.0}, rng.randint(0, 20), journal=f"J{rng.randint(1, 4)}",
                year=rng.choice([2011, 2012]))
            for i in range(15)
        ]
        c = corpus_of(*records)
        b = compute_baselines(c)
        ncs = {r.pub_id: compute_ncs(r, b) for r in records}
        njs = compute_njs(c, ncs)
        expected = oracle_njs(records, ncs)
        for pid in expected:
            assert njs[pid] == pytest.approx(expected[pid], abs=1e-12)


class TestPercentiles:
    def test_three_values(self):
        out = percentile_normalize([("a", 1.0), ("b", 2.0), ("c", 3.0)], dict.fromkeys("abc", "g"))
        assert out["a"] == pytest.approx(100 / 6)
        assert out["b"] == pytest.approx(50.0)
        assert out["c"] == pytest.approx(250 / 3)

    def test_tie_takes_mean_rank(self):
        out = percentile_normalize([("a", 5.0), ("b", 5.0)], {"a": "g", "b": "g"})
        assert out == {"a": 50.0, "b": 50.0}

    def test_maximum_of_hundred_distinct(self):
        vals = [(f"p{i}", float(i)) for i in range(100)]
        out = percentile_normalize(vals, {f"p{i}": "g" for i in range(100)})
        assert out["p99"] == pytest.approx(99.5)

    def test_matches_counting_oracle(self):
        rng = random.Random(5)
        vals = [(f"p{i}", float(rng.randint(0, 10))) for i in range(40)]
        out = percentile_normalize(vals, {p: "g" for p, _ in vals})
        expected = oracle_percentiles([v for _, v in vals])
        for (p, _), e in zip(vals, expected):
            assert out[p] == pytest.approx(e, abs=1e-12)

    def test_string_ties_across_groups_match_oracle(self):
        # synth ranks journal ids within each area this way.
        rng = random.Random(7)
        vals = [(f"p{i}", f"AREA{rng.randint(0, 2):02d}-J{rng.randint(0, 4)}") for i in range(90)]
        grouping = {p: v.split("-")[0] for p, v in vals}
        out = percentile_normalize(vals, grouping)
        expected = {}
        for area in set(grouping.values()):
            members = [(p, v) for p, v in vals if grouping[p] == area]
            expected.update(zip((p for p, _ in members), oracle_percentiles([v for _, v in members])))
        assert out == expected

    def test_invariant_under_monotone_transform(self):
        rng = random.Random(6)
        vals = [(f"p{i}", rng.uniform(-5, 5)) for i in range(30)]
        grouping = {p: "g1" if i < 17 else "g2" for i, (p, _) in enumerate(vals)}
        base = percentile_normalize(vals, grouping)
        transformed = [(p, math.exp(0.3 * v) + 7) for p, v in vals]
        assert percentile_normalize(transformed, grouping) == base

    def test_within_group_mean_is_fifty(self):
        rng = random.Random(8)
        vals = [(f"p{i}", rng.gauss(0, 1)) for i in range(25)]
        out = percentile_normalize(vals, {p: "g" for p, _ in vals})
        assert sum(out.values()) / len(out) == pytest.approx(50.0)


class TestClosure:
    def test_weighted_mean_ncs_is_one_per_year(self):
        corpus = generate(SynthConfig(n_institutions=25, seed=9))
        b = compute_baselines(corpus)
        table = build_indicator_table(corpus, b)
        assert not table.flagged
        for year, mean in weighted_mean_ncs_by_year(corpus, b, table.ncs).items():
            assert mean == pytest.approx(1.0, abs=1e-9), year

    def test_njs_closure(self):
        corpus = generate(SynthConfig(n_institutions=25, seed=10))
        b = compute_baselines(corpus)
        table = build_indicator_table(corpus, b)
        mean_njs = sum(table.njs.values()) / len(table.njs)
        mean_ncs = sum(table.ncs.values()) / len(table.ncs)
        assert mean_njs == pytest.approx(mean_ncs, abs=1e-9)

    def test_scale_invariance_after_recomputation(self):
        from dataclasses import replace

        corpus = generate(SynthConfig(n_institutions=10, seed=12, n_areas=1, n_fields_per_area=1))
        b = compute_baselines(corpus)
        ncs_before = {r.pub_id: compute_ncs(r, b) for r in corpus.records}
        scaled = Corpus(
            tuple(replace(r, citations=r.citations * 3) for r in corpus.records),
            corpus.census_year,
        )
        b2 = compute_baselines(scaled)
        for r in scaled.records:
            assert compute_ncs(r, b2) == pytest.approx(ncs_before[r.pub_id], abs=1e-9)


def test_flagged_records_not_dropped_silently():
    records = [rec("p1", {"Z": 1.0}, 0), rec("p2", {"Z": 1.0}, 0), rec("p3", {"A": 1.0}, 4),
               rec("p4", {"A": 1.0}, 2)]
    c = corpus_of(*records)
    table = build_indicator_table(c, compute_baselines(c))
    assert table.flagged == {"p1": "zero_mean_cell", "p2": "zero_mean_cell"}
    assert set(table.ncs) == {"p3", "p4"}
