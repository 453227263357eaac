"""Acceptance suite: end-to-end checks with one printed verdict per criterion.

Every criterion recomputes the quantity under test through an independent
route (loop-based oracles in oracles.py, exact rational arithmetic, or a
rerun under permuted conditions) and compares against the library output.
"""

import contextlib
import json
import math
import os
import random
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from bibagree import (
    PipelineConfig,
    PubCountSpec,
    SynthConfig,
    assign_reviewer_roles,
    generate,
    indicators,
    overall_score,
)
from bibagree.agreement import (
    LEVEL_INSTITUTION,
    LEVEL_PUBLICATION,
    VIEW_SIZE_DEPENDENT,
    VIEW_SIZE_INDEPENDENT,
)
from bibagree.pipeline import compute_pipeline_stats, run_bootstrap
from bibagree.table import SERIES_LABELS, _fit, _midrank_percentiles
from oracles import (
    oracle_baselines,
    oracle_mad,
    oracle_mapd_sizedep,
    oracle_midrank_quantile,
    oracle_ncs,
    oracle_njs,
    oracle_ols,
    oracle_percentiles,
)
from record_pipeline import (
    InstitutionAggregate,
    build_indicator_table,
    compute_baselines,
    mapd,
    percentile_normalize,
    predict,
    resample_within_areas,
    run_agreement,
    statistic_values,
    weighted_mean_ncs_by_year,
)

METRICS = ("reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile")


@pytest.fixture
def verdict(request):
    """One pass/fail line per criterion, printed outside pytest's capture."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextlib.contextmanager
    def _verdict(number, name):
        def emit(status):
            line = f"ACCEPTANCE {number} ({name}): {status}"
            if capman is not None:
                with capman.global_and_fixture_disabled():
                    print(line, flush=True)
            else:
                print(line, file=sys.__stdout__, flush=True)

        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")

    return _verdict


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def oracle_pipeline(corpus):
    """Loop-based recomputation of everything compute_pipeline_stats produces.

    Returns ({(area, metric, level, view): value}, {(area, metric): (a, b)}).
    """
    cell_means = oracle_baselines(corpus.records)
    keep = [
        rec
        for rec in corpus.records
        if all(cell_means[(f, rec.year)] > 0 for f in rec.category_weights)
    ]
    ncs = {rec.pub_id: oracle_ncs(rec, cell_means) for rec in keep}
    njs = oracle_njs(corpus.records, ncs)

    by_area = {}
    for rec in keep:
        by_area.setdefault(rec.area_id, []).append(rec)
    series = {
        "reviewer1": {r.pub_id: float(overall_score(r.review_a)) for r in keep},
        "reviewer2": {r.pub_id: float(overall_score(r.review_b)) for r in keep},
        "ncs": ncs,
        "njs": njs,
        "citation_percentile": {},
        "journal_percentile": {},
    }
    for recs in by_area.values():
        ids = sorted(r.pub_id for r in recs)
        for label, src in (("citation_percentile", ncs), ("journal_percentile", njs)):
            pcts = oracle_percentiles([src[p] for p in ids])
            for p, v in zip(ids, pcts):
                series[label][p] = v

    stats = {}
    fits = {}
    for area in sorted(by_area):
        recs = by_area[area]
        groups = {}
        for rec in recs:
            groups.setdefault(rec.institution_id, []).append(rec.pub_id)
        inst_rows = []  # (pub_count, {label: mean})
        for inst in sorted(groups):
            pubs = groups[inst]
            means = {lab: sum(series[lab][p] for p in pubs) / len(pubs) for lab in series}
            inst_rows.append((len(pubs), means))
        for metric in METRICS:
            points = [(m[metric], m["reviewer1"]) for _, m in inst_rows]
            xs = [x for x, _ in points]
            if len(points) >= 3 and max(xs) > min(xs):
                a, b = oracle_ols(points)
                fits[(area, metric)] = (a, b)
                units = [(y, a + b * x) for x, y in points]
                stats[(area, metric, LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT)] = oracle_mad(units)
                dep = [(m["reviewer1"], a + b * m[metric], p) for p, m in inst_rows]
                stats[(area, metric, LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT)] = oracle_mapd_sizedep(dep)
            ids = sorted(r.pub_id for r in recs)
            ppoints = [(series[metric][p], series["reviewer1"][p]) for p in ids]
            pxs = [x for x, _ in ppoints]
            if len(ppoints) >= 3 and max(pxs) > min(pxs):
                pa, pb = oracle_ols(ppoints)
                punits = [(y, pa + pb * x) for x, y in ppoints]
                stats[(area, metric, LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT)] = oracle_mad(punits)
    return stats, fits


def test_criterion_1_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    with verdict(1, "oracle equivalence"):
        for s in range(25):
            corpus = generate(
                SynthConfig(
                    n_institutions=5,
                    pubs_per_institution=PubCountSpec("constant", value=10),
                    n_areas=2,
                    seed=1000 + s,
                )
            )
            corpus = assign_reviewer_roles(corpus, 1000 + s)
            assert len(corpus.records) == 50

            baselines = compute_baselines(corpus)
            expected_cells = oracle_baselines(corpus.records)
            assert set(baselines.mean_citations) == set(expected_cells)
            for cell, mean in expected_cells.items():
                assert close(baselines.mean_citations[cell], mean)

            table = build_indicator_table(corpus, baselines)
            cell_means = expected_cells
            keep = [
                r for r in corpus.records
                if all(cell_means[(f, r.year)] > 0 for f in r.category_weights)
            ]
            exp_ncs = {r.pub_id: oracle_ncs(r, cell_means) for r in keep}
            exp_njs = oracle_njs(corpus.records, exp_ncs)
            assert set(table.ncs) == set(exp_ncs)
            for p in exp_ncs:
                assert close(table.ncs[p], exp_ncs[p])
                assert close(table.njs[p], exp_njs[p])

            # The point pass's own scores, as a run computes them.
            view = indicators.build_indicator_table(corpus, indicators.compute_baselines(corpus))
            assert set(view.ncs) == set(view.njs) == set(exp_ncs)
            for p in exp_ncs:
                assert close(view.ncs[p], exp_ncs[p])
                assert close(view.njs[p], exp_njs[p])

            got = compute_pipeline_stats(corpus, PipelineConfig(assign_roles=False))
            exp_stats, exp_fits = oracle_pipeline(corpus)
            assert {st.key() for st in got.statistics} == set(exp_stats)
            for st in got.statistics:
                assert close(st.value, exp_stats[st.key()]), st.key()
            got_fits = {
                (f.area_id, f.metric_label): (f.intercept, f.slope)
                for f in got.calibrations
                if f.n_points <= 10  # institutional fits; publication fits have 1 point/pub
            }
            for key, (a, b) in exp_fits.items():
                ga, gb = got_fits[key]
                assert close(ga, a)
                assert close(gb, b)
        assert time.perf_counter() - t0 < 10.0


@pytest.mark.skipif(
    "ASSESSMENT_CORPUS" not in os.environ,
    reason="set ASSESSMENT_CORPUS to a corpus file with areas PHYS and AGRVET",
)
def test_criterion_1_assessment_dataset_benchmarks():
    """Institutional agreement benchmarks on the restricted assessment corpus.

    The corpus file named by ASSESSMENT_CORPUS must use area ids PHYS and
    AGRVET. Expected values (tolerance +/-0.1 for MAD, +/-0.5 for MAPD):
    PHYS   MAD ncs 1.9 / reviewer2 1.0, MAPD ncs 7.9 / reviewer2 3.7
    AGRVET MAD ncs 1.3 / reviewer2 0.9, MAPD ncs 4.0 / reviewer2 5.4
    """
    from bibagree.corpus import load_corpus

    corpus = load_corpus(os.environ["ASSESSMENT_CORPUS"])
    corpus = assign_reviewer_roles(corpus, 0)
    stats = {
        s.key(): s.value
        for s in compute_pipeline_stats(corpus, PipelineConfig(assign_roles=False)).statistics
    }
    expectations = [
        ("PHYS", "ncs", VIEW_SIZE_INDEPENDENT, 1.9, 0.1),
        ("PHYS", "reviewer2", VIEW_SIZE_INDEPENDENT, 1.0, 0.1),
        ("PHYS", "ncs", VIEW_SIZE_DEPENDENT, 7.9, 0.5),
        ("PHYS", "reviewer2", VIEW_SIZE_DEPENDENT, 3.7, 0.5),
        ("AGRVET", "ncs", VIEW_SIZE_INDEPENDENT, 1.3, 0.1),
        ("AGRVET", "reviewer2", VIEW_SIZE_INDEPENDENT, 0.9, 0.1),
        ("AGRVET", "ncs", VIEW_SIZE_DEPENDENT, 4.0, 0.5),
        ("AGRVET", "reviewer2", VIEW_SIZE_DEPENDENT, 5.4, 0.5),
    ]
    for area, metric, view, expected, tol in expectations:
        got = stats[(area, metric, LEVEL_INSTITUTION, view)]
        assert abs(got - expected) <= tol, (area, metric, view, got)


def test_criterion_2_normalization_closure_and_cancellation(verdict):
    shapes = [
        (20, 100), (24, 110), (28, 120), (32, 130), (36, 140),
        (40, 150), (44, 160), (48, 170), (50, 180), (50, 200),
    ]
    t0 = time.perf_counter()
    with verdict(2, "normalization closure and p-cancellation"):
        for seed, (n_inst, per) in enumerate(shapes):
            corpus = generate(
                SynthConfig(
                    n_institutions=n_inst,
                    pubs_per_institution=PubCountSpec("constant", value=per),
                    n_areas=3,
                    seed=seed,
                )
            )
            assert len(corpus.records) == n_inst * per
            baselines = compute_baselines(corpus)
            table = build_indicator_table(corpus, baselines)
            for year, mean in weighted_mean_ncs_by_year(corpus, baselines, table.ncs).items():
                assert abs(mean - 1.0) <= 1e-9, (seed, year, mean)
            point_table = indicators.compute_baselines(corpus)
            view = indicators.build_indicator_table(corpus, point_table)
            for year, mean in weighted_mean_ncs_by_year(corpus, point_table, view.ncs).items():
                assert abs(mean - 1.0) <= 1e-9, (seed, year, mean)

            corpus = assign_reviewer_roles(corpus, seed)
            stats = compute_pipeline_stats(corpus, PipelineConfig(assign_roles=False))
            aggs = {}
            for agg in stats.aggregates:
                aggs.setdefault(agg.area_id, []).append(agg)
            inst_fits = [
                f for f in stats.calibrations
                if f.n_points == len(aggs.get(f.area_id, []))
            ]
            assert inst_fits
            for fit in inst_fits:
                obs, metric = SERIES_LABELS.index("reviewer1"), SERIES_LABELS.index(fit.metric_label)
                dep = [(a.means[obs], predict(fit, a.means[metric]), a.pub_count) for a in aggs[fit.area_id]]
                # p changes must not move the float result at all.
                assert mapd(dep) == mapd([(y, yh, 1) for y, yh, _ in dep])
                assert mapd(dep) == mapd([(y, yh, 1000 * p + 7) for y, yh, p in dep])
                # Exact rational route: the per-unit deviation of the totals
                # equals the per-unit deviation of the means, term by term.
                devs_totals = [
                    abs(Fraction(p) * Fraction(y) - Fraction(p) * Fraction(yh))
                    / (Fraction(p) * Fraction(y))
                    for y, yh, p in dep
                ]
                devs_means = [
                    abs(Fraction(y) - Fraction(yh)) / Fraction(y) for y, yh, _ in dep
                ]
                assert devs_totals == devs_means
                exact = 100.0 * float(oracle_median_fraction(devs_totals))
                assert close(mapd(dep), exact)
        assert time.perf_counter() - t0 < 30.0


def oracle_median_fraction(values):
    data = sorted(values)
    n = len(data)
    if n % 2 == 1:
        return data[n // 2]
    return (data[n // 2 - 1] + data[n // 2]) / 2


def cancellation_corpus(seed):
    corpus = generate(
        SynthConfig(
            n_institutions=78,
            pubs_per_institution=PubCountSpec("skewed", min=45, max=75),
            n_areas=4,
            area_share_skew=0.8,
            seed=seed,
        )
    )
    return assign_reviewer_roles(corpus, seed)


def test_criterion_3_error_cancellation_at_aggregation(verdict):
    t0 = time.perf_counter()
    with verdict(3, "error cancellation at aggregation"):
        for seed in (1, 3, 5, 9, 10):
            corpus = cancellation_corpus(seed)
            stats = {
                s.key(): s.value
                for s in compute_pipeline_stats(
                    corpus, PipelineConfig(assign_roles=False)
                ).statistics
            }
            areas = sorted({k[0] for k in stats})
            inst_ranges = []
            pub_ranges = []
            for metric in METRICS:
                inst_vals = []
                pub_vals = []
                for area in areas:
                    inst = stats[(area, metric, LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT)]
                    pub = stats[(area, metric, LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT)]
                    assert inst < pub, (seed, area, metric, inst, pub)
                    inst_vals.append(inst)
                    pub_vals.append(pub)
                inst_ranges.append(max(inst_vals) - min(inst_vals))
                pub_ranges.append(max(pub_vals) - min(pub_vals))
            assert sum(pub_ranges) / len(pub_ranges) < sum(inst_ranges) / len(inst_ranges), seed
        assert time.perf_counter() - t0 < 120.0


def test_criterion_4_bootstrap_correctness(verdict):
    t0 = time.perf_counter()
    with verdict(4, "bootstrap determinism, quantiles and skew"):
        corpus = generate(
            SynthConfig(
                n_institutions=25,
                pubs_per_institution=PubCountSpec("skewed", min=1, max=50),
                n_areas=2,
                seed=42,
            )
        )
        corpus = assign_reviewer_roles(corpus, 42)
        counts = {}
        for rec in corpus.records:
            counts[rec.institution_id] = counts.get(rec.institution_id, 0) + 1
        assert sum(1 for n in counts.values() if n <= 2) >= 5

        config = PipelineConfig(seed=42, n_replicates=1000, assign_roles=False)
        serialized = {}
        for workers in (1, 1, 4, 8):
            boot = run_bootstrap(corpus, PipelineConfig(
                seed=42, n_replicates=1000, n_workers=workers, assign_roles=False))
            serialized.setdefault(workers, []).append(
                json.dumps([asdict(b) for b in boot], sort_keys=True)
            )
        assert serialized[1][0] == serialized[1][1]  # repeated run
        assert serialized[1][0] == serialized[4][0] == serialized[8][0]
        boot = run_bootstrap(corpus, config)

        # Independent quantile route: collect the replicate values with a
        # plain loop, then interpolate the empirical percentile curve.
        replicates = {b.key(): [] for b in boot}
        for k in range(config.n_replicates):
            values = statistic_fn(config)(resample_within_areas(corpus, np.random.default_rng([config.seed, k])))
            for key in replicates:
                if key in values:
                    replicates[key].append(values[key])
        for b in boot:
            reps = replicates[b.key()]
            assert b.n_missing == config.n_replicates - len(reps)
            assert close(b.lower, oracle_midrank_quantile(reps, 0.025))
            assert close(b.upper, oracle_midrank_quantile(reps, 0.975))

        inst = [b for b in boot if b.level == LEVEL_INSTITUTION]
        upward = sum(1 for b in inst if (b.upper - b.point) > (b.point - b.lower))
        assert upward >= 0.60 * len(inst), (upward, len(inst))
        assert time.perf_counter() - t0 < 300.0


def statistic_fn(config):
    import functools

    return functools.partial(statistic_values, config=config)


def test_criterion_5_min_pubs_robustness(verdict):
    t0 = time.perf_counter()
    with verdict(5, "minimum-size filter robustness"):
        corpus = cancellation_corpus(1)
        base = compute_pipeline_stats(corpus, PipelineConfig(assign_roles=False))
        filtered = compute_pipeline_stats(corpus, PipelineConfig(min_pubs=5, assign_roles=False))

        small = {(a.institution_id, a.area_id) for a in base.aggregates if a.pub_count < 5}
        assert set(filtered.excluded_below_min_pubs) == small
        assert {(a.institution_id, a.area_id) for a in filtered.aggregates} == {
            (a.institution_id, a.area_id) for a in base.aggregates
        } - small

        base_stats = {s.key(): s.value for s in base.statistics}
        for s in filtered.statistics:
            if s.level == LEVEL_PUBLICATION:
                assert s.value == base_stats[s.key()]  # filter is institutional only
            else:
                before = base_stats[s.key()]
                assert abs(s.value - before) <= 0.20 * abs(before), (s.key(), before, s.value)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_6_percentile_and_affine_invariance(verdict):
    t0 = time.perf_counter()
    with verdict(6, "monotone and affine invariances"):
        rng = random.Random(99)
        values = [(f"p{i}", float(rng.randint(0, 40))) for i in range(120)]  # many ties
        grouping = {p: f"G{i % 3}" for i, (p, _) in enumerate(values)}
        base = percentile_normalize(values, grouping)
        # The live ranking of a run takes each group's rows contiguously.
        order = sorted(range(len(values)), key=lambda i: grouping[values[i][0]])
        group = np.array([int(grouping[values[i][0]][1:]) for i in order])
        ones = np.ones(len(order), dtype=np.intp)

        def live(vals):
            return _midrank_percentiles(group, np.array([vals[i][1] for i in order]), ones).tolist()

        live_base = live(values)
        assert live_base == [base[values[i][0]] for i in order]
        for _ in range(100):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.1, 5.0)
            c = rng.uniform(-100.0, 100.0)
            mapped = [(p, a * math.atan(v) + b * v + c) for p, v in values]
            assert percentile_normalize(mapped, grouping) == base
            assert live(mapped) == live_base

        rows = []
        pubs = {"reviewer1": {}, "m": {}}
        for i in range(12):
            rows.append(
                InstitutionAggregate(
                    f"U{i}", "A", rng.randint(1, 30),
                    {"reviewer1": rng.uniform(5, 25), "m": rng.uniform(0, 4)},
                    {},
                )
            )
        for j in range(60):
            pubs["reviewer1"][f"p{j}"] = rng.uniform(3, 30)
            pubs["m"][f"p{j}"] = rng.uniform(0, 4)
        base_res = run_agreement(rows, {"A": pubs}, "reviewer1", ["m"])

        def live_fit(a, b):
            # A run's fit: the institution level's MAD and MAPD, the publication level's MAD.
            inst = _fit(np.array([[a * r.mean_score["m"] + b for r in rows], [r.mean_score["reviewer1"] for r in rows]]), True)
            pub = _fit(np.array([[a * v + b for v in pubs["m"].values()], list(pubs["reviewer1"].values())]), False)
            return [*inst.mad, *inst.mapd, *pub.mad]

        live_base = live_fit(1.0, 0.0)
        for _ in range(20):
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-50.0, 50.0)
            for v1, v2 in zip(live_base, live_fit(a, b), strict=True):
                assert abs(v2 - v1) <= 1e-9 * max(1.0, abs(v1))
            rows2 = [
                InstitutionAggregate(
                    r.institution_id, r.area_id, r.pub_count,
                    {"reviewer1": r.mean_score["reviewer1"], "m": a * r.mean_score["m"] + b},
                    {},
                )
                for r in rows
            ]
            pubs2 = {
                "reviewer1": pubs["reviewer1"],
                "m": {k: a * v + b for k, v in pubs["m"].items()},
            }
            scaled = run_agreement(rows2, {"A": pubs2}, "reviewer1", ["m"])
            for s1, s2 in zip(base_res.statistics, scaled.statistics):
                assert s1.key() == s2.key()
                assert abs(s2.value - s1.value) <= 1e-9 * max(1.0, abs(s1.value))
        assert time.perf_counter() - t0 < 10.0
