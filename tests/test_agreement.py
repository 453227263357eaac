"""OLS calibration, MAD/MAPD statistics and the full agreement sweep."""

import random

import numpy as np
import pytest

from bibagree.agreement import (
    LEVEL_INSTITUTION,
    LEVEL_PUBLICATION,
    VIEW_SIZE_DEPENDENT,
    VIEW_SIZE_INDEPENDENT,
    fit_lines,
)
from oracles import oracle_mad, oracle_mapd_sizedep, oracle_median, oracle_ols
from record_pipeline import (
    AgreementError,
    DegeneratePredictorError,
    InstitutionAggregate,
    fit_calibration,
    mad,
    mapd,
    run_agreement,
)


class TestFitCalibration:
    def test_exact_line(self):
        points = [(x, 2 * x + 1) for x in (0.0, 1.0, 2.0, 5.0)]
        fit = fit_calibration(points, "A", "m")
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)

    def test_flat_response(self):
        fit = fit_calibration([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)], "A", "m")
        assert fit.intercept == pytest.approx(5.0)
        assert fit.slope == pytest.approx(0.0)

    def test_matches_normal_equations_oracle(self):
        rng = random.Random(13)
        points = [(rng.uniform(-3, 3), rng.uniform(0, 10)) for _ in range(10)]
        fit = fit_calibration(points, "A", "m")
        a, b = oracle_ols(points)
        assert fit.intercept == pytest.approx(a, abs=1e-9)
        assert fit.slope == pytest.approx(b, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(DegeneratePredictorError, match="need >= 3"):
            fit_calibration([(0.0, 1.0), (1.0, 2.0)], "A", "m")

    def test_zero_variance_predictor(self):
        with pytest.raises(DegeneratePredictorError, match="variance"):
            fit_calibration([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)], "A", "m")

    def test_optimal_against_random_perturbations(self):
        rng = np.random.default_rng(17)
        points = [(float(x), float(y)) for x, y in rng.normal(0, 2, size=(12, 2))]
        fit = fit_calibration(points, "A", "m")

        def rss(a, b):
            return sum((y - (a + b * x)) ** 2 for x, y in points)

        best = rss(fit.intercept, fit.slope)
        for _ in range(1000):
            da, db = rng.uniform(-0.1, 0.1, 2)
            assert best <= rss(fit.intercept + da, fit.slope + db) + 1e-12


class TestFitLines:
    def test_rows_of_a_fortran_ordered_matrix_equal_single_fits(self):
        # Columns picked by fancy indexing give a Fortran-ordered matrix,
        # whose row means would otherwise sum sequentially, not pairwise.
        rng = np.random.default_rng(47)
        base = rng.normal(3.0, 2.0, size=(5, 3000))
        columns = np.sort(rng.choice(3000, size=2000))
        x, y = base[1:, columns], base[0, columns]
        assert x.flags.f_contiguous and not x.flags.c_contiguous
        intercepts, slopes, variances = fit_lines(x, y)
        for row, intercept, slope, var in zip(x, intercepts, slopes, variances):
            fit = fit_calibration(list(zip(row, y)), "A", "m")
            assert (fit.intercept, fit.slope) == (intercept, slope)
            assert var > 0

    def test_zero_variance_row_has_no_line_and_leaves_the_others(self):
        rng = np.random.default_rng(53)
        x = rng.normal(size=(3, 50))
        y = rng.normal(size=50)
        constant = np.vstack([x[0], np.full(50, 2.5), x[2]])
        intercepts, slopes, variances = fit_lines(constant, y)
        alone = fit_lines(x, y)
        assert variances[1] == 0.0 and slopes[1] == 0.0
        for i in (0, 2):
            assert (intercepts[i], slopes[i], variances[i]) == (alone[0][i], alone[1][i], alone[2][i])
        with pytest.raises(DegeneratePredictorError, match="A/m: zero predictor variance"):
            fit_calibration(list(zip(constant[1], y)), "A", "m")


class TestMad:
    def test_perfect_prediction(self):
        assert mad([(5.0, 5.0), (6.0, 6.0), (7.0, 7.0)]) == 0.0

    def test_odd_count_ignores_outlier(self):
        assert mad([(1.0, 0.0), (2.0, 0.0), (9.0, 0.0)]) == 2.0

    def test_even_count_mean_of_central(self):
        assert mad([(1.0, 0.0), (3.0, 0.0)]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(AgreementError):
            mad([])

    def test_matches_sort_oracle(self):
        rng = random.Random(19)
        units = [(rng.uniform(3, 30), rng.uniform(3, 30)) for _ in range(31)]
        assert mad(units) == pytest.approx(oracle_mad(units), abs=1e-12)


class TestMapd:
    def test_p_cancels(self):
        for p in (1, 7, 500):
            assert mapd([(10.0, 9.0, p)] * 3) == pytest.approx(10.0)

    def test_perfect_prediction(self):
        assert mapd([(4.0, 4.0, 3), (5.0, 5.0, 8), (6.0, 6.0, 1)]) == 0.0

    def test_three_unit_enumeration(self):
        units = [(10.0, 9.0, 2), (20.0, 15.0, 5), (5.0, 5.0, 1)]
        assert mapd(units) == pytest.approx(10.0)

    def test_nonpositive_score_rejected(self):
        with pytest.raises(AgreementError, match="nonpositive"):
            mapd([(0.0, 1.0, 2)])

    def test_p_cancellation_is_exact(self):
        # Changing every unit's publication count must not move the result at all.
        rng = random.Random(23)
        units = [(rng.uniform(3, 30), rng.uniform(0, 35), rng.randint(1, 200)) for _ in range(25)]
        rescaled = [(y, yh, rng.randint(1, 500)) for y, yh, _ in units]
        assert mapd(units) == mapd(rescaled)
        assert mapd(units) == mapd([(y, yh, 1) for y, yh, _ in units])

    def test_matches_size_dependent_oracle(self):
        rng = random.Random(24)
        units = [(rng.uniform(3, 30), rng.uniform(0, 35), rng.randint(1, 200)) for _ in range(25)]
        assert mapd(units) == pytest.approx(oracle_mapd_sizedep(units), rel=1e-12)


def make_aggregates(area, rows):
    """rows: (inst, pub_count, {label: mean})"""
    return [
        InstitutionAggregate(inst, area, p, means, {k: p * v for k, v in means.items()})
        for inst, p, means in rows
    ]


def pub_scores_for(area, per_pub):
    """per_pub: {label: {pub_id: value}}"""
    return {area: per_pub}


class TestRunAgreement:
    def test_identity_metric_gives_zero_everywhere(self):
        rng = random.Random(29)
        rows = []
        pubs = {"reviewer1": {}, "m": {}}
        for i in range(8):
            y = rng.uniform(5, 25)
            rows.append((f"U{i}", rng.randint(1, 20), {"reviewer1": y, "m": y}))
            for j in range(5):
                v = rng.uniform(3, 30)
                pubs["reviewer1"][f"p{i}-{j}"] = v
                pubs["m"][f"p{i}-{j}"] = v
        result = run_agreement(make_aggregates("A", rows), pub_scores_for("A", pubs), "reviewer1", ["m"])
        assert len(result.statistics) == 3
        for s in result.statistics:
            assert s.value == pytest.approx(0.0, abs=1e-9)

    def test_independent_metric_mad_matches_flat_line_oracle(self):
        # With a metric carrying no signal the fitted line is nearly flat, so
        # publication MAD approaches the median absolute residual around the
        # fitted line computed directly on the same draw.
        rng = np.random.default_rng(31)
        n = 400
        ys = rng.uniform(3, 30, n)
        xs = rng.normal(0, 1, n)
        pubs = {
            "reviewer1": {f"p{i}": float(ys[i]) for i in range(n)},
            "m": {f"p{i}": float(xs[i]) for i in range(n)},
        }
        rows = [("U0", 3, {"reviewer1": 10.0, "m": 0.1}),
                ("U1", 3, {"reviewer1": 12.0, "m": -0.2}),
                ("U2", 3, {"reviewer1": 14.0, "m": 0.3})]
        result = run_agreement(make_aggregates("A", rows), pub_scores_for("A", pubs), "reviewer1", ["m"])
        pub_mad = next(s for s in result.statistics if s.level == LEVEL_PUBLICATION)
        a, b = oracle_ols(list(zip(xs.tolist(), ys.tolist())))
        expected = oracle_median([abs(y - (a + b * x)) for x, y in zip(xs, ys)])
        assert pub_mad.value == pytest.approx(expected, abs=1e-9)

    def test_degenerate_area_skipped_and_reported(self):
        rows = [("U0", 2, {"reviewer1": 10.0, "m": 1.0}), ("U1", 2, {"reviewer1": 12.0, "m": 2.0})]
        result = run_agreement(make_aggregates("A", rows), {}, "reviewer1", ["m"])
        assert not result.statistics
        (skip,) = result.skips
        assert skip.area_id == "A" and "need >= 3" in skip.reason

    def test_affine_rescaling_of_metric_is_absorbed(self):
        rng = random.Random(37)
        rows = []
        pubs = {"reviewer1": {}, "m": {}}
        for i in range(10):
            x = rng.uniform(0, 4)
            rows.append((f"U{i}", rng.randint(1, 30), {"reviewer1": rng.uniform(5, 25), "m": x}))
        for j in range(40):
            pubs["reviewer1"][f"p{j}"] = rng.uniform(3, 30)
            pubs["m"][f"p{j}"] = rng.uniform(0, 4)
        base = run_agreement(make_aggregates("A", rows), pub_scores_for("A", pubs), "reviewer1", ["m"])

        def rescale(v):
            return 2.5 * v + 11.0

        rows2 = [(i, p, {"reviewer1": m["reviewer1"], "m": rescale(m["m"])}) for i, p, m in rows]
        pubs2 = {"reviewer1": pubs["reviewer1"], "m": {k: rescale(v) for k, v in pubs["m"].items()}}
        scaled = run_agreement(make_aggregates("A", rows2), pub_scores_for("A", pubs2), "reviewer1", ["m"])
        for s1, s2 in zip(base.statistics, scaled.statistics):
            assert s1.key() == s2.key()
            assert s2.value == pytest.approx(s1.value, abs=1e-9)

    def test_both_reviewer_directions_computable(self):
        rng = random.Random(41)
        rows = []
        pubs = {"reviewer1": {}, "reviewer2": {}}
        for i in range(9):
            rows.append((f"U{i}", rng.randint(2, 9),
                         {"reviewer1": rng.uniform(5, 25), "reviewer2": rng.uniform(5, 25)}))
        for j in range(30):
            pubs["reviewer1"][f"p{j}"] = float(rng.randint(3, 30))
            pubs["reviewer2"][f"p{j}"] = float(rng.randint(3, 30))
        fwd = run_agreement(make_aggregates("A", rows), pub_scores_for("A", pubs), "reviewer1", ["reviewer2"])
        rev = run_agreement(make_aggregates("A", rows), pub_scores_for("A", pubs), "reviewer2", ["reviewer1"])
        for res in (fwd, rev):
            assert len(res.statistics) == 3
            assert all(np.isfinite(s.value) for s in res.statistics)

    def test_statistic_views_present(self):
        rng = random.Random(43)
        rows = [(f"U{i}", rng.randint(1, 10),
                 {"reviewer1": rng.uniform(5, 25), "m": rng.uniform(0, 3)}) for i in range(6)]
        result = run_agreement(make_aggregates("A", rows), {}, "reviewer1", ["m"])
        views = {(s.level, s.view) for s in result.statistics}
        assert views == {(LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT), (LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT)}
