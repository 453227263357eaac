"""Regression-calibrated agreement statistics.

Each metric is mapped to a predicted reviewer-1 score through a per-area
OLS line fitted on the size-independent institutional view; MAD is the
median absolute residual, MAPD the median absolute residual relative to
the observed score (the size-dependent view, where the publication count
cancels). Publication-level MAD uses a separate per-area fit.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

LEVEL_INSTITUTION = "institution"
LEVEL_PUBLICATION = "publication"
VIEW_SIZE_INDEPENDENT = "size_independent"
VIEW_SIZE_DEPENDENT = "size_dependent"
MIN_POINTS = 3  # fewest points a calibration line is fitted to


class AgreementError(Exception):
    pass


class DegeneratePredictorError(AgreementError):
    """Too few points or zero predictor variance; no calibration possible."""


@dataclass(frozen=True)
class CalibrationFit:
    area_id: str
    metric_label: str
    intercept: float
    slope: float
    n_points: int

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


@dataclass(frozen=True)
class AgreementStatistic:
    area_id: str
    metric_label: str
    level: str
    view: str
    value: float
    n_units: int

    def key(self) -> tuple[str, str, str, str]:
        return (self.area_id, self.metric_label, self.level, self.view)


@dataclass(frozen=True)
class SkipEntry:
    area_id: str
    metric_label: str
    level: str
    reason: str


@dataclass(frozen=True)
class AgreementResult:
    statistics: list[AgreementStatistic]
    calibrations: list[CalibrationFit]
    skips: list[SkipEntry]


def fit_lines(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form least squares of y on each row of x: slope =
    cov(x,y)/var(x), intercept = ybar - slope*xbar.

    Returns the intercepts, slopes and predictor variances per row. A row
    with variance 0 has no line; its slope is 0 and its intercept ybar.
    """
    # A row mean sums pairwise only along contiguous rows; a Fortran-ordered
    # x would sum sequentially and round differently from a single row.
    # Each mean is the add.reduce and true_divide that np.mean runs,
    # without its per-call overhead.
    x = np.ascontiguousarray(x)
    n = len(y)
    xbar = x.sum(axis=1) / n
    dx = x - xbar[:, None]
    var = (dx**2).sum(axis=1) / n
    ybar = y.sum() / n
    slope = np.divide((dx * (y - ybar)).sum(axis=1) / n, var, out=np.zeros_like(var), where=var != 0.0)
    return ybar - slope * xbar, slope, var


def too_few_points(area_id: str, metric_label: str, n_points: int) -> str:
    """Why no line is fitted to fewer than MIN_POINTS points."""
    return f"{area_id}/{metric_label}: {n_points} points, need >= {MIN_POINTS}"


def zero_variance(area_id: str, metric_label: str) -> str:
    """Why no line is fitted to a predictor of variance 0."""
    return f"{area_id}/{metric_label}: zero predictor variance"


def fit_line(x: np.ndarray, y: np.ndarray, area_id: str, metric_label: str) -> CalibrationFit:
    """fit_lines for a single predictor x."""
    if len(x) < MIN_POINTS:
        raise DegeneratePredictorError(too_few_points(area_id, metric_label, len(x)))
    (intercept,), (slope,), (var,) = fit_lines(x[None, :], y)
    if var == 0.0:
        raise DegeneratePredictorError(zero_variance(area_id, metric_label))
    return CalibrationFit(area_id, metric_label, float(intercept), float(slope), len(x))


def fit_calibration(
    points: list[tuple[float, float]], area_id: str, metric_label: str
) -> CalibrationFit:
    """fit_line over (x, y) points."""
    return fit_line(
        np.array([p[0] for p in points], dtype=float),
        np.array([p[1] for p in points], dtype=float),
        area_id,
        metric_label,
    )


def nonpositive_score(y: float) -> str:
    """Why MAPD is undefined when an observed score is not positive."""
    return f"mapd: nonpositive observed score {y}"


def mad(units: list[tuple[float, float]]) -> float:
    """Median absolute deviation between observed and predicted scores."""
    if not units:
        raise AgreementError("mad of empty unit list")
    return float(statistics.median(abs(y - y_hat) for y, y_hat in units))


def mapd(units: list[tuple[float, float, int]]) -> float:
    """Median absolute percentage deviation for the size-dependent view.

    The per-unit deviation is |p*y - p*y_hat| / (p*y). The publication count
    p cancels algebraically, so the deviation is computed as |y - y_hat| / y,
    which keeps the identity with the size-independent form exact. Only the
    observed score y must be positive. Returned as a percentage.
    """
    if not units:
        raise AgreementError("mapd of empty unit list")
    devs = []
    for y, y_hat, p in units:
        if y <= 0:
            raise AgreementError(nonpositive_score(y))
        if p <= 0:
            raise AgreementError(f"mapd: nonpositive publication count {p}")
        devs.append(abs(y - y_hat) / y)
    return float(100.0 * statistics.median(devs))


def run_agreement(
    aggregates,
    publication_scores: dict[str, dict[str, dict[str, float]]],
    baseline_label: str,
    metric_labels: list[str],
) -> AgreementResult:
    """Compute MAD and MAPD per (area, metric) at both levels.

    aggregates: InstitutionAggregate list. publication_scores maps
    area_id -> label -> pub_id -> score and must contain baseline_label.
    The size-dependent prediction reuses the size-independent fit scaled by
    the publication count; no second institutional regression is fitted.
    """
    by_area: dict[str, list] = {}
    for agg in aggregates:
        by_area.setdefault(agg.area_id, []).append(agg)

    stats: list[AgreementStatistic] = []
    fits: list[CalibrationFit] = []
    skips: list[SkipEntry] = []
    area_ids = sorted(set(by_area) | set(publication_scores))
    for area_id in area_ids:
        area_aggs = by_area.get(area_id, [])
        pub_scores = publication_scores.get(area_id, {})
        for metric in metric_labels:
            # Institutional level: fit on size-independent means.
            inst_points = [
                (agg.mean_score[metric], agg.mean_score[baseline_label]) for agg in area_aggs
            ]
            try:
                fit = fit_calibration(inst_points, area_id, metric)
            except DegeneratePredictorError as exc:
                skips.append(SkipEntry(area_id, metric, LEVEL_INSTITUTION, str(exc)))
            else:
                fits.append(fit)
                units = [(y, fit.predict(x)) for x, y in inst_points]
                stats.append(
                    AgreementStatistic(
                        area_id, metric, LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT,
                        mad(units), len(units),
                    )
                )
                dep_units = [
                    (agg.mean_score[baseline_label], fit.predict(agg.mean_score[metric]), agg.pub_count)
                    for agg in area_aggs
                ]
                try:
                    value = mapd(dep_units)
                except AgreementError as exc:
                    skips.append(SkipEntry(area_id, metric, LEVEL_INSTITUTION, str(exc)))
                else:
                    stats.append(
                        AgreementStatistic(
                            area_id, metric, LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT,
                            value, len(dep_units),
                        )
                    )

            # Publication level: separate per-area fit, MAD only.
            if metric not in pub_scores or baseline_label not in pub_scores:
                continue
            pub_ids = sorted(pub_scores[baseline_label])
            pub_points = [
                (pub_scores[metric][p], pub_scores[baseline_label][p]) for p in pub_ids
            ]
            try:
                pfit = fit_calibration(pub_points, area_id, metric)
            except DegeneratePredictorError as exc:
                skips.append(SkipEntry(area_id, metric, LEVEL_PUBLICATION, str(exc)))
                continue
            fits.append(pfit)
            punits = [(y, pfit.predict(x)) for x, y in pub_points]
            stats.append(
                AgreementStatistic(
                    area_id, metric, LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT,
                    mad(punits), len(punits),
                )
            )
    return AgreementResult(statistics=stats, calibrations=fits, skips=skips)
