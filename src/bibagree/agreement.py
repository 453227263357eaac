"""Regression-calibrated agreement statistics.

Each metric is mapped to a predicted reviewer-1 score through a per-area
OLS line fitted on the size-independent institutional view; MAD is the
median absolute residual, MAPD the median absolute residual relative to
the observed score (the size-dependent view, where the publication count
cancels). Publication-level MAD uses a separate per-area fit. This module
holds the result types and the skip reasons; ``table.py`` fits the lines
and computes the statistics, keeping the residuals in the fit's buffer.
Its fit reproduces the reference ``fit_lines`` of ``tests/record_pipeline.py``
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

LEVEL_INSTITUTION = "institution"
LEVEL_PUBLICATION = "publication"
VIEW_SIZE_INDEPENDENT = "size_independent"
VIEW_SIZE_DEPENDENT = "size_dependent"
MIN_POINTS = 3  # fewest points a calibration line is fitted to


@dataclass(frozen=True)
class CalibrationFit:
    area_id: str
    metric_label: str
    intercept: float
    slope: float
    n_points: int


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


def too_few_points(area_id: str, metric_label: str, n_points: int) -> str:
    """Why no line is fitted to fewer than MIN_POINTS points."""
    return f"{area_id}/{metric_label}: {n_points} points, need >= {MIN_POINTS}"


def zero_variance(area_id: str, metric_label: str) -> str:
    """Why no line is fitted to a predictor of variance 0."""
    return f"{area_id}/{metric_label}: zero predictor variance"


def nonpositive_score(y: float) -> str:
    """Why MAPD is undefined when an observed score is not positive."""
    return f"mapd: nonpositive observed score {y}"
