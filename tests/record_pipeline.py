"""The point pass record by record: the exact reference for the publication
table.

Indicators come per record from indicators.build_indicator_table, are
folded per institution and area by aggregate, pivoted per area and compared
by run_agreement, each summing in ascending pub_id order with explicit left
folds, never the builtin sum(), whose rounding is compensated from Python
3.12 on. So the reference equals table.py bit for bit on every Python. On a
bootstrap replicate materialised by resample_within_areas, whose copies are
named "<pub_id>~<draw number>", it gives what table.table_statistics
computes from the replicate's copy counts.

load_corpus is the row-by-row loader: it parses every row into a record
and validates the records one by one. The columnar loader in
bibagree.corpus must raise what it raises and load what it loads.
"""

import csv
import json
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bibagree import agreement as agr
from bibagree import aggregation
from bibagree.corpus import (
    CSV_COLUMNS,
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    PublicationRecord,
    SchemaOptions,
    _detect_format,
    _record_from_json,
    _record_from_row,
    load_population_counts,
    overall_score,
    validate_record,
)
from bibagree.indicators import FieldYearBaseline, build_indicator_table, compute_baselines, reassign_multidisciplinary
from bibagree.pipeline import PipelineConfig, PipelineStats, compute_pipeline_stats
from bibagree.table import SERIES_LABELS


class AggregationError(Exception):
    pass


class SeriesCoverageError(AggregationError):
    """Score series do not cover the same publication set."""


class AgreementError(Exception):
    pass


class DegeneratePredictorError(AgreementError):
    """Too few points or zero predictor variance; no calibration possible."""


@dataclass(frozen=True)
class InstitutionAggregate:
    """One (institution, area) unit with each series' mean and total."""

    institution_id: str
    area_id: str
    pub_count: int
    mean_score: dict[str, float]
    total_score: dict[str, float]


@dataclass(frozen=True)
class ScoreSeries:
    label: str
    values: dict[str, float]  # pub_id -> score


def aggregate(
    corpus: Corpus, series: list[ScoreSeries], min_pubs: int = 1
) -> tuple[list[InstitutionAggregate], list[tuple[str, str]]]:
    """Fold publication scores into (institution, area) aggregates.

    Returns (aggregates, excluded) where excluded lists the (institution,
    area) pairs dropped by the min_pubs filter. All series must cover the
    identical pub_id set; summation runs in ascending pub_id order.
    """
    if not series:
        return [], []
    covered = set(series[0].values)
    for s in series[1:]:
        if set(s.values) != covered:
            raise SeriesCoverageError(
                f"series {s.label!r} covers {len(s.values)} publications, "
                f"{series[0].label!r} covers {len(covered)}"
            )
    groups: dict[tuple[str, str], list[str]] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        if rec.pub_id in covered:
            groups.setdefault((rec.institution_id, rec.area_id), []).append(rec.pub_id)

    aggregates: list[InstitutionAggregate] = []
    excluded: list[tuple[str, str]] = []
    for (inst, area) in sorted(groups):
        pubs = groups[(inst, area)]
        if len(pubs) < min_pubs:
            excluded.append((inst, area))
            continue
        means = {}
        totals = {}
        for s in series:
            total = 0.0
            for p in pubs:
                total += s.values[p]
            totals[s.label] = total
            means[s.label] = total / len(pubs)
        aggregates.append(InstitutionAggregate(inst, area, len(pubs), means, totals))
    return aggregates, excluded


def unit_rows(aggregates: list[InstitutionAggregate]) -> list[aggregation.InstitutionAggregate]:
    """The aggregates as the package's unit rows: means in SERIES_LABELS
    order, units in (area, institution) order."""
    return [
        aggregation.InstitutionAggregate(
            a.institution_id, a.area_id, a.pub_count, tuple(a.mean_score[label] for label in SERIES_LABELS)
        )
        for a in sorted(aggregates, key=lambda a: (a.area_id, a.institution_id))
    ]


def fit_calibration(points: list[tuple[float, float]], area_id: str, metric_label: str) -> agr.CalibrationFit:
    """agreement.fit_lines over (x, y) points, for a single predictor x."""
    if len(points) < agr.MIN_POINTS:
        raise DegeneratePredictorError(agr.too_few_points(area_id, metric_label, len(points)))
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    (intercept,), (slope,), (var,) = agr.fit_lines(x[None, :], y)
    if var == 0.0:
        raise DegeneratePredictorError(agr.zero_variance(area_id, metric_label))
    return agr.CalibrationFit(area_id, metric_label, float(intercept), float(slope), len(points))


def predict(fit: agr.CalibrationFit, x: float) -> float:
    return fit.intercept + fit.slope * x


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
            raise AgreementError(agr.nonpositive_score(y))
        if p <= 0:
            raise AgreementError(f"mapd: nonpositive publication count {p}")
        devs.append(abs(y - y_hat) / y)
    return float(100.0 * statistics.median(devs))


def run_agreement(
    aggregates: list[InstitutionAggregate],
    publication_scores: dict[str, dict[str, dict[str, float]]],
    baseline_label: str,
    metric_labels: list[str],
) -> agr.AgreementResult:
    """Compute MAD and MAPD per (area, metric) at both levels.

    publication_scores maps area_id -> label -> pub_id -> score and must
    contain baseline_label. The size-dependent prediction reuses the
    size-independent fit scaled by the publication count; no second
    institutional regression is fitted.
    """
    by_area: dict[str, list[InstitutionAggregate]] = {}
    for agg in aggregates:
        by_area.setdefault(agg.area_id, []).append(agg)

    result = agr.AgreementResult(statistics=[], calibrations=[], skips=[])
    stats, fits, skips = result.statistics, result.calibrations, result.skips
    for area_id in sorted(set(by_area) | set(publication_scores)):
        area_aggs = by_area.get(area_id, [])
        pub_scores = publication_scores.get(area_id, {})
        for metric in metric_labels:
            # Institutional level: fit on size-independent means.
            inst_points = [(agg.mean_score[metric], agg.mean_score[baseline_label]) for agg in area_aggs]
            try:
                fit = fit_calibration(inst_points, area_id, metric)
            except DegeneratePredictorError as exc:
                skips.append(agr.SkipEntry(area_id, metric, agr.LEVEL_INSTITUTION, str(exc)))
            else:
                fits.append(fit)
                units = [(y, predict(fit, x)) for x, y in inst_points]
                stats.append(
                    agr.AgreementStatistic(
                        area_id, metric, agr.LEVEL_INSTITUTION, agr.VIEW_SIZE_INDEPENDENT, mad(units), len(units)
                    )
                )
                dep_units = [(y, predict(fit, x), agg.pub_count) for (x, y), agg in zip(inst_points, area_aggs)]
                try:
                    value = mapd(dep_units)
                except AgreementError as exc:
                    skips.append(agr.SkipEntry(area_id, metric, agr.LEVEL_INSTITUTION, str(exc)))
                else:
                    stats.append(
                        agr.AgreementStatistic(
                            area_id, metric, agr.LEVEL_INSTITUTION, agr.VIEW_SIZE_DEPENDENT, value, len(dep_units)
                        )
                    )

            # Publication level: separate per-area fit, MAD only.
            if metric not in pub_scores or baseline_label not in pub_scores:
                continue
            pub_ids = sorted(pub_scores[baseline_label])
            pub_points = [(pub_scores[metric][p], pub_scores[baseline_label][p]) for p in pub_ids]
            try:
                pfit = fit_calibration(pub_points, area_id, metric)
            except DegeneratePredictorError as exc:
                skips.append(agr.SkipEntry(area_id, metric, agr.LEVEL_PUBLICATION, str(exc)))
                continue
            fits.append(pfit)
            punits = [(y, predict(pfit, x)) for x, y in pub_points]
            stats.append(
                agr.AgreementStatistic(
                    area_id, metric, agr.LEVEL_PUBLICATION, agr.VIEW_SIZE_INDEPENDENT, mad(punits), len(punits)
                )
            )
    return result


def weighted_mean_ncs_by_year(corpus: Corpus, baselines: FieldYearBaseline, ncs: dict[str, float]) -> dict[int, float]:
    """Fractionally weighted mean NCS per year (closure diagnostic; equals 1)."""
    num: dict[int, float] = {}
    den: dict[int, float] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        if rec.pub_id not in ncs:
            continue
        total_w = sum(rec.category_weights.values())
        num[rec.year] = num.get(rec.year, 0.0) + total_w * ncs[rec.pub_id]
        den[rec.year] = den.get(rec.year, 0.0) + total_w
    return {y: num[y] / den[y] for y in num}


def resample_within_areas(corpus: Corpus, rng: np.random.Generator) -> Corpus:
    """One bootstrap replicate: per-area sampling with replacement.

    Preserves each area's publication count; duplicated records get
    suffix-disambiguated pub_ids so downstream uniqueness holds.
    """
    by_area: dict[str, list[PublicationRecord]] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        by_area.setdefault(rec.area_id, []).append(rec)
    out: list[PublicationRecord] = []
    for area in sorted(by_area):
        pool = by_area[area]
        idx = rng.integers(0, len(pool), size=len(pool))
        for copy_no, i in enumerate(idx):
            rec = pool[int(i)]
            out.append(replace(rec, pub_id=f"{rec.pub_id}~{copy_no}"))
    return replace(corpus, records=tuple(out))


def statistic_values(corpus: Corpus, config: PipelineConfig) -> dict:
    """Flat {(area, metric, level, view): value} view of compute_pipeline_stats."""
    return {s.key(): s.value for s in compute_pipeline_stats(corpus, config).statistics}


def build_series(corpus: Corpus, config: PipelineConfig) -> tuple[list[ScoreSeries], dict[str, int]]:
    """Per-publication score series for the six standard labels.

    Records flagged during indicator computation are dropped from every
    series so downstream aggregation sees a consistent publication set.
    """
    baselines = compute_baselines(corpus)
    table = build_indicator_table(corpus, baselines)
    keep = sorted(table.ncs)
    rev1 = {}
    rev2 = {}
    for rec in corpus.records:
        if rec.pub_id in table.ncs:
            rev1[rec.pub_id] = float(overall_score(rec.review_a))
            rev2[rec.pub_id] = float(overall_score(rec.review_b))
    series = [
        ScoreSeries("reviewer1", rev1),
        ScoreSeries("reviewer2", rev2),
        ScoreSeries("ncs", {p: table.ncs[p] for p in keep}),
        ScoreSeries("njs", {p: table.njs[p] for p in keep}),
        ScoreSeries("citation_percentile", {p: table.citation_percentile[p] for p in keep}),
        ScoreSeries("journal_percentile", {p: table.journal_percentile[p] for p in keep}),
    ]
    flag_counts: dict[str, int] = {}
    for reason in table.flagged.values():
        flag_counts[reason] = flag_counts.get(reason, 0) + 1
    return series, flag_counts


def record_pipeline_stats(corpus: Corpus, config: PipelineConfig) -> PipelineStats:
    """Reassignment, indicators, aggregation and agreement on one corpus."""
    corpus, unredistributable = reassign_multidisciplinary(corpus, config.multidisciplinary_label)
    series, flag_counts = build_series(corpus, config)
    if unredistributable:
        flag_counts["unredistributable_multidisciplinary"] = len(unredistributable)
    aggregates, excluded = aggregate(corpus, series, config.min_pubs)
    if excluded:
        flag_counts["below_min_pubs"] = len(excluded)

    by_series = {s.label: s.values for s in series}
    pub_scores: dict[str, dict[str, dict[str, float]]] = {}
    for rec in corpus.records:
        if rec.pub_id not in by_series[config.baseline_label]:
            continue
        area = pub_scores.setdefault(rec.area_id, {label: {} for label in by_series})
        for label, values in by_series.items():
            area[label][rec.pub_id] = values[rec.pub_id]

    result = run_agreement(aggregates, pub_scores, config.baseline_label, list(config.metric_labels))
    return PipelineStats(
        statistics=result.statistics,
        skips=result.skips,
        calibrations=result.calibrations,
        aggregates=aggregates,
        flagged_records=flag_counts,
        excluded_below_min_pubs=excluded,
    )


def record_statistic_values(corpus: Corpus, config: PipelineConfig) -> dict:
    """Flat {(area, metric, level, view): value} view of record_pipeline_stats."""
    return {s.key(): s.value for s in record_pipeline_stats(corpus, config).statistics}


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL)."""
    path = Path(path)
    if not path.exists():
        raise CorpusParseError(f"corpus file not found: {path}")
    fmt = _detect_format(path)
    records: list[PublicationRecord] = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path.name} line {lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusParseError(f"{where}: invalid JSON: {exc}") from exc
                records.append(_record_from_json(obj, where))
    else:
        delim = "\t" if fmt == "tsv" else ","
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, delimiter=delim)
            missing = set(CSV_COLUMNS) - set(reader.fieldnames or [])
            if missing:
                raise CorpusParseError(f"{path.name}: missing columns {sorted(missing)}")
            last = reader.fieldnames[-1]
            for lineno, row in enumerate(reader, start=2):
                # DictReader files extra fields under None and fills missing ones with None.
                if None in row or row[last] is None:
                    more = "more" if None in row else "fewer"
                    raise CorpusParseError(f"{path.name} row {lineno}: {more} fields than the header")
                records.append(_record_from_row(row, f"{path.name} row {lineno}"))

    if not records:
        raise CorpusParseError(f"{path.name}: no records")
    census_year = options.census_year
    if census_year is None:
        census_year = max(r.year for r in records)
    seen: set[str] = set()
    for rec in records:
        if rec.pub_id in seen:
            raise CorpusValidationError(f"duplicate pub_id {rec.pub_id!r}")
        seen.add(rec.pub_id)
        validate_record(rec, census_year)

    population = None
    if options.population_path:
        population = load_population_counts(options.population_path)
        # A population is never smaller than its sample.
        for inst, n in Counter(r.institution_id for r in records).items():
            if inst in population and population[inst] < n:
                raise CorpusValidationError(
                    f"{options.population_path}: institution {inst!r} has population count "
                    f"{population[inst]} below its {n} records in the corpus"
                )
    return Corpus(records=tuple(records), census_year=census_year, population_counts=population)
