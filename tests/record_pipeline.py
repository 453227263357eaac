"""The point pass record by record: the exact reference for the publication
table.

Multidisciplinary weight is reassigned one record at a time by
reassign_multidisciplinary. Indicators come per record from
indicators.build_indicator_table, are folded per institution and area by
aggregate, pivoted per area and compared by run_agreement, each summing in
ascending pub_id order with explicit left folds, never the builtin sum(),
whose rounding is compensated from Python 3.12 on. So the reference equals table.py bit for bit on every Python. On a
bootstrap replicate materialised by resample_within_areas, whose copies are
named by the zero-padded pub_id rank of their publication, so that they
sum in the order the table sums them, it gives what table.table_statistics
computes from the replicate's copy counts. fit_lines is the closed-form
least-squares fit whose arithmetic table.py reproduces in one buffer per
fit. stratified_sample is the record-by-record draw of bibagree sample.

load_corpus is the row-by-row loader: it parses every row into a record
and validates the records one by one, in file order, each after its
pub_id is checked against the earlier rows'. Its row parses and
validate_record are its own copies, not bibagree.corpus's. The columnar
loader in bibagree.corpus must raise what it raises and load what it loads.
"""

import csv
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from bibagree import agreement as agr
from bibagree import aggregation
from bibagree.corpus import (
    Corpus,
    CorpusParseError,
    CorpusValidationError,
    Entries,
    PublicationRecord,
    ReviewerScore,
    SchemaOptions,
    _detect_format,
    load_population_counts,
    overall_score,
)
from bibagree.indicators import FieldYearBaseline, build_indicator_table, compute_baselines
from bibagree.pipeline import PipelineConfig, PipelineStats, compute_pipeline_stats
from bibagree.resampling import _area_stream, check_fraction
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


def fit_calibration(points: list[tuple[float, float]], area_id: str, metric_label: str) -> agr.CalibrationFit:
    """fit_lines over (x, y) points, for a single predictor x."""
    if len(points) < agr.MIN_POINTS:
        raise DegeneratePredictorError(agr.too_few_points(area_id, metric_label, len(points)))
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    (intercept,), (slope,), (var,) = fit_lines(x[None, :], y)
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


def reassign_multidisciplinary(corpus: Corpus, multidisciplinary_label: str) -> tuple[Corpus, list[str]]:
    """indicators.reassign_multidisciplinary record by record: each record
    with multidisciplinary weight is redone as a dict of its weights, its
    reference total folded left in entry order."""
    columns = corpus.columns
    weights, refs = columns.weights, columns.refs
    label_of = columns.labels.__getitem__
    weight_labels, ref_labels = (list(map(label_of, entries.label.tolist())) for entries in (weights, refs))
    hits = [i for i, label in enumerate(weight_labels) if label == multidisciplinary_label]
    rows = weights.row[hits][weights.weight[hits] != 0.0]
    flagged: list[str] = []
    changed: list[int] = []
    new_row: list[int] = []
    new_label: list[str] = []
    new_weight: list[float] = []
    weight, ref_weight = weights.weight.tolist(), refs.weight.tolist()
    bounds = zip(
        rows.tolist(),
        np.searchsorted(weights.row, rows).tolist(),
        np.searchsorted(weights.row, rows, side="right").tolist(),
        np.searchsorted(refs.row, rows).tolist(),
        np.searchsorted(refs.row, rows, side="right").tolist(),
    )
    for row, lo, hi, ref_lo, ref_hi in bounds:
        category_weights = dict(zip(weight_labels[lo:hi], weight[lo:hi]))
        w_multi = category_weights[multidisciplinary_label]
        ref_map = {
            k: v
            for k, v in zip(ref_labels[ref_lo:ref_hi], ref_weight[ref_lo:ref_hi])
            if k != multidisciplinary_label and v > 0
        }
        if not ref_map:
            flagged.append(columns.pub_id[row])
            continue
        ref_total = 0.0
        for v in ref_map.values():
            ref_total += v
        new_weights = {k: v for k, v in category_weights.items() if k != multidisciplinary_label}
        for label, rv in ref_map.items():
            new_weights[label] = new_weights.get(label, 0.0) + w_multi * rv / ref_total
        assert abs(sum(new_weights.values()) - 1.0) <= 1e-6
        changed.append(row)
        new_row.extend([row] * len(new_weights))
        new_label.extend(new_weights)
        new_weight.extend(new_weights.values())
    if not changed:
        return corpus, flagged

    keep = ~np.isin(weights.row, changed)
    entry_row = np.concatenate([weights.row[keep], np.array(new_row, dtype=weights.row.dtype)])
    order = np.argsort(entry_row, kind="stable")
    labels = [label for label, k in zip(weight_labels, keep.tolist()) if k] + new_label
    code = {label: i for i, label in enumerate(columns.labels)}
    reassigned = Entries(
        entry_row[order],
        np.array([code[labels[i]] for i in order.tolist()], dtype=np.intp),
        np.concatenate([weights.weight[keep], np.array(new_weight, dtype=float)])[order],
    )
    columns = replace(columns, weights=reassigned)
    return Corpus.from_columns(columns, corpus.census_year, corpus.population_counts), flagged


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

    Preserves each area's publication count. Each copy gets a unique
    pub_id, "<rank>~<draw number>~<pub_id>", rank being the zero-padded
    rank of the publication's pub_id: the copies sort by the pub_id order
    of their publications, each publication's together, whatever its pub_id.
    """
    by_area: dict[str, list[tuple[str, PublicationRecord]]] = {}
    ranked = sorted(corpus.records, key=lambda r: r.pub_id)
    width = len(str(len(ranked)))
    for rank, rec in enumerate(ranked):
        by_area.setdefault(rec.area_id, []).append((f"{rank:0{width}d}", rec))
    out: list[PublicationRecord] = []
    for area in sorted(by_area):
        pool = by_area[area]
        idx = rng.integers(0, len(pool), size=len(pool))
        for copy_no, i in enumerate(idx):
            rank, rec = pool[int(i)]
            out.append(replace(rec, pub_id=f"{rank}~{copy_no}~{rec.pub_id}"))
    return replace(corpus, records=tuple(out))


def stratified_sample(corpus: Corpus, fraction: float, seed: int) -> tuple[Corpus, list[str]]:
    """resampling.stratified_sample drawn from the records: round(fraction * n)
    records per area without replacement, from the area's records in pub_id
    order."""
    check_fraction(fraction)
    by_area: dict[str, list[PublicationRecord]] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        by_area.setdefault(rec.area_id, []).append(rec)
    skipped: list[str] = []
    chosen: list[PublicationRecord] = []
    for area in sorted(by_area):
        pool = by_area[area]
        k = int(fraction * len(pool) + 0.5)
        if k == 0:
            skipped.append(area)
            continue
        idx = _area_stream(seed, area).choice(len(pool), size=k, replace=False)
        chosen.extend(pool[int(i)] for i in sorted(idx))
    return replace(corpus, records=tuple(chosen)), skipped


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


# The rules of a corpus file, row by row: the CSV/TSV and the JSON Lines
# row parse and validate_record, with the helpers and constants they read.
# They are written here on their own, apart from bibagree.corpus, so that
# the loader is compared with a second statement of each rule.

WEIGHT_TOL = 1e-9
# The largest citation count a float64 holds exactly; the publication table
# computes in float64, and a larger count could overflow a field-year sum.
MAX_CITATIONS = 2**53

CSV_COLUMNS = [
    "pub_id",
    "institution_id",
    "area_id",
    "year",
    "citations",
    "journal_id",
    "category_weights",
    "ref_category_weights",
    "rev_a_originality",
    "rev_a_rigour",
    "rev_a_impact",
    "rev_b_originality",
    "rev_b_rigour",
    "rev_b_impact",
    "ext_citation_percentile",
    "ext_journal_percentile",
]
_ID_COLUMNS = ("pub_id", "institution_id", "area_id", "journal_id")
_CRITERIA = ("originality", "rigour", "impact")
_SCORE_COLUMNS = {prefix: tuple(f"{prefix}_{c}" for c in _CRITERIA) for prefix in ("rev_a", "rev_b")}
_EXT_COLUMNS = ("ext_citation_percentile", "ext_journal_percentile")
# A JSON Lines field that a line leaves out; this loader reads an absent
# field as None.
_ABSENT = object()


def _parse_weights(text: str, where: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise CorpusParseError(f"{where}: bad weight entry {part!r}")
        label, _, val = part.rpartition(":")
        try:
            out[label] = float(val)
        except ValueError as exc:
            raise CorpusParseError(f"{where}: bad weight value {val!r}") from exc
    return out


def _parse_score(row: dict, prefix: str, where: str) -> ReviewerScore | None:
    vals = [(row.get(col) or "").strip() for col in _SCORE_COLUMNS[prefix]]
    if not any(vals):
        return None
    if not all(vals):
        raise CorpusParseError(f"{where}: incomplete reviewer score for {prefix}")
    try:
        return ReviewerScore(*map(int, vals))
    except ValueError as exc:
        raise CorpusParseError(f"{where}: non-integer criterion score") from exc


def _opt_float(value, where: str) -> float | None:
    """float(value), or None for a missing or blank cell."""
    if value is None or str(value).strip() == "":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise CorpusParseError(f"{where}: bad numeric value {value!r}") from exc


class _NotNumber(ValueError):
    """A JSON value where a number belongs that is not one: a string, null,
    a list or an object, and a bool where any number belongs."""


class _NonIntegral(ValueError):
    """A JSON value that is not an integral number: a bool or a float with a fraction."""


def _json_int(value) -> int:
    """int(value) for a JSON value taken as an integral number."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise _NonIntegral(value)
    if not isinstance(value, (int, float)):
        raise _NotNumber(value)
    return int(value)


def _json_float(value) -> float:
    """float(value) for a JSON value taken as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _NotNumber(value)
    return float(value)


def _json_percentile(value) -> float | None:
    """_json_float(value), or None for a null or absent percentile."""
    return None if value is None or value is _ABSENT else _json_float(value)


def validate_record(rec: PublicationRecord, census_year: int) -> None:
    """Raise CorpusValidationError naming the record on any invariant violation."""
    tag = f"record {rec.pub_id!r}"
    if rec.citations < 0:
        raise CorpusValidationError(f"{tag}: negative citations {rec.citations}")
    if rec.citations > MAX_CITATIONS:
        raise CorpusValidationError(f"{tag}: citations {rec.citations} above 2**53")
    if not rec.category_weights:
        raise CorpusValidationError(f"{tag}: empty category weights")
    total = sum(rec.category_weights.values())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise CorpusValidationError(f"{tag}: weights sum {total:g}")
    for label, w in rec.category_weights.items():
        if not (0.0 < w <= 1.0):
            raise CorpusValidationError(f"{tag}: weight {label}={w:g} outside (0,1]")
    if rec.year > census_year:
        raise CorpusValidationError(f"{tag}: year {rec.year} after census year {census_year}")
    # abs() lets one sum catch a nan or infinite weight and a positive
    # total that overflows, either of which breaks the reassignment.
    if rec.ref_category_weights and not math.isfinite(sum(map(abs, rec.ref_category_weights.values()))):
        raise CorpusValidationError(f"{tag}: reference weights not finite")
    for name, score in (("review_a", rec.review_a), ("review_b", rec.review_b)):
        if score is None:
            continue
        for crit in _CRITERIA:
            v = getattr(score, crit)
            if not (1 <= v <= 10):
                raise CorpusValidationError(f"{tag}: {name}.{crit}={v} outside 1..10")
    for name, pct in (
        ("ext_citation_percentile", rec.ext_citation_percentile),
        ("ext_journal_percentile", rec.ext_journal_percentile),
    ):
        if pct is not None and not (0.0 <= pct <= 100.0):
            raise CorpusValidationError(f"{tag}: {name}={pct:g} outside [0,100]")


def _bad_id(ids: list, where: str) -> CorpusParseError:
    name, value = next((n, v) for n, v in zip(_ID_COLUMNS, ids) if not (isinstance(v, str) and v))
    return CorpusParseError(f"{where}: {name} must be a non-empty string, got {value!r}")


def _record_from_row(row: dict, where: str) -> PublicationRecord:
    try:
        year = int(str(row["year"]).strip())
        citations = int(str(row["citations"]).strip())
    except (KeyError, ValueError) as exc:
        raise CorpusParseError(f"{where}: bad year/citations") from exc
    ids = [row[k].strip() for k in _ID_COLUMNS]
    if "" in ids:
        raise _bad_id(ids, where)
    pub_id, institution_id, area_id, journal_id = ids
    refs = _parse_weights(str(row.get("ref_category_weights") or ""), where)
    return PublicationRecord(
        pub_id=pub_id,
        institution_id=institution_id,
        area_id=area_id,
        year=year,
        citations=citations,
        journal_id=journal_id,
        category_weights=_parse_weights(str(row["category_weights"]), where),
        ref_category_weights=refs or None,
        review_a=_parse_score(row, "rev_a", where),
        review_b=_parse_score(row, "rev_b", where),
        ext_citation_percentile=_opt_float(row.get("ext_citation_percentile"), where),
        ext_journal_percentile=_opt_float(row.get("ext_journal_percentile"), where),
    )


def _record_from_json(obj: dict, where: str) -> PublicationRecord:
    def number(value, name, convert=_json_int):
        try:
            return convert(value)
        except _NotNumber:
            raise CorpusParseError(f"{where}: {name} must be a number, got {value!r}") from None
        except _NonIntegral:
            raise CorpusParseError(f"{where}: non-integral {name} {value!r}") from None

    def weights(key):
        return {str(k): number(v, f"{key}.{k}", _json_float) for k, v in obj[key].items()}

    def score(key):
        sub = obj.get(key)
        if sub is None:
            return None
        try:
            return ReviewerScore(*(number(sub[c], f"{key}.{c}") for c in _CRITERIA))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusParseError(f"{where}: bad {key} object") from exc

    try:
        ids = [obj[k] for k in _ID_COLUMNS]
        if not all(isinstance(v, str) and v for v in ids):
            raise _bad_id(ids, where)
        pub_id, institution_id, area_id, journal_id = ids
        category_weights = weights("category_weights")
        refs = weights("ref_category_weights") if obj.get("ref_category_weights") else None
        return PublicationRecord(
            pub_id=pub_id,
            institution_id=institution_id,
            area_id=area_id,
            year=number(obj["year"], "year"),
            citations=number(obj["citations"], "citations"),
            journal_id=journal_id,
            category_weights=category_weights,
            ref_category_weights=refs,
            review_a=score("review_a"),
            review_b=score("review_b"),
            **{name: number(obj.get(name), name, _json_percentile) for name in _EXT_COLUMNS},
        )
    # AttributeError: a weight map that is not an object; OverflowError: a
    # weight or percentile too large for a float.
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CorpusParseError(f"{where}: {exc}") from exc


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL)."""
    path = Path(path)
    try:
        path.open().close()
    except OSError as exc:
        raise CorpusParseError(f"{path}: cannot read corpus: {exc.strerror or exc}") from exc
    fmt = _detect_format(path)
    records: list[PublicationRecord] = []
    wheres: list[str] = []  # each record's row as messages name it
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
                wheres.append(where)
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
                wheres.append(f"{path.name} row {lineno}")
                records.append(_record_from_row(row, wheres[-1]))

    if not records:
        raise CorpusParseError(f"{path.name}: no records")
    census_year = options.census_year
    if census_year is None:
        census_year = max(r.year for r in records)
    # Each row's pub_id is checked against the earlier rows' before the row
    # is validated; a repeat names its row and the first row of the id.
    first_where: dict[str, str] = {}
    for rec, where in zip(records, wheres):
        if rec.pub_id in first_where:
            first = first_where[rec.pub_id].removeprefix(f"{path.name} ")
            raise CorpusValidationError(f"{where}: duplicate pub_id {rec.pub_id!r}, first on {first}")
        first_where[rec.pub_id] = where
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
