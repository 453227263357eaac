"""Integer-coded publication table, from which the point statistics and the
count-vector bootstrap replicates are computed.

A run codes the corpus once, after multidisciplinary reassignment, into a
table with one row per publication. The table is coded from the corpus
columns (``corpus.Columns``): ids, years and journals become integer codes,
the category weight entries are sorted by row and field, and no record
object is built. The stratified bootstrap resamples
publications with replacement within each area, so a replicate is fully
described by a vector of copy counts, one per publication: the
frequency-weight form of the nonparametric bootstrap (Hanley & MacGibbon
2006). The corpus itself is the vector of all ones. ``point_statistics``
and ``table_statistics`` compute indicators, institution x area aggregates
and agreement statistics from such a vector with numpy group-bys, without
copying a record. ``point_statistics`` returns the run's ``PipelineStats``;
its institution x area units are rows built at once from the per-unit sums
and copy counts, in unit code order, which is (area, institution) order.

Each sum runs over the copies in the order a record-by-record computation
sums them: ascending pub_id for the corpus itself, and for a replicate
ascending pub_id of the copies, which a materialised replicate names
"<pub_id>~<draw number>". ``np.bincount`` accumulates sequentially like a
left fold, so field-year baselines, NCS, NJS, unit means and fits are
bit-identical to that computation, which ``tests/record_pipeline.py`` keeps
as the reference and which folds left rather than calling ``sum()``, whose
rounding is compensated from Python 3.12 on. Exact ties between
publications, which set mid-rank percentiles, and a predictor variance of
exactly 0, which skips a fit, therefore come out the same.

Ranks and medians do not depend on summation order, so no replicate sorts
the whole table. Mid-rank percentiles are taken over the distinct
publications, weighted by their copy counts, each area's contiguous rows
sorted on their own. NJS has one value per journal-year, so journal
percentiles rank the area x journal-year cells, weighted by their kept
copies, and each row takes its cell's rank. Medians of the deviations (of
every copy, at the publication level) take the one or two middle order
statistics from a single partition per row. The agreement pass fits the
lines of all metrics of an area at once, one row per metric, with
``agreement.fit_lines``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .aggregation import InstitutionAggregate
from .agreement import (
    LEVEL_INSTITUTION,
    LEVEL_PUBLICATION,
    VIEW_SIZE_DEPENDENT,
    VIEW_SIZE_INDEPENDENT,
    AgreementResult,
    AgreementStatistic,
    MIN_POINTS,
    CalibrationFit,
    SkipEntry,
    fit_lines,
    nonpositive_score,
    too_few_points,
    zero_variance,
)
from .corpus import Corpus, CorpusValidationError, overall_score
from .indicators import reassign_multidisciplinary

if TYPE_CHECKING:
    from .pipeline import PipelineConfig
    from .resampling import StatKey

SERIES_LABELS = (
    "reviewer1",
    "reviewer2",
    "ncs",
    "njs",
    "citation_percentile",
    "journal_percentile",
)


@dataclass(frozen=True)
class PublicationTable:
    """One row per publication, in (sorted area, pub_id) order.

    Codes are dense integers assigned in sorted order of what they code, so
    the table does not depend on the order of the corpus records.
    """

    area_ids: tuple[str, ...]  # sorted; area code -> area_id
    area_sizes: tuple[int, ...]  # rows per area, in area code order
    area: np.ndarray  # row -> area code
    unit: np.ndarray  # row -> institution x area code, in (area, institution) order
    unit_area: np.ndarray  # unit code -> area code
    unit_institution: tuple[str, ...]  # unit code -> institution_id
    journal_year: np.ndarray  # row -> journal x year code
    n_journal_years: int
    journal_cell: np.ndarray  # row -> area x journal-year cell code, in area order
    journal_cell_area: np.ndarray  # journal cell code -> area code
    journal_cell_year: np.ndarray  # journal cell code -> journal x year code
    citations: np.ndarray
    reviewer1: np.ndarray
    reviewer2: np.ndarray
    ext_citation_percentile: np.ndarray  # NaN where absent
    ext_journal_percentile: np.ndarray  # NaN where absent
    # Rows in ascending pub_id order, the order of the point pass, and in the
    # order their copies take in a materialised replicate.
    pub_order: np.ndarray
    copy_order: np.ndarray
    # One entry per (row, field) of the category weights, rows ascending and
    # fields sorted within a row.
    entry_row: np.ndarray
    entry_cell: np.ndarray  # (field, year) cell code
    entry_weight: np.ndarray
    entry_cited: np.ndarray  # weight times the row's citations
    pub_entries: np.ndarray  # entry indices, rows in pub_id order
    copy_entries: np.ndarray  # entry indices, rows in copy order
    n_cells: int
    n_unredistributable: int  # multidisciplinary records without a reference profile


@dataclass
class PipelineStats:
    """Everything computed from one corpus, and the publication table its
    bootstrap replicates reweight."""

    statistics: list[AgreementStatistic]
    skips: list[SkipEntry]
    calibrations: list[CalibrationFit]
    aggregates: list[InstitutionAggregate]
    flagged_records: dict[str, int]
    excluded_below_min_pubs: list[tuple[str, str]]
    table: PublicationTable | None = field(default=None, compare=False, repr=False)


def _codes(values: list) -> tuple[list, np.ndarray]:
    """The sorted distinct values, and each value's index among them."""
    distinct = sorted(set(values))
    code = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values))


def _pair_codes(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the (first, second) code pairs in sorted order: each pair
    code's first and second code, and each row's pair code."""
    n = int(second.max(initial=-1)) + 1
    pairs, codes = np.unique(first * n + second, return_inverse=True)
    return pairs // n, pairs % n, codes.reshape(-1)


def build_table(corpus: Corpus, multidisciplinary_label: str) -> PublicationTable:
    """Integer-code the corpus columns after multidisciplinary reassignment."""
    corpus, unredistributable = reassign_multidisciplinary(corpus, multidisciplinary_label)
    columns = corpus.columns
    if not columns.has_review.all():
        missing = int((~columns.has_review.all(axis=1)).argmax())
        raise CorpusValidationError(f"record {columns.pub_id[missing]!r}: missing reviewer score")
    area_ids, area = _codes(columns.area_id)
    pub_ids = np.array(columns.pub_id, dtype=str)
    by_pub_id = np.argsort(pub_ids, kind="stable")
    rows = by_pub_id[np.argsort(area[by_pub_id], kind="stable")]
    area, pub_ids = area[rows], pub_ids[rows]
    institution_ids, institution = _codes(columns.institution_id)
    unit_area, unit_institution, unit = _pair_codes(area, institution[rows])
    year = np.unique(columns.year, return_inverse=True)[1].reshape(-1)[rows]
    journal_year = _pair_codes(_codes(columns.journal_id)[1][rows], year)[2]
    journal_cell_area, journal_cell_year, journal_cell = _pair_codes(area, journal_year)
    citations = columns.citations[rows].astype(float)
    reviewer_total = overall_score(columns.review[rows])

    # Category weight entries, table rows ascending and fields sorted
    # within a row.
    table_row = np.empty(len(rows), dtype=np.intp)  # corpus row -> table row
    table_row[rows] = np.arange(len(rows))
    field_code = _codes(columns.weights.label)[1]
    order = np.lexsort((field_code, table_row[columns.weights.row]))
    entry_row = table_row[columns.weights.row][order]
    entry_weight = columns.weights.weight[order]
    cell = _pair_codes(field_code[order], year[entry_row])[2]

    def order_by(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows by ascending ids, and the entries in that row order."""
        order = np.argsort(ids, kind="stable")
        position = np.empty(len(ids), dtype=np.intp)
        position[order] = np.arange(len(ids))
        return order, np.argsort(position[entry_row], kind="stable")

    pub_order, pub_entries = order_by(pub_ids)
    copy_order, copy_entries = order_by(np.char.add(pub_ids, "~"))
    return PublicationTable(
        area_ids=tuple(area_ids),
        area_sizes=tuple(np.bincount(area, minlength=len(area_ids)).tolist()),
        area=area,
        unit=unit,
        unit_area=unit_area,
        unit_institution=tuple(institution_ids[i] for i in unit_institution),
        journal_year=journal_year,
        n_journal_years=int(journal_year.max(initial=-1)) + 1,
        journal_cell=journal_cell,
        journal_cell_area=journal_cell_area,
        journal_cell_year=journal_cell_year,
        citations=citations,
        reviewer1=reviewer_total[:, 0].astype(float),
        reviewer2=reviewer_total[:, 1].astype(float),
        ext_citation_percentile=columns.ext_citation_percentile[rows],
        ext_journal_percentile=columns.ext_journal_percentile[rows],
        pub_order=pub_order,
        copy_order=copy_order,
        entry_row=entry_row,
        entry_cell=cell,
        entry_weight=entry_weight,
        entry_cited=entry_weight * citations[entry_row],
        pub_entries=pub_entries,
        copy_entries=copy_entries,
        n_cells=int(cell.max(initial=-1)) + 1,
        n_unredistributable=len(unredistributable),
    )


def _midrank_percentiles(group: np.ndarray, values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mid-rank percentile 100*(r - 0.5)/n of each row within its group.

    A row stands for counts[row] tied copies. A run of m tied copies after c
    earlier copies of its group gets rank c + (m+1)/2; n is the group's
    number of copies. Rows with a zero count get 0.

    group must be non-decreasing, so that each group's rows are one
    contiguous slice, sorted on its own.
    """
    rows = np.flatnonzero(counts)
    g = group[rows]
    slices = np.split(rows, np.flatnonzero(g[1:] != g[:-1]) + 1)
    order = np.concatenate([s[np.argsort(values[s])] for s in slices])
    v, cnt = values[order], counts[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    new_run = new_group.copy()
    new_run[1:] |= v[1:] != v[:-1]
    run = np.cumsum(new_run) - 1
    before = np.cumsum(cnt) - cnt  # copies of this and earlier groups before the row
    group_size = np.bincount(g, weights=cnt)
    group_start = np.zeros(len(group_size))
    group_start[g[new_group]] = before[new_group]
    run_group = g[new_run]
    run_size = np.bincount(run, weights=cnt)
    rank = (before[new_run] - group_start[run_group]) + (run_size + 1) / 2
    out = np.zeros(len(values))
    out[order] = (100.0 * (rank - 0.5) / group_size[run_group])[run]
    return out


def _median_rows(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=1) with one partition: the same one or two middle
    order statistics, averaged as (lower + upper) / 2.

    np.median also checks for NaN; the rows here are absolute or relative
    deviations of finite scores (validate_record rejects non-finite
    external percentiles), so they hold none.
    """
    half = a.shape[1] // 2
    part = np.partition(a, half, axis=1)
    upper = part[:, half]
    if a.shape[1] % 2:
        return upper
    return (part[:, :half].max(axis=1) + upper) / 2


class _Scores(NamedTuple):
    keep: np.ndarray  # rows with copies and a baseline on every cell they map to
    kept: np.ndarray  # copies of kept rows, in summation order
    series: dict[str, np.ndarray]  # series label -> score per row
    unit_copies: np.ndarray  # kept copies per unit
    unit_total: dict[str, np.ndarray]  # series label -> score summed per unit
    entry_undefined: np.ndarray  # the entry's cell has no positive weight mass
    entry_zero: np.ndarray  # the entry's cell has mean citations 0


def _scores(table: PublicationTable, counts: np.ndarray, order: np.ndarray, entries: np.ndarray) -> _Scores:
    """Scores of the corpus holding counts[row] copies of each row, summed
    over the copies in the given order of rows and of their entries."""
    n_rows = len(counts)
    copies = np.repeat(order, counts[order])
    entries = np.repeat(entries, counts[table.entry_row[entries]])

    # Field-year baselines and NCS; a row on a cell without a baseline, or
    # on a zero-mean cell, is flagged.
    cells = table.entry_cell[entries]
    mass = np.bincount(cells, weights=table.entry_weight[entries], minlength=table.n_cells)
    cited = np.bincount(cells, weights=table.entry_cited[entries], minlength=table.n_cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        entry_mean = (cited / mass)[table.entry_cell]
        ratio = table.citations[table.entry_row] / entry_mean
    entry_undefined = (mass <= 0)[table.entry_cell]
    entry_zero = entry_mean == 0.0
    bad = np.bincount(table.entry_row, weights=entry_undefined | entry_zero, minlength=n_rows)
    keep = (counts > 0) & (bad == 0)
    kept = copies[keep[copies]]
    w = np.where(keep, counts, 0)
    ncs = np.where(keep, np.bincount(table.entry_row, weights=table.entry_weight * ratio, minlength=n_rows), 0.0)

    jy = table.journal_year[kept]
    with np.errstate(divide="ignore", invalid="ignore"):
        jy_mean = np.bincount(jy, weights=ncs[kept], minlength=table.n_journal_years) / np.bincount(
            jy, minlength=table.n_journal_years
        )
    njs = np.where(keep, jy_mean[table.journal_year], 0.0)

    ext_cit, ext_jou = table.ext_citation_percentile, table.ext_journal_percentile
    if not (np.isnan(ext_cit[keep]).any() or np.isnan(ext_jou[keep]).any()):
        cit_pct, jou_pct = ext_cit, ext_jou
    else:
        cit_pct = _midrank_percentiles(table.area, ncs, w)
        # NJS is one value per journal-year, so its ranks are those of the
        # area x journal-year cells, weighted by their kept copies.
        cell_copies = np.bincount(table.journal_cell[kept], minlength=len(table.journal_cell_area))
        cell_pct = _midrank_percentiles(table.journal_cell_area, jy_mean[table.journal_cell_year], cell_copies)
        jou_pct = np.where(keep, cell_pct[table.journal_cell], 0.0)
    series = dict(zip(SERIES_LABELS, (table.reviewer1, table.reviewer2, ncs, njs, cit_pct, jou_pct)))

    n_units = len(table.unit_area)
    kept_unit = table.unit[kept]
    return _Scores(
        keep=keep,
        kept=kept,
        series=series,
        unit_copies=np.bincount(kept_unit, minlength=n_units),
        unit_total={
            label: np.bincount(kept_unit, weights=values[kept], minlength=n_units) for label, values in series.items()
        },
        entry_undefined=entry_undefined,
        entry_zero=entry_zero,
    )


def _agreement(table: PublicationTable, scores: _Scores, config: "PipelineConfig") -> AgreementResult:
    """MAD and MAPD per (area, metric) at both levels, in the order and
    with the skip reasons of the record-by-record reference.

    Institutions count as units when they have at least min_pubs copies; a
    replicate's copies of one publication count once each at the
    publication level. All metrics of an area are fitted at once, each
    level's scores stacked one row per metric.
    """
    result = AgreementResult(statistics=[], calibrations=[], skips=[])
    metrics = config.metric_labels
    if not metrics:
        return result
    with np.errstate(divide="ignore", invalid="ignore"):
        y_unit_all = scores.unit_total[config.baseline_label] / scores.unit_copies
        x_unit_all = np.stack([scores.unit_total[m] for m in metrics]) / scores.unit_copies
    y_pub_all = scores.series[config.baseline_label]
    x_pub_all = np.stack([scores.series[m] for m in metrics])
    unit_ok = scores.unit_copies >= config.min_pubs
    kept_area = table.area[scores.kept]

    def fit(x: np.ndarray, y: np.ndarray) -> tuple[list[CalibrationFit | str], np.ndarray | None]:
        """Each metric's line, or why it has none, and the absolute
        residuals of every metric; None when there are too few points."""
        n = len(y)
        if n < MIN_POINTS:
            return [too_few_points(area_id, m, n) for m in metrics], None
        intercept, slope, var = fit_lines(x, y)
        lines = [
            CalibrationFit(area_id, m, float(i), float(s), n) if v != 0.0 else zero_variance(area_id, m)
            for m, i, s, v in zip(metrics, intercept, slope, var)
        ]
        return lines, np.abs(y - (intercept[:, None] + slope[:, None] * x))

    def add(metric, level, view, value, n_units) -> None:
        result.statistics.append(AgreementStatistic(area_id, metric, level, view, float(value), n_units))

    for a, area_id in enumerate(table.area_ids):
        copies = scores.kept[kept_area == a]
        if not len(copies):
            continue
        units = np.flatnonzero(unit_ok & (table.unit_area == a))
        y_unit = y_unit_all[units]
        nonpositive = y_unit[y_unit <= 0]
        unit_lines, unit_dev = fit(x_unit_all[:, units], y_unit)
        pub_lines, pub_dev = fit(x_pub_all[:, copies], y_pub_all[copies])
        # The medians of rows without a line go unread.
        unit_mad = unit_mapd = pub_mad = None
        if unit_dev is not None:
            unit_mad = _median_rows(unit_dev)
            if not len(nonpositive):
                unit_mapd = 100.0 * _median_rows(unit_dev / y_unit)
        if pub_dev is not None:
            pub_mad = _median_rows(pub_dev)
        for i, metric in enumerate(metrics):
            line = unit_lines[i]
            if isinstance(line, str):
                result.skips.append(SkipEntry(area_id, metric, LEVEL_INSTITUTION, line))
            else:
                result.calibrations.append(line)
                add(metric, LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT, unit_mad[i], len(units))
                if unit_mapd is None:
                    reason = nonpositive_score(float(nonpositive[0]))
                    result.skips.append(SkipEntry(area_id, metric, LEVEL_INSTITUTION, reason))
                else:
                    add(metric, LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT, unit_mapd[i], len(units))
            line = pub_lines[i]
            if isinstance(line, str):
                result.skips.append(SkipEntry(area_id, metric, LEVEL_PUBLICATION, line))
            else:
                result.calibrations.append(line)
                add(metric, LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT, pub_mad[i], len(copies))
    return result


def table_statistics(
    table: PublicationTable, counts: np.ndarray, config: "PipelineConfig"
) -> "dict[StatKey, float]":
    """Every agreement statistic of the replicate holding counts[row] copies
    of each row, keyed (area, metric, level, view); a skipped statistic is
    left out."""
    scores = _scores(table, counts, table.copy_order, table.copy_entries)
    return {s.key(): s.value for s in _agreement(table, scores, config).statistics}


def point_statistics(table: PublicationTable, config: "PipelineConfig") -> PipelineStats:
    """The statistics of the corpus itself, summed in ascending pub_id order.

    The aggregates are the units with at least min_pubs unflagged
    publications, in unit code order, which is (area, institution) order;
    the units with fewer are excluded, listed in (institution, area) order.
    """
    ones = np.ones(len(table.area), dtype=np.intp)
    scores = _scores(table, ones, table.pub_order, table.pub_entries)
    result = _agreement(table, scores, config)

    copies = scores.unit_copies
    units = np.flatnonzero(copies >= config.min_pubs)
    totals = np.stack([scores.unit_total[label] for label in SERIES_LABELS])
    means = (totals[:, units] / copies[units]).T.tolist()
    aggregates = [
        InstitutionAggregate(table.unit_institution[u], table.area_ids[a], n, tuple(m))
        for u, a, n, m in zip(units.tolist(), table.unit_area[units].tolist(), copies[units].tolist(), means)
    ]
    excluded = sorted(
        (table.unit_institution[u], table.area_ids[table.unit_area[u]])
        for u in np.flatnonzero((copies > 0) & (copies < config.min_pubs)).tolist()
    )

    # A record is flagged for the first of its sorted fields whose cell has
    # no baseline or a zero mean, as indicators.compute_ncs raises.
    bad = np.flatnonzero(scores.entry_undefined | scores.entry_zero)
    _, first = np.unique(table.entry_row[bad], return_index=True)
    n_undefined = int(scores.entry_undefined[bad[first]].sum())
    flagged = {
        "zero_mean_cell": len(first) - n_undefined,
        "undefined_baseline": n_undefined,
        "unredistributable_multidisciplinary": table.n_unredistributable,
        "below_min_pubs": len(excluded),
    }
    return PipelineStats(
        statistics=result.statistics,
        skips=result.skips,
        calibrations=result.calibrations,
        aggregates=aggregates,
        flagged_records={reason: n for reason, n in flagged.items() if n},
        excluded_below_min_pubs=excluded,
        table=table,
    )
