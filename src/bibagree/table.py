"""Integer-coded publication table, from which the point statistics and the
count-vector bootstrap replicates are computed.

A run codes the corpus once, after multidisciplinary reassignment, into a
table with one row per publication. The stratified bootstrap resamples
publications with replacement within each area, so a replicate is fully
described by a vector of copy counts, one per publication: the
frequency-weight form of the nonparametric bootstrap (Hanley & MacGibbon
2006). The corpus itself is the vector of all ones. ``point_statistics``
and ``table_statistics`` compute indicators, institution x area aggregates
and agreement statistics from such a vector with numpy group-bys, without
copying a record.

Each sum runs over the copies in the order a record-by-record computation
sums them: ascending pub_id for the corpus itself, and for a replicate
ascending pub_id of the copies, which a materialised replicate names
"<pub_id>~<draw number>". ``np.bincount`` accumulates sequentially like a
loop or ``sum()``, so field-year baselines, NCS, NJS, unit means and fits
are bit-identical to that computation (on Python up to 3.11; from 3.12
``sum()`` compensates rounding; ``tests/record_pipeline.py`` keeps it as
the reference). Exact ties between publications, which set mid-rank
percentiles, and a predictor variance of exactly 0, which skips a fit,
therefore come out the same. Ranks and medians, which do not depend on
order, are taken over the distinct publications, weighted by their copy
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    CalibrationFit,
    DegeneratePredictorError,
    SkipEntry,
    fit_line,
    nonpositive_score,
)
from .corpus import Corpus, overall_score
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
    """Integer-code the corpus after multidisciplinary reassignment."""
    corpus, unredistributable = reassign_multidisciplinary(corpus, multidisciplinary_label)
    area_ids, area = _codes([r.area_id for r in corpus.records])
    pub_ids = np.array([r.pub_id for r in corpus.records], dtype=str)
    rows = np.lexsort((pub_ids, area))
    records = [corpus.records[i] for i in rows]
    area, pub_ids = area[rows], pub_ids[rows]
    institution_ids, institution = _codes([r.institution_id for r in records])
    unit_area, unit_institution, unit = _pair_codes(area, institution)
    year = _codes([r.year for r in records])[1]
    journal_year = _pair_codes(_codes([r.journal_id for r in records])[1], year)[2]
    citations = np.array([r.citations for r in records], dtype=float)

    # Category weight entries, fields sorted within a record. Flat lists
    # only: a list per record would keep tens of thousands of containers
    # alive and set off full garbage collections.
    entry_row = np.repeat(np.arange(len(records)), [len(r.category_weights) for r in records])
    entry_field = _codes([f for r in records for f in sorted(r.category_weights)])[1]
    entry_weight = np.array([r.category_weights[f] for r in records for f in sorted(r.category_weights)], dtype=float)
    cell = _pair_codes(entry_field, year[entry_row])[2]

    def order_by(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows by ascending ids, and the entries in that row order."""
        order = np.argsort(ids, kind="stable")
        position = np.empty(len(records), dtype=np.intp)
        position[order] = np.arange(len(records))
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
        citations=citations,
        reviewer1=np.array([overall_score(r.review_a) for r in records], dtype=float),
        reviewer2=np.array([overall_score(r.review_b) for r in records], dtype=float),
        ext_citation_percentile=np.array([r.ext_citation_percentile for r in records], dtype=float),
        ext_journal_percentile=np.array([r.ext_journal_percentile for r in records], dtype=float),
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
    """
    rows = np.flatnonzero(counts)
    order = rows[np.lexsort((values[rows], group[rows]))]
    g, v, cnt = group[order], values[order], counts[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = g[1:] != g[:-1]
    new_run = new_group.copy()
    new_run[1:] |= v[1:] != v[:-1]
    run = np.cumsum(new_run) - 1
    before = np.cumsum(cnt) - cnt  # copies of this and earlier groups before the row
    group_start = np.zeros(len(values))
    group_start[g[new_group]] = before[new_group]
    group_size = np.bincount(g, weights=cnt)
    run_group = g[new_run]
    run_size = np.bincount(run, weights=cnt)
    rank = (before[new_run] - group_start[run_group]) + (run_size + 1) / 2
    out = np.zeros(len(values))
    out[order] = (100.0 * (rank - 0.5) / group_size[run_group])[run]
    return out


def _weighted_median(values: np.ndarray, counts: np.ndarray) -> float:
    """Median of the copies, values[i] standing for counts[i] copies; an even
    number of copies gives the mean of the two middle ones, as
    statistics.median does."""
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(counts[order])
    lo, hi = np.searchsorted(cum, [(cum[-1] - 1) // 2, cum[-1] // 2], side="right")
    v = values[order]
    return float(v[lo]) if lo == hi else float((v[lo] + v[hi]) / 2)




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
        jou_pct = _midrank_percentiles(table.area, njs, w)
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


def _agreement(table: PublicationTable, scores: _Scores, counts: np.ndarray, config: "PipelineConfig") -> AgreementResult:
    """MAD and MAPD per (area, metric) at both levels, in the order and
    with the skip reasons of agreement.run_agreement.

    Institutions count as units when they have at least min_pubs copies; a
    replicate's copies of one publication count once each at the
    publication level.
    """
    result = AgreementResult(statistics=[], calibrations=[], skips=[])

    def fit(x, y, level) -> CalibrationFit | None:
        try:
            line = fit_line(x, y, area_id, metric)
        except DegeneratePredictorError as exc:
            result.skips.append(SkipEntry(area_id, metric, level, str(exc)))
            return None
        result.calibrations.append(line)
        return line

    def add(level, view, value, n_units) -> None:
        result.statistics.append(AgreementStatistic(area_id, metric, level, view, value, n_units))

    with np.errstate(divide="ignore", invalid="ignore"):
        unit_mean = {
            label: scores.unit_total[label] / scores.unit_copies
            for label in (config.baseline_label, *config.metric_labels)
        }
    unit_ok = scores.unit_copies >= config.min_pubs
    kept_area = table.area[scores.kept]
    y_pub = scores.series[config.baseline_label]
    for a, area_id in enumerate(table.area_ids):
        area_copies = scores.kept[kept_area == a]
        if not len(area_copies):
            continue
        units = np.flatnonzero(unit_ok & (table.unit_area == a))
        rows = np.flatnonzero(scores.keep & (table.area == a))
        y_unit = unit_mean[config.baseline_label][units]
        nonpositive = y_unit[y_unit <= 0]
        for metric in config.metric_labels:
            x_unit = unit_mean[metric][units]
            line = fit(x_unit, y_unit, LEVEL_INSTITUTION)
            if line is not None:
                dev = np.abs(y_unit - line.predict(x_unit))
                add(LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT, float(np.median(dev)), len(units))
                if len(nonpositive):
                    result.skips.append(
                        SkipEntry(area_id, metric, LEVEL_INSTITUTION, nonpositive_score(float(nonpositive[0])))
                    )
                else:
                    add(LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT, float(100.0 * np.median(dev / y_unit)), len(units))
            x_pub = scores.series[metric]
            line = fit(x_pub[area_copies], y_pub[area_copies], LEVEL_PUBLICATION)
            if line is not None:
                dev = np.abs(y_pub[rows] - line.predict(x_pub[rows]))
                add(LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT, _weighted_median(dev, counts[rows]), len(area_copies))
    return result


def table_statistics(
    table: PublicationTable, counts: np.ndarray, config: "PipelineConfig"
) -> "dict[StatKey, float]":
    """Every agreement statistic of the replicate holding counts[row] copies
    of each row, keyed (area, metric, level, view); a skipped statistic is
    left out."""
    scores = _scores(table, counts, table.copy_order, table.copy_entries)
    return {s.key(): s.value for s in _agreement(table, scores, counts, config).statistics}


def point_statistics(
    table: PublicationTable, config: "PipelineConfig"
) -> tuple[AgreementResult, list[InstitutionAggregate], list[tuple[str, str]], dict[str, int]]:
    """The statistics of the corpus itself, summed in ascending pub_id order.

    Returns the agreement result; the institution x area aggregates of
    every series, in (institution, area) order; the (institution, area)
    pairs with fewer than min_pubs unflagged publications; and the number
    of flagged records by reason.
    """
    ones = np.ones(len(table.area), dtype=np.intp)
    scores = _scores(table, ones, table.pub_order, table.pub_entries)
    result = _agreement(table, scores, ones, config)

    aggregates: list[InstitutionAggregate] = []
    excluded: list[tuple[str, str]] = []
    copies = scores.unit_copies.tolist()
    totals = {label: t.tolist() for label, t in scores.unit_total.items()}
    units = sorted(
        (table.unit_institution[u], table.area_ids[table.unit_area[u]], u) for u in np.flatnonzero(scores.unit_copies)
    )
    for institution_id, area_id, u in units:
        n = copies[u]
        if n < config.min_pubs:
            excluded.append((institution_id, area_id))
            continue
        total = {label: t[u] for label, t in totals.items()}
        aggregates.append(
            InstitutionAggregate(
                institution_id=institution_id,
                area_id=area_id,
                pub_count=n,
                mean_score={label: t / n for label, t in total.items()},
                total_score=total,
            )
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
    return result, aggregates, excluded, {reason: n for reason, n in flagged.items() if n}
