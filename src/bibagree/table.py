"""Integer-coded publication table and count-vector bootstrap replicates.

The stratified bootstrap resamples publications with replacement within each
area, so a replicate is fully described by a vector of copy counts, one per
publication: the frequency-weight form of the nonparametric bootstrap
(Hanley & MacGibbon 2006). ``table_statistics`` computes from such a vector
every statistic that ``pipeline.statistic_values`` computes from the
materialised resample, without copying a record.

Each sum runs over the copies in the order the materialised replicate holds
them (ascending pub_id of the copies), with ``np.bincount``, which
accumulates sequentially like the loops and ``sum()`` calls of the record
path. Field-year baselines, NCS, NJS, unit means and fits are therefore
bit-identical to the record path (on Python up to 3.11; from 3.12 ``sum()``
compensates rounding), so exact ties between publications, which set
mid-rank percentiles, and a predictor variance of exactly 0, which skips a
fit, come out the same on both paths. Ranks and medians, which do not
depend on order, are taken over the distinct publications, weighted by their
copy counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .agreement import (
    LEVEL_INSTITUTION,
    LEVEL_PUBLICATION,
    VIEW_SIZE_DEPENDENT,
    VIEW_SIZE_INDEPENDENT,
    ols_line,
)
from .corpus import Corpus, overall_score
from .indicators import reassign_multidisciplinary

if TYPE_CHECKING:
    from .pipeline import PipelineConfig
    from .resampling import StatKey


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
    journal_year: np.ndarray  # row -> journal x year code
    n_journal_years: int
    citations: np.ndarray
    reviewer1: np.ndarray
    reviewer2: np.ndarray
    ext_citation_percentile: np.ndarray  # NaN where absent
    ext_journal_percentile: np.ndarray  # NaN where absent
    # Rows in the order their copies take in a materialised replicate, where
    # copy pub_ids are "<pub_id>~<draw number>".
    copy_order: np.ndarray
    # One entry per (row, field) of the category weights, rows ascending and
    # fields sorted within a row.
    entry_row: np.ndarray
    entry_cell: np.ndarray  # (field, year) cell code
    entry_weight: np.ndarray
    entry_cited: np.ndarray  # weight times the row's citations
    copy_entries: np.ndarray  # entry indices, rows in copy order
    n_cells: int


def _codes(keys) -> dict:
    return {k: i for i, k in enumerate(sorted(set(keys)))}


def build_table(corpus: Corpus, multidisciplinary_label: str) -> PublicationTable:
    """Integer-code the corpus after multidisciplinary reassignment."""
    corpus, _ = reassign_multidisciplinary(corpus, multidisciplinary_label)
    records = sorted(corpus.records, key=lambda r: (r.area_id, r.pub_id))
    area_code = _codes(r.area_id for r in records)
    unit_code = _codes((r.area_id, r.institution_id) for r in records)
    jy_code = _codes((r.journal_id, r.year) for r in records)
    cell_code = _codes((f, r.year) for r in records for f in r.category_weights)

    entry_row: list[int] = []
    entry_cell: list[int] = []
    entry_weight: list[float] = []
    entry_cited: list[float] = []
    for row, rec in enumerate(records):
        for field_label, w in sorted(rec.category_weights.items()):
            entry_row.append(row)
            entry_cell.append(cell_code[(field_label, rec.year)])
            entry_weight.append(w)
            entry_cited.append(w * rec.citations)
    entry_row_arr = np.array(entry_row, dtype=np.intp)
    copy_order = np.array(sorted(range(len(records)), key=lambda i: records[i].pub_id + "~"), dtype=np.intp)
    position = np.empty(len(records), dtype=np.intp)
    position[copy_order] = np.arange(len(records))

    def floats(values) -> np.ndarray:
        return np.array([np.nan if v is None else float(v) for v in values], dtype=float)

    area = np.array([area_code[r.area_id] for r in records], dtype=np.intp)
    unit_area = np.empty(len(unit_code), dtype=np.intp)
    for (area_id, _), code in unit_code.items():
        unit_area[code] = area_code[area_id]
    return PublicationTable(
        area_ids=tuple(area_code),
        area_sizes=tuple(int(n) for n in np.bincount(area, minlength=len(area_code))),
        area=area,
        unit=np.array([unit_code[(r.area_id, r.institution_id)] for r in records], dtype=np.intp),
        unit_area=unit_area,
        journal_year=np.array([jy_code[(r.journal_id, r.year)] for r in records], dtype=np.intp),
        n_journal_years=len(jy_code),
        citations=floats(r.citations for r in records),
        reviewer1=floats(overall_score(r.review_a) for r in records),
        reviewer2=floats(overall_score(r.review_b) for r in records),
        ext_citation_percentile=floats(r.ext_citation_percentile for r in records),
        ext_journal_percentile=floats(r.ext_journal_percentile for r in records),
        copy_order=copy_order,
        entry_row=entry_row_arr,
        entry_cell=np.array(entry_cell, dtype=np.intp),
        entry_weight=np.array(entry_weight, dtype=float),
        entry_cited=np.array(entry_cited, dtype=float),
        copy_entries=np.argsort(position[entry_row_arr], kind="stable"),
        n_cells=len(cell_code),
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


def table_statistics(
    table: PublicationTable, counts: np.ndarray, config: "PipelineConfig"
) -> "dict[StatKey, float]":
    """Every agreement statistic of the replicate holding counts[row] copies
    of each row, keyed (area, metric, level, view).

    A statistic whose fit is degenerate (fewer than 3 points or a predictor
    variance of exactly 0), or whose MAPD meets a nonpositive observed score,
    is left out, as the record path skips it.
    """
    n_rows = len(counts)
    copies = np.repeat(table.copy_order, counts[table.copy_order])
    entries = np.repeat(table.copy_entries, counts[table.entry_row[table.copy_entries]])

    # Field-year baselines and NCS; a row on a zero-mean cell is flagged.
    cells = table.entry_cell[entries]
    mass = np.bincount(cells, weights=table.entry_weight[entries], minlength=table.n_cells)
    cited = np.bincount(cells, weights=table.entry_cited[entries], minlength=table.n_cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        entry_mean = (cited / mass)[table.entry_cell]
        ratio = table.citations[table.entry_row] / entry_mean
    zero_cell = np.bincount(table.entry_row, weights=entry_mean == 0.0, minlength=n_rows)
    keep = (counts > 0) & (zero_cell == 0)
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
    series = {
        "reviewer1": table.reviewer1,
        "reviewer2": table.reviewer2,
        "ncs": ncs,
        "njs": njs,
        "citation_percentile": cit_pct,
        "journal_percentile": jou_pct,
    }

    # Institution x area units with at least min_pubs copies.
    n_units = len(table.unit_area)
    kept_unit = table.unit[kept]
    unit_copies = np.bincount(kept_unit, minlength=n_units)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit_mean = {
            label: np.bincount(kept_unit, weights=series[label][kept], minlength=n_units) / unit_copies
            for label in (config.baseline_label, *config.metric_labels)
        }
    unit_ok = unit_copies >= config.min_pubs

    out: dict[StatKey, float] = {}
    kept_area = table.area[kept]
    for a, area_id in enumerate(table.area_ids):
        area_copies = kept[kept_area == a]
        if not len(area_copies):
            continue
        units = np.flatnonzero(unit_ok & (table.unit_area == a))
        y_unit = unit_mean[config.baseline_label][units]
        rows = np.flatnonzero(keep & (table.area == a))
        y_pub = series[config.baseline_label]
        for metric in config.metric_labels:
            x_unit = unit_mean[metric][units]
            line = ols_line(x_unit, y_unit) if len(units) >= 3 else None
            if line is not None:
                dev = np.abs(y_unit - (line[0] + line[1] * x_unit))
                out[(area_id, metric, LEVEL_INSTITUTION, VIEW_SIZE_INDEPENDENT)] = float(np.median(dev))
                if (y_unit > 0).all():
                    out[(area_id, metric, LEVEL_INSTITUTION, VIEW_SIZE_DEPENDENT)] = float(100.0 * np.median(dev / y_unit))
            x_pub = series[metric]
            line = ols_line(x_pub[area_copies], y_pub[area_copies]) if len(area_copies) >= 3 else None
            if line is not None:
                dev = np.abs(y_pub[rows] - (line[0] + line[1] * x_pub[rows]))
                out[(area_id, metric, LEVEL_PUBLICATION, VIEW_SIZE_INDEPENDENT)] = _weighted_median(dev, counts[rows])
    return out
