"""Integer-coded publication table, from which the point statistics and the
count-vector bootstrap replicates are computed.

A run codes the corpus once into a table with one row per publication.
The table is coded from the corpus columns (``corpus.Columns``) and no
record object is built: the columns hold institution, area and journal ids
and weight labels as codes already, years, units, journal-years and
field-year cells become integer codes here, multidisciplinary weight is
reassigned on the label codes (``reassign_codes``), and the category
weight entries are sorted by row and field. A code is a value's rank
among the distinct values, read off a presence array's running count
while the values span at most a few times as many integers as they are,
and taken from ``np.unique`` beyond that. Rows are ranked by pub_id in
Python's string order, with one sort of the ids, and each row's
entries are one contiguous slice, taken in that order without a sort.
The stratified bootstrap resamples publications with replacement
within each area, so a replicate is fully described by a vector of copy
counts, one per publication: the frequency-weight form of the
nonparametric bootstrap (Hanley & MacGibbon 2006). The corpus itself is
the vector of all ones. ``point_statistics`` and ``table_statistics``
compute indicators, institution x area aggregates and agreement
statistics from such a vector with numpy group-bys, without copying a
record. ``point_statistics`` returns the run's ``PipelineStats``;
its institution x area units are rows built at once from the per-unit sums
and copy counts, in unit code order, which is (area, institution) order.

Each sum runs over the copies in ascending pub_id order, a row's copies
together, for the corpus itself and for every replicate alike: the order
in which a record-by-record computation sums them, on the corpus and on a
materialised replicate whose copies ``tests/record_pipeline.py`` names
so that they sort by the pub_id rank of their publication. ``np.bincount``
accumulates sequentially like a left fold, so field-year baselines, NCS,
NJS, unit means and fits are bit-identical to that computation, which
``tests/record_pipeline.py`` keeps as the reference and which folds left
rather than calling ``sum()``, whose rounding is compensated from Python
3.12 on. Exact ties between
publications, which set mid-rank percentiles, and a predictor variance of
exactly 0, which skips a fit, therefore come out the same.

Ranks and medians do not depend on summation order, so no replicate sorts
the whole table. Mid-rank percentiles are taken over the distinct
publications, weighted by their copy counts, each area's contiguous rows
sorted on their own. NJS has one value per journal-year, so journal
percentiles rank the area x journal-year cells, weighted by their kept
copies, and each row takes its cell's rank; one call ranks the rows and
the cells. Medians of the deviations (of every copy, at the publication
level) take the one or two middle order statistics from a single in-place
partition per row. The agreement pass fits the lines of all metrics of an
area at once, one row per metric, with the arithmetic of the reference
``fit_lines`` of ``tests/record_pipeline.py`` in one buffer per fit; each area's copies are a
slice of the kept copies grouped by area. The point pass is the replicate
whose counts are all 1: the two share ``_scores`` and ``_statistics``,
which alone decides whether a statistic exists and why not, and differ
only in what they keep. The point pass builds the statistic, calibration
and skip objects; a replicate only writes its values into a row of the
bootstrap's replicate matrix.
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
    nonpositive_score,
    too_few_points,
    zero_variance,
)
from .corpus import Columns, Corpus, check_reviews, overall_score

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
    area_starts: np.ndarray  # first row of each area
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
    ext_missing: np.ndarray  # row lacks either external percentile
    # The groups the percentiles rank in, rows and then journal cells: a
    # row's area, and n_areas + a journal cell's area.
    rank_group: np.ndarray
    # Rows in ascending pub_id order, the order every sum runs in.
    pub_order: np.ndarray
    # One entry per (row, field) of the category weights, rows ascending and
    # fields sorted within a row.
    entry_row: np.ndarray
    entry_cell: np.ndarray  # (field, year) cell code
    entry_weight: np.ndarray
    entry_cited: np.ndarray  # weight times the row's citations
    pub_entries: np.ndarray  # entry indices, rows in pub_id order
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


def _dense_codes(values: np.ndarray, low: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True) of integers in [low, low + size).

    Up to a range of a few times the number of values, a presence array and
    its cumulative sum code them without a sort; a wider range is coded by
    np.unique.
    """
    if size > 4 * len(values) + 1024:
        distinct, codes = np.unique(values, return_inverse=True)
        return distinct, codes.reshape(-1)
    offset = values - low
    present = np.zeros(size, dtype=bool)
    present[offset] = True
    return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[offset]


def _pair_codes(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Codes of the (first, second) code pairs in sorted order: each pair
    code's first and second code, and each row's pair code."""
    n = int(second.max(initial=-1)) + 1
    pairs, codes = _dense_codes(first * n + second, 0, (int(first.max(initial=-1)) + 1) * n)
    return pairs // n, pairs % n, codes


def reassign_codes(
    columns: Columns, multidisciplinary_label: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multidisciplinary reassignment of the category weight entries, on
    label codes.

    The category and reference weight labels are codes over one sorted
    list of labels (Columns.labels). A row's nonzero multidisciplinary
    weight w goes to its usable reference entries (not multidisciplinary,
    weight > 0): one of weight rv gets w * rv / ref_total, ref_total being
    the row's usable reference weights folded left in entry order. The
    share is added to the row's category entry of the same label (existing
    + share), or appended after the row's entries in reference order, and
    the multidisciplinary entry goes. A row without a usable reference
    entry is left as it is and flagged.

    Returns the row, label code and weight of every category entry after
    reassignment, rows non-decreasing and each row's entries in the order
    above; and the flagged rows, ascending. When no row changes, the row,
    label code and weight arrays are those of the columns.
    """
    weights, refs, n_rows, labels = columns.weights, columns.refs, len(columns), columns.labels
    multi = labels.index(multidisciplinary_label) if multidisciplinary_label in labels else -1
    row, weight, entry_code, ref_code = weights.row, weights.weight, weights.label, refs.label
    hit = (entry_code == multi) & (weight != 0.0)
    multi_rows = row[hit]
    w_multi = np.zeros(n_rows)
    w_multi[multi_rows] = weight[hit]
    usable = (w_multi[refs.row] != 0.0) & (ref_code != multi) & (refs.weight > 0)
    ref_row, ref_code, rv = refs.row[usable], ref_code[usable], refs.weight[usable]
    redo = np.zeros(n_rows, dtype=bool)
    redo[ref_row] = True
    flagged = multi_rows[~redo[multi_rows]]
    if not len(ref_row):
        return row, entry_code, weight, flagged
    share = w_multi[ref_row] * rv / np.bincount(ref_row, weights=rv, minlength=n_rows)[ref_row]

    # Each share's category entry of the same row and label, if the row has one.
    drop = redo[row] & (entry_code == multi)
    same = np.flatnonzero(redo[row] & ~drop)
    key = row[same].astype(np.int64) * len(labels) + entry_code[same]
    by_key = np.argsort(key)
    key = key[by_key]
    ref_key = ref_row.astype(np.int64) * len(labels) + ref_code
    at = np.searchsorted(key, ref_key)
    found = at < len(key)
    found[found] = key[at[found]] == ref_key[found]
    weight = weight.copy()
    weight[same[by_key[at[found]]]] += share[found]

    # The new entries go after their row's kept entries, in reference order.
    keep, new = ~drop, ~found
    order = np.argsort(np.concatenate((row[keep], ref_row[new])), kind="stable")
    out_row, out_code, out_weight = (
        np.concatenate((kept[keep], added[new]))[order]
        for kept, added in ((row, ref_row), (entry_code, ref_code), (weight, share))
    )
    total = np.bincount(out_row, weights=out_weight, minlength=n_rows)[redo]
    assert (np.abs(total - 1.0) <= 1e-6).all()
    return out_row, out_code, out_weight, flagged


def build_table(corpus: Corpus, multidisciplinary_label: str) -> PublicationTable:
    """Integer-code the corpus columns after multidisciplinary reassignment."""
    columns = corpus.columns
    entry_row, field_code, entry_weight, unredistributable = reassign_codes(columns, multidisciplinary_label)
    check_reviews(columns)
    area_ids, area = columns.area_ids, columns.area_id
    # Rows ranked by pub_id as Python orders strings, which numpy's fixed-width
    # strings do not: they drop trailing NULs.
    pub_ids, n_rows = columns.pub_id, len(columns)
    by_pub_id = np.fromiter(sorted(range(n_rows), key=pub_ids.__getitem__), dtype=np.intp, count=n_rows)
    # numpy's stable sort is a radix sort on integers of 16 bits or fewer,
    # several times faster than its timsort on int64 area codes.
    area_dtype = np.min_scalar_type(len(area_ids))
    rows = by_pub_id[np.argsort(area[by_pub_id].astype(area_dtype), kind="stable")]
    area = area[rows]
    table_row = np.empty(n_rows, dtype=np.intp)  # corpus row -> table row
    table_row[rows] = np.arange(n_rows)
    pub_order = table_row[by_pub_id]
    unit_area, unit_institution, unit = _pair_codes(area, columns.institution_id[rows])
    low = int(columns.year.min()) if n_rows else 0
    year = _dense_codes(columns.year, low, int(columns.year.max(initial=low)) - low + 1)[1][rows]
    journal_year = _pair_codes(columns.journal_id[rows], year)[2]
    journal_cell_area, journal_cell_year, journal_cell = _pair_codes(area, journal_year)
    citations = columns.citations[rows].astype(float)
    reviewer_total = overall_score(columns.review)[rows]
    ext_citation, ext_journal = columns.ext_citation_percentile[rows], columns.ext_journal_percentile[rows]

    def entries_of(start: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The entries [start[i], start[i] + length[i]) of each row i in
        turn, which together are every entry."""
        stop = np.cumsum(length)
        return np.repeat(start - (stop - length), length) + np.arange(len(field_code))

    # Category weight entries, table rows ascending and fields sorted
    # within a row; the codes of the labels sort as the labels do. Each
    # corpus row's entries are contiguous, so moving them a row at a time
    # into table row order leaves the stable sort only each row's fields
    # to order.
    corpus_entries = np.bincount(entry_row, minlength=n_rows)
    row_entries = corpus_entries[rows]
    by_row = entries_of((np.cumsum(corpus_entries) - corpus_entries)[rows], row_entries)
    entry_row = np.repeat(np.arange(n_rows), row_entries)
    order = by_row[np.argsort(entry_row * len(columns.labels) + field_code[by_row], kind="stable")]
    entry_weight = entry_weight[order]
    cell = _pair_codes(field_code[order], year[entry_row])[2]
    pub_entries = entries_of((np.cumsum(row_entries) - row_entries)[pub_order], row_entries[pub_order])

    return PublicationTable(
        area_ids=tuple(area_ids),
        area_sizes=tuple(np.bincount(area, minlength=len(area_ids)).tolist()),
        area_starts=np.searchsorted(area, np.arange(len(area_ids))),
        area=area,
        unit=unit,
        unit_area=unit_area,
        unit_institution=tuple(map(columns.institution_ids.__getitem__, unit_institution.tolist())),
        journal_year=journal_year,
        n_journal_years=int(journal_year.max(initial=-1)) + 1,
        journal_cell=journal_cell,
        journal_cell_area=journal_cell_area,
        journal_cell_year=journal_cell_year,
        citations=citations,
        reviewer1=reviewer_total[:, 0].astype(float),
        reviewer2=reviewer_total[:, 1].astype(float),
        ext_citation_percentile=ext_citation,
        ext_journal_percentile=ext_journal,
        ext_missing=np.isnan(ext_citation) | np.isnan(ext_journal),
        rank_group=np.concatenate((area, journal_cell_area + len(area_ids))),
        pub_order=pub_order,
        entry_row=entry_row,
        entry_cell=cell,
        entry_weight=entry_weight,
        entry_cited=entry_weight * citations[entry_row],
        pub_entries=pub_entries,
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
    out = np.zeros(len(values))
    rows = (counts > 0).nonzero()[0]  # faster than on the counts themselves
    if not len(rows):
        return out
    g = group[rows]
    new_group = np.empty(len(rows), dtype=bool)
    new_group[0] = True
    np.not_equal(g[1:], g[:-1], out=new_group[1:])
    first = new_group.nonzero()[0]
    bounds = [*first.tolist(), len(rows)]
    order = np.concatenate([s[np.argsort(values[s])] for s in (rows[i:j] for i, j in zip(bounds, bounds[1:]))])
    v, cnt = values[order], counts[order]
    new_run = new_group.copy()
    new_run[1:] |= v[1:] != v[:-1]
    starts = new_run.nonzero()[0]  # the first row of each run of ties
    stops = np.empty_like(starts)  # one past its last row
    stops[:-1] = starts[1:]
    stops[-1] = len(order)
    end = np.cumsum(cnt)  # copies of this and earlier groups up to the row
    # Copies before each group and in it, indexed by group.
    codes = g[first]
    group_start = np.zeros(codes[-1] + 1, dtype=end.dtype)
    group_size = np.zeros(codes[-1] + 1, dtype=end.dtype)
    group_start[codes] = end[first] - cnt[first]
    group_size[codes] = end[np.array(bounds[1:]) - 1] - group_start[codes]
    run_before = end[starts] - cnt[starts]
    run_group = g[starts]
    rank = (run_before - group_start[run_group]) + (end[stops - 1] - run_before + 1) / 2
    out[order] = np.repeat(100.0 * (rank - 0.5) / group_size[run_group], stops - starts)
    return out


def _median_rows(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=1) with one partition of a in place: the same one
    or two middle order statistics, averaged as (lower + upper) / 2. The
    result may be a view of a.

    np.median also checks for NaN; the rows here are absolute or relative
    deviations of finite scores (the load rejects non-finite external
    percentiles), so they hold none.
    """
    half = a.shape[1] // 2
    a.partition(half, axis=1)
    upper = a[:, half]
    if a.shape[1] % 2:
        return upper
    return (a[:, :half].max(axis=1) + upper) / 2


class _Lines(NamedTuple):
    """The lines of all metrics of one area at one level, one entry per
    metric, and the medians of their absolute residuals."""

    intercept: np.ndarray
    slope: np.ndarray
    var: np.ndarray  # predictor variance; a metric of variance 0 has no line
    mad: np.ndarray
    mapd: np.ndarray | None  # None unless asked for


def _fit(z: np.ndarray, relative: bool) -> _Lines:
    """The least-squares line of y on each row of x, as the reference
    fit_lines computes it, where z stacks the rows of x over a last row y,
    and per row the median absolute residual |y - (a + b*x)| (MAD) and,
    when relative, 100 times the median of the absolute residual over y
    (MAPD).

    The arithmetic is that of fit_lines and of np.abs(y - (a + b*x)), bit
    for bit. One buffer of two metrics x points blocks holds dx**2 and
    dx*(y - ybar), and its first block then the residuals, computed as
    b*x + a since IEEE addition commutes. The medians partition their rows
    in place, so the ratios to y are taken first, into the buffer's second
    block.
    """
    # A row sum is pairwise only along contiguous rows, as in fit_lines.
    z = np.ascontiguousarray(z)
    m, n = z.shape[0] - 1, z.shape[1]
    means = z.sum(axis=1) / n
    dz = z - means[:, None]
    x, y, dx = z[:m], z[m], dz[:m]
    buf = np.empty((2 * m, n))
    res = np.square(dx, out=buf[:m])
    np.multiply(dx, dz[m], out=buf[m:])
    moments = buf.sum(axis=1) / n
    var = moments[:m]
    slope = np.divide(moments[m:], var, out=np.zeros(m), where=var != 0.0)
    xbar, ybar = means[:m], means[m]
    intercept = ybar - slope * xbar
    np.multiply(x, slope[:, None], out=res)
    res += intercept[:, None]
    np.subtract(y, res, out=res)
    np.abs(res, out=res)
    mapd = 100.0 * _median_rows(np.divide(res, y, out=buf[m:])) if relative else None
    return _Lines(intercept, slope, var, _median_rows(res), mapd)


class _Scores(NamedTuple):
    keep: np.ndarray  # rows with copies and a baseline on every cell they map to
    area_kept: np.ndarray  # copies of kept rows by area, in summation order within an area
    area_bounds: list[int]  # area a's copies are area_kept[area_bounds[a]:area_bounds[a + 1]]
    series: dict[str, np.ndarray]  # series label -> score per row; only kept rows' scores are read
    unit_copies: np.ndarray  # kept copies per unit
    unit_total: dict[str, np.ndarray]  # series label -> score summed per unit
    entry_undefined: np.ndarray  # the entry's cell has no positive weight mass
    entry_zero: np.ndarray  # the entry's cell has mean citations 0


def _scores(table: PublicationTable, counts: np.ndarray) -> _Scores:
    """Scores of the corpus holding counts[row] copies of each row, summed
    over the copies in ascending pub_id order, a row's copies together."""
    n_rows = len(counts)
    copies, entries = table.pub_order, table.pub_entries
    if (counts != 1).any():
        copies = np.repeat(copies, counts[copies])
        entries = np.repeat(entries, counts[table.entry_row[entries]])

    # Field-year baselines and NCS; a row on a cell without a baseline, or
    # on a zero-mean cell, is flagged.
    cells = table.entry_cell[entries]
    mass = np.bincount(cells, weights=table.entry_weight[entries], minlength=table.n_cells)
    cited = np.bincount(cells, weights=table.entry_cited[entries], minlength=table.n_cells)
    entry_mean = (cited / mass)[table.entry_cell]
    ratio = table.citations[table.entry_row] / entry_mean
    entry_undefined = (mass <= 0)[table.entry_cell]
    entry_zero = entry_mean == 0.0
    bad = np.bincount(table.entry_row, weights=entry_undefined | entry_zero, minlength=n_rows)
    keep = (counts > 0) & (bad == 0)
    kept = copies[keep[copies]]
    w = counts * keep  # copies of kept rows
    ncs = np.bincount(table.entry_row, weights=table.entry_weight * ratio, minlength=n_rows)

    jy = table.journal_year[kept]
    jy_mean = np.bincount(jy, weights=ncs[kept], minlength=table.n_journal_years) / np.bincount(
        jy, minlength=table.n_journal_years
    )
    njs = jy_mean[table.journal_year]

    if not (table.ext_missing & keep).any():
        cit_pct, jou_pct = table.ext_citation_percentile, table.ext_journal_percentile
    else:
        # NCS ranks per area. NJS is one value per journal-year, so its ranks
        # are those of the area x journal-year cells, weighted by their kept
        # copies, and each row takes its cell's rank. One call ranks both.
        cell_copies = np.bincount(table.journal_cell[kept], minlength=len(table.journal_cell_area))
        pct = _midrank_percentiles(
            table.rank_group,
            np.concatenate((ncs, jy_mean[table.journal_cell_year])),
            np.concatenate((w, cell_copies)),
        )
        cit_pct = pct[:n_rows]
        jou_pct = pct[n_rows:][table.journal_cell]
    series = dict(zip(SERIES_LABELS, (table.reviewer1, table.reviewer2, ncs, njs, cit_pct, jou_pct)))

    n_units = len(table.unit_area)
    kept_unit = table.unit[kept]
    return _Scores(
        keep=keep,
        # The rows are in (area, pub_id) order.
        area_kept=np.repeat(np.arange(n_rows), w),
        area_bounds=[0, *np.cumsum(np.add.reduceat(w, table.area_starts)).tolist()],
        series=series,
        unit_copies=np.bincount(kept_unit, minlength=n_units),
        unit_total={
            label: np.bincount(kept_unit, weights=values[kept], minlength=n_units) for label, values in series.items()
        },
        entry_undefined=entry_undefined,
        entry_zero=entry_zero,
    )


def _statistics(table: PublicationTable, scores: _Scores, config: "PipelineConfig"):
    """Every agreement statistic of the scores, in the order of the
    record-by-record reference, as (key, n, value, skip, line): key is
    (area, metric, level, view), n the number of points, and either value
    and, for a MAD, the calibration line (intercept, slope), or the reason
    the statistic is skipped, whose key is the first view it skips.

    Areas without kept copies have none. Institutions count as units when
    they have at least min_pubs copies; a replicate's copies of one
    publication count once each at the publication level. A line needs
    MIN_POINTS points and a predictor variance other than 0; MAPD is taken
    at the institution level only, when every observed unit score is
    positive. All metrics of an area are fitted at once, each level's
    scores stacked one row per metric.
    """
    if not config.metric_labels:
        return
    # Each level's scores, one row per metric and the observed scores last.
    labels = (*config.metric_labels, config.baseline_label)
    unit_all = np.array([scores.unit_total[label] for label in labels]) / scores.unit_copies
    pub_all = np.array([scores.series[label] for label in labels])
    unit_ok = scores.unit_copies >= config.min_pubs
    bounds = scores.area_bounds
    for a, area_id in enumerate(table.area_ids):
        copies = scores.area_kept[bounds[a] : bounds[a + 1]]
        if not len(copies):
            continue
        # np.take gathers into C order; z[:, units] is Fortran-ordered, which _fit would copy.
        z_unit = np.take(unit_all, (unit_ok & (table.unit_area == a)).nonzero()[0], axis=1)
        y_unit = z_unit[-1]
        nonpositive = y_unit[y_unit <= 0]
        n_unit, n_pub = len(y_unit), len(copies)
        unit_lines = _fit(z_unit, not len(nonpositive)) if n_unit >= MIN_POINTS else None
        pub_lines = _fit(np.take(pub_all, copies, axis=1), False) if n_pub >= MIN_POINTS else None
        for i, metric in enumerate(config.metric_labels):
            for level, n, lines in ((LEVEL_INSTITUTION, n_unit, unit_lines), (LEVEL_PUBLICATION, n_pub, pub_lines)):
                key = (area_id, metric, level, VIEW_SIZE_INDEPENDENT)
                if lines is None:
                    yield key, n, None, too_few_points(area_id, metric, n), None
                elif lines.var[i] == 0.0:
                    yield key, n, None, zero_variance(area_id, metric), None
                else:
                    yield key, n, float(lines.mad[i]), None, (float(lines.intercept[i]), float(lines.slope[i]))
                    if level != LEVEL_INSTITUTION:
                        continue
                    key = (area_id, metric, level, VIEW_SIZE_DEPENDENT)
                    if lines.mapd is None:
                        yield key, n, None, nonpositive_score(float(nonpositive[0])), None
                    else:
                        yield key, n, float(lines.mapd[i]), None, None


def _agreement(table: PublicationTable, scores: _Scores, config: "PipelineConfig") -> AgreementResult:
    """MAD and MAPD per (area, metric) at both levels, with their
    calibrations and skip reasons, as the point pass reports them."""
    result = AgreementResult(statistics=[], calibrations=[], skips=[])
    for key, n, value, skip, line in _statistics(table, scores, config):
        area_id, metric, level, _ = key
        if skip is not None:
            result.skips.append(SkipEntry(area_id, metric, level, skip))
            continue
        if line is not None:
            result.calibrations.append(CalibrationFit(area_id, metric, *line, n))
        result.statistics.append(AgreementStatistic(*key, value, n))
    return result


def table_statistics(
    table: PublicationTable,
    counts: np.ndarray,
    config: "PipelineConfig",
    columns: "dict[StatKey, int]",
    row: np.ndarray,
) -> None:
    """Write every agreement statistic of the replicate holding counts[i]
    copies of each table row i into row[columns[key]], key being (area,
    metric, level, view). A skipped statistic, or one whose key has no
    column, leaves row as it is.

    The values are those of the point pass's statistics, built without its
    result objects.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _scores(table, counts)
        for key, _, value, skip, _ in _statistics(table, scores, config):
            j = columns.get(key)
            if skip is None and j is not None:
                row[j] = value


def point_scores(table: PublicationTable) -> tuple[_Scores, np.ndarray, np.ndarray]:
    """The scores of the corpus itself; its flagged rows, ascending; and for
    each whether it is flagged for an undefined baseline rather than a zero
    mean. A row is flagged for the first of its sorted fields whose cell has
    no baseline or a zero mean, as the reference compute_ncs raises."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = _scores(table, np.ones(len(table.area), dtype=np.intp))
    bad = np.flatnonzero(scores.entry_undefined | scores.entry_zero)
    flagged, first = np.unique(table.entry_row[bad], return_index=True)
    return scores, flagged, scores.entry_undefined[bad[first]]


def point_statistics(table: PublicationTable, config: "PipelineConfig") -> PipelineStats:
    """The statistics of the corpus itself, summed in ascending pub_id order.

    The aggregates are the units with at least min_pubs unflagged
    publications, in unit code order, which is (area, institution) order;
    the units with fewer are excluded, listed in (institution, area) order.
    """
    scores, flagged_rows, undefined = point_scores(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = _agreement(table, scores, config)

    copies = scores.unit_copies
    units = np.flatnonzero(copies >= config.min_pubs)
    totals = np.stack([scores.unit_total[label] for label in SERIES_LABELS])
    means = (totals[:, units] / copies[units]).T.tolist()
    aggregates = list(
        map(
            InstitutionAggregate,
            map(table.unit_institution.__getitem__, units.tolist()),
            map(table.area_ids.__getitem__, table.unit_area[units].tolist()),
            copies[units].tolist(),
            map(tuple, means),
        )
    )
    excluded = sorted(
        (table.unit_institution[u], table.area_ids[table.unit_area[u]])
        for u in np.flatnonzero((copies > 0) & (copies < config.min_pubs)).tolist()
    )

    n_undefined = int(undefined.sum())
    flagged = {
        "zero_mean_cell": len(flagged_rows) - n_undefined,
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
