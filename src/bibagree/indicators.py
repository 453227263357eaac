"""Field-normalized citation and journal indicators.

NCS: citations over the fractionally-counted mean citations of the same
field and year. NJS: mean NCS per journal and year. Percentile scores use
mid-rank percentiles with mean-rank ties.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

from .corpus import Corpus, Entries, PublicationRecord
from .table import reassign_codes


class IndicatorError(Exception):
    pass


class UndefinedBaselineError(IndicatorError):
    """A record's (field, year) cell has no baseline."""


class ZeroMeanCellError(IndicatorError):
    """A record maps onto a field-year cell whose mean citation count is 0."""


@dataclass(frozen=True)
class FieldYearBaseline:
    mean_citations: dict[tuple[str, int], float]
    weight_mass: dict[tuple[str, int], float]


@dataclass(frozen=True)
class IndicatorTable:
    ncs: dict[str, float]
    njs: dict[str, float]
    citation_percentile: dict[str, float]
    journal_percentile: dict[str, float]
    flagged: dict[str, str]  # pub_id -> reason


def reassign_multidisciplinary(
    corpus: Corpus, multidisciplinary_label: str
) -> tuple[Corpus, list[str]]:
    """Redistribute weight in the catch-all multidisciplinary category.

    A record's multidisciplinary weight is spread over its reference-based
    category profile (the multidisciplinary label itself excluded,
    renormalized). Records without a usable reference profile are left
    unchanged and returned as flagged pub_ids.

    The corpus-level form of table.reassign_codes, which a run calls: a
    reassigned record's weight entries take the order reassign_codes
    describes, and the corpus itself comes back when no record changes.
    """
    columns = corpus.columns
    row, code, weight, flagged = reassign_codes(columns, multidisciplinary_label)
    flagged_ids = [columns.pub_id[r] for r in flagged.tolist()]
    if row is columns.weights.row:
        return corpus, flagged_ids
    columns = replace(columns, weights=Entries(row, code, weight))
    return Corpus.from_columns(columns, corpus.census_year, corpus.population_counts), flagged_ids


def compute_baselines(corpus: Corpus) -> FieldYearBaseline:
    """Fractionally-counted mean citations per (field, year) cell.

    Summation runs in ascending pub_id order so results do not depend on
    storage order.
    """
    mass: dict[tuple[str, int], float] = {}
    cite_total: dict[tuple[str, int], float] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        for field_label, w in sorted(rec.category_weights.items()):
            cell = (field_label, rec.year)
            mass[cell] = mass.get(cell, 0.0) + w
            cite_total[cell] = cite_total.get(cell, 0.0) + w * rec.citations
    means = {cell: cite_total[cell] / m for cell, m in mass.items() if m > 0}
    return FieldYearBaseline(mean_citations=means, weight_mass={c: m for c, m in mass.items() if m > 0})


def compute_ncs(record: PublicationRecord, baselines: FieldYearBaseline) -> float:
    """Weighted mean over the record's fields of citations / field-year mean."""
    acc = 0.0
    for field_label, w in sorted(record.category_weights.items()):
        cell = (field_label, record.year)
        if cell not in baselines.mean_citations:
            raise UndefinedBaselineError(
                f"record {record.pub_id!r}: no baseline for {cell}"
            )
        mean = baselines.mean_citations[cell]
        if mean == 0.0:
            raise ZeroMeanCellError(
                f"record {record.pub_id!r}: zero-mean cell {cell}"
            )
        acc += w * (record.citations / mean)
    return acc


def compute_njs(corpus: Corpus, ncs: dict[str, float]) -> dict[str, float]:
    """Mean NCS per (journal, year) group; every member gets the group mean."""
    groups: dict[tuple[str, int], list[str]] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        if rec.pub_id in ncs:
            groups.setdefault((rec.journal_id, rec.year), []).append(rec.pub_id)
    njs: dict[str, float] = {}
    for members in groups.values():
        total = 0.0  # a left fold: sum() compensates rounding from Python 3.12 on
        for p in members:
            total += ncs[p]
        mean = total / len(members)
        for p in members:
            njs[p] = mean
    return njs


def percentile_normalize(
    values: list[tuple[str, float]], grouping: dict[str, str]
) -> dict[str, float]:
    """Mid-rank percentile 100*(r - 0.5)/n within each group, mean-rank ties."""
    by_group: dict[str, list[tuple[str, float]]] = {}
    for pub_id, v in values:
        by_group.setdefault(grouping[pub_id], []).append((pub_id, v))
    out: dict[str, float] = {}
    for members in by_group.values():
        members = sorted(members)  # stable pub_id order under ties
        ordered = sorted(v for _, v in members)
        for pub_id, v in members:
            r = (bisect_left(ordered, v) + bisect_right(ordered, v) + 1) / 2  # mean of the tied 1-based ranks
            out[pub_id] = 100.0 * (r - 0.5) / len(ordered)
    return out


def build_indicator_table(corpus: Corpus, baselines: FieldYearBaseline) -> IndicatorTable:
    """Compute all four per-publication indicator series.

    Records hitting a zero-mean or missing baseline cell are flagged rather
    than dropped silently. Percentile series use the ingested external
    percentiles when every unflagged record carries them; otherwise they
    fall back to within-area mid-rank percentiles of NCS / NJS.
    """
    ncs: dict[str, float] = {}
    flagged: dict[str, str] = {}
    for rec in corpus.records:
        try:
            ncs[rec.pub_id] = compute_ncs(rec, baselines)
        except ZeroMeanCellError:
            flagged[rec.pub_id] = "zero_mean_cell"
        except UndefinedBaselineError:
            flagged[rec.pub_id] = "undefined_baseline"
    njs = compute_njs(corpus, ncs)

    by_id = corpus.by_id()
    unflagged = sorted(ncs)
    have_ext = all(
        by_id[p].ext_citation_percentile is not None
        and by_id[p].ext_journal_percentile is not None
        for p in unflagged
    )
    if have_ext:
        cit_pct = {p: float(by_id[p].ext_citation_percentile) for p in unflagged}
        jou_pct = {p: float(by_id[p].ext_journal_percentile) for p in unflagged}
    else:
        grouping = {p: by_id[p].area_id for p in unflagged}
        cit_pct = percentile_normalize([(p, ncs[p]) for p in unflagged], grouping)
        jou_pct = percentile_normalize([(p, njs[p]) for p in unflagged], grouping)
    return IndicatorTable(
        ncs=ncs,
        njs=njs,
        citation_percentile=cit_pct,
        journal_percentile=jou_pct,
        flagged=flagged,
    )

