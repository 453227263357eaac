"""Field-normalized citation and journal indicators of each publication.

NCS: citations over the fractionally-counted mean citations of the same
field and year. NJS: mean NCS per journal and year. Percentile scores use
mid-rank percentiles with mean-rank ties. The point pass (table._scores)
computes them; build_indicator_table reads them per publication. The
record-by-record computation is the test reference, tests/record_pipeline.py.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from .corpus import Corpus, Entries
from .table import SERIES_LABELS, PublicationTable, build_table, point_scores, reassign_codes


class IndicatorTable(NamedTuple):
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


def compute_baselines(corpus: Corpus) -> PublicationTable:
    """The publication table of the corpus as it stands, no weight
    reassigned, for build_indicator_table.

    No run calls this or build_indicator_table. The benchmark's NCS closure
    check (bench/run.py) imports both names, and the benchmark's files stay
    as they are so that its runs compare across commits.
    """
    return build_table(corpus, None)


def build_indicator_table(corpus: Corpus, table: PublicationTable) -> IndicatorTable:
    """The point pass's NCS, NJS and percentiles of each kept publication,
    by pub_id, and the reason each flagged one is flagged."""
    scores, flagged, undefined = point_scores(table)
    # Table row -> pub_id: table.pub_order lists the rows in pub_id order.
    pub_id = dict(zip(table.pub_order.tolist(), sorted(corpus.columns.pub_id)))
    kept = scores.keep.nonzero()[0].tolist()
    ncs, njs, cit_pct, jou_pct = (
        dict(zip(map(pub_id.__getitem__, kept), scores.series[label][kept].tolist())) for label in SERIES_LABELS[2:]
    )
    reasons = ("undefined_baseline" if u else "zero_mean_cell" for u in undefined.tolist())
    return IndicatorTable(ncs, njs, cit_pct, jou_pct, dict(zip(map(pub_id.__getitem__, flagged.tolist()), reasons)))
