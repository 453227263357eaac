"""The point pass record by record: the reference for the publication table.

Indicators come per record from indicators.build_indicator_table, are
folded per institution and area by aggregation.aggregate, pivoted per area
and compared by agreement.run_agreement, each summing in ascending pub_id
order. On a materialised bootstrap replicate, whose copies are named
"<pub_id>~<draw number>", it gives what table.table_statistics computes
from the replicate's copy counts.
"""

from bibagree import agreement as agr
from bibagree.aggregation import ScoreSeries, aggregate
from bibagree.corpus import Corpus, overall_score
from bibagree.indicators import build_indicator_table, compute_baselines, reassign_multidisciplinary
from bibagree.pipeline import PipelineConfig, PipelineStats


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

    result = agr.run_agreement(
        aggregates, pub_scores, config.baseline_label, list(config.metric_labels)
    )
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
