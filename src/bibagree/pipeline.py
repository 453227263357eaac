"""End-to-end orchestration: load, score, aggregate, compare, resample, report."""

from __future__ import annotations

import csv
import functools
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import agreement as agr
from .aggregation import InstitutionAggregate, ScoreSeries, aggregate
from .corpus import Corpus, SchemaOptions, assign_reviewer_roles, load_corpus, overall_score
from .indicators import build_indicator_table, compute_baselines, reassign_multidisciplinary
from .resampling import BootstrapResult, CoverageDiagnostic, StatKey, bootstrap_statistics, coverage_report
from .table import build_table, table_statistics

SERIES_LABELS = (
    "reviewer1",
    "reviewer2",
    "ncs",
    "njs",
    "citation_percentile",
    "journal_percentile",
)
DEFAULT_METRICS = ("reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile")


class PipelineError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class ConfigError(ValueError):
    """A pipeline config key or value is invalid."""


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    min_pubs: int = 1
    multidisciplinary_label: str = "MULTI"
    n_replicates: int = 1000
    bootstrap: bool = True
    n_workers: int = 1
    baseline_label: str = "reviewer1"
    metric_labels: tuple[str, ...] = DEFAULT_METRICS
    assign_roles: bool = True

    def __post_init__(self):
        for name in ("min_pubs", "n_workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.bootstrap and self.n_replicates < 1:
            raise ConfigError(f"n_replicates must be >= 1 when bootstrap is on, got {self.n_replicates}")
        for name, label in [("baseline_label", self.baseline_label)] + [
            ("metric_labels", label) for label in self.metric_labels
        ]:
            if label not in SERIES_LABELS:
                raise ConfigError(f"{name}: unknown series {label!r}, expected one of {', '.join(SERIES_LABELS)}")

    @staticmethod
    def from_file(path: str | Path) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(PipelineConfig)})
        if unknown:
            raise ConfigError(f"{path}: unknown config key(s) {', '.join(map(repr, unknown))}")
        if "metric_labels" in raw:
            raw["metric_labels"] = tuple(raw["metric_labels"])
        return PipelineConfig(**raw)


@dataclass
class PipelineStats:
    """Everything computed from one (possibly resampled) corpus."""

    statistics: list[agr.AgreementStatistic]
    skips: list[agr.SkipEntry]
    calibrations: list[agr.CalibrationFit]
    aggregates: list[InstitutionAggregate]
    flagged_records: dict[str, int]
    excluded_below_min_pubs: list[tuple[str, str]]


@dataclass
class RunReport:
    config_echo: dict
    flagged_records: dict[str, int]
    statistics: list[agr.AgreementStatistic]
    skips: list[agr.SkipEntry]
    aggregates: list[InstitutionAggregate]
    bootstrap: list[BootstrapResult]
    coverage: list[CoverageDiagnostic]
    timing: dict[str, float] = field(default_factory=dict)  # not serialized


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


def compute_pipeline_stats(corpus: Corpus, config: PipelineConfig) -> PipelineStats:
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


def statistic_values(corpus: Corpus, config: PipelineConfig) -> dict[StatKey, float]:
    """Flat {(area, metric, level, view): value} view, used by the bootstrap."""
    return {s.key(): s.value for s in compute_pipeline_stats(corpus, config).statistics}


def run_bootstrap(
    corpus: Corpus, config: PipelineConfig, points: dict[StatKey, float] | None = None
) -> list[BootstrapResult]:
    """Bootstrap intervals around the point statistics.

    The corpus is coded once into a publication table, and each replicate
    is a vector of copy counts over it (see table.py). points are the
    statistic_values of the corpus; they are computed when not given.
    """
    if points is None:
        points = statistic_values(corpus, config)
    table = build_table(corpus, config.multidisciplinary_label)
    fn = functools.partial(table_statistics, config=config)
    return bootstrap_statistics(
        table, fn, points, config.n_replicates, config.seed, config.n_workers
    )


def run(
    corpus_path: str | Path,
    out_dir: str | Path,
    config: PipelineConfig,
    schema_options: SchemaOptions = SchemaOptions(),
) -> RunReport:
    """Full pipeline over a corpus file, writing the report and figure tables."""
    timing: dict[str, float] = {}

    def timed(stage, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            raise PipelineError(stage, str(exc)) from exc
        timing[stage] = time.perf_counter() - t0
        return out

    corpus = timed("load", load_corpus, corpus_path, schema_options)
    if config.assign_roles:
        corpus = timed("assign_roles", assign_reviewer_roles, corpus, config.seed)
    stats = timed("statistics", compute_pipeline_stats, corpus, config)
    boot: list[BootstrapResult] = []
    if config.bootstrap:
        points = {s.key(): s.value for s in stats.statistics}
        boot = timed("bootstrap", run_bootstrap, corpus, config, points)
    coverage: list[CoverageDiagnostic] = []
    if corpus.population_counts:
        coverage = timed("coverage", coverage_report, corpus, corpus.population_counts)

    report = RunReport(
        config_echo={
            "corpus_path": str(corpus_path),
            "census_year": corpus.census_year,
            "series_labels": list(SERIES_LABELS),
            **asdict(config),
        },
        flagged_records=stats.flagged_records,
        statistics=stats.statistics,
        skips=stats.skips,
        aggregates=stats.aggregates,
        bootstrap=boot,
        coverage=coverage,
        timing=timing,
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report(report, out_dir / "report.json")
    emit_figure_tables(report, out_dir)
    return report


def write_report(report: RunReport, path: Path) -> None:
    """Serialize the run report as JSON; timing stays out so identical inputs
    produce byte-identical files."""
    payload = {
        "config": report.config_echo,
        "flagged_records": dict(sorted(report.flagged_records.items())),
        "statistics": [asdict(s) for s in report.statistics],
        "skips": [asdict(s) for s in report.skips],
        "bootstrap": [asdict(b) for b in report.bootstrap],
        "coverage": [asdict(c) for c in report.coverage],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _boot_index(report: RunReport) -> dict[StatKey, BootstrapResult]:
    return {b.key(): b for b in report.bootstrap}


def _fmt(x) -> str:
    return "" if x is None else repr(x)


def emit_figure_tables(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Plot-ready tables: institutional MAD, institutional MAPD, publication
    MAD (each with bootstrap interval columns) and the institution scatter."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    boots = _boot_index(report)
    written: list[Path] = []

    specs = [
        ("mad_institution.csv", agr.LEVEL_INSTITUTION, agr.VIEW_SIZE_INDEPENDENT, "mad"),
        ("mapd_institution.csv", agr.LEVEL_INSTITUTION, agr.VIEW_SIZE_DEPENDENT, "mapd"),
        ("mad_publication.csv", agr.LEVEL_PUBLICATION, agr.VIEW_SIZE_INDEPENDENT, "mad"),
    ]
    for name, level, view, value_col in specs:
        path = out_dir / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["area_id", "metric_label", value_col, "boot_lower", "boot_upper", "n_units"])
            rows = sorted(
                (s for s in report.statistics if s.level == level and s.view == view),
                key=lambda s: (s.area_id, s.metric_label),
            )
            for s in rows:
                b = boots.get(s.key())
                writer.writerow(
                    [
                        s.area_id,
                        s.metric_label,
                        _fmt(s.value),
                        _fmt(b.lower) if b else "",
                        _fmt(b.upper) if b else "",
                        s.n_units,
                    ]
                )
        written.append(path)

    scatter = out_dir / "scatter_institution.csv"
    with open(scatter, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        labels = [lab for lab in SERIES_LABELS if any(lab in a.mean_score for a in report.aggregates)] or list(SERIES_LABELS)
        writer.writerow(["institution_id", "area_id", "pub_count"] + [f"mean_{lab}" for lab in labels])
        for a in sorted(report.aggregates, key=lambda a: (a.area_id, a.institution_id)):
            writer.writerow(
                [a.institution_id, a.area_id, a.pub_count]
                + [_fmt(a.mean_score.get(lab)) for lab in labels]
            )
    written.append(scatter)

    if report.coverage:
        cov = out_dir / "coverage.csv"
        with open(cov, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["institution_id", "sample_count", "population_count", "coverage_ratio"])
            for c in report.coverage:
                writer.writerow(
                    [
                        c.institution_id,
                        c.sample_count,
                        c.population_count if c.population_count is not None else "unavailable",
                        _fmt(c.coverage_ratio) if c.coverage_ratio is not None else "unavailable",
                    ]
                )
        written.append(cov)
    return written

