"""End-to-end orchestration: load, score, aggregate, compare, resample, report."""

from __future__ import annotations

import csv
import errno
import functools
import json
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import agreement as agr
from .aggregation import InstitutionAggregate
from .corpus import MULTIDISCIPLINARY_LABEL, Corpus, SchemaOptions, assign_reviewer_roles, load_corpus
from .jsonconfig import check_seed, check_type, from_json, read_json
from .resampling import BootstrapResult, CoverageDiagnostic, bootstrap_statistics, coverage_report
from .table import SERIES_LABELS, PipelineStats, build_table, point_statistics, table_statistics

DEFAULT_METRICS = ("reviewer2", "ncs", "njs", "citation_percentile", "journal_percentile")


class PipelineError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")


class ConfigError(ValueError):
    """A pipeline config key or value is invalid."""


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    min_pubs: int = 1
    multidisciplinary_label: str = MULTIDISCIPLINARY_LABEL
    n_replicates: int = 1000
    bootstrap: bool = True
    n_workers: int = 1
    baseline_label: str = "reviewer1"
    metric_labels: tuple[str, ...] = DEFAULT_METRICS
    assign_roles: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple[str, ...]":
                if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
                    raise ConfigError(f"{f.name} must be a list of strings, got {value!r}")
                object.__setattr__(self, f.name, tuple(value))
            else:
                check_type(f.name, f.type, value, ConfigError)
        for name in ("min_pubs", "n_workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_seed(self.seed, ConfigError)
        if self.bootstrap and self.n_replicates < 1:
            raise ConfigError(f"n_replicates must be >= 1 when bootstrap is on, got {self.n_replicates}")
        for name, label in [("baseline_label", self.baseline_label)] + [
            ("metric_labels", label) for label in self.metric_labels
        ]:
            if label not in SERIES_LABELS:
                raise ConfigError(f"{name}: unknown series {label!r}, expected one of {', '.join(SERIES_LABELS)}")
        for label in self.metric_labels:
            if self.metric_labels.count(label) > 1:
                raise ConfigError(f"metric_labels: {label!r} listed twice")

    @staticmethod
    def from_file(path: str | Path) -> "PipelineConfig":
        return from_json(PipelineConfig, read_json(path, ConfigError), str(path), ConfigError)


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


def compute_pipeline_stats(corpus: Corpus, config: PipelineConfig) -> PipelineStats:
    """Reassignment, indicators, aggregation and agreement on one corpus,
    coded once into a publication table."""
    return point_statistics(build_table(corpus, config.multidisciplinary_label), config)


def run_bootstrap(
    corpus: Corpus, config: PipelineConfig, stats: PipelineStats | None = None
) -> list[BootstrapResult]:
    """Bootstrap intervals around the point statistics.

    Each replicate is a vector of copy counts over the publication table of
    the point pass (see table.py). stats are the compute_pipeline_stats of
    the corpus; they are computed when not given.
    """
    if stats is None:
        stats = compute_pipeline_stats(corpus, config)
    points = {s.key(): s.value for s in stats.statistics}
    fn = functools.partial(table_statistics, config=config)
    return bootstrap_statistics(
        stats.table, fn, points, config.n_replicates, config.seed, config.n_workers
    )


def check_out(path: str | Path, what: str, directory: bool = False) -> None:
    """Raise ConfigError naming path unless a `what` can be written there:
    a directory that exists or can be made with its missing parents, or a
    file in an existing directory. Nothing is created."""
    path = Path(path)
    # The directory written into; for a directory still to be made, its
    # nearest existing ancestor.
    nearest = path if directory else path.parent
    while directory and not nearest.exists() and nearest != nearest.parent:
        nearest = nearest.parent
    if path.exists() and path.is_dir() != directory:
        code = errno.EEXIST if directory else errno.EISDIR
    elif not nearest.is_dir():
        code = errno.ENOTDIR if nearest.exists() else errno.ENOENT
    elif not os.access(nearest, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"{path}: cannot write {what}: {os.strerror(code)}")


def run(
    corpus_path: str | Path,
    out_dir: str | Path,
    config: PipelineConfig,
    schema_options: SchemaOptions = SchemaOptions(),
) -> RunReport:
    """Full pipeline over a corpus file, writing the report and figure tables.
    An output directory that cannot be written is rejected before the load,
    and the directory is made only once the report is ready."""
    check_out(out_dir, "output directory", directory=True)
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
        boot = timed("bootstrap", run_bootstrap, corpus, config, stats)
    coverage: list[CoverageDiagnostic] = []
    if corpus.population_counts:
        coverage = timed("coverage", coverage_report, corpus, corpus.population_counts)

    report = RunReport(
        config_echo={
            "corpus_path": str(corpus_path),
            "census_year": corpus.census_year,
            "series_labels": list(SERIES_LABELS),
            **_fields(config),
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


def _fields(record) -> dict:
    """A dataclass record of scalar fields as {field name: value}, without
    the recursive deep copy of dataclasses.asdict."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def write_report(report: RunReport, path: Path) -> None:
    """Serialize the run report as JSON; timing stays out so identical inputs
    produce byte-identical files."""
    payload = {
        "config": report.config_echo,
        "flagged_records": dict(sorted(report.flagged_records.items())),
        "statistics": list(map(_fields, report.statistics)),
        "skips": list(map(_fields, report.skips)),
        "bootstrap": list(map(_fields, report.bootstrap)),
        "coverage": list(map(_fields, report.coverage)),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_figure_tables(report: RunReport, out_dir: str | Path) -> None:
    """Plot-ready tables: institutional MAD, institutional MAPD, publication
    MAD (each with bootstrap interval columns) and the institution scatter."""
    out_dir = Path(out_dir)
    intervals = {b.key(): (repr(b.lower), repr(b.upper)) for b in report.bootstrap}

    specs = [
        ("mad_institution.csv", agr.LEVEL_INSTITUTION, agr.VIEW_SIZE_INDEPENDENT, "mad"),
        ("mapd_institution.csv", agr.LEVEL_INSTITUTION, agr.VIEW_SIZE_DEPENDENT, "mapd"),
        ("mad_publication.csv", agr.LEVEL_PUBLICATION, agr.VIEW_SIZE_INDEPENDENT, "mad"),
    ]
    for name, level, view, value_col in specs:
        stats = sorted(
            (s for s in report.statistics if s.level == level and s.view == view),
            key=lambda s: (s.area_id, s.metric_label),
        )
        _write_csv(
            out_dir / name,
            ["area_id", "metric_label", value_col, "boot_lower", "boot_upper", "n_units"],
            (
                [s.area_id, s.metric_label, repr(s.value), *intervals.get(s.key(), ("", "")), s.n_units]
                for s in stats
            ),
        )

    _write_csv(
        out_dir / "scatter_institution.csv",
        ["institution_id", "area_id", "pub_count"] + [f"mean_{lab}" for lab in SERIES_LABELS],
        ([a.institution_id, a.area_id, a.pub_count, *map(repr, a.means)] for a in report.aggregates),
    )

    if not report.coverage:
        # Without population counts there is no coverage table, not even
        # one an earlier run wrote into this directory.
        (out_dir / "coverage.csv").unlink(missing_ok=True)
    else:
        _write_csv(
            out_dir / "coverage.csv",
            ["institution_id", "sample_count", "population_count", "coverage_ratio"],
            (
                [
                    c.institution_id,
                    c.sample_count,
                    "unavailable" if c.population_count is None else c.population_count,
                    "unavailable" if c.coverage_ratio is None else repr(c.coverage_ratio),
                ]
                for c in report.coverage
            ),
        )
