"""Measuring process of one benchmark run.

``run.py`` starts this script after set-up, with a JSON spec file as its only
argument, so that its peak memory covers the pipeline and its pool workers
and not corpus generation. It warms up on a toy corpus, times the
point-estimate pass ``compute_pipeline_stats`` on the loaded corpus for
STATS_SHARE of the run's seconds, then calls ``pipeline.run`` on the
workload's corpus until the rest of the seconds are spent (at least MIN_OPS
times). The reference work of ``speed.py`` is timed before each pass and
REFERENCES_PER_OP times before each operation. It prints one JSON object
with the raw timings.

With tracing on, operations alternate between untraced and traced, so that
both are measured in the same process and their difference is the tracing
overhead. The spans of traced operations are written to the spec's trace
file when the run ends.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import pickle
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from program import require_program

require_program()

from bibagree import pipeline  # noqa: E402
from bibagree.corpus import SchemaOptions, assign_reviewer_roles, load_corpus  # noqa: E402

import spans as sp  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 3
MIN_OPS_TRACED = 4  # two untraced, two traced
MIN_STATS_PASSES = 5
STATS_SHARE = 0.2  # of the run's seconds, spent on repeated point-estimate passes
REFERENCES_PER_OP = 4  # reference timings before each operation


def _config(raw: dict) -> pipeline.PipelineConfig:
    raw = dict(raw, metric_labels=tuple(raw["metric_labels"]))
    return pipeline.PipelineConfig(**raw)


def _task_bytes(captured: tuple) -> int:
    """Pickled size of one bootstrap task as bootstrap_statistics builds it."""
    fn, args, kwargs = captured
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    return len(pickle.dumps((bound["corpus"], bound["statistic_fn"], bound["seed"], 0)))


def _report_counts(report) -> dict[str, int]:
    return {
        "indicators.flagged": sum(n for k, n in report.flagged_records.items() if k != "below_min_pubs"),
        "aggregation.units": len(report.aggregates),
        "agreement.statistics": len(report.statistics),
        "agreement.skips": len(report.skips),
        "resampling.missing": sum(b.n_missing for b in report.bootstrap),
    }


def _untraced(probe_spans: list[list], run_s: float, n_replicates: int) -> dict:
    boot = [end - start for name, start, end, _ in probe_spans if name == "pipeline.bootstrap"]
    return {"traced": False, "run_s": run_s, "replicates_per_s": n_replicates / sum(boot) if boot else None}


def _stats_passes(spec: dict, config, seconds: float) -> list[tuple[float, float]]:
    """The point-estimate pass, compute_pipeline_stats, on the loaded corpus,
    repeated for the given seconds in the fresh process, before any operation
    has run or started a pool. Returns (reference, pass) seconds per pass."""
    corpus = load_corpus(spec["corpus"], SchemaOptions(population_path=spec["population"]))
    if config.assign_roles:
        corpus = assign_reviewer_roles(corpus, config.seed)
    passes: list[tuple[float, float]] = []
    start = perf_counter()
    while len(passes) < MIN_STATS_PASSES or perf_counter() - start < seconds:
        reference = speed.reference_s()
        t0 = perf_counter()
        pipeline.compute_pipeline_stats(corpus, config)
        passes.append((reference, perf_counter() - t0))
    return passes


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    config = _config(spec["config"])
    schema = SchemaOptions(population_path=spec["population"])
    out_dir = Path(spec["out_dir"])

    # Warm-up: imports are done; run every code path once on a toy corpus.
    warm = out_dir.parent / "warmup.csv"
    workloads.write_corpus(workloads.make_corpus(workloads.TOY_RECORDS, spec["seed"]), warm)
    pipeline.run(
        warm,
        out_dir.parent / "warmup",
        dataclasses.replace(config, n_replicates=2),
        SchemaOptions(population_path=str(workloads.population_path(warm))),
    )
    ready_s = perf_counter() - spec["spawned_at"]
    ready_references = [speed.reference_s() for _ in range(REFERENCES_PER_OP)]

    trace = bool(spec["trace"])
    stats = [] if trace else _stats_passes(spec, config, STATS_SHARE * spec["seconds"])
    min_ops = MIN_OPS_TRACED if trace else MIN_OPS
    ops: list[dict] = []
    trace_spans: list[dict] = []
    digests: set[str] = set()
    counts: dict[str, int] = {}
    task_bytes = 0
    report_bytes = 0
    failed = 0
    start = perf_counter()
    while len(ops) < min_ops or perf_counter() - start < (1 - STATS_SHARE * (not trace)) * spec["seconds"]:
        references = [speed.reference_s() for _ in range(REFERENCES_PER_OP)]
        traced = trace and len(ops) % 2 == 1
        tracer = sp.Tracer(sp.LAYERS if traced else sp.PROBES, capture=("resampling.bootstrap",))
        try:
            t0 = perf_counter()
            report = pipeline.run(spec["corpus"], out_dir, config, schema)
            run_s = perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failed operation is counted, and the run goes on
            traceback.print_exc()
            failed += 1
            ops.append({"traced": traced, "reference_s": references, "failed": True})
            continue
        finally:
            tracer.uninstall()
        op_index = len(ops)
        if traced:
            own, inclusive, count = sp.totals(tracer.spans)
            ops.append({"traced": True, "reference_s": references, "run_s": run_s,
                        "self": own, "inclusive": inclusive, "count": count})
            trace_spans.extend(
                {"op": op_index, "name": n, "start": s, "end": e, "parent": p} for n, s, e, p in tracer.spans
            )
            if "resampling.bootstrap" in tracer.captured:
                task_bytes = _task_bytes(tracer.captured["resampling.bootstrap"])
        else:
            ops.append({"reference_s": references, **_untraced(tracer.spans, run_s, config.n_replicates)})
        report_path = out_dir / "report.json"
        report_bytes = report_path.stat().st_size
        digests.add(hashlib.sha256(report_path.read_bytes()).hexdigest())
        counts = _report_counts(report)

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = config.n_workers if config.n_workers > 1 else 0
    if trace:
        Path(spec["trace_path"]).write_text(json.dumps(trace_spans) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "ready_s": ready_s,
                "ready_reference_s": ready_references,
                "stats": stats,
                "ops": ops,
                "failed": failed,
                "report_digests": sorted(digests),
                "report_bytes": report_bytes,
                "task_bytes": task_bytes,
                "counts": counts,
                "peak_rss_mb": (self_rss + workers * worker_rss) / 1024.0,
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
