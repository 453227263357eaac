"""Benchmark of the bibagree pipeline, one workload per run.

    python3 bench/run.py --workload large-corpus --seed 1 --seconds 25 --trace 0

Set-up generates the workload's corpus with ``synth.generate`` and writes it
with ``corpus.save_corpus``, SETUP_REPEATS times. A measuring process
(``measure.py``) then times the point-estimate pass and calls
``pipeline.run`` on the corpus for ``--seconds`` seconds. After it has
ended, and outside every timed region, ``check.py`` recomputes the outputs
independently. Timings are scaled to nominal seconds (see ``speed.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
An operation is one ``pipeline.run``. Generated files go to ``bench/_out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from program import require_program

require_program()

from bibagree.corpus import assign_reviewer_roles, load_corpus  # noqa: E402
from bibagree.indicators import build_indicator_table, compute_baselines, reassign_multidisciplinary  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_ROOT = BENCH_DIR / "_out"
SETUP_REPEATS = 3
REFERENCES_PER_STEP = 4  # reference timings before each set-up step
MEASURE_TIMEOUT_S = 150


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def set_up(workload: workloads.Workload, seed: int, corpus_path: Path) -> tuple[float, float]:
    """Generate and write the corpus SETUP_REPEATS times, each after
    REFERENCES_PER_STEP reference timings; the median nominal seconds of each step."""
    generate_s, save_s = [], []
    for _ in range(SETUP_REPEATS):
        scale = speed.scale([speed.reference_s() for _ in range(REFERENCES_PER_STEP)])
        t0 = perf_counter()
        corpus = workloads.make_corpus(workload.n_records, seed)
        t1 = perf_counter()
        workloads.write_corpus(corpus, corpus_path)
        t2 = perf_counter()
        generate_s.append(scale * (t1 - t0))
        save_s.append(scale * (t2 - t1))
    return statistics.median(generate_s), statistics.median(save_s)


def measure(spec: dict, work: Path) -> dict:
    """Run measure.py in its own process group and return its JSON result."""
    spec_path = work / "spec.json"
    spec["spawned_at"] = perf_counter()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "measure.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=MEASURE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"error: the measuring process ran over {MEASURE_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: the measuring process exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def program_ncs(corpus_path: Path, config: dict) -> dict[str, float]:
    """The program's own NCS of the point-estimate pass, for the closure check."""
    corpus = load_corpus(corpus_path)
    if config["assign_roles"]:
        corpus = assign_reviewer_roles(corpus, config["seed"])
    corpus, _ = reassign_multidisciplinary(corpus, config["multidisciplinary_label"])
    return build_indicator_table(corpus, compute_baselines(corpus)).ncs


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    """Medians over the operations and passes, in nominal seconds (see speed.py)."""
    ops = [op for op in result["ops"] if not op.get("failed")]
    return {
        "run_s": statistics.median(speed.scale(op["reference_s"]) * op["run_s"] for op in ops),
        "stats_s": statistics.median(speed.scale([ref]) * s for ref, s in result["stats"]),
        "replicates_per_s": statistics.median(op["replicates_per_s"] / speed.scale(op["reference_s"]) for op in ops),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s,
    }


def per_layer(result: dict, n_records: int, generate_s: float, save_s: float) -> tuple[dict[str, float], list[str]]:
    """Means over the traced operations, so that the self times add up, in
    nominal seconds (see speed.py)."""
    ok = [op for op in result["ops"] if not op.get("failed")]
    traced = [op for op in ok if op["traced"]]
    untraced = [op for op in ok if not op["traced"]]

    def mean(kind: str, name: str) -> float:
        return statistics.fmean(speed.scale(op["reference_s"]) * op[kind].get(name, 0.0) for op in traced)

    n_replicate_spans = sum(op["count"].get("resampling.replicate", 0) for op in traced)
    load_s = mean("inclusive", "corpus.load")
    run_s = mean("inclusive", "pipeline.run")
    metrics = {
        "corpus.load_s": mean("self", "corpus.load"),
        "corpus.load_records_per_s": n_records / load_s if load_s else 0.0,
        "corpus.assign_roles_s": mean("self", "corpus.assign_roles"),
        "indicators.reassign_s": mean("self", "indicators.reassign"),
        "indicators.baselines_s": mean("self", "indicators.baselines"),
        "indicators.table_s": mean("self", "indicators.table"),
        "pipeline.series_self_s": mean("self", "pipeline.series"),
        "pipeline.stats_self_s": mean("self", "pipeline.stats"),
        "pipeline.bootstrap_self_s": mean("self", "pipeline.bootstrap"),
        "pipeline.write_s": mean("self", "pipeline.write"),
        "pipeline.report_bytes": result["report_bytes"],
        "aggregation.aggregate_s": mean("self", "aggregation.aggregate"),
        "agreement.run_agreement_s": mean("self", "agreement.run_agreement"),
        "resampling.resample_s": mean("self", "resampling.resample"),
        "resampling.replicate_s": (
            sum(speed.scale(op["reference_s"]) * op["inclusive"].get("resampling.replicate", 0.0) for op in traced)
            / n_replicate_spans
            if n_replicate_spans else 0.0
        ),
        "resampling.replicate_self_s": mean("self", "resampling.replicate"),
        "resampling.quantile_s": mean("self", "resampling.quantile"),
        "resampling.coverage_s": mean("self", "resampling.coverage"),
        "resampling.bootstrap_s": mean("inclusive", "resampling.bootstrap"),
        "resampling.bootstrap_self_s": mean("self", "resampling.bootstrap"),
        "resampling.task_bytes": result["task_bytes"],
        "synth.generate_s": generate_s,
        "synth.save_s": save_s,
        **result["counts"],
        "trace.run_s": run_s,
        "trace.unattributed_s": mean("self", "pipeline.run"),
        "trace.overhead_s": run_s - statistics.fmean(speed.scale(op["reference_s"]) * op["run_s"] for op in untraced),
        "trace.reference_s": statistics.median(ref for op in result["ops"] for ref in op["reference_s"]),
    }
    errors = []
    for i, op in enumerate(traced):
        total = sum(op["self"].values())
        if abs(total - op["inclusive"]["pipeline.run"]) > 1e-9:
            errors.append(f"traced operation {i}: self times sum to {total!r}, run took {op['inclusive']['pipeline.run']!r}")
    return metrics, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help=f"{workloads.TOY_RECORDS}-record corpus, for the self-tests")
    args = parser.parse_args(argv)

    workload = workloads.scaled(workloads.WORKLOADS[args.workload], args.toy)
    work = OUT_ROOT / f"{workload.name}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus_path = work / "corpus.csv"
    population = workloads.population_path(corpus_path)
    out_dir = work / "out"

    generate_s, save_s = set_up(workload, args.seed, corpus_path)
    spawn_references = [speed.reference_s() for _ in range(REFERENCES_PER_STEP)]
    config = dataclasses.asdict(workloads.pipeline_config(workload, args.seed))
    result = measure(
        {
            "corpus": str(corpus_path),
            "population": str(population),
            "out_dir": str(out_dir),
            "config": config,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "trace_path": str(work / "trace.json"),
        },
        work,
    )

    (work / "measure.json").write_text(json.dumps(result) + "\n", encoding="utf-8")
    errors = check.verify(out_dir, corpus_path, population, config, program_ncs(corpus_path, config))
    if len(result["report_digests"]) != 1:
        errors.append(f"report.json differs between operations: {len(result['report_digests'])} versions")
    if args.trace:
        metrics, trace_errors = per_layer(result, workload.n_records, generate_s, save_s)
        errors += trace_errors
    else:
        ready_scale = speed.scale(spawn_references + result["ready_reference_s"])
        metrics = end_to_end(result, generate_s + save_s + ready_scale * result["ready_s"])
        errors += [f"{name} is {value!r}" for name, value in metrics.items() if not value > 0]
    for line in errors:
        print(f"check: {line}", file=sys.stderr)

    out = {
        "correct": not errors,
        "attempted": len(result["ops"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    if not errors:
        for path in (corpus_path, population, work / "warmup.csv", workloads.population_path(work / "warmup.csv")):
            path.unlink(missing_ok=True)
        for path in (out_dir, work / "warmup"):
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
