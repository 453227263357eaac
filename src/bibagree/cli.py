"""Command-line interface: run, generate, sample, validate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline
from .corpus import CorpusError, SchemaOptions, load_corpus, save_corpus, save_population_counts
from .jsonconfig import check_seed
from .resampling import ResamplingError, check_fraction, stratified_sample
from .synth import SynthConfig, SynthError, generate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _schema_options(args) -> SchemaOptions:
    return SchemaOptions(
        census_year=getattr(args, "census_year", None),
        population_path=getattr(args, "population", None),
    )


def _pipeline_config(args) -> pipeline.PipelineConfig:
    if args.config:
        cfg = pipeline.PipelineConfig.from_file(args.config)
    else:
        cfg = pipeline.PipelineConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["n_replicates"] = args.replicates
    if args.min_pubs is not None:
        overrides["min_pubs"] = args.min_pubs
    if args.no_bootstrap:
        overrides["bootstrap"] = False
    if args.workers is not None:
        overrides["n_workers"] = args.workers
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_run(args) -> int:
    config = _pipeline_config(args)
    report = pipeline.run(args.corpus, args.out, config, _schema_options(args))
    n_stats = len(report.statistics)
    print(f"wrote report to {args.out} ({n_stats} statistics, "
          f"{len(report.skips)} skipped, flagged: {report.flagged_records or 'none'})")
    return EXIT_OK


def cmd_generate(args) -> int:
    pipeline.check_out(args.out, "corpus file")
    if args.config:
        cfg = SynthConfig.from_file(args.config)
    else:
        cfg = SynthConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = Path(args.out)
    pop_path = out.with_suffix(".population.csv")
    if cfg.population_fraction > 0:
        pipeline.check_out(pop_path, "population counts file")
    corpus = generate(cfg)
    save_corpus(corpus, out)
    if corpus.population_counts:
        save_population_counts(corpus.population_counts, pop_path)
        print(f"wrote {len(corpus)} records to {out}, population counts to {pop_path}")
    else:
        print(f"wrote {len(corpus)} records to {out}")
    return EXIT_OK


def cmd_sample(args) -> int:
    seed = 0 if args.seed is None else args.seed
    check_fraction(args.fraction)
    check_seed(seed, ResamplingError)
    pipeline.check_out(args.out, "corpus file")
    corpus = load_corpus(args.corpus, _schema_options(args))
    sample, skipped = stratified_sample(corpus, args.fraction, seed)
    if len(sample) == 0:
        # A corpus file with no record does not load.
        raise ResamplingError(f"fraction {args.fraction} samples no record of the {len(corpus)} in {args.corpus}")
    save_corpus(sample, Path(args.out))
    msg = f"wrote {len(sample)} of {len(corpus)} records to {args.out}"
    if skipped:
        msg += f" (empty strata skipped: {', '.join(skipped)})"
    print(msg)
    return EXIT_OK


def cmd_validate(args) -> int:
    corpus = load_corpus(args.corpus, _schema_options(args))
    areas = corpus.area_ids()
    msg = (f"{args.corpus}: OK — {len(corpus)} records, "
           f"{len(areas)} areas, census year {corpus.census_year}")
    if corpus.population_counts is not None:
        msg += f", population counts for {len(corpus.population_counts)} institutions"
    print(msg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibagree",
        description="Field-normalized indicators and metric/peer-review agreement statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="full pipeline: indicators, aggregation, agreement, bootstrap")
    run_p.add_argument("--corpus", required=True, help="corpus file (CSV/TSV/JSONL)")
    run_p.add_argument("--config", help="pipeline config JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, help="master seed (default 0)")
    run_p.add_argument("--replicates", type=int, help="bootstrap replicates (default 1000)")
    run_p.add_argument("--min-pubs", type=int, dest="min_pubs", help="minimum publications per institution-area (default 1)")
    run_p.add_argument("--census-year", type=int, dest="census_year", help="citation census cutoff year")
    run_p.add_argument("--no-bootstrap", action="store_true", help="skip bootstrap intervals")
    run_p.add_argument("--workers", type=int, help="bootstrap worker processes (default 1)")
    run_p.add_argument("--population", help="CSV of institution_id,count reference-population sizes")
    run_p.set_defaults(func=cmd_run)

    gen_p = sub.add_parser("generate", help="write a seeded synthetic corpus")
    gen_p.add_argument("--config", help="generator config JSON")
    gen_p.add_argument("--seed", type=int, help="override the config seed")
    gen_p.add_argument("--out", required=True, help="corpus file to write")
    gen_p.set_defaults(func=cmd_generate)

    samp_p = sub.add_parser("sample", help="stratified per-area subsample of a corpus")
    samp_p.add_argument("--corpus", required=True)
    samp_p.add_argument("--fraction", type=float, required=True, help="per-area sampling fraction in (0,1]")
    samp_p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    samp_p.add_argument("--census-year", type=int, dest="census_year")
    samp_p.add_argument("--out", required=True)
    samp_p.set_defaults(func=cmd_sample)

    val_p = sub.add_parser("validate", help="lint a corpus file")
    val_p.add_argument("--corpus", required=True)
    val_p.add_argument("--census-year", type=int, dest="census_year")
    val_p.add_argument("--population", help="CSV of institution_id,count reference-population sizes")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, SynthError, ResamplingError, pipeline.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc.__cause__, (CorpusError, SynthError)):
            return EXIT_VALIDATION
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
