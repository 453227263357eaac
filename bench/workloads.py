"""The benchmark's workloads: a seeded synthetic corpus and pipeline settings each.

Every workload uses the same corpus recipe (4 areas, log-uniform skewed
institution sizes, 5% multidisciplinary records, a population sidecar) and
differs in corpus size, bootstrap replicates and worker processes. The corpus
is cut to an exact record count so that the amount of work does not change
with the seed; only its content does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from bibagree.corpus import Corpus, save_corpus
from bibagree.pipeline import PipelineConfig
from bibagree.synth import PubCountSpec, SynthConfig, generate

N_AREAS = 4
INSTITUTION_SIZES = PubCountSpec(kind="skewed", min=2, max=150)
MULTIDISCIPLINARY_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_records: int
    n_replicates: int
    n_workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # Few replicates on the largest corpus a run affords: load, validation
        # and the per-record cost of indicators, aggregation and agreement dominate.
        Workload("large-corpus", 20_000, 1, 1),
        # Many replicates on a small corpus: per-call overhead of every layer,
        # once per replicate, dominates.
        Workload("bootstrap-serial", 3_000, 24, 1),
        # The same as bootstrap-serial through the process pool, where each
        # task pickles the whole corpus.
        Workload("bootstrap-pool", 3_000, 24, 2),
    )
}

# Size of every workload in the self-tests.
TOY_RECORDS = 300
TOY_REPLICATES = 3


def scaled(workload: Workload, toy: bool) -> Workload:
    if not toy:
        return workload
    return Workload(workload.name, TOY_RECORDS, min(workload.n_replicates, TOY_REPLICATES), workload.n_workers)


def make_corpus(n_records: int, seed: int) -> Corpus:
    """Generate a corpus and keep its first n_records records.

    Enough institutions are generated to pass n_records with a wide margin;
    the generator emits records institution by institution, so the cut keeps
    whole institutions plus part of the last one.
    """
    lo, hi = INSTITUTION_SIZES.min, INSTITUTION_SIZES.max + 1
    mean_size = (hi - lo) / math.log(hi / lo) - 0.5
    n_institutions = math.ceil(1.2 * n_records / mean_size) + 8
    while True:
        corpus = generate(
            SynthConfig(
                n_institutions=n_institutions,
                pubs_per_institution=INSTITUTION_SIZES,
                n_areas=N_AREAS,
                multidisciplinary_share=MULTIDISCIPLINARY_SHARE,
                seed=seed,
            )
        )
        if len(corpus.records) >= n_records:
            break
        n_institutions = n_institutions * 3 // 2
    records = corpus.records[:n_records]
    kept = {r.institution_id for r in records}
    population = {i: n for i, n in corpus.population_counts.items() if i in kept}
    return Corpus(records=records, census_year=corpus.census_year, population_counts=population)


def population_path(corpus_path: Path) -> Path:
    return corpus_path.with_suffix(".population.csv")


def write_corpus(corpus: Corpus, path: Path) -> None:
    """Write the corpus with save_corpus and its population counts beside it."""
    save_corpus(corpus, path)
    with open(population_path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["institution_id", "count"])
        for inst, n in sorted(corpus.population_counts.items()):
            writer.writerow([inst, n])


def pipeline_config(workload: Workload, seed: int) -> PipelineConfig:
    return PipelineConfig(
        seed=seed,
        n_replicates=workload.n_replicates,
        n_workers=workload.n_workers,
    )
