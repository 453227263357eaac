"""Synthetic corpus generator: determinism, degenerate cases, coupling knobs,
and draw-for-draw equality with the reference loop in synth_reference."""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bibagree import PubCountSpec, SynthConfig, assign_reviewer_roles, generate, overall_score
from bibagree.corpus import save_corpus
from bibagree.pipeline import PipelineConfig, compute_pipeline_stats
from bibagree.synth import SynthError
from record_pipeline import validate_record
from synth_reference import generate as reference_generate


def test_fixed_config_is_byte_identical():
    cfg = SynthConfig(n_institutions=9, seed=33)
    assert generate(cfg) == generate(cfg)
    assert generate(cfg) != generate(SynthConfig(n_institutions=9, seed=34))


_REFERENCE_GRID = {
    "pubs_per_institution": [PubCountSpec("constant", value=6), PubCountSpec("skewed", min=1, max=12)],
    "n_areas": [1, 5],
    "n_fields_per_area": [1, 3],
    "reviewer_noise_sd": [0.0, 1.7],
    "metric_quality_correlation": [0.0, 0.8, 1.0],
    "area_share_skew": [0.0, 1.5],
    "multidisciplinary_share": [0.0, 0.3, 1.0],
    "population_fraction": [0.0, 0.08, 1.0],
}


@pytest.mark.parametrize("seed", [0, 1, 29])
def test_generate_makes_the_reference_draws(seed):
    # Every combination of the grid's values: generate must draw what the
    # reference loop draws, so the corpora are equal and so are their reprs,
    # which tell a numpy integer or a negative zero from a Python int or 0.0.
    names = list(_REFERENCE_GRID)
    for values in itertools.product(*_REFERENCE_GRID.values()):
        cfg = SynthConfig(n_institutions=4, seed=seed, **dict(zip(names, values)))
        corpus, reference = generate(cfg), reference_generate(cfg)
        assert corpus == reference, cfg
        assert repr(corpus) == repr(reference), cfg


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_saved_corpus_bytes_equal_the_reference(tmp_path, suffix):
    cfg = SynthConfig(
        n_institutions=40,
        pubs_per_institution=PubCountSpec("skewed", min=2, max=60),
        n_areas=4,
        area_share_skew=1.5,
        multidisciplinary_share=0.3,
        seed=7,
    )
    save_corpus(generate(cfg), tmp_path / f"new{suffix}")
    save_corpus(reference_generate(cfg), tmp_path / f"reference{suffix}")
    assert (tmp_path / f"new{suffix}").read_bytes() == (tmp_path / f"reference{suffix}").read_bytes()


def test_generated_records_pass_validation():
    corpus = generate(SynthConfig(n_institutions=15, seed=2, multidisciplinary_share=0.1))
    for rec in corpus.records:
        validate_record(rec, corpus.census_year)
    assert len({r.pub_id for r in corpus.records}) == len(corpus.records)


def test_noiseless_reviewers_agree_exactly():
    corpus = generate(SynthConfig(n_institutions=10, reviewer_noise_sd=0.0, seed=8))
    for rec in corpus.records:
        assert overall_score(rec.review_a) == overall_score(rec.review_b)


def test_zero_metric_correlation_decouples_citations():
    cfg = SynthConfig(
        n_institutions=60,
        pubs_per_institution=PubCountSpec("constant", value=100),
        metric_quality_correlation=0.0,
        seed=14,
    )
    corpus = generate(cfg)
    assert len(corpus.records) >= 5000
    cits = np.array([r.citations for r in corpus.records], dtype=float)
    scores = np.array([overall_score(r.review_a) for r in corpus.records], dtype=float)
    corr = float(np.corrcoef(cits, scores)[0, 1])
    assert abs(corr) <= 0.05


def test_infeasible_configs_rejected():
    # Each config is checked when it is built, before anything generates from it.
    with pytest.raises(SynthError, match="n_institutions must be >= 1"):
        SynthConfig(n_institutions=0)
    with pytest.raises(SynthError, match="metric_quality_correlation"):
        SynthConfig(metric_quality_correlation=1.5)
    with pytest.raises(SynthError, match="citation_dispersion"):
        SynthConfig(citation_dispersion=0.0)
    with pytest.raises(SynthError, match="reviewer_noise_sd"):
        SynthConfig(reviewer_noise_sd=float("nan"))
    with pytest.raises(SynthError, match="seed must be >= 0, got -2"):
        SynthConfig(seed=-2)
    with pytest.raises(SynthError, match="min=3, max=2"):
        PubCountSpec("skewed", min=3, max=2)


def test_config_round_trip_from_file(tmp_path):
    path = tmp_path / "synth.json"
    path.write_text(
        '{"n_institutions": 7, "seed": 5, '
        '"pubs_per_institution": {"kind": "skewed", "min": 2, "max": 20}}'
    )
    cfg = SynthConfig.from_file(path)
    assert cfg.n_institutions == 7
    assert cfg.pubs_per_institution == PubCountSpec("skewed", min=2, max=20)
    assert generate(cfg) == generate(cfg)


def _publication_mad_of_ncs(rho: float, seed: int) -> float:
    cfg = SynthConfig(
        n_institutions=30,
        pubs_per_institution=PubCountSpec("constant", value=40),
        n_areas=1,
        metric_quality_correlation=rho,
        seed=seed,
    )
    corpus = assign_reviewer_roles(generate(cfg), seed)
    stats = compute_pipeline_stats(corpus, PipelineConfig(metric_labels=("ncs",)))
    return next(
        s.value for s in stats.statistics if s.level == "publication" and s.metric_label == "ncs"
    )


def test_publication_mad_weakly_decreasing_in_quality_correlation():
    for seed in range(5):
        mads = [_publication_mad_of_ncs(rho, seed) for rho in (0.0, 0.5, 1.0)]
        assert mads[0] >= mads[1] - 1e-9
        assert mads[1] >= mads[2] - 1e-9


@pytest.mark.parametrize("fraction", [0.08, 0.5, 1.0])
def test_population_fraction_sets_the_mean_sample_rate(fraction):
    cfg = SynthConfig(n_institutions=200, pubs_per_institution=PubCountSpec("constant", value=40), seed=3)
    corpus = generate(replace(cfg, population_fraction=fraction))
    sample = Counter(r.institution_id for r in corpus.records)
    rates = [n / corpus.population_counts[inst] for inst, n in sample.items()]
    assert sum(rates) / len(rates) == pytest.approx(fraction, rel=0.05)
    assert max(rates) <= 1.0


def test_population_fraction_changes_population_counts_only():
    cfg = SynthConfig(n_institutions=30, seed=3)
    low, high = generate(cfg), generate(replace(cfg, population_fraction=0.5))
    assert low.records == high.records
    assert low.population_counts != high.population_counts
    assert generate(replace(cfg, population_fraction=0.0)).population_counts is None
