"""Metamorphic relations of the point pass: changes to the input that must
leave compute_pipeline_stats, or one line fit, as they are."""

from dataclasses import replace

import numpy as np
import pytest

from bibagree import Corpus, PipelineConfig, SynthConfig, generate
from bibagree.pipeline import compute_pipeline_stats
from bibagree.table import _fit

CONFIG = PipelineConfig(assign_roles=False)


def synth(seed):
    return generate(SynthConfig(n_institutions=30, seed=seed, multidisciplinary_share=0.1))


def with_records(corpus, records):
    return Corpus(tuple(records), corpus.census_year)


@pytest.mark.parametrize("seed", range(5))
def test_doubling_every_citation_count_changes_nothing(seed):
    # Doubling is exact in binary floating point, so every baseline doubles
    # exactly and every ratio to it is the same float.
    corpus = synth(seed)
    doubled = with_records(corpus, (replace(r, citations=2 * r.citations) for r in corpus.records))
    base, got = compute_pipeline_stats(corpus, CONFIG), compute_pipeline_stats(doubled, CONFIG)
    assert got.statistics == base.statistics
    assert got.aggregates == base.aggregates
    assert got.skips == base.skips
    assert got.flagged_records == base.flagged_records


def order_preserving(ids, prefix):
    """A renaming of ids that keeps their order: each to its zero-padded rank."""
    distinct = sorted(set(ids))
    width = len(str(len(distinct)))
    return {old: f"{prefix}{rank:0{width}d}" for rank, old in enumerate(distinct)}


@pytest.mark.parametrize("seed", range(3))
def test_order_preserving_renaming_of_ids_changes_no_statistic(seed):
    # Sums run in pub_id order, units in (area, institution) order and NJS
    # groups by journal-year; none of these moves under such a renaming.
    corpus = synth(seed)
    records = corpus.records
    pub = order_preserving([r.pub_id for r in records], "Q")
    inst = order_preserving([r.institution_id for r in records], "V")
    journal = order_preserving([r.journal_id for r in records], "K")
    renamed = with_records(
        corpus,
        (
            replace(r, pub_id=pub[r.pub_id], institution_id=inst[r.institution_id], journal_id=journal[r.journal_id])
            for r in records
        ),
    )
    base, got = compute_pipeline_stats(corpus, CONFIG), compute_pipeline_stats(renamed, CONFIG)
    assert got.statistics == base.statistics
    assert got.calibrations == base.calibrations
    assert got.skips == base.skips
    assert got.flagged_records == base.flagged_records
    assert got.aggregates == [a._replace(institution_id=inst[a.institution_id]) for a in base.aggregates]


def test_positive_affine_map_of_a_metric_leaves_mad_and_mapd():
    # Reviewer-like observed scores in 3..30 and NCS-like metrics. A
    # residual comes from terms as large as the mapped intercept and rounds
    # at about 1e-13. MAPD is 100 times a median of residuals over y, so its
    # fraction, MAPD / 100, is held to 1e-12: in percent the rounding grows
    # by up to 100 / 3.
    rng = np.random.default_rng(17)
    for _ in range(2000):
        n = int(rng.integers(3, 601))
        z = np.vstack((rng.uniform(0.0, 4.0, size=(2, n)), rng.uniform(3.0, 30.0, size=n)))
        a, b = rng.uniform(0.1, 10.0), rng.uniform(-100.0, 100.0)
        mapped = z.copy()
        mapped[0] = a * z[0] + b
        base, got = _fit(z, True), _fit(mapped, True)
        assert np.abs(got.mad - base.mad).max() <= 1e-12
        assert np.abs(got.mapd - base.mapd).max() / 100 <= 1e-12
