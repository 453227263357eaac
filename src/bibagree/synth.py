"""Seeded synthetic corpus generator for desk-scale pipeline validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, PublicationRecord, ReviewerScore
from .indicators import percentile_normalize


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class PubCountSpec:
    """Per-institution publication counts: constant, or log-uniform in [min, max]."""

    kind: str = "constant"  # "constant" | "skewed"
    value: int = 10
    min: int = 1
    max: int = 50


@dataclass(frozen=True)
class SynthConfig:
    n_institutions: int = 20
    pubs_per_institution: PubCountSpec = field(default_factory=PubCountSpec)
    n_areas: int = 2
    n_fields_per_area: int = 3
    latent_quality_sd: float = 1.0
    reviewer_noise_sd: float = 1.0
    citation_dispersion: float = 2.0
    metric_quality_correlation: float = 0.8
    seed: int = 0
    year_min: int = 2011
    year_max: int = 2014
    census_year: int = 2015
    area_share_skew: float = 0.0  # >0 tilts publication mass toward later areas
    multidisciplinary_share: float = 0.0
    multidisciplinary_label: str = "MULTI"
    with_ext_percentiles: bool = False
    population_fraction: float = 0.08

    @staticmethod
    def from_file(path: str | Path) -> "SynthConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if "pubs_per_institution" in raw and isinstance(raw["pubs_per_institution"], dict):
            raw["pubs_per_institution"] = PubCountSpec(**raw["pubs_per_institution"])
        return SynthConfig(**raw)

    def validate(self) -> None:
        if self.n_institutions < 1 or self.n_areas < 1 or self.n_fields_per_area < 1:
            raise SynthError("institution/area/field counts must be positive")
        if self.latent_quality_sd <= 0 or self.citation_dispersion <= 0:
            raise SynthError("latent_quality_sd and citation_dispersion must be positive")
        if self.reviewer_noise_sd < 0:
            raise SynthError("reviewer_noise_sd must be nonnegative")
        if not (0.0 <= self.metric_quality_correlation <= 1.0):
            raise SynthError("metric_quality_correlation must lie in [0,1]")
        if self.year_min > self.year_max or self.year_max > self.census_year:
            raise SynthError("assessment window must fit below the census year")


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _criterion_score(latent: float, scale: float) -> int:
    # Fixed Gaussian-threshold discretization onto 1..10.
    u = _normal_cdf(latent / scale)
    return min(10, max(1, 1 + int(u * 10)))


def _review(q: float, noise: np.ndarray, cfg: SynthConfig) -> ReviewerScore:
    scale = math.hypot(cfg.latent_quality_sd, cfg.reviewer_noise_sd)
    return ReviewerScore(
        _criterion_score(q + noise[0], scale),
        _criterion_score(q + noise[1], scale),
        _criterion_score(q + noise[2], scale),
    )


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus as a pure function of the config (seed included).

    Each publication has a latent quality; reviewer criterion scores are
    independent noisy discretizations of it, citations follow an
    overdispersed count draw whose mean couples to quality through
    metric_quality_correlation, and journals bin publications of similar
    quality within an area.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    rho = config.metric_quality_correlation
    records: list[PublicationRecord] = []
    n_journal_bins = 8
    years = list(range(config.year_min, config.year_max + 1))
    area_probs = None
    if config.area_share_skew > 0:
        raw = np.power(np.arange(1, config.n_areas + 1, dtype=float), config.area_share_skew)
        area_probs = raw / raw.sum()

    for i in range(config.n_institutions):
        inst = f"U{i:03d}"
        inst_effect = rng.normal(0.0, config.latent_quality_sd * 0.6)
        spec = config.pubs_per_institution
        if spec.kind == "constant":
            n_pubs = spec.value
        elif spec.kind == "skewed":
            lo, hi = math.log(spec.min), math.log(spec.max + 1)
            n_pubs = min(spec.max, int(math.exp(rng.uniform(lo, hi))))
        else:
            raise SynthError(f"unknown pubs_per_institution kind {spec.kind!r}")
        for j in range(n_pubs):
            pub_id = f"P-{inst}-{j:04d}"
            if area_probs is None:
                area_idx = int(rng.integers(config.n_areas))
            else:
                area_idx = int(rng.choice(config.n_areas, p=area_probs))
            area = f"AREA{area_idx:02d}"
            q = inst_effect + rng.normal(0.0, config.latent_quality_sd * 0.8)
            year = int(rng.choice(years))

            review_a = _review(q, rng.normal(0.0, config.reviewer_noise_sd, 3), config)
            review_b = _review(q, rng.normal(0.0, config.reviewer_noise_sd, 3), config)

            # Citation latent mixes quality with independent noise; rho = 1
            # makes citations a deterministic monotone function of quality.
            eps = rng.normal(0.0, config.latent_quality_sd)
            m = rho * q + math.sqrt(max(0.0, 1.0 - rho * rho)) * eps
            field_idx = int(rng.integers(config.n_fields_per_area))
            field_effect = 0.3 * field_idx
            mu = math.exp(0.9 * m / config.latent_quality_sd + field_effect + 1.2)
            r = config.citation_dispersion
            citations = int(rng.negative_binomial(r, r / (r + mu)))

            main_field = f"{area}-F{field_idx}"
            ref_weights = None
            if rng.uniform() < config.multidisciplinary_share:
                weights = {config.multidisciplinary_label: 1.0}
                other = f"{area}-F{int(rng.integers(config.n_fields_per_area))}"
                ref_weights = {main_field: 0.75, other: 0.25} if other != main_field else {main_field: 1.0}
            elif config.n_fields_per_area > 1 and rng.uniform() < 0.3:
                second = f"{area}-F{(field_idx + 1) % config.n_fields_per_area}"
                w = round(float(rng.uniform(0.3, 0.7)), 3)
                weights = {main_field: w, second: 1.0 - w}
            else:
                weights = {main_field: 1.0}

            journal_bin = min(n_journal_bins - 1, int(_normal_cdf(q / (1.0 + config.latent_quality_sd)) * n_journal_bins))
            records.append(
                PublicationRecord(
                    pub_id=pub_id,
                    institution_id=inst,
                    area_id=area,
                    year=year,
                    citations=citations,
                    journal_id=f"{area}-J{journal_bin}",
                    category_weights=weights,
                    ref_category_weights=ref_weights,
                    review_a=review_a,
                    review_b=review_b,
                    ext_citation_percentile=None,
                    ext_journal_percentile=None,
                )
            )

    if config.with_ext_percentiles:
        records = _attach_ext_percentiles(records)

    population = None
    if config.population_fraction > 0:
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.institution_id] = counts.get(rec.institution_id, 0) + 1
        population = {
            inst: max(n, int(round(n / rng.uniform(0.06, 0.10))))
            for inst, n in sorted(counts.items())
        }
    return Corpus(records=tuple(records), census_year=config.census_year, population_counts=population)


def _attach_ext_percentiles(records: list[PublicationRecord]) -> list[PublicationRecord]:
    # Mid-rank percentiles of citations within area stand in for externally
    # supplied metrics; journal percentile ranks the journal id, which within
    # an area sorts by journal bin.
    area = {r.pub_id: r.area_id for r in records}
    cit = percentile_normalize([(r.pub_id, r.citations) for r in records], area)
    jou = percentile_normalize([(r.pub_id, r.journal_id) for r in records], area)
    return [
        replace(r, ext_citation_percentile=cit[r.pub_id], ext_journal_percentile=jou[r.pub_id]) for r in records
    ]
