"""Seeded synthetic corpus generator for desk-scale pipeline validation."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from math import erf
from pathlib import Path

import numpy as np

from .corpus import MULTIDISCIPLINARY_LABEL, Corpus, PublicationRecord, ReviewerScore
from .jsonconfig import SCALAR_TYPES, check_seed, check_type, from_json, read_json


class SynthError(Exception):
    pass


YEARS = (2011, 2012, 2013, 2014)  # publication years; citations are counted at CENSUS_YEAR
CENSUS_YEAR = 2015


@dataclass(frozen=True)
class PubCountSpec:
    """Per-institution publication counts: constant, or log-uniform in [min, max]."""

    kind: str = "constant"  # "constant" | "skewed"
    value: int = 10
    min: int = 1
    max: int = 50

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, f.type, getattr(self, f.name), SynthError)
        if self.kind not in ("constant", "skewed"):
            raise SynthError(f"kind must be 'constant' or 'skewed', got {self.kind!r}")
        if self.kind == "constant" and self.value < 1:
            raise SynthError(f"value must be >= 1, got {self.value}")
        if self.kind == "skewed" and not 1 <= self.min <= self.max:
            raise SynthError(f"min and max must satisfy 1 <= min <= max, got min={self.min}, max={self.max}")


_FIELD_TYPES = {**SCALAR_TYPES, "PubCountSpec": PubCountSpec}


@dataclass(frozen=True)
class SynthConfig:
    n_institutions: int = 20
    pubs_per_institution: PubCountSpec = field(default_factory=PubCountSpec)
    n_areas: int = 2
    n_fields_per_area: int = 3
    reviewer_noise_sd: float = 1.0  # latent quality has sd 1
    citation_dispersion: float = 2.0
    metric_quality_correlation: float = 0.8
    seed: int = 0
    area_share_skew: float = 0.0  # >0 tilts publication mass toward later areas
    multidisciplinary_share: float = 0.0
    population_fraction: float = 0.08  # mean sample-to-population ratio; 0 for no population counts

    def __post_init__(self):
        for f in fields(self):
            check_type(f.name, f.type, getattr(self, f.name), SynthError, _FIELD_TYPES)
        for name in ("n_institutions", "n_areas", "n_fields_per_area"):
            if getattr(self, name) < 1:
                raise SynthError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_seed(self.seed, SynthError)
        if not 0 < self.citation_dispersion < math.inf:
            raise SynthError(f"citation_dispersion must be positive and finite, got {self.citation_dispersion}")
        if not 0 <= self.reviewer_noise_sd < math.inf:
            raise SynthError(f"reviewer_noise_sd must be nonnegative and finite, got {self.reviewer_noise_sd}")
        for name in ("metric_quality_correlation", "multidisciplinary_share", "population_fraction"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise SynthError(f"{name} must lie in [0,1], got {getattr(self, name)}")
        if not 0 <= self.area_share_skew < math.inf:
            raise SynthError(f"area_share_skew must be nonnegative and finite, got {self.area_share_skew}")
        if self.area_share_skew > 0 and not math.isfinite(_area_mass(self.n_areas, self.area_share_skew)[1]):
            raise SynthError(
                f"area_share_skew {self.area_share_skew} overflows the area shares "
                f"k ** area_share_skew, k = 1..n_areas={self.n_areas}"
            )

    @staticmethod
    def from_file(path: str | Path) -> "SynthConfig":
        raw = read_json(path, SynthError)
        if isinstance(raw, dict) and "pubs_per_institution" in raw:
            raw["pubs_per_institution"] = from_json(
                PubCountSpec, raw["pubs_per_institution"], f"{path}: pubs_per_institution", SynthError
            )
        return from_json(SynthConfig, raw, str(path), SynthError)


def _area_mass(n_areas: int, skew: float) -> tuple[np.ndarray, float]:
    """Area k's unnormalised share k ** skew, for k = 1..n_areas, and their
    sum; inf where they overflow."""
    with np.errstate(over="ignore"):
        raw = np.power(np.arange(1, n_areas + 1, dtype=float), skew)
        return raw, float(raw.sum())


_JOURNAL_BINS = 8  # journals per area, binning publications by quality
_SQRT2 = math.sqrt(2.0)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + erf(z / _SQRT2))


def generate(config: SynthConfig) -> Corpus:
    """Generate a corpus as a pure function of the config (seed included).

    Each publication has a latent quality; reviewer criterion scores are
    independent noisy discretizations of it, citations follow an
    overdispersed count draw whose mean couples to quality through
    metric_quality_correlation, and journals bin publications of similar
    quality within an area.

    Every value comes from one default_rng(config.seed) stream, drawn
    record by record in a fixed order. Each draw is made with the cheapest
    call that takes what numpy's general call would take from the stream:
    rng.choice(YEARS) is rng.integers(4), and rng.choice(n, p=p) looks one
    rng.random() up in p's normalised cumulative sum (searchsorted with
    side="right", which bisect_right is on a sorted list); rng.uniform() is
    rng.random(), and rng.normal(0, sd) is 0.0 + sd * rng.standard_normal().
    """
    rng = np.random.default_rng(config.seed)
    integers, random, standard_normal = rng.integers, rng.random, rng.standard_normal
    negative_binomial, uniform = rng.negative_binomial, rng.uniform
    n_areas, n_fields = config.n_areas, config.n_fields_per_area
    sd, r, share = config.reviewer_noise_sd, config.citation_dispersion, config.multidisciplinary_share
    rho = config.metric_quality_correlation
    eps_scale = math.sqrt(max(0.0, 1.0 - rho * rho))
    scale = math.hypot(1.0, sd)  # of a criterion latent: quality (sd 1) plus noise
    cdf = None
    if config.area_share_skew > 0:
        raw, total = _area_mass(n_areas, config.area_share_skew)
        cdf = (raw / total).cumsum()
        cdf = (cdf / cdf[-1]).tolist()
    # One string per label, shared by every record that carries it.
    areas = [f"AREA{k:02d}" for k in range(n_areas)]
    area_fields = [[f"{area}-F{k}" for k in range(n_fields)] for area in areas]
    area_journals = [[f"{area}-J{k}" for k in range(_JOURNAL_BINS)] for area in areas]
    spec = config.pubs_per_institution
    records: list[PublicationRecord] = []
    counts: dict[str, int] = {}

    for i in range(config.n_institutions):
        inst = f"U{i:03d}"
        inst_effect = rng.normal(0.0, 0.6)
        if spec.kind == "constant":
            n_pubs = spec.value
        else:
            lo, hi = math.log(spec.min), math.log(spec.max + 1)
            n_pubs = min(spec.max, int(math.exp(rng.uniform(lo, hi))))
        counts[inst] = n_pubs
        for j in range(n_pubs):
            if cdf is None:
                area_idx = int(integers(n_areas))
            else:
                area_idx = bisect_right(cdf, random())
            q = inst_effect + (0.0 + 0.8 * standard_normal())
            year = YEARS[integers(len(YEARS))]
            # Three criterion noises per reviewer, then the citation noise.
            noise = standard_normal(7).tolist()
            # Fixed Gaussian-threshold discretization onto 1..10.
            s = [min(10, 1 + int(_normal_cdf((q + (0.0 + sd * e)) / scale) * 10)) for e in noise[:6]]

            # Citation latent mixes quality with independent noise; rho = 1
            # makes citations a deterministic monotone function of quality.
            m = rho * q + eps_scale * (0.0 + noise[6])
            field_idx = int(integers(n_fields))
            mu = math.exp(0.9 * m + 0.3 * field_idx + 1.2)
            citations = int(negative_binomial(r, r / (r + mu)))

            field_labels = area_fields[area_idx]
            main_field = field_labels[field_idx]
            ref_weights = None
            if random() < share:
                weights = {MULTIDISCIPLINARY_LABEL: 1.0}
                other = int(integers(n_fields))
                ref_weights = {main_field: 0.75, field_labels[other]: 0.25} if other != field_idx else {main_field: 1.0}
            elif n_fields > 1 and random() < 0.3:
                w = round(float(uniform(0.3, 0.7)), 3)
                weights = {main_field: w, field_labels[(field_idx + 1) % n_fields]: 1.0 - w}
            else:
                weights = {main_field: 1.0}

            journal_bin = min(_JOURNAL_BINS - 1, int(_normal_cdf(q / 2.0) * _JOURNAL_BINS))
            records.append(
                PublicationRecord(
                    pub_id=f"P-{inst}-{j:04d}",
                    institution_id=inst,
                    area_id=areas[area_idx],
                    year=year,
                    citations=citations,
                    journal_id=area_journals[area_idx][journal_bin],
                    category_weights=weights,
                    ref_category_weights=ref_weights,
                    review_a=ReviewerScore(s[0], s[1], s[2]),
                    review_b=ReviewerScore(s[3], s[4], s[5]),
                )
            )

    # Each institution's sample rate is uniform around population_fraction,
    # within a quarter of its distance to the nearer of 0 and 1, so it stays
    # in (0, 1]; the default 0.08 draws from [0.06, 0.10].
    population = None
    f = config.population_fraction
    if f > 0:
        half = 0.25 * min(f, 1.0 - f)
        population = {
            inst: max(n, int(round(n / rng.uniform(f - half, f + half))))
            for inst, n in sorted(counts.items())
        }
    return Corpus(records=tuple(records), census_year=CENSUS_YEAR, population_counts=population)
