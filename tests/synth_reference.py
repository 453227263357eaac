"""The corpus generator draw by draw: the exact reference for synth.generate.

generate here is the generator's original loop, one numpy call per draw:
rng.choice for years and skewed areas, rng.uniform for uniform draws and
rng.normal for every normal. bibagree.synth.generate must make the same
draws from the same default_rng(seed) stream and so return an equal Corpus.
"""

import math

import numpy as np

from bibagree.corpus import MULTIDISCIPLINARY_LABEL, Corpus, PublicationRecord, ReviewerScore
from bibagree.synth import CENSUS_YEAR, YEARS, SynthConfig, _area_mass


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _criterion_score(latent: float, scale: float) -> int:
    # Fixed Gaussian-threshold discretization onto 1..10.
    u = _normal_cdf(latent / scale)
    return min(10, max(1, 1 + int(u * 10)))


def _review(q: float, noise: np.ndarray, cfg: SynthConfig) -> ReviewerScore:
    scale = math.hypot(1.0, cfg.reviewer_noise_sd)
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
    rng = np.random.default_rng(config.seed)
    rho = config.metric_quality_correlation
    records: list[PublicationRecord] = []
    n_journal_bins = 8
    area_probs = None
    if config.area_share_skew > 0:
        raw, total = _area_mass(config.n_areas, config.area_share_skew)
        area_probs = raw / total

    for i in range(config.n_institutions):
        inst = f"U{i:03d}"
        inst_effect = rng.normal(0.0, 0.6)
        spec = config.pubs_per_institution
        if spec.kind == "constant":
            n_pubs = spec.value
        else:
            lo, hi = math.log(spec.min), math.log(spec.max + 1)
            n_pubs = min(spec.max, int(math.exp(rng.uniform(lo, hi))))
        for j in range(n_pubs):
            pub_id = f"P-{inst}-{j:04d}"
            if area_probs is None:
                area_idx = int(rng.integers(config.n_areas))
            else:
                area_idx = int(rng.choice(config.n_areas, p=area_probs))
            area = f"AREA{area_idx:02d}"
            q = inst_effect + rng.normal(0.0, 0.8)
            year = int(rng.choice(YEARS))

            review_a = _review(q, rng.normal(0.0, config.reviewer_noise_sd, 3), config)
            review_b = _review(q, rng.normal(0.0, config.reviewer_noise_sd, 3), config)

            # Citation latent mixes quality with independent noise; rho = 1
            # makes citations a deterministic monotone function of quality.
            eps = rng.normal(0.0, 1.0)
            m = rho * q + math.sqrt(max(0.0, 1.0 - rho * rho)) * eps
            field_idx = int(rng.integers(config.n_fields_per_area))
            field_effect = 0.3 * field_idx
            mu = math.exp(0.9 * m + field_effect + 1.2)
            r = config.citation_dispersion
            citations = int(rng.negative_binomial(r, r / (r + mu)))

            main_field = f"{area}-F{field_idx}"
            ref_weights = None
            if rng.uniform() < config.multidisciplinary_share:
                weights = {MULTIDISCIPLINARY_LABEL: 1.0}
                other = f"{area}-F{int(rng.integers(config.n_fields_per_area))}"
                ref_weights = {main_field: 0.75, other: 0.25} if other != main_field else {main_field: 1.0}
            elif config.n_fields_per_area > 1 and rng.uniform() < 0.3:
                second = f"{area}-F{(field_idx + 1) % config.n_fields_per_area}"
                w = round(float(rng.uniform(0.3, 0.7)), 3)
                weights = {main_field: w, second: 1.0 - w}
            else:
                weights = {main_field: 1.0}

            journal_bin = min(n_journal_bins - 1, int(_normal_cdf(q / 2.0) * n_journal_bins))
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

    # Each institution's sample rate is uniform around population_fraction,
    # within a quarter of its distance to the nearer of 0 and 1, so it stays
    # in (0, 1]; the default 0.08 draws from [0.06, 0.10].
    population = None
    f = config.population_fraction
    if f > 0:
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.institution_id] = counts.get(rec.institution_id, 0) + 1
        half = 0.25 * min(f, 1.0 - f)
        population = {
            inst: max(n, int(round(n / rng.uniform(f - half, f + half))))
            for inst, n in sorted(counts.items())
        }
    return Corpus(records=tuple(records), census_year=CENSUS_YEAR, population_counts=population)

