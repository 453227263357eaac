"""Bootstrap intervals, stratified sampling, coverage diagnostics.

Replicates resample publications with replacement within each research-area
stratum; intervals are empirical 2.5/97.5 percentiles under the mid-rank
convention. Replicate k draws from a generator seeded by (seed, k), so
output does not depend on worker count or scheduling. A replicate is its
copy count per publication (replicate_counts), which table.py turns into
statistics without copying a record.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, PublicationRecord
from .table import PublicationTable

StatKey = tuple[str, str, str, str]  # (area, metric, level, view)

MISSING_WARN_FRACTION = 0.10


class ResamplingError(Exception):
    pass


@dataclass(frozen=True)
class BootstrapResult:
    area_id: str
    metric_label: str
    level: str
    view: str
    point: float
    lower: float
    upper: float
    n_replicates: int
    seed: int
    n_missing: int = 0
    warn_missing: bool = False

    def key(self) -> StatKey:
        return (self.area_id, self.metric_label, self.level, self.view)


@dataclass(frozen=True)
class CoverageDiagnostic:
    institution_id: str
    sample_count: int
    population_count: int | None
    coverage_ratio: float | None  # None when the population size is unknown


def midrank_quantile(values: list[float], q: float) -> float:
    """Empirical quantile inverting the mid-rank percentile 100*(r-0.5)/n.

    Position r = q*n + 0.5 (1-based), linearly interpolated and clipped to
    the observed range.
    """
    if not values:
        raise ResamplingError("quantile of empty sample")
    data = sorted(values)
    n = len(data)
    pos = q * n + 0.5
    if pos <= 1.0:
        return data[0]
    if pos >= n:
        return data[-1]
    i = int(pos)
    frac = pos - i
    return data[i - 1] + frac * (data[i] - data[i - 1])


def replicate_counts(area_sizes: Sequence[int], seed: int, k: int) -> np.ndarray:
    """Copy count per row of replicate k, for rows grouped by area in sorted
    area order and by pub_id within an area.

    For each area in turn, it draws rng.integers(0, n_area, n_area) from
    np.random.default_rng([seed, k]).
    """
    rng = np.random.default_rng([seed, k])
    return np.concatenate(
        [np.bincount(rng.integers(0, n, size=n), minlength=n) for n in area_sizes]
    )


def _count_values(table: PublicationTable, statistic_fn, seed: int, k: int) -> dict[StatKey, float]:
    return statistic_fn(table, replicate_counts(table.area_sizes, seed, k))


_worker_args: tuple | None = None  # (table, statistic_fn, seed), set once per pool worker


def _init_worker(table: PublicationTable, statistic_fn, seed: int) -> None:
    global _worker_args
    _worker_args = (table, statistic_fn, seed)


def _worker_values(k: int) -> dict[StatKey, float]:
    return _count_values(*_worker_args, k)


def bootstrap_statistics(
    # The publication table. The name stays corpus while the benchmark's
    # bench/measure.py (_task_bytes) binds this argument by parameter name.
    corpus: PublicationTable,
    statistic_fn,
    point_values: dict[StatKey, float],
    n_replicates: int,
    seed: int,
    n_workers: int = 1,
) -> list[BootstrapResult]:
    """Percentile intervals for every statistic in point_values.

    corpus is the publication table the replicates reweight, and
    statistic_fn maps (table, copy counts) to {key: value}; keys absent from
    a replicate (degenerate fits, vanished institutions) count as missing
    for that replicate. Statistics missing in more than 10% of replicates
    are flagged with a warning. With n_workers > 1 the table goes to each
    worker process once, and each task carries only its replicate number.
    """
    if n_replicates < 1:
        raise ResamplingError("n_replicates must be >= 1")
    if n_workers > 1:
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_worker, initargs=(corpus, statistic_fn, seed)
        ) as pool:
            raw = list(
                pool.map(_worker_values, range(n_replicates), chunksize=max(1, n_replicates // (4 * n_workers)))
            )
    else:
        raw = [_count_values(corpus, statistic_fn, seed, k) for k in range(n_replicates)]

    collected: dict[StatKey, list[float]] = {key: [] for key in point_values}
    for values in raw:
        for key in collected:
            if key in values:
                collected[key].append(values[key])

    results: list[BootstrapResult] = []
    for key in sorted(point_values):
        reps = collected[key]
        n_missing = n_replicates - len(reps)
        if not reps:
            continue
        results.append(
            BootstrapResult(
                area_id=key[0],
                metric_label=key[1],
                level=key[2],
                view=key[3],
                point=point_values[key],
                lower=midrank_quantile(reps, 0.025),
                upper=midrank_quantile(reps, 0.975),
                n_replicates=n_replicates,
                seed=seed,
                n_missing=n_missing,
                warn_missing=n_missing > MISSING_WARN_FRACTION * n_replicates,
            )
        )
    return results


def _area_stream(seed: int, area_id: str) -> np.random.Generator:
    digest = hashlib.sha256(f"stratum:{area_id}".encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:4], "big")])


def check_fraction(fraction: float) -> None:
    """Raise ResamplingError unless 0 < fraction <= 1."""
    if not (0.0 < fraction <= 1.0):
        raise ResamplingError(f"fraction {fraction} outside (0,1]")


def stratified_sample(corpus: Corpus, fraction: float, seed: int) -> tuple[Corpus, list[str]]:
    """Draw round(fraction * n) publications per area, without replacement.

    Seeded per area by (seed, hash(area)), so the draw is independent of
    record order. Returns the sample and any skipped (empty) strata.
    """
    check_fraction(fraction)
    by_area: dict[str, list[PublicationRecord]] = {}
    for rec in sorted(corpus.records, key=lambda r: r.pub_id):
        by_area.setdefault(rec.area_id, []).append(rec)
    skipped: list[str] = []
    chosen: list[PublicationRecord] = []
    for area in sorted(by_area):
        pool = by_area[area]
        k = int(fraction * len(pool) + 0.5)
        if k == 0:
            skipped.append(area)
            continue
        rng = _area_stream(seed, area)
        idx = rng.choice(len(pool), size=k, replace=False)
        chosen.extend(pool[int(i)] for i in sorted(idx))
    return replace(corpus, records=tuple(chosen)), skipped


def coverage_report(sample: Corpus, population_counts: dict[str, int]) -> list[CoverageDiagnostic]:
    """Sample-to-population coverage per institution (post-stratification check)."""
    counts = Counter(sample.columns.institution_id)
    out = []
    for inst in sorted(counts):
        pop = population_counts.get(inst)
        out.append(
            CoverageDiagnostic(
                institution_id=inst,
                sample_count=counts[inst],
                population_count=pop,
                coverage_ratio=(counts[inst] / pop) if pop else None,
            )
        )
    return out
