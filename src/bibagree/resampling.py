"""Bootstrap intervals, stratified sampling, coverage diagnostics.

Replicates resample publications with replacement within each research-area
stratum; intervals are empirical 2.5/97.5 percentiles under the mid-rank
convention. Replicate k draws from a generator seeded by (seed, k), so
output does not depend on worker count or scheduling. A replicate is its
copy count per publication (replicate_counts), which table.py turns into
statistics without copying a record, written into one row of a float matrix
with a column per statistic and NaN where a value is missing. Each row sits
at its replicate number, however the replicates were shared out.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus
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


def _rows(
    table: PublicationTable, statistic_fn, seed: int, columns: dict[StatKey, int], replicates: range
) -> np.ndarray:
    """The matrix of the given replicates, one row each in their order and
    one column per key in columns; NaN marks a missing value."""
    values = np.full((len(replicates), len(columns)), np.nan)
    for row, k in zip(values, replicates):
        statistic_fn(table, replicate_counts(table.area_sizes, seed, k), columns=columns, row=row)
    return values


def _worker(conn, table: PublicationTable, statistic_fn, seed: int, columns: dict[StatKey, int], replicates: range):
    """Send the matrix of a share of the replicates, or the exception that
    evaluating it raised, to the calling process."""
    try:
        conn.send(_rows(table, statistic_fn, seed, columns, replicates))
    except Exception as exc:  # noqa: BLE001 - raised again in the calling process
        conn.send(exc)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where the platform
    does not say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicate_matrix(
    table: PublicationTable, statistic_fn, seed: int, columns: dict[StatKey, int], n_replicates: int, n_shares: int
) -> np.ndarray:
    """The matrix of all replicates, share w being the replicates k with
    k % n_shares == w. The calling process evaluates share 0, and a worker
    process each of the others."""
    # numpy loads numpy.random on first use; loaded before the workers
    # start, forked workers inherit it instead of each importing it.
    import numpy.random  # noqa: F401

    workers = []  # (process, receiving end of its pipe)
    try:
        for w in range(1, n_shares):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_worker, args=(sender, table, statistic_fn, seed, columns, range(w, n_replicates, n_shares))
            )
            process.start()
            # Closed here, the pipe reports the end of a worker that dies without sending.
            sender.close()
            workers.append((process, receiver))
        values = np.empty((n_replicates, len(columns)))
        values[0::n_shares] = _rows(table, statistic_fn, seed, columns, range(0, n_replicates, n_shares))
        for w, (_, receiver) in enumerate(workers, start=1):
            try:
                result = receiver.recv()
            except EOFError:
                raise ResamplingError(f"bootstrap worker {w} ended without a result") from None
            if isinstance(result, Exception):
                raise result
            values[w::n_shares] = result
        return values
    except BaseException:
        for process, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receiver in workers:
            receiver.close()
            process.join()


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

    corpus is the publication table the replicates reweight. The replicates
    fill one matrix, a row per replicate and a column per key of
    point_values in sorted order, NaN where a value is missing:
    statistic_fn(table, copy counts, columns=columns, row=row) writes each
    statistic of a replicate into row[columns[key]]. A key a replicate does
    not write (a degenerate fit, a vanished institution) counts as missing
    there. Statistics missing in more than 10% of replicates are flagged
    with a warning.

    With n_workers > 1 the replicates are split into that many fixed
    shares. The calling process evaluates one share, and n_workers - 1
    worker processes each receive the table once and return the matrix of
    their share. No more processes take part, the calling one included,
    than there are replicates or CPUs the process may run on.
    """
    if n_replicates < 1:
        raise ResamplingError("n_replicates must be >= 1")
    keys = sorted(point_values)
    columns = {key: j for j, key in enumerate(keys)}
    n_shares = min(n_workers, n_replicates, _usable_cpus())
    values = _replicate_matrix(corpus, statistic_fn, seed, columns, n_replicates, n_shares)

    results: list[BootstrapResult] = []
    for key, column in zip(keys, values.T):
        reps = column[~np.isnan(column)].tolist()
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


def check_seed(seed: int) -> None:
    """Raise ResamplingError unless seed >= 0."""
    if seed < 0:
        raise ResamplingError(f"seed must be >= 0, got {seed}")


def stratified_sample(corpus: Corpus, fraction: float, seed: int) -> tuple[Corpus, list[str]]:
    """Draw round(fraction * n) publications per area, without replacement.

    Seeded per area by (seed, hash(area)), so the draw is independent of
    record order. Only the chosen rows of the corpus columns become records.
    Returns the sample and any skipped (empty) strata.
    """
    check_fraction(fraction)
    check_seed(seed)
    columns = corpus.columns
    by_area: list[list[int]] = [[] for _ in columns.area_ids]
    area_code = columns.area_id.tolist()
    for row in sorted(range(len(columns)), key=columns.pub_id.__getitem__):
        by_area[area_code[row]].append(row)
    skipped: list[str] = []
    chosen: list[int] = []
    for area, pool in zip(columns.area_ids, by_area):
        k = int(fraction * len(pool) + 0.5)
        if k == 0:
            skipped.append(area)
            continue
        rng = _area_stream(seed, area)
        idx = rng.choice(len(pool), size=k, replace=False)
        chosen.extend(pool[i] for i in sorted(idx.tolist()))
    return Corpus(columns.records(chosen), corpus.census_year, corpus.population_counts), skipped


def coverage_report(sample: Corpus, population_counts: dict[str, int]) -> list[CoverageDiagnostic]:
    """Sample-to-population coverage per institution (post-stratification check)."""
    columns = sample.columns
    counts = np.bincount(columns.institution_id, minlength=len(columns.institution_ids)).tolist()
    out = []
    for inst, n in zip(columns.institution_ids, counts):
        pop = population_counts.get(inst)
        out.append(
            CoverageDiagnostic(
                institution_id=inst,
                sample_count=n,
                population_count=pop,
                coverage_ratio=(n / pop) if pop else None,
            )
        )
    return out
