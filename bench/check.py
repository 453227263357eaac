"""Independent check of a ``bibagree run`` output directory.

Everything is recomputed from the corpus file without bibagree's computation
code. The field-year baselines, NCS, OLS, MAD and size-dependent MAPD come
from ``tests/oracles.py``; NJS and mid-rank percentiles come from numpy
group-bys here, because ``oracle_njs`` and ``oracle_percentiles`` are
quadratic in the corpus size. Each bootstrap replicate is recomputed from its
documented draw: ``np.random.default_rng([seed, k])``, then
``integers(0, n_area, n_area)`` per area in sorted area order over the
pub_id-sorted pool, duplicates renamed ``<pub_id>~<draw number>``.

``verify`` returns a list of mismatches; an empty list means the outputs are
correct. Reals must agree within REL_TOL relative; counts exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np
from oracles import (
    oracle_baselines,
    oracle_mad,
    oracle_mapd_sizedep,
    oracle_midrank_quantile,
    oracle_ncs,
    oracle_ols,
)

REL_TOL = 1e-9
ABS_TOL = 1e-12  # for values that are 0 up to rounding, such as a perfect fit
MAX_ERRORS = 20
INSTITUTION = "institution"
PUBLICATION = "publication"
SIZE_INDEPENDENT = "size_independent"
SIZE_DEPENDENT = "size_dependent"

StatKey = tuple[str, str, str, str]  # (area, metric, level, view)


class Rec(NamedTuple):
    pub_id: str
    institution_id: str
    area_id: str
    year: int
    citations: int
    journal_id: str
    category_weights: dict[str, float]  # keys in sorted order
    ref_category_weights: dict[str, float]
    reviewer1: float
    reviewer2: float


class Stats(NamedTuple):
    values: dict[StatKey, tuple[float, int]]  # key -> (value, n_units)
    flagged: dict[str, int]
    ncs: dict[str, float]
    records: list[Rec]  # after multidisciplinary reassignment, pub_id order


def _weights(text: str) -> dict[str, float]:
    out = {}
    for part in text.split(";"):
        if part.strip():
            label, _, value = part.strip().rpartition(":")
            out[label] = float(value)
    return dict(sorted(out.items()))


def _overall(row: dict, prefix: str) -> int:
    return sum(int(row[f"{prefix}_{c}"]) for c in ("originality", "rigour", "impact"))


def read_corpus(path: Path, role_seed: int | None) -> list[Rec]:
    """Parse a corpus CSV; with a role seed, swap the reviews of each record
    whose sha256("<seed>:<pub_id>") starts with an odd byte."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["ext_citation_percentile"] or row["ext_journal_percentile"]:
                raise ValueError("external percentiles are not recomputed by this checker")
            r1, r2 = _overall(row, "rev_a"), _overall(row, "rev_b")
            if role_seed is not None:
                digest = hashlib.sha256(f"{role_seed}:{row['pub_id']}".encode("utf-8")).digest()
                if digest[0] & 1:
                    r1, r2 = r2, r1
            records.append(
                Rec(
                    row["pub_id"],
                    row["institution_id"],
                    row["area_id"],
                    int(row["year"]),
                    int(row["citations"]),
                    row["journal_id"],
                    _weights(row["category_weights"]),
                    _weights(row["ref_category_weights"]),
                    float(r1),
                    float(r2),
                )
            )
    return records


def _reassigned(rec: Rec, label: str) -> tuple[Rec, bool]:
    """Spread the multidisciplinary weight over the reference profile.
    Returns the record and whether it could not be redistributed."""
    w_multi = rec.category_weights.get(label, 0.0)
    if w_multi == 0.0:
        return rec, False
    refs = {k: v for k, v in rec.ref_category_weights.items() if k != label and v > 0}
    if not refs:
        return rec, True
    ref_total = sum(refs.values())
    weights = {k: v for k, v in rec.category_weights.items() if k != label}
    for k, v in refs.items():
        weights[k] = weights.get(k, 0.0) + w_multi * v / ref_total
    return rec._replace(category_weights=dict(sorted(weights.items()))), False


def _codes(keys: list) -> np.ndarray:
    index: dict = {}
    return np.array([index.setdefault(k, len(index)) for k in keys], dtype=np.int64)


def _group_mean(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    return np.bincount(codes, weights=values) / np.bincount(codes)


def _midrank_percentiles(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """100*(r - 0.5)/n within each group, r the mid-rank with ties averaged."""
    out = np.empty(len(values))
    for g in np.unique(groups):
        mask = groups == g
        vals = values[mask]
        ordered = np.sort(vals)
        below = np.searchsorted(ordered, vals, side="left")
        through = np.searchsorted(ordered, vals, side="right")
        rank = below + (through - below + 1) / 2.0
        out[mask] = 100.0 * (rank - 0.5) / len(vals)
    return out


def _fit_units(x: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """Predicted y of the OLS line of y on x, or None when no line can be fitted."""
    if len(x) < 3 or np.all(x == x[0]):
        return None
    a, b = oracle_ols(list(zip(x.tolist(), y.tolist())))
    return a + b * x


def recompute_statistics(records: list[Rec], config: dict) -> Stats:
    """Every agreement statistic of one (possibly resampled) corpus."""
    recs = []
    n_unredistributable = 0
    for rec in sorted(records, key=lambda r: r.pub_id):
        rec, unredistributable = _reassigned(rec, config["multidisciplinary_label"])
        n_unredistributable += unredistributable
        recs.append(rec)
    means = oracle_baselines(recs)
    kept, ncs = [], []
    for rec in recs:
        if any(means.get((f, rec.year), 0.0) == 0.0 for f in rec.category_weights):
            continue
        kept.append(rec)
        ncs.append(oracle_ncs(rec, means))
    ncs_arr = np.array(ncs)
    journal_year = _codes([(r.journal_id, r.year) for r in kept])
    njs = _group_mean(journal_year, ncs_arr)[journal_year]
    areas = np.array([r.area_id for r in kept])
    scores = {
        "reviewer1": np.array([r.reviewer1 for r in kept]),
        "reviewer2": np.array([r.reviewer2 for r in kept]),
        "ncs": ncs_arr,
        "njs": njs,
        "citation_percentile": _midrank_percentiles(ncs_arr, areas),
        "journal_percentile": _midrank_percentiles(njs, areas),
    }

    unit_keys = sorted({(r.institution_id, r.area_id) for r in kept})
    unit_index = {k: i for i, k in enumerate(unit_keys)}
    unit_of = np.array([unit_index[(r.institution_id, r.area_id)] for r in kept], dtype=np.int64)
    pub_count = np.bincount(unit_of, minlength=len(unit_keys))
    unit_mean = {label: np.bincount(unit_of, weights=s, minlength=len(unit_keys)) / pub_count for label, s in scores.items()}
    keep_unit = pub_count >= config["min_pubs"]
    flagged = {
        "zero_mean_cell": len(recs) - len(kept),
        "unredistributable_multidisciplinary": n_unredistributable,
        "below_min_pubs": int((~keep_unit).sum()),
    }
    unit_area = np.array([a for _, a in unit_keys])

    baseline = config["baseline_label"]
    values: dict[StatKey, tuple[float, int]] = {}
    for area in sorted(set(areas.tolist())):
        in_area = keep_unit & (unit_area == area)
        pubs = areas == area
        for metric in config["metric_labels"]:
            x, y = unit_mean[metric][in_area], unit_mean[baseline][in_area]
            y_hat = _fit_units(x, y)
            if y_hat is not None:
                p = pub_count[in_area]
                values[(area, metric, INSTITUTION, SIZE_INDEPENDENT)] = (
                    oracle_mad(list(zip(y.tolist(), y_hat.tolist()))), len(x))
                values[(area, metric, INSTITUTION, SIZE_DEPENDENT)] = (
                    oracle_mapd_sizedep(list(zip(y.tolist(), y_hat.tolist(), p.tolist()))), len(x))
            x, y = scores[metric][pubs], scores[baseline][pubs]
            y_hat = _fit_units(x, y)
            if y_hat is not None:
                values[(area, metric, PUBLICATION, SIZE_INDEPENDENT)] = (
                    oracle_mad(list(zip(y.tolist(), y_hat.tolist()))), len(x))
    flagged = {k: n for k, n in flagged.items() if n}
    return Stats(values, flagged, {r.pub_id: v for r, v in zip(kept, ncs)}, recs)


def replicate(by_area: dict[str, list[Rec]], seed: int, k: int) -> list[Rec]:
    """Bootstrap replicate k: per area, in sorted order, n_area draws with replacement."""
    rng = np.random.default_rng([seed, k])
    out = []
    for area in sorted(by_area):
        pool = by_area[area]
        for draw, i in enumerate(rng.integers(0, len(pool), size=len(pool))):
            out.append(pool[i]._replace(pub_id=f"{pool[i].pub_id}~{draw}"))
    return out


def _key(entry: dict) -> StatKey:
    return (entry["area_id"], entry["metric_label"], entry["level"], entry["view"])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= max(ABS_TOL, REL_TOL * max(abs(a), abs(b)))


def closure_errors(stats: Stats, program_ncs: dict[str, float]) -> list[str]:
    """The program's NCS against the recomputed NCS, and the normalization
    closure: the fractionally weighted mean NCS of each year is 1."""
    errors = []
    if set(program_ncs) != set(stats.ncs):
        errors.append(f"NCS covers {len(program_ncs)} publications, expected {len(stats.ncs)}")
    errors += [f"NCS of {p}: {program_ncs[p]!r}, expected {v!r}" for p, v in stats.ncs.items()
               if p in program_ncs and not _close(program_ncs[p], v)]
    num: dict[int, float] = {}
    den: dict[int, float] = {}
    for rec in stats.records:
        if rec.pub_id in program_ncs:
            w = sum(rec.category_weights.values())
            num[rec.year] = num.get(rec.year, 0.0) + w * program_ncs[rec.pub_id]
            den[rec.year] = den.get(rec.year, 0.0) + w
    errors += [f"weighted mean NCS of {y}: {num[y] / den[y]!r}" for y in sorted(num) if abs(num[y] / den[y] - 1.0) > REL_TOL]
    return errors


def verify(out_dir: Path, corpus_path: Path, population_path: Path | None, config: dict,
           program_ncs: dict[str, float] | None = None) -> list[str]:
    """Compare report.json in out_dir with the independent recomputation."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    records = read_corpus(corpus_path, config["seed"] if config["assign_roles"] else None)
    point = recompute_statistics(records, config)
    errors: list[str] = []
    if program_ncs is not None:
        errors += closure_errors(point, program_ncs)

    if report["flagged_records"] != point.flagged:
        errors.append(f"flagged_records {report['flagged_records']}, expected {point.flagged}")
    got = {_key(s): s for s in report["statistics"]}
    if set(got) != set(point.values):
        errors.append(f"statistics keys differ: {sorted(set(got) ^ set(point.values))[:5]}")
    for key in sorted(set(got) & set(point.values)):
        value, n = point.values[key]
        if not _close(got[key]["value"], value) or got[key]["n_units"] != n:
            errors.append(f"{key}: value {got[key]['value']!r} n {got[key]['n_units']}, expected {value!r} n {n}")

    if config["bootstrap"]:
        errors += _bootstrap_errors(report["bootstrap"], records, point, config)

    if population_path is not None:
        errors += _coverage_errors(report["coverage"], records, population_path)
    return errors[:MAX_ERRORS]


def _bootstrap_errors(entries: list[dict], records: list[Rec], point: Stats, config: dict) -> list[str]:
    n = config["n_replicates"]
    by_area: dict[str, list[Rec]] = {}
    for rec in sorted(records, key=lambda r: r.pub_id):
        by_area.setdefault(rec.area_id, []).append(rec)
    reps: dict[StatKey, list[float]] = {key: [] for key in point.values}
    for k in range(n):
        values = recompute_statistics(replicate(by_area, config["seed"], k), config).values
        for key in reps:
            if key in values:
                reps[key].append(values[key][0])
    expected = {key: v for key, v in reps.items() if v}
    got = {_key(b): b for b in entries}
    errors = []
    if set(got) != set(expected):
        errors.append(f"bootstrap keys differ: {sorted(set(got) ^ set(expected))[:5]}")
    for key in sorted(set(got) & set(expected)):
        b, v = got[key], expected[key]
        want = {
            "point": point.values[key][0],
            "lower": oracle_midrank_quantile(v, 0.025),
            "upper": oracle_midrank_quantile(v, 0.975),
        }
        for field, value in want.items():
            if not _close(b[field], value):
                errors.append(f"bootstrap {key} {field}: {b[field]!r}, expected {value!r}")
        if (b["n_missing"], b["n_replicates"], b["seed"]) != (n - len(v), n, config["seed"]):
            errors.append(f"bootstrap {key}: n_missing {b['n_missing']} of {b['n_replicates']}, expected {n - len(v)} of {n}")
    return errors


def _coverage_errors(entries: list[dict], records: list[Rec], population_path: Path) -> list[str]:
    with open(population_path, newline="", encoding="utf-8") as fh:
        population = {row["institution_id"]: int(row["count"]) for row in csv.DictReader(fh)}
    counts: dict[str, int] = {}
    for rec in records:
        counts[rec.institution_id] = counts.get(rec.institution_id, 0) + 1
    want = [
        {"institution_id": i, "sample_count": c, "population_count": population.get(i),
         "coverage_ratio": c / population[i] if population.get(i) else None}
        for i, c in sorted(counts.items())
    ]
    return [] if entries == want else ["coverage entries differ from the corpus and population counts"]
