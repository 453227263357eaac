"""Publication data model, corpus I/O and reviewer role assignment."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

WEIGHT_TOL = 1e-9

CSV_COLUMNS = [
    "pub_id",
    "institution_id",
    "area_id",
    "year",
    "citations",
    "journal_id",
    "category_weights",
    "ref_category_weights",
    "rev_a_originality",
    "rev_a_rigour",
    "rev_a_impact",
    "rev_b_originality",
    "rev_b_rigour",
    "rev_b_impact",
    "ext_citation_percentile",
    "ext_journal_percentile",
]


_ID_COLUMNS = ("pub_id", "institution_id", "area_id", "journal_id")
_CRITERIA = ("originality", "rigour", "impact")
_SCORE_COLUMNS = {prefix: tuple(f"{prefix}_{c}" for c in _CRITERIA) for prefix in ("rev_a", "rev_b")}


class CorpusError(Exception):
    """Base class for corpus loading and validation problems."""


class CorpusParseError(CorpusError):
    """Malformed row or line in a corpus file."""


class CorpusValidationError(CorpusError):
    """A record violates an invariant (bad score, weights, duplicate id, ...)."""


@dataclass(frozen=True)
class ReviewerScore:
    originality: int
    rigour: int
    impact: int


def overall_score(r: ReviewerScore) -> int:
    """Sum of the three criterion scores, in 3..30."""
    return r.originality + r.rigour + r.impact


@dataclass(frozen=True)
class PublicationRecord:
    pub_id: str
    institution_id: str
    area_id: str
    year: int
    citations: int
    journal_id: str
    category_weights: dict[str, float]
    ref_category_weights: dict[str, float] | None = None
    review_a: ReviewerScore | None = None
    review_b: ReviewerScore | None = None
    ext_citation_percentile: float | None = None
    ext_journal_percentile: float | None = None


@dataclass(frozen=True)
class Corpus:
    records: tuple[PublicationRecord, ...]
    census_year: int
    population_counts: dict[str, int] | None = None

    def by_id(self) -> dict[str, PublicationRecord]:
        return {r.pub_id: r for r in self.records}

    def area_ids(self) -> list[str]:
        return sorted({r.area_id for r in self.records})


@dataclass(frozen=True)
class SchemaOptions:
    """Corpus load options.

    census_year: citation census cutoff; defaults to the max record year.
    population_path: optional CSV of institution_id,count reference-population sizes.
    """

    census_year: int | None = None
    population_path: str | None = None


def _detect_format(path: Path) -> str:
    ext = path.suffix.lower()
    if ext in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if ext == ".tsv":
        return "tsv"
    return "csv"


def _parse_weights(text: str, where: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise CorpusParseError(f"{where}: bad weight entry {part!r}")
        label, _, val = part.rpartition(":")
        try:
            out[label] = float(val)
        except ValueError as exc:
            raise CorpusParseError(f"{where}: bad weight value {val!r}") from exc
    return out


def _format_weights(weights: dict[str, float]) -> str:
    return ";".join(f"{k}:{v!r}" for k, v in sorted(weights.items()))


def _parse_score(row: dict, prefix: str, where: str) -> ReviewerScore | None:
    vals = [(row.get(col) or "").strip() for col in _SCORE_COLUMNS[prefix]]
    if not any(vals):
        return None
    if not all(vals):
        raise CorpusParseError(f"{where}: incomplete reviewer score for {prefix}")
    try:
        return ReviewerScore(*map(int, vals))
    except ValueError as exc:
        raise CorpusParseError(f"{where}: non-integer criterion score") from exc


def _opt_float(value, where: str) -> float | None:
    if value is None or str(value).strip() == "":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise CorpusParseError(f"{where}: bad numeric value {value!r}") from exc


def validate_record(rec: PublicationRecord, census_year: int) -> None:
    """Raise CorpusValidationError naming the record on any invariant violation."""
    tag = f"record {rec.pub_id!r}"
    if rec.citations < 0:
        raise CorpusValidationError(f"{tag}: negative citations {rec.citations}")
    if not rec.category_weights:
        raise CorpusValidationError(f"{tag}: empty category weights")
    total = sum(rec.category_weights.values())
    if abs(total - 1.0) > WEIGHT_TOL:
        raise CorpusValidationError(f"{tag}: weights sum {total:g}")
    for label, w in rec.category_weights.items():
        if not (0.0 < w <= 1.0):
            raise CorpusValidationError(f"{tag}: weight {label}={w:g} outside (0,1]")
    if rec.year > census_year:
        raise CorpusValidationError(f"{tag}: year {rec.year} after census year {census_year}")
    # abs() lets one sum catch a nan or infinite weight and a positive
    # total that overflows, either of which breaks the reassignment.
    if rec.ref_category_weights and not math.isfinite(sum(map(abs, rec.ref_category_weights.values()))):
        raise CorpusValidationError(f"{tag}: reference weights not finite")
    for name, score in (("review_a", rec.review_a), ("review_b", rec.review_b)):
        if score is None:
            continue
        for crit in _CRITERIA:
            v = getattr(score, crit)
            if not (1 <= v <= 10):
                raise CorpusValidationError(f"{tag}: {name}.{crit}={v} outside 1..10")
    for name, pct in (
        ("ext_citation_percentile", rec.ext_citation_percentile),
        ("ext_journal_percentile", rec.ext_journal_percentile),
    ):
        if pct is not None and not (0.0 <= pct <= 100.0):
            raise CorpusValidationError(f"{tag}: {name}={pct:g} outside [0,100]")


def _bad_id(ids: list, where: str) -> CorpusParseError:
    name, value = next((n, v) for n, v in zip(_ID_COLUMNS, ids) if not (isinstance(v, str) and v))
    return CorpusParseError(f"{where}: {name} must be a non-empty string, got {value!r}")


def _record_from_row(row: dict, where: str) -> PublicationRecord:
    try:
        year = int(str(row["year"]).strip())
        citations = int(str(row["citations"]).strip())
    except (KeyError, ValueError) as exc:
        raise CorpusParseError(f"{where}: bad year/citations") from exc
    ids = [row[k].strip() for k in _ID_COLUMNS]
    if "" in ids:
        raise _bad_id(ids, where)
    pub_id, institution_id, area_id, journal_id = ids
    refs = _parse_weights(str(row.get("ref_category_weights") or ""), where)
    return PublicationRecord(
        pub_id=pub_id,
        institution_id=institution_id,
        area_id=area_id,
        year=year,
        citations=citations,
        journal_id=journal_id,
        category_weights=_parse_weights(str(row["category_weights"]), where),
        ref_category_weights=refs or None,
        review_a=_parse_score(row, "rev_a", where),
        review_b=_parse_score(row, "rev_b", where),
        ext_citation_percentile=_opt_float(row.get("ext_citation_percentile"), where),
        ext_journal_percentile=_opt_float(row.get("ext_journal_percentile"), where),
    )


def _record_from_json(obj: dict, where: str) -> PublicationRecord:
    def integral(value, name):
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise CorpusParseError(f"{where}: non-integral {name} {value!r}")
        return int(value)

    def score(key):
        sub = obj.get(key)
        if sub is None:
            return None
        try:
            return ReviewerScore(*(integral(sub[c], f"{key}.{c}") for c in _CRITERIA))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusParseError(f"{where}: bad {key} object") from exc

    try:
        ids = [obj[k] for k in _ID_COLUMNS]
        if not all(isinstance(v, str) and v for v in ids):
            raise _bad_id(ids, where)
        pub_id, institution_id, area_id, journal_id = ids
        weights = {str(k): float(v) for k, v in obj["category_weights"].items()}
        refs_raw = obj.get("ref_category_weights")
        refs = {str(k): float(v) for k, v in refs_raw.items()} if refs_raw else None
        return PublicationRecord(
            pub_id=pub_id,
            institution_id=institution_id,
            area_id=area_id,
            year=integral(obj["year"], "year"),
            citations=integral(obj["citations"], "citations"),
            journal_id=journal_id,
            category_weights=weights,
            ref_category_weights=refs,
            review_a=score("review_a"),
            review_b=score("review_b"),
            ext_citation_percentile=_opt_float(obj.get("ext_citation_percentile"), where),
            ext_journal_percentile=_opt_float(obj.get("ext_journal_percentile"), where),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusParseError(f"{where}: {exc}") from exc


def load_population_counts(path: str | Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for i, row in enumerate(reader, start=2):
            try:
                inst, count = str(row["institution_id"]).strip(), int(str(row["count"]).strip())
            except (KeyError, ValueError) as exc:
                raise CorpusParseError(f"{path} row {i}: bad population count") from exc
            if count < 0:
                raise CorpusParseError(f"{path} row {i}: negative population count {count}")
            if inst in counts:
                raise CorpusParseError(f"{path} row {i}: duplicate institution {inst!r}")
            counts[inst] = count
    return counts


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL)."""
    path = Path(path)
    if not path.exists():
        raise CorpusParseError(f"corpus file not found: {path}")
    fmt = _detect_format(path)
    records: list[PublicationRecord] = []
    if fmt == "jsonl":
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path.name} line {lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusParseError(f"{where}: invalid JSON: {exc}") from exc
                records.append(_record_from_json(obj, where))
    else:
        delim = "\t" if fmt == "tsv" else ","
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, delimiter=delim)
            missing = set(CSV_COLUMNS) - set(reader.fieldnames or [])
            if missing:
                raise CorpusParseError(f"{path.name}: missing columns {sorted(missing)}")
            last = reader.fieldnames[-1]
            for lineno, row in enumerate(reader, start=2):
                # DictReader files extra fields under None and fills missing ones with None.
                if None in row or row[last] is None:
                    more = "more" if None in row else "fewer"
                    raise CorpusParseError(f"{path.name} row {lineno}: {more} fields than the header")
                records.append(_record_from_row(row, f"{path.name} row {lineno}"))

    if not records:
        raise CorpusParseError(f"{path.name}: no records")
    census_year = options.census_year
    if census_year is None:
        census_year = max(r.year for r in records)
    seen: set[str] = set()
    for rec in records:
        if rec.pub_id in seen:
            raise CorpusValidationError(f"duplicate pub_id {rec.pub_id!r}")
        seen.add(rec.pub_id)
        validate_record(rec, census_year)

    population = None
    if options.population_path:
        population = load_population_counts(options.population_path)
        # A population is never smaller than its sample.
        for inst, n in Counter(r.institution_id for r in records).items():
            if inst in population and population[inst] < n:
                raise CorpusValidationError(
                    f"{options.population_path}: institution {inst!r} has population count "
                    f"{population[inst]} below its {n} records in the corpus"
                )
    return Corpus(records=tuple(records), census_year=census_year, population_counts=population)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back out in the canonical column layout."""
    path = Path(path)
    fmt = _detect_format(path)
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in corpus.records:
                obj = {
                    "pub_id": rec.pub_id,
                    "institution_id": rec.institution_id,
                    "area_id": rec.area_id,
                    "year": rec.year,
                    "citations": rec.citations,
                    "journal_id": rec.journal_id,
                    "category_weights": dict(sorted(rec.category_weights.items())),
                    "ref_category_weights": (
                        dict(sorted(rec.ref_category_weights.items()))
                        if rec.ref_category_weights
                        else None
                    ),
                    "review_a": rec.review_a.__dict__ if rec.review_a else None,
                    "review_b": rec.review_b.__dict__ if rec.review_b else None,
                    "ext_citation_percentile": rec.ext_citation_percentile,
                    "ext_journal_percentile": rec.ext_journal_percentile,
                }
                fh.write(json.dumps(obj, sort_keys=False) + "\n")
        return
    delim = "\t" if fmt == "tsv" else ","
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delim)
        writer.writerow(CSV_COLUMNS)
        for rec in corpus.records:
            a, b = rec.review_a, rec.review_b
            writer.writerow(
                [
                    rec.pub_id,
                    rec.institution_id,
                    rec.area_id,
                    rec.year,
                    rec.citations,
                    rec.journal_id,
                    _format_weights(rec.category_weights),
                    _format_weights(rec.ref_category_weights) if rec.ref_category_weights else "",
                    a.originality if a else "",
                    a.rigour if a else "",
                    a.impact if a else "",
                    b.originality if b else "",
                    b.rigour if b else "",
                    b.impact if b else "",
                    repr(rec.ext_citation_percentile) if rec.ext_citation_percentile is not None else "",
                    repr(rec.ext_journal_percentile) if rec.ext_journal_percentile is not None else "",
                ]
            )


def _swap_coin(seed: int, pub_id: str) -> bool:
    # Keyed by (seed, pub_id) so file order cannot change the outcome.
    digest = hashlib.sha256(f"{seed}:{pub_id}".encode("utf-8")).digest()
    return digest[0] & 1 == 1


def assign_reviewer_roles(corpus: Corpus, seed: int) -> Corpus:
    """Randomize which of the two reviews counts as reviewer 1.

    Each record's pair is swapped with probability 1/2 using a deterministic
    per-record coin keyed by (seed, pub_id). Requires both reviews present.
    """
    out = []
    for rec in corpus.records:
        if rec.review_a is None or rec.review_b is None:
            raise CorpusValidationError(f"record {rec.pub_id!r}: missing reviewer score")
        if _swap_coin(seed, rec.pub_id):
            rec = replace(rec, review_a=rec.review_b, review_b=rec.review_a)
        out.append(rec)
    return replace(corpus, records=tuple(out))
