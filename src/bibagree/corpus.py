"""Publication data model, columnar corpus I/O and reviewer role assignment.

A corpus is held as columns (``Columns``): one list or array per field of
a record, and the category and reference weight maps as flat entry arrays.
A run reads, screens and transforms these columns and never builds a
``PublicationRecord``; ``Corpus.records`` is a view, built on first access.

``load_corpus`` reads a file into raw columns, converts each column once
and screens the converted columns with numpy. The row-by-row functions
``_record_from_row``, ``_record_from_json`` and ``validate_record`` define
a valid row and word every error. A column converter converts the whole
column or raises, and names no row: a rejected file is parsed row by row,
in file order, up to its first faulty row, and only the rows the screen
flags are validated one by one. So the message, the row it names and the
fault that wins are theirs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields, replace
from itertools import compress, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

WEIGHT_TOL = 1e-9
# The largest citation count a float64 holds exactly; the publication table
# computes in float64, and a larger count could overflow a field-year sum.
MAX_CITATIONS = 2**53

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
# A review's scores in _CRITERIA order. Attribute reads, where vars(score)
# would give each score a __dict__ of its own that outlives the write.
_criterion_scores = operator.attrgetter(*_CRITERIA)


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


def overall_score(review: ReviewerScore | np.ndarray):
    """Sum of the three criterion scores, in 3..30: of one ReviewerScore,
    or along the last axis of an array of them such as Columns.review."""
    one = isinstance(review, ReviewerScore)
    criteria = [getattr(review, c) for c in _CRITERIA] if one else np.moveaxis(review, -1, 0)
    return sum(criteria)


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


# A record's fields in declaration order, read as attributes for the same
# reason as _criterion_scores.
_RECORD_FIELDS = tuple(f.name for f in fields(PublicationRecord))
_record_values = operator.attrgetter(*_RECORD_FIELDS)


class Entries(NamedTuple):
    """One weight map per record as flat entries: records in order, and
    within a record the map's own order."""

    row: np.ndarray  # entry -> record index, non-decreasing
    label: list[str]
    weight: np.ndarray


def _entries(maps: Sequence[dict[str, float]]) -> Entries:
    return Entries(
        np.repeat(np.arange(len(maps)), [len(m) for m in maps]),
        [label for m in maps for label in m],
        np.array([w for m in maps for w in m.values()], dtype=float),
    )


def _maps(entries: Entries, n: int) -> list[dict[str, float]]:
    """The weight map of each of n records."""
    maps: list[dict[str, float]] = [{} for _ in range(n)]
    for row, label, weight in zip(entries.row.tolist(), entries.label, entries.weight.tolist()):
        maps[row][label] = weight
    return maps


def _int_array(values) -> np.ndarray:
    """Integers as int64, or as Python ints when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Columns:
    """The fields of every record, one list or array each, in record order."""

    pub_id: list[str]
    institution_id: list[str]
    area_id: list[str]
    journal_id: list[str]
    year: np.ndarray
    citations: np.ndarray
    weights: Entries  # category weights
    refs: Entries  # reference category weights; none for a record without
    review: np.ndarray  # (record, review a or b, criterion in _CRITERIA order); 0 where absent
    has_review: np.ndarray  # (record, review a or b)
    ext_citation_percentile: np.ndarray  # NaN where absent
    ext_journal_percentile: np.ndarray  # NaN where absent

    def __len__(self) -> int:
        return len(self.pub_id)

    @staticmethod
    def from_records(records: Sequence[PublicationRecord]) -> Columns:
        pairs = [(r.review_a, r.review_b) for r in records]
        return Columns(
            pub_id=[r.pub_id for r in records],
            institution_id=[r.institution_id for r in records],
            area_id=[r.area_id for r in records],
            journal_id=[r.journal_id for r in records],
            year=_int_array([r.year for r in records]),
            citations=_int_array([r.citations for r in records]),
            weights=_entries([r.category_weights for r in records]),
            refs=_entries([r.ref_category_weights or {} for r in records]),
            review=_int_array(
                [[(s.originality, s.rigour, s.impact) if s else (0, 0, 0) for s in pair] for pair in pairs]
            ).reshape(len(records), 2, 3),
            has_review=np.array([[s is not None for s in pair] for pair in pairs], dtype=bool).reshape(-1, 2),
            ext_citation_percentile=np.array([r.ext_citation_percentile for r in records], dtype=float),
            ext_journal_percentile=np.array([r.ext_journal_percentile for r in records], dtype=float),
        )

    def records(self, rows: Sequence[int] | None = None) -> tuple[PublicationRecord, ...]:
        """The record of each of the given rows, in that order; of every row
        when rows is None."""
        n = len(self)
        year, citations = self.year.tolist(), self.citations.tolist()
        review, has_review = self.review.tolist(), self.has_review.tolist()
        weights, refs = _maps(self.weights, n), _maps(self.refs, n)
        # NaN marks an absent percentile.
        ext_cit, ext_jou = (
            [None if v != v else v for v in column.tolist()]
            for column in (self.ext_citation_percentile, self.ext_journal_percentile)
        )

        def score(i: int, k: int) -> ReviewerScore | None:
            return ReviewerScore(*review[i][k]) if has_review[i][k] else None

        return tuple(
            PublicationRecord(
                pub_id=self.pub_id[i],
                institution_id=self.institution_id[i],
                area_id=self.area_id[i],
                year=year[i],
                citations=citations[i],
                journal_id=self.journal_id[i],
                category_weights=weights[i],
                ref_category_weights=refs[i] or None,
                review_a=score(i, 0),
                review_b=score(i, 1),
                ext_citation_percentile=ext_cit[i],
                ext_journal_percentile=ext_jou[i],
            )
            for i in (range(n) if rows is None else rows)
        )


@dataclass(frozen=True)
class Corpus:
    """Publication records, a census year and optional population counts.

    A loaded corpus holds columns, and ``records`` is a view of them, built
    on first access and cached; a corpus built from records derives its
    ``columns`` the same way. Corpora are equal when their records, census
    years and population counts are.
    """

    records: tuple[PublicationRecord, ...]
    census_year: int
    population_counts: dict[str, int] | None = None

    @classmethod
    def from_columns(
        cls, columns: Columns, census_year: int, population_counts: dict[str, int] | None = None
    ) -> Corpus:
        corpus = cls.__new__(cls)
        for name, value in (("columns", columns), ("census_year", census_year), ("population_counts", population_counts)):
            object.__setattr__(corpus, name, value)
        return corpus

    def __getattr__(self, name: str):
        # Called only for an attribute the instance does not hold yet.
        held = self.__dict__
        if name == "records" and "columns" in held:
            value = held["columns"].records()
        elif name == "columns" and "records" in held:
            value = Columns.from_records(held["records"])
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __len__(self) -> int:
        return len(self.records) if "records" in self.__dict__ else len(self.columns)

    def by_id(self) -> dict[str, PublicationRecord]:
        return {r.pub_id: r for r in self.records}

    def area_ids(self) -> list[str]:
        return sorted(set(self.columns.area_id))


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


def _float_or_none(value) -> float | None:
    """float(value), or None for a missing or blank value."""
    if value is None or str(value).strip() == "":
        return None
    return float(value)


def _opt_float(value, where: str) -> float | None:
    try:
        return _float_or_none(value)
    except ValueError as exc:
        raise CorpusParseError(f"{where}: bad numeric value {value!r}") from exc


class _NonIntegral(ValueError):
    """A JSON value that is not an integral number: a bool or a float with a fraction."""


def _json_int(value) -> int:
    """int(value) for a JSON value taken as an integral number."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise _NonIntegral(value)
    return int(value)


def validate_record(rec: PublicationRecord, census_year: int) -> None:
    """Raise CorpusValidationError naming the record on any invariant violation."""
    tag = f"record {rec.pub_id!r}"
    if rec.citations < 0:
        raise CorpusValidationError(f"{tag}: negative citations {rec.citations}")
    if rec.citations > MAX_CITATIONS:
        raise CorpusValidationError(f"{tag}: citations {rec.citations} above 2**53")
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
        try:
            return _json_int(value)
        except _NonIntegral:
            raise CorpusParseError(f"{where}: non-integral {name} {value!r}") from None

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
    # AttributeError: a weight map that is not an object; OverflowError: a
    # weight or percentile too large for a float.
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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


def save_population_counts(counts: dict[str, int], path: str | Path) -> None:
    """Write population counts as the sidecar load_population_counts reads,
    one row per institution in sorted order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["institution_id", "count"])
        writer.writerows(sorted(counts.items()))


# A JSON Lines field that a line leaves out.
_ABSENT = object()

_JSON_FIELDS = (
    *_ID_COLUMNS,
    "year",
    "citations",
    "category_weights",
    "ref_category_weights",
    "review_a",
    "review_b",
    "ext_citation_percentile",
    "ext_journal_percentile",
)

_CHUNK_ROWS = 4096  # rows held at once while a table is read into columns


class _Read(NamedTuple):
    """A corpus file read into raw columns."""

    n_rows: int  # rows read
    stop: Exception | None  # the fault of the row reading stopped at, which no column holds
    convert: Callable[[], dict]  # field -> converted column; raises when a row is faulty
    parse_row: Callable[[int], PublicationRecord]  # the row-by-row parse of a row read


def _assigned(rows: list[int], labels: list[str], weights: list[float]) -> tuple[list, list, list]:
    """Entries as successive dict assignments leave them: a label repeated
    within a record keeps its first place and its last weight."""
    merged = dict(zip(zip(rows, labels), weights))
    return [r for r, _ in merged], [label for _, label in merged], list(merged.values())


def _table_weights(texts: list[str]) -> Entries:
    """A weight-map column as _parse_weights reads each cell."""
    # Split the joined column once: the parts of every cell, in order.
    n_parts = np.fromiter(map(str.count, texts, repeat(";")), dtype=np.intp, count=len(texts)) + 1
    row = np.repeat(np.arange(len(texts)), n_parts)
    parts = list(map(str.strip, ";".join(texts).split(";"))) if texts else []
    if "" in parts:  # blank parts are skipped
        kept = list(map(bool, parts))
        row, parts = row[kept], list(compress(parts, kept))
    split = list(map(str.rpartition, parts, repeat(":")))
    labels = list(map(operator.itemgetter(0), split))
    if "" in map(operator.itemgetter(1), split):
        raise ValueError("a weight entry without ':'")
    weights = list(map(float, map(operator.itemgetter(2), split)))
    if _repeats_label(row, labels):
        rows, labels, weights = _assigned(row.tolist(), labels, weights)
        row = np.array(rows, dtype=np.intp)
    return Entries(row, labels, np.array(weights, dtype=float))


def _repeats_label(row: np.ndarray, labels: list[str]) -> bool:
    """Whether a record holds a label on two entries."""
    if not (row[1:] == row[:-1]).any():
        return False
    code = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    key = np.sort(row * len(code) + np.fromiter(map(code.__getitem__, labels), dtype=np.intp, count=len(labels)))
    return bool((key[1:] == key[:-1]).any())


def _table_review(cells: list[list[str]]) -> tuple[list[list[int]], np.ndarray]:
    """One review's three criterion columns as _parse_score reads them:
    three blank cells for no review, three integers otherwise."""
    cells = [list(map(str.strip, column)) for column in cells]
    filled = np.array([list(map(bool, column)) for column in cells], dtype=bool)
    present = filled.any(axis=0)
    if (present & ~filled.all(axis=0)).any():
        raise ValueError("an incomplete reviewer score")
    if not present.all():
        cells = [[v or "0" for v in column] for column in cells]
    return [list(map(int, column)) for column in cells], present


def _table_percentiles(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """A percentile column as _opt_float reads each cell: the values, NaN
    where blank, and which cells are not blank."""
    present = np.array(list(map(bool, map(str.strip, texts))), dtype=bool)
    pct = np.full(len(texts), np.nan)
    pct[present] = list(map(float, compress(texts, present)))
    return pct, present


def _table_values(cells: dict[str, list[str]]) -> dict:
    """Every column converted as _record_from_row reads a row."""
    values = {}
    for name in _ID_COLUMNS:
        values[name] = list(map(str.strip, cells[name]))
        if "" in values[name]:
            raise ValueError(f"a blank {name}")
    for name in ("year", "citations"):
        values[name] = list(map(int, map(str.strip, cells[name])))
    for name in ("category_weights", "ref_category_weights"):
        values[name] = _table_weights(cells[name])
    for prefix, name in (("rev_a", "review_a"), ("rev_b", "review_b")):
        values[name] = _table_review([cells[column] for column in _SCORE_COLUMNS[prefix]])
    for name in ("ext_citation_percentile", "ext_journal_percentile"):
        values[name] = _table_percentiles(cells[name])
    return values


def _read_table(path: Path, delimiter: str) -> _Read:
    """Read a CSV or TSV file into columns, a chunk of rows at a time,
    until a row with the wrong number of fields."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None) or []
        missing = set(CSV_COLUMNS) - set(header)
        if missing:
            raise CorpusParseError(f"{path.name}: missing columns {sorted(missing)}")
        # A name on the header twice reads its last column, as in csv.DictReader.
        position = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(*(position[name] for name in CSV_COLUMNS))
        cells: dict[str, list[str]] = {name: [] for name in CSV_COLUMNS}
        # Each row becomes a tuple of its cells as it is read, and a chunk
        # is moved into the columns one column at a time. So no container
        # the collector tracks outlives a step: surviving ones would set off
        # full garbage collections, each walking the growing columns.
        chunk: list[tuple[str, ...]] = []
        stop = None

        def flush() -> None:
            for j, column in enumerate(cells.values()):
                column.extend(map(operator.itemgetter(j), chunk))
            chunk.clear()

        try:
            for row in reader:
                if not row:  # csv.DictReader skips blank rows, and does not number them
                    continue
                if len(row) != len(header):
                    more = "more" if len(row) > len(header) else "fewer"
                    n_rows = len(cells["pub_id"]) + len(chunk)
                    stop = CorpusParseError(f"{path.name} row {n_rows + 2}: {more} fields than the header")
                    break
                chunk.append(pick(row))
                if len(chunk) == _CHUNK_ROWS:
                    flush()
        except (csv.Error, UnicodeDecodeError) as exc:
            stop = exc
        flush()

    def parse_row(r: int) -> PublicationRecord:
        return _record_from_row({name: column[r] for name, column in cells.items()}, f"{path.name} row {r + 2}")

    return _Read(len(cells["pub_id"]), stop, lambda: _table_values(cells), parse_row)


def _json_float(value) -> float | None:
    return None if value is _ABSENT else _float_or_none(value)


def _json_weights(maps: list, optional: bool) -> Entries:
    """A weight-map column as _record_from_json reads each value; an
    optional map may be absent or empty."""
    rows: list[int] = []
    labels: list[str] = []
    values: list = []
    for r, m in enumerate(maps):
        if optional and (m is _ABSENT or not m):
            continue
        if not isinstance(m, dict):
            raise TypeError(f"a weight map that is not an object: {m!r}")
        rows.extend([r] * len(m))
        labels.extend(m)
        values.extend(m.values())
    return Entries(np.array(rows, dtype=np.intp), labels, np.array(list(map(float, values)), dtype=float))


def _json_review(subs: list) -> tuple[list[list[int]], list[bool]]:
    """One review column as _record_from_json reads it: null or absent for
    no review, an object of three integral criterion scores otherwise."""
    present = [sub is not None and sub is not _ABSENT for sub in subs]
    scores: tuple[list[int], ...] = ([], [], [])
    for sub, p in zip(subs, present):
        for column, c in zip(scores, _CRITERIA):
            column.append(_json_int(sub[c]) if p else 0)
    return list(scores), present


def _json_values(fields: dict[str, list]) -> dict:
    """Every column converted as _record_from_json reads an object."""
    values = {}
    for name in _ID_COLUMNS:
        values[name] = fields[name]
        if not all(isinstance(v, str) and v for v in values[name]):
            raise ValueError(f"a {name} that is not a non-empty string")
    for name in ("year", "citations"):
        values[name] = list(map(_json_int, fields[name]))
    values["category_weights"] = _json_weights(fields["category_weights"], optional=False)
    values["ref_category_weights"] = _json_weights(fields["ref_category_weights"], optional=True)
    for name in ("review_a", "review_b"):
        values[name] = _json_review(fields[name])
    for name in ("ext_citation_percentile", "ext_journal_percentile"):
        pct = list(map(_json_float, fields[name]))
        # The values, NaN where absent, and which are present.
        values[name] = (np.array(pct, dtype=float), np.array([v is not None for v in pct], dtype=bool))
    return values


def _read_jsonl(path: Path) -> _Read:
    """Read a JSON Lines file into columns, until a line that is not a JSON object."""
    fields: dict[str, list] = {name: [] for name in _JSON_FIELDS}
    linenos: list[int] = []
    stop = None
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path.name} line {lineno}"
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusParseError(f"{where}: invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    _record_from_json(obj, where)  # raises: a value that is not an object has no fields
                linenos.append(lineno)
                for name, column in fields.items():
                    column.append(obj.get(name, _ABSENT))
        except (CorpusParseError, UnicodeDecodeError) as exc:
            stop = exc

    def parse_row(r: int) -> PublicationRecord:
        obj = {name: column[r] for name, column in fields.items() if column[r] is not _ABSENT}
        return _record_from_json(obj, f"{path.name} line {linenos[r]}")

    return _Read(len(linenos), stop, lambda: _json_values(fields), parse_row)


def _columns(values: dict) -> tuple[Columns, np.ndarray]:
    """The columns of converted values, and which rows have an external
    percentile outside [0, 100]."""
    n = len(values["pub_id"])
    (a, a_present), (b, b_present) = values["review_a"], values["review_b"]
    ext = {}
    ext_bad = np.zeros(n, dtype=bool)
    for name in ("ext_citation_percentile", "ext_journal_percentile"):
        pct, present = values[name]
        ext_bad |= present & ~((pct >= 0.0) & (pct <= 100.0))
        ext[name] = pct
    columns = Columns(
        pub_id=values["pub_id"],
        institution_id=values["institution_id"],
        area_id=values["area_id"],
        journal_id=values["journal_id"],
        year=_int_array(values["year"]),
        citations=_int_array(values["citations"]),
        weights=values["category_weights"],
        refs=values["ref_category_weights"],
        review=np.ascontiguousarray(_int_array(a + b).T).reshape(n, 2, 3),
        has_review=np.column_stack([a_present, b_present]).astype(bool),
        **ext,
    )
    return columns, ext_bad


def _suspects(columns: Columns, census_year: int) -> np.ndarray:
    """Rows that may break an invariant of validate_record: every row that
    breaks one, and possibly a few that do not."""
    n = len(columns)
    w, refs = columns.weights, columns.refs
    total = np.bincount(w.row, weights=w.weight, minlength=n)
    outside = np.bincount(w.row, weights=~((w.weight > 0.0) & (w.weight <= 1.0)), minlength=n) > 0
    ref_mass = np.bincount(refs.row, weights=np.abs(refs.weight), minlength=n)
    scores_outside = columns.has_review & ~((columns.review >= 1) & (columns.review <= 10)).all(axis=2)
    return (
        (columns.citations < 0)
        | (columns.citations > MAX_CITATIONS)
        | (np.bincount(w.row, minlength=n) == 0)
        # validate_record sums the weights with sum(), which compensates
        # rounding from Python 3.12 on; a total within half the tolerance
        # here is within the tolerance there.
        | ~(np.abs(total - 1.0) <= WEIGHT_TOL / 2)
        | outside
        | (columns.year > census_year)
        # Likewise a sum of absolute reference weights below 1e308 is finite both ways.
        | ~(ref_mass < 1e308)
        | scores_outside.any(axis=1)
    )


def _first_repeat(ids: list[str]) -> int | None:
    """The first row whose id an earlier row has."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for i, x in enumerate(ids):
        if x in seen:
            return i
        seen.add(x)
    return None


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL) into columns.

    Each column is converted once and screened as a whole. The earliest
    faulty row is named: parse faults come first, in row order, then
    validation faults, in row order with the duplicate-id check ahead of
    validate_record within a row. When reading stops early or a conversion
    fails, the rows read are parsed one by one to find the parse fault; a
    conversion that fails although every row parses raises AssertionError.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusParseError(f"corpus file not found: {path}")
    fmt = _detect_format(path)
    read = _read_jsonl(path) if fmt == "jsonl" else _read_table(path, "\t" if fmt == "tsv" else ",")
    fault = read.stop
    if fault is None:
        try:
            values = read.convert()
        except Exception as exc:  # noqa: BLE001 - the row parse words it, or it is a converter bug
            fault = exc
    if fault is not None:
        # The row parse finds and words the fault: the first row that does
        # not parse, else the row reading stopped at.
        for r in range(read.n_rows):
            read.parse_row(r)
        if read.stop is not None:
            raise read.stop
        raise AssertionError("a column conversion failed but every row parses") from fault
    if not values["pub_id"]:
        raise CorpusParseError(f"{path.name}: no records")
    census_year = options.census_year
    if census_year is None:
        census_year = max(values["year"])
    columns, ext_bad = _columns(values)
    repeated = _first_repeat(columns.pub_id)
    for r in np.flatnonzero(_suspects(columns, census_year) | ext_bad).tolist():
        if repeated is not None and repeated <= r:
            break
        validate_record(read.parse_row(r), census_year)
    if repeated is not None:
        raise CorpusValidationError(f"duplicate pub_id {columns.pub_id[repeated]!r}")
    del read, values

    population = None
    if options.population_path:
        population = load_population_counts(options.population_path)
        # A population is never smaller than its sample.
        for inst, n in Counter(columns.institution_id).items():
            if inst in population and population[inst] < n:
                raise CorpusValidationError(
                    f"{options.population_path}: institution {inst!r} has population count "
                    f"{population[inst]} below its {n} records in the corpus"
                )
    return Corpus.from_columns(columns, census_year, population)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus back out in the canonical column layout."""
    path = Path(path)
    fmt = _detect_format(path)
    no_review = ("", "", "")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "jsonl":
            for rec in corpus.records:
                refs = rec.ref_category_weights
                obj = {
                    **dict(zip(_RECORD_FIELDS, _record_values(rec))),
                    "category_weights": dict(sorted(rec.category_weights.items())),
                    "ref_category_weights": dict(sorted(refs.items())) if refs else None,
                    "review_a": dict(zip(_CRITERIA, _criterion_scores(rec.review_a))) if rec.review_a else None,
                    "review_b": dict(zip(_CRITERIA, _criterion_scores(rec.review_b))) if rec.review_b else None,
                }
                fh.write(json.dumps(obj) + "\n")
            return
        writer = csv.writer(fh, delimiter="\t" if fmt == "tsv" else ",")
        writer.writerow(CSV_COLUMNS)
        for rec in corpus.records:
            cit, jou = rec.ext_citation_percentile, rec.ext_journal_percentile
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
                    *(_criterion_scores(rec.review_a) if rec.review_a else no_review),
                    *(_criterion_scores(rec.review_b) if rec.review_b else no_review),
                    "" if cit is None else repr(cit),
                    "" if jou is None else repr(jou),
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
    columns = corpus.columns
    missing = ~columns.has_review.all(axis=1)
    if missing.any():
        raise CorpusValidationError(f"record {columns.pub_id[int(missing.argmax())]!r}: missing reviewer score")
    swap = np.fromiter((_swap_coin(seed, p) for p in columns.pub_id), dtype=bool, count=len(columns))
    review = np.where(swap[:, None, None], columns.review[:, ::-1], columns.review)
    return Corpus.from_columns(replace(columns, review=review), corpus.census_year, corpus.population_counts)
