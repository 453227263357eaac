"""Publication data model, columnar corpus I/O and reviewer role assignment.

A corpus is held as columns (``Columns``): one list or array per field of
a record, and the category and reference weight maps as flat entry arrays.
Institution, area and journal ids and the weight labels are integer codes
in the sorted order of what they code. A run reads, screens and transforms
these columns and never builds a ``PublicationRecord``; ``Corpus.records``
is a view, built on first access.

``load_corpus`` reads a file a chunk of rows at a time: each chunk's raw
cells are converted column by column and screened with numpy as soon as
the chunk is read, and then dropped. The row-by-row functions
``_record_from_row``, ``_record_from_json`` and ``validate_record`` define
a valid row and word every error. A column converter converts a chunk's
whole column or raises, and names no row: a chunk that does not convert is
parsed row by row, in file order, up to its first faulty row, and only the
rows the screen flags keep their row parse, to be validated one by one
once the whole file is read. So the message, the row it names and the
fault that wins are theirs. One scan of the pub_ids then finds the first
that repeats an earlier row's; each row's number in the file is kept
once, in one array for the whole file, to name that row and the earlier
one after the chunks are gone. Each chunk's ids
and labels are coded through one dict per column that lasts the whole
load, a string not seen before taking the next free code, and the codes
are put in sorted order once, when the chunks are joined.
``Columns.from_records`` builds the columns of a chunk from records and
codes and joins them the same way, so ``_joined`` alone builds a
``Columns``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
from array import array
from collections.abc import Callable, Iterator, Sequence
from contextlib import closing
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

WEIGHT_TOL = 1e-9
# The catch-all category whose weight a run spreads over a record's
# reference profile.
MULTIDISCIPLINARY_LABEL = "MULTI"
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
# The id columns that Columns holds as codes over their sorted distinct ids.
_CODED_IDS = ("institution_id", "area_id", "journal_id")
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
    # entry -> label code, an index into Columns.labels; the label strings
    # themselves in the entries _entries builds, until they are coded
    label: np.ndarray
    weight: np.ndarray


def _entries(maps: Sequence[dict], weight: Callable[..., float] = float) -> Entries:
    """The entries of one weight map per record, each weight read with
    weight(), and their label strings."""
    return Entries(
        np.repeat(np.arange(len(maps)), list(map(len, maps))),
        list(chain.from_iterable(maps)),
        np.array(list(map(weight, chain.from_iterable(map(dict.values, maps)))), dtype=float),
    )


def _maps(entries: Entries, labels: Sequence[str], n: int) -> list[dict[str, float]]:
    """The weight map of each of n records."""
    maps: list[dict[str, float]] = [{} for _ in range(n)]
    for row, code, weight in zip(entries.row.tolist(), entries.label.tolist(), entries.weight.tolist()):
        maps[row][labels[code]] = weight
    return maps


def _int_array(values) -> np.ndarray:
    """Integers as int64, or as Python ints when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class Columns:
    """The fields of every record, one list or array each, in record order.

    Institution, area and journal ids are codes over their sorted distinct
    ids, and the labels of both weight maps codes over one sorted list of
    labels, which may hold a label that no entry has once a map changes.
    Codes are dense integers in Python's string order, so code order is id
    order.
    """

    pub_id: list[str]
    institution_id: np.ndarray  # row -> institution code, an index into institution_ids
    area_id: np.ndarray  # row -> area code, an index into area_ids
    journal_id: np.ndarray  # row -> journal code, an index into journal_ids
    institution_ids: list[str]
    area_ids: list[str]
    journal_ids: list[str]
    labels: list[str]  # the label of each label code of weights and refs
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
        values = {
            "pub_id": [r.pub_id for r in records],
            **{name: [getattr(r, name) for r in records] for name in _CODED_IDS},
            "year": _int_array([r.year for r in records]),
            "citations": _int_array([r.citations for r in records]),
            "weights": _entries([r.category_weights for r in records]),
            "refs": _entries([r.ref_category_weights or {} for r in records]),
            "review": _int_array(
                [[(s.originality, s.rigour, s.impact) if s else (0, 0, 0) for s in pair] for pair in pairs]
            ).reshape(len(records), 2, 3),
            "has_review": np.array([[s is not None for s in pair] for pair in pairs], dtype=bool).reshape(-1, 2),
            "ext_citation_percentile": np.array([r.ext_citation_percentile for r in records], dtype=float),
            "ext_journal_percentile": np.array([r.ext_journal_percentile for r in records], dtype=float),
        }
        seen: dict[str, dict[str, int]] = {name: {} for name in (*_CODED_IDS, "labels")}
        return _joined([_coded(values, seen)], seen)

    def records(self, rows: Sequence[int] | None = None) -> tuple[PublicationRecord, ...]:
        """The record of each of the given rows, in that order; of every row
        when rows is None."""
        n = len(self)
        institution, area, journal = (
            list(map(getattr(self, name + "s").__getitem__, getattr(self, name).tolist())) for name in _CODED_IDS
        )
        year, citations = self.year.tolist(), self.citations.tolist()
        review, has_review = self.review.tolist(), self.has_review.tolist()
        weights, refs = _maps(self.weights, self.labels, n), _maps(self.refs, self.labels, n)
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
                institution_id=institution[i],
                area_id=area[i],
                year=year[i],
                citations=citations[i],
                journal_id=journal[i],
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
        return list(self.columns.area_ids)


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
    """float(value), or None for a missing or blank cell."""
    if value is None or str(value).strip() == "":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise CorpusParseError(f"{where}: bad numeric value {value!r}") from exc


class _NotNumber(ValueError):
    """A JSON string or bool where a number belongs."""


class _NonIntegral(ValueError):
    """A JSON value that is not an integral number: a bool or a float with a fraction."""


def _json_int(value) -> int:
    """int(value) for a JSON value taken as an integral number."""
    if isinstance(value, str):
        raise _NotNumber(value)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise _NonIntegral(value)
    return int(value)


def _json_float(value) -> float:
    """float(value) for a JSON value taken as a number."""
    if isinstance(value, (str, bool)):
        raise _NotNumber(value)
    return float(value)


def _json_percentile(value) -> float | None:
    """_json_float(value), or None for a null or absent percentile."""
    return None if value is None or value is _ABSENT else _json_float(value)


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
    def number(value, name, convert=_json_int):
        try:
            return convert(value)
        except _NotNumber:
            raise CorpusParseError(f"{where}: {name} must be a number, got {value!r}") from None
        except _NonIntegral:
            raise CorpusParseError(f"{where}: non-integral {name} {value!r}") from None

    def weights(key):
        return {str(k): number(v, f"{key}.{k}", _json_float) for k, v in obj[key].items()}

    def score(key):
        sub = obj.get(key)
        if sub is None:
            return None
        try:
            return ReviewerScore(*(number(sub[c], f"{key}.{c}") for c in _CRITERIA))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusParseError(f"{where}: bad {key} object") from exc

    try:
        ids = [obj[k] for k in _ID_COLUMNS]
        if not all(isinstance(v, str) and v for v in ids):
            raise _bad_id(ids, where)
        pub_id, institution_id, area_id, journal_id = ids
        category_weights = weights("category_weights")
        refs = weights("ref_category_weights") if obj.get("ref_category_weights") else None
        return PublicationRecord(
            pub_id=pub_id,
            institution_id=institution_id,
            area_id=area_id,
            year=number(obj["year"], "year"),
            citations=number(obj["citations"], "citations"),
            journal_id=journal_id,
            category_weights=category_weights,
            ref_category_weights=refs,
            review_a=score("review_a"),
            review_b=score("review_b"),
            **{name: number(obj.get(name), name, _json_percentile) for name in _EXT_COLUMNS},
        )
    # AttributeError: a weight map that is not an object; OverflowError: a
    # weight or percentile too large for a float.
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CorpusParseError(f"{where}: {exc}") from exc


def _not_utf8(path: str | Path, name: str) -> CorpusParseError:
    """The parse fault of a file that is not UTF-8, naming its first line
    that is not. The file is read again, as bytes, to find it: a text
    reader decodes a block of lines ahead of the line it returns."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return CorpusParseError(f"{name} line {number}: not UTF-8: byte {line[exc.start]:#04x} at offset {exc.start}")
    return CorpusParseError(f"{name}: not UTF-8")


def _open_text(path: str | Path, what: str) -> TextIO:
    """The file at path opened as UTF-8 text without a byte-order mark; a
    path that cannot be opened is a parse fault naming it."""
    try:
        return open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CorpusParseError(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc


def load_population_counts(path: str | Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    with _open_text(path, "population counts") as fh:
        reader = csv.DictReader(fh)
        i = 1  # the row being read: the header, then each nonblank row
        try:
            reader.fieldnames  # reads the header row
            i = 2
            for row in reader:
                try:
                    inst, count = str(row["institution_id"]).strip(), int(str(row["count"]).strip())
                except (KeyError, ValueError) as exc:
                    raise CorpusParseError(f"{path} row {i}: bad population count") from exc
                if count < 0:
                    raise CorpusParseError(f"{path} row {i}: negative population count {count}")
                if inst in counts:
                    raise CorpusParseError(f"{path} row {i}: duplicate institution {inst!r}")
                counts[inst] = count
                i += 1
        except UnicodeDecodeError:
            raise _not_utf8(path, str(path)) from None
        except csv.Error as exc:
            raise CorpusParseError(f"{path} row {i}: {exc}") from None
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

_REVIEW_AT = (_JSON_FIELDS.index("review_a"), _JSON_FIELDS.index("review_b"))
_CHUNK_ROWS = 256  # rows read and converted at a time
_EXT_COLUMNS = ("ext_citation_percentile", "ext_journal_percentile")


def _each_distinct(convert: Callable, texts: Sequence[str]) -> list:
    """convert(text) of each text, called once per distinct text."""
    converted = {text: convert(text) for text in dict.fromkeys(texts)}
    return list(map(converted.__getitem__, texts))


def _int_text(text: str) -> int:
    return int(text.strip())


def _table_weights(texts: Sequence[str]) -> Entries:
    """A weight-map column as _parse_weights reads each cell."""
    return _entries(_each_distinct(lambda text: _parse_weights(text, ""), texts))


def _reviews(scores: list, present: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The review and has_review columns of n rows. scores holds 6 runs of
    n values: review a's originality, rigour and impact, then review b's;
    present is (2, n), review a's row then review b's."""
    n = present.shape[1]
    return np.ascontiguousarray(_int_array(scores).reshape(6, n).T).reshape(n, 2, 3), np.ascontiguousarray(present.T)


def _table_reviews(columns: list[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The six criterion columns, review a's then review b's, as
    _parse_score reads them: three blank cells for no review, three
    integers otherwise."""
    cells = list(chain.from_iterable(columns))
    scores = _each_distinct(lambda text: _int_text(text) if text.strip() else None, cells)
    if None not in scores:
        return _reviews(scores, np.ones((2, len(columns[0])), dtype=bool))
    filled = np.array([score is not None for score in scores], dtype=bool).reshape(2, 3, -1)
    present = filled.any(axis=1)
    if (present != filled.all(axis=1)).any():
        raise ValueError("an incomplete reviewer score")
    return _reviews([0 if score is None else score for score in scores], present)


def _table_percentiles(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """A percentile column as _opt_float reads each cell: the values, NaN
    where blank, and which cells are not blank."""
    present = np.fromiter(map(bool, map(str.strip, texts)), dtype=bool, count=len(texts))
    pct = np.full(len(texts), np.nan)
    if present.any():
        pct[present] = list(map(float, compress(texts, present)))
    return pct, present


def _table_values(cells: dict[str, Sequence[str]]) -> dict:
    """Every column converted as _record_from_row reads a row."""
    values = {}
    for name in _ID_COLUMNS:
        values[name] = list(map(str.strip, cells[name]))
        if "" in values[name]:
            raise ValueError(f"a blank {name}")
    for name in ("year", "citations"):
        values[name] = _int_array(_each_distinct(_int_text, cells[name]))
    values["weights"] = _table_weights(cells["category_weights"])
    values["refs"] = _table_weights(cells["ref_category_weights"])
    values["review"], values["has_review"] = _table_reviews(
        [cells[column] for prefix in ("rev_a", "rev_b") for column in _SCORE_COLUMNS[prefix]]
    )
    for name in _EXT_COLUMNS:
        values[name] = _table_percentiles(cells[name])
    return values


def _table_rows(fh: TextIO, file_name: str, delimiter: str) -> Iterator:
    """The header of a CSV or TSV file, then each nonblank row as (row
    number, cells), until a row with the wrong number of fields or one the
    csv module cannot read, such as a cell past csv.field_size_limit()."""
    reader = csv.reader(fh, delimiter=delimiter)
    number = 1  # of the row being read: the header, then each nonblank row
    try:
        header = next(reader, None) or []
        missing = set(CSV_COLUMNS) - set(header)
        if missing:
            raise CorpusParseError(f"{file_name}: missing columns {sorted(missing)}")
        yield header
        number = 2
        # csv.DictReader skips blank rows, and does not number them.
        for row in filter(None, reader):
            if len(row) != len(header):
                more = "more" if len(row) > len(header) else "fewer"
                raise CorpusParseError(f"{file_name} row {number}: {more} fields than the header")
            yield number, row
            number += 1
    except csv.Error as exc:
        raise CorpusParseError(f"{file_name} row {number}: {exc}") from None


def _json_weights(maps: Sequence, optional: bool) -> Entries:
    """A weight-map column as _record_from_json reads each value; an
    optional map may be absent or empty."""
    if optional:
        maps = [m if m is not _ABSENT and m else {} for m in maps]
    if not all(isinstance(m, dict) for m in maps):
        raise TypeError("a weight map that is not an object")
    return _entries(maps, _json_float)


def _json_reviews(columns: list[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """The review_a and review_b columns as _record_from_json reads them:
    null or absent for no review, an object of three integral criterion
    scores otherwise, which _json_rows made the tuple of its scores,
    _ABSENT for a missing one."""
    present = [[sub is not None and sub is not _ABSENT for sub in subs] for subs in columns]
    if not all(type(sub) is tuple for subs, has in zip(columns, present) for sub in compress(subs, has)):
        raise TypeError("a review that is not an object")
    scores = [_json_int(sub[k]) if p else 0 for subs, has in zip(columns, present) for k in range(3) for sub, p in zip(subs, has)]
    return _reviews(scores, np.array(present, dtype=bool))


def _json_values(fields: dict[str, Sequence]) -> dict:
    """Every column converted as _record_from_json reads an object."""
    values = {}
    for name in _ID_COLUMNS:
        values[name] = list(fields[name])
        if not all(isinstance(v, str) and v for v in values[name]):
            raise ValueError(f"a {name} that is not a non-empty string")
    for name in ("year", "citations"):
        values[name] = _int_array(list(map(_json_int, fields[name])))
    values["weights"] = _json_weights(fields["category_weights"], optional=False)
    values["refs"] = _json_weights(fields["ref_category_weights"], optional=True)
    values["review"], values["has_review"] = _json_reviews([fields["review_a"], fields["review_b"]])
    for name in _EXT_COLUMNS:
        pct = list(map(_json_percentile, fields[name]))
        # The values, NaN where absent, and which are present.
        values[name] = (np.array(pct, dtype=float), np.array([v is not None for v in pct], dtype=bool))
    return values


def _json_rows(fh: TextIO, file_name: str) -> Iterator:
    """_JSON_FIELDS, and then each line of a JSON Lines file that is not
    blank as (line number, its values of those fields), until a line that
    is not a JSON object. A field the line leaves out is _ABSENT, and a
    review object the tuple of its criterion scores (a JSON value is never
    a tuple), so that no key outlives its line."""
    yield _JSON_FIELDS
    for number, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            # A RecursionError is a line nested deeper than the parser goes.
            raise CorpusParseError(f"{file_name} line {number}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            # Raises: a value that is not an object has no fields.
            _record_from_json(obj, f"{file_name} line {number}")
        row = list(map(obj.get, _JSON_FIELDS, repeat(_ABSENT)))
        for k in _REVIEW_AT:
            if type(row[k]) is dict:
                # Built from a list: a tuple built from map() starts at a
                # guessed size and is shrunk, and the free list then keeps
                # such tuples after they are freed.
                row[k] = tuple(list(map(row[k].get, _CRITERIA, repeat(_ABSENT))))
        yield number, row


def _json_record(row: dict, where: str) -> PublicationRecord:
    """_record_from_json of a line's fields as _json_rows reads them."""
    obj = {name: value for name, value in row.items() if value is not _ABSENT}
    for key in ("review_a", "review_b"):
        if type(obj.get(key)) is tuple:
            obj[key] = {c: v for c, v in zip(_CRITERIA, obj[key]) if v is not _ABSENT}
    return _record_from_json(obj, where)


def _row_name(path: Path, number: int) -> str:
    """The row of the given number in a corpus file as messages name it,
    such as "c.csv row 3" or "c.jsonl line 2"."""
    return f"{path.name} {'line' if _detect_format(path) == 'jsonl' else 'row'} {number}"


def _chunks(path: Path, numbers: array) -> Iterator[tuple[dict, Callable[[int], PublicationRecord]]]:
    """Read a corpus file a chunk of rows at a time, until a row that cannot
    be read, appending each row's number in the file to numbers, which
    holds the numbers of the rows of every chunk before. Each chunk is
    yielded as its converted columns, by Columns field, a percentile column
    as (values, which are present), and the row-by-row parse of its i-th
    row.

    When a chunk does not convert, or reading stopped at the row right
    after it, its rows are parsed one by one instead: the first that does
    not parse raises, else the fault reading stopped at; a conversion that
    fails although every row parses raises AssertionError. The file's
    format gives a row reader, which yields the names of a row's fields and
    then each row as (number, fields), a converter and a row parse, all
    looked up at each call."""
    fmt = _detect_format(path)
    if fmt == "jsonl":
        read, convert, parse = _json_rows, _json_values, _json_record
    else:
        read = partial(_table_rows, delimiter="\t" if fmt == "tsv" else ",")
        convert, parse = _table_values, _record_from_row
    with _open_text(path, "corpus") as fh:
        rows = read(fh, path.name)
        names: Sequence[str] = ()
        while True:
            chunk, start, stop = [], len(numbers), None
            try:
                names = names or next(rows)
                for number, row in islice(rows, _CHUNK_ROWS):
                    numbers.append(number)
                    chunk.append(row)
            except CorpusParseError as exc:
                stop = exc
            except UnicodeDecodeError:
                stop = _not_utf8(path, path.name)
            n_rows = len(numbers) - start
            if not n_rows and stop is None:
                return
            # Only the cells stay, column by column.
            cells = dict(zip(names, zip(*chunk)))
            del chunk

            def parse_row(i: int) -> PublicationRecord:
                return parse({name: column[i] for name, column in cells.items()}, _row_name(path, numbers[start + i]))

            try:
                if stop is not None:
                    raise stop
                values = convert(cells)
            except Exception as exc:  # noqa: BLE001 - the row parse words it, or it is a converter bug
                for i in range(n_rows):
                    parse_row(i)
                if exc is stop:
                    raise
                raise AssertionError("a column conversion failed but every row parses") from exc
            yield values, parse_row
            del cells  # handed on: the next chunk is read without them
            if n_rows < _CHUNK_ROWS:
                return


def _sorted_codes(seen: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The sorted strings of seen, a dict of strings to codes, and the
    sorted code of each of its codes."""
    names = sorted(seen)
    sorted_code = np.empty(len(names), dtype=np.intp)
    sorted_code[list(map(seen.__getitem__, names))] = np.arange(len(names))
    return names, sorted_code


def _joined(pieces: list[dict], seen: dict[str, dict[str, int]]) -> Columns:
    """The converted columns of successive chunks as one: each chunk's
    entries move past the rows of the chunks before it, and the codes of
    _coded become codes in sorted order. A column leaves the pieces as
    it is joined, so only one column is held twice at a time."""
    starts = np.cumsum([0] + [len(piece["pub_id"]) for piece in pieces[:-1]])

    def join(parts: list):
        if len(parts) == 1:
            return parts[0]
        if isinstance(parts[0], list):
            return list(chain.from_iterable(parts))
        if isinstance(parts[0], Entries):
            return Entries(
                np.concatenate([e.row + start for e, start in zip(parts, starts)]),
                np.concatenate([e.label for e in parts]),
                np.concatenate([e.weight for e in parts]),
            )
        return np.concatenate(parts)

    joined = {name: join([piece.pop(name) for piece in pieces]) for name in list(pieces[0])}
    for name in _CODED_IDS:
        joined[name + "s"], sorted_code = _sorted_codes(seen[name])
        joined[name] = sorted_code[joined[name]]
    joined["labels"], sorted_code = _sorted_codes(seen["labels"])
    for name in ("weights", "refs"):
        joined[name] = joined[name]._replace(label=sorted_code[joined[name].label])
    return Columns(**joined)


def _suspects(values: dict, census_year: int | None) -> np.ndarray:
    """Rows that may break an invariant of validate_record: every row that
    breaks one, and possibly a few that do not. No row is after a census
    year of None, which stands for the latest year of the corpus. values
    holds the rows' columns by Columns field, a percentile column as
    (values, which are present)."""
    w, refs, review, has_review = (values[name] for name in ("weights", "refs", "review", "has_review"))
    citations, year = values["citations"], values["year"]
    pct, pct_present = (np.array(column) for column in zip(*(values[name] for name in _EXT_COLUMNS)))
    n = len(year)
    total = np.bincount(w.row, weights=w.weight, minlength=n)
    outside = np.bincount(w.row, weights=~((w.weight > 0.0) & (w.weight <= 1.0)), minlength=n) > 0
    ref_mass = np.bincount(refs.row, weights=np.abs(refs.weight), minlength=n)
    scores_outside = has_review & ~((review >= 1) & (review <= 10)).all(axis=2)
    return (
        (citations < 0)
        | (citations > MAX_CITATIONS)
        | (np.bincount(w.row, minlength=n) == 0)
        # validate_record sums the weights with sum(), which compensates
        # rounding from Python 3.12 on; a total within half the tolerance
        # here is within the tolerance there.
        | ~(np.abs(total - 1.0) <= WEIGHT_TOL / 2)
        | outside
        | (census_year is not None and year > census_year)
        # Likewise a sum of absolute reference weights below 1e308 is finite both ways.
        | ~(ref_mass < 1e308)
        | scores_outside.any(axis=1)
        # A present percentile outside [0, 100] or NaN.
        | (pct_present & ~((pct >= 0.0) & (pct <= 100.0))).any(axis=0)
    )


def _first_clash(ids: list[str]) -> tuple[int, int] | None:
    """The first row whose id repeats an earlier row's, as (row, the
    earlier row)."""
    if len(set(ids)) == len(ids):
        return None
    first_row: dict[str, int] = {}
    for row, pub_id in enumerate(ids):
        earlier = first_row.setdefault(pub_id, row)
        if earlier != row:
            return row, earlier
    return None


def _seen_codes(seen: dict[str, int], texts: list[str]) -> np.ndarray:
    """The code of each text in seen, a text not in seen being added to it
    with the next free code."""
    seen.update(zip(sorted(set(texts).difference(seen)), count(len(seen))))
    return np.fromiter(map(seen.__getitem__, texts), dtype=np.intp, count=len(texts))


def _coded(values: dict, seen: dict[str, dict[str, int]]) -> dict:
    """values, columns by Columns field, with the institution, area and
    journal ids and the weight labels made codes in seen, which holds a
    dict of strings to codes for each id column and one for the labels, and
    which gains each string it does not hold yet."""
    for name in _CODED_IDS:
        values[name] = _seen_codes(seen[name], values[name])
    for name in ("weights", "refs"):
        values[name] = values[name]._replace(label=_seen_codes(seen["labels"], values[name].label))
    return values


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL) into columns.

    The file is read a chunk of rows at a time, and each chunk is converted
    and screened with numpy as soon as it is read; only the rows the screen
    flags keep their row parse. The earliest faulty row is named: parse
    faults come first, in row order, then validation faults, in row order
    with the scan for a repeated pub_id ahead of validate_record within a
    row. Each row's number in the file is kept once, in one array, to name
    a repeat and its first row.
    """
    path = Path(path)
    pieces: list[dict] = []
    flagged: list[tuple[int, PublicationRecord]] = []  # (row, its parse) of each row the screen flags
    numbers = array("q")  # row -> its number in the file
    seen: dict[str, dict[str, int]] = {name: {} for name in (*_CODED_IDS, "labels")}
    n_rows = 0
    with closing(_chunks(path, numbers)) as chunks:
        for piece, parse_row in chunks:
            suspects = _suspects(_coded(piece, seen), options.census_year)
            flagged += [(n_rows + i, parse_row(i)) for i in np.flatnonzero(suspects).tolist()]
            for name in _EXT_COLUMNS:
                piece[name] = piece[name][0]
            pieces.append(piece)
            n_rows += len(suspects)
    if not pieces:
        raise CorpusParseError(f"{path.name}: no records")
    columns = _joined(pieces, seen)
    del pieces, seen
    census_year = options.census_year
    if census_year is None:
        census_year = int(columns.year.max())
    clash = _first_clash(columns.pub_id)
    for r, record in flagged:
        if clash is not None and clash[0] <= r:
            break
        validate_record(record, census_year)
    if clash is not None:
        row, first = clash
        where = _row_name(path, numbers[row])
        kind = where.rsplit(" ", 2)[1]  # "row" or "line"
        raise CorpusValidationError(
            f"{where}: duplicate pub_id {columns.pub_id[row]!r}, first on {kind} {numbers[first]}"
        )

    population = None
    if options.population_path:
        population = load_population_counts(options.population_path)
        # A population is never smaller than its sample.
        sample = np.bincount(columns.institution_id, minlength=len(columns.institution_ids)).tolist()
        below = [
            code
            for code, (inst, n) in enumerate(zip(columns.institution_ids, sample))
            if inst in population and population[inst] < n
        ]
        if below:
            # The first in file order.
            code = int(columns.institution_id[np.isin(columns.institution_id, below).argmax()])
            inst = columns.institution_ids[code]
            raise CorpusValidationError(
                f"{options.population_path}: institution {inst!r} has population count "
                f"{population[inst]} below its {sample[code]} records in the corpus"
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


def check_reviews(columns: Columns) -> None:
    """Raise CorpusValidationError naming the first record without both reviews."""
    if not columns.has_review.all():
        missing = int((~columns.has_review.all(axis=1)).argmax())
        raise CorpusValidationError(f"record {columns.pub_id[missing]!r}: missing reviewer score")


def assign_reviewer_roles(corpus: Corpus, seed: int) -> Corpus:
    """Randomize which of the two reviews counts as reviewer 1.

    Each record's pair is swapped with probability 1/2 using a deterministic
    per-record coin keyed by (seed, pub_id). Requires both reviews present.
    """
    columns = corpus.columns
    check_reviews(columns)
    # One coin per record, keyed by (seed, pub_id) so file order cannot
    # change the outcome: the low bit of the first byte of a SHA-256 digest.
    sha256, prefix = hashlib.sha256, f"{seed}:"
    swap = np.array([sha256((prefix + p).encode()).digest()[0] & 1 for p in columns.pub_id], dtype=bool)
    review = np.where(swap[:, None, None], columns.review[:, ::-1], columns.review)
    return Corpus.from_columns(replace(columns, review=review), corpus.census_year, corpus.population_counts)

