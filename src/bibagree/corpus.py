"""Publication data model, columnar corpus I/O and reviewer role assignment.

A corpus is held as columns (``Columns``): one list or array per field of
a record, and the category and reference weight maps as flat entry arrays.
Institution, area and journal ids and the weight labels are integer codes
in the sorted order of what they code. A run reads, screens and transforms
these columns and never builds a ``PublicationRecord``; ``Corpus.records``
is a view, built on first access.

``_FIELDS`` gives each field's CSV/TSV columns, JSON key, kind, required
flag and range, and how validation words a value out of range; beside it
stand the three within-row orders. The converters of each kind, the
load's screens (``_Coder``), both row parses and ``validate_record`` read
them from there. The weight-map rules (a required map sums to 1, an
optional one is finite) are rules of the kind, written in ``_fault`` and
screened with numpy in ``_Coder.add``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import operator
from array import array
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import chain, compress, islice, repeat
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
_CRITERIA = ("originality", "rigour", "impact")
# A review's scores in _CRITERIA order. Attribute reads, where vars(score)
# would give each score a __dict__ of its own that outlives the write.
_criterion_scores = operator.attrgetter(*_CRITERIA)
# The census year as the bound of a range; a load knows its value.
_CENSUS = "census year"


class _Field(NamedTuple):
    """A field of a record as a corpus file holds it.

    low and high bound the value, each criterion score of a review, or each
    weight of a required weight map, whose low end is open; None is no
    bound. outside words a value out of range for validate_record, below
    instead one under the range where it is given; each is formatted with
    name, value, low, high and part, the criterion or label of a value.
    """

    name: str  # the PublicationRecord attribute, which is also the JSON key
    kind: str  # "id", "integer", "weights", "review" or "percentile"
    required: bool
    low: float | None = None
    high: float | str | None = None  # _CENSUS: the census year
    outside: str = ""
    below: str = ""
    columns: tuple[str, ...] = ()  # the CSV/TSV columns: one per criterion for a review, else (name,)


_REVIEW_OUTSIDE, _PERCENTILE_OUTSIDE = "{name}.{part}={value} outside {low}..{high}", "{name}={value:g} outside [{low:g},{high:g}]"
_FIELDS = {
    field.name: field._replace(columns=field.columns or (field.name,))
    for field in (
        _Field("pub_id", "id", True),
        _Field("institution_id", "id", True),
        _Field("area_id", "id", True),
        _Field("year", "integer", True, high=_CENSUS, outside="{name} {value} after census year {high}"),
        _Field("citations", "integer", True, 0, MAX_CITATIONS, "{name} {value} above 2**53", "negative {name} {value}"),
        _Field("journal_id", "id", True),
        _Field("category_weights", "weights", True, 0.0, 1.0, "weight {part}={value:g} outside ({low:g},{high:g}]"),
        _Field("ref_category_weights", "weights", False),
        _Field("review_a", "review", False, 1, 10, _REVIEW_OUTSIDE, columns=tuple(f"rev_a_{c}" for c in _CRITERIA)),
        _Field("review_b", "review", False, 1, 10, _REVIEW_OUTSIDE, columns=tuple(f"rev_b_{c}" for c in _CRITERIA)),
        _Field("ext_citation_percentile", "percentile", False, 0.0, 100.0, _PERCENTILE_OUTSIDE),
        _Field("ext_journal_percentile", "percentile", False, 0.0, 100.0, _PERCENTILE_OUTSIDE),
    )
}
CSV_COLUMNS = [column for field in _FIELDS.values() for column in field.columns]
_IDS, _REVIEWS, _PERCENTILES = (tuple(name for name, field in _FIELDS.items() if field.kind == kind) for kind in ("id", "review", "percentile"))
# The id columns that Columns holds as codes over their sorted distinct ids.
_CODED_IDS = _IDS[1:]
# The orders in which a row's fields are checked; the first fault found is
# the one reported. A parse reads the fields of a step, then converts each.
_TABLE_ORDER = (
    ("year", "citations"),
    _IDS,
    *[(name,) for name in ("ref_category_weights", "category_weights", "review_a", "review_b", *_PERCENTILES)],
)
_JSON_ORDER = (
    _IDS,
    *[(name,) for name in ("category_weights", "ref_category_weights", "year", "citations", "review_a", "review_b", *_PERCENTILES)],
)
# Validation, which comes after the scan for a repeated pub_id.
_CHECK_ORDER = ("citations", "category_weights", "year", "ref_category_weights", "review_a", "review_b", *_PERCENTILES)


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


# A record's fields in declaration order.
_RECORD_FIELDS = tuple(f.name for f in fields(PublicationRecord))


class Entries(NamedTuple):
    """One weight map per record as flat entries: records in order, and
    within a record the map's own order."""

    row: np.ndarray  # entry -> record index, non-decreasing
    label: np.ndarray  # entry -> label code, an index into Columns.labels
    weight: np.ndarray


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
        cells = {name: [getattr(r, name) for r in records] for name in _FIELDS}
        cells["ref_category_weights"] = [refs or {} for refs in cells["ref_category_weights"]]
        for name in _REVIEWS:
            reviews = cells.pop(name)
            cells.update((column, [getattr(s, c) if s else None for s in reviews]) for column, c in zip(_FIELDS[name].columns, _CRITERIA))
        coder = _Coder(_RECORD_READ, None)
        coder.add(cells)
        return coder.columns()

    def records(self, rows: Sequence[int] | None = None) -> tuple[PublicationRecord, ...]:
        """The record of each of the given rows, in that order; of every row
        when rows is None."""
        n = len(self)
        values = {name: list(map(getattr(self, name + "s").__getitem__, getattr(self, name).tolist())) for name in _CODED_IDS}
        values.update(pub_id=self.pub_id, year=self.year.tolist(), citations=self.citations.tolist())
        values["category_weights"] = _maps(self.weights, self.labels, n)
        values["ref_category_weights"] = [refs or None for refs in _maps(self.refs, self.labels, n)]
        review, has_review = self.review.tolist(), self.has_review.tolist()
        for k, name in enumerate(_REVIEWS):
            values[name] = [ReviewerScore(*scores[k]) if has[k] else None for scores, has in zip(review, has_review)]
        for name in _PERCENTILES:
            # NaN marks an absent percentile.
            values[name] = [None if v != v else v for v in getattr(self, name).tolist()]
        columns = [values[name] for name in _RECORD_FIELDS]
        if rows is not None:
            columns = [list(map(column.__getitem__, rows)) for column in columns]
        return tuple(map(PublicationRecord, *columns))


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


def _format_weights(weights: dict[str, float]) -> str:
    return ";".join(f"{k}:{v!r}" for k, v in sorted(weights.items()))


# A JSON Lines field that a line leaves out, and a criterion of a review
# that is not an object.
_ABSENT = object()
# A criterion of an absent or null JSON Lines review.
_NO_SCORE = object()


def _bounds(field: _Field, census_year: int | None = None) -> tuple:
    """A field's range as numbers, an end without a bound infinite."""
    high = census_year if field.high is _CENSUS else field.high
    return (-math.inf if field.low is None else field.low, math.inf if high is None else high)


# The converters of each kind of field, of a CSV or TSV cell and of a JSON
# value, a review's of the tuple of its criteria's. A value that does not
# convert raises ValueError worded for its row, or an error Python words.


def _text_id(text: str, field: _Field) -> str:
    value = text.strip()
    if not value:
        raise ValueError(f"{field.name} must be a non-empty string, got {value!r}")
    return value


# How _text_number words a cell of each kind that does not convert.
_TEXT_FAULTS = {"integer": "bad year/citations", "review": "non-integer criterion score", "percentile": "bad numeric value {!r}"}


def _text_number(text: str, field: _Field) -> float | None:
    """An integer, a criterion score or a percentile; None for a blank cell
    of an optional field."""
    if not (field.required or text.strip()):
        return None
    try:
        return float(text) if field.kind == "percentile" else int(text.strip())
    except ValueError:
        raise ValueError(_TEXT_FAULTS[field.kind].format(text)) from None


def _parse_weights(text: str, field: _Field) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"bad weight entry {part!r}")
        label, _, val = part.rpartition(":")
        try:
            out[label] = float(val)
        except ValueError:
            raise ValueError(f"bad weight value {val!r}") from None
    return out


def _text_review(cells: tuple[str, ...], field: _Field) -> ReviewerScore | None:
    """A review, or None where its cells are blank."""
    if not all(map(str.strip, cells)):
        if any(map(str.strip, cells)):
            raise ValueError(f"incomplete reviewer score for {field.columns[0].rsplit('_', 1)[0]}")
        return None
    return ReviewerScore(*[_text_number(cell, field) for cell in cells])


def _json_id(value, field: _Field) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError(f"{field.name} must be a non-empty string, got {value!r}")
    return value


def _json_number(value, field: _Field, part: str | None = None) -> float | None:
    """A JSON number, an integral one for an integer or a criterion score;
    part, if any, names the label of a weight or a criterion. A criterion of
    an absent review is None."""
    integral = field.kind in ("integer", "review")
    if type(value) in (int, float):  # not a bool
        if not integral:
            return float(value)
        if type(value) is int or value.is_integer():
            return int(value)
    elif value is _NO_SCORE:
        return None
    elif value is _ABSENT:  # a criterion that a review lacks, or of a review that is not an object
        raise ValueError(f"bad {field.name} object")
    name = field.name if part is None else f"{field.name}.{part}"
    if integral and type(value) in (bool, float):
        raise ValueError(f"non-integral {name} {value!r}")
    raise ValueError(f"{name} must be a number, got {value!r}")


def _json_map(value, field: _Field) -> dict[str, float]:
    """A JSON weight map; an optional one that is absent, null or empty is {}."""
    if not (field.required or (value is not _ABSENT and value)):
        return {}
    return {label: _json_number(weight, field, label) for label, weight in value.items()}


def _json_percentile(value, field: _Field) -> float | None:
    return None if value is None or value is _ABSENT else _json_number(value, field)


def _json_review(criteria: tuple, field: _Field) -> ReviewerScore | None:
    """A review from its criteria as _json_chunks reads them."""
    if criteria[0] is _NO_SCORE:
        return None
    return ReviewerScore(*[_json_number(score, field, name) for name, score in zip(_CRITERIA, criteria)])


_TABLE_READ = {"id": _text_id, "integer": _text_number, "weights": _parse_weights, "review": _text_review, "percentile": _text_number}
_JSON_READ = {"id": _json_id, "integer": _json_number, "weights": _json_map, "review": _json_review, "percentile": _json_percentile}
# A record's values are converted already; an absent review's criteria are None.
_RECORD_READ = dict.fromkeys(_TABLE_READ, lambda value, field: value)


def _record(row: dict, where: str, read: dict[str, Callable], order: tuple) -> PublicationRecord:
    """The record of a row of cells by column: each field's value, its cell
    or for a review the tuple of its criteria's, converted by read of its
    kind, a step of order at a time. The first field that does not convert
    is a parse fault naming where; so is a required field that a JSON line
    lacks, looked for in every field of a step before any is converted."""
    values = {}
    try:
        for step in order:
            fields = [_FIELDS[name] for name in step]
            raw = [tuple(map(row.__getitem__, f.columns)) if f.kind == "review" else row[f.name] for f in fields]
            absent = [f.name for f, value in zip(fields, raw) if value is _ABSENT and f.required]
            if absent:
                raise KeyError(absent[0])
            for field, value in zip(fields, raw):
                value = read[field.kind](value, field)
                # An optional weight map that is empty is absent.
                values[field.name] = value or None if field.kind == "weights" and not field.required else value
    # TypeError: a JSON value that is not an object; OverflowError: a weight
    # or percentile too large for a float.
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CorpusParseError(f"{where}: {exc}") from exc
    return PublicationRecord(**values)


# The record of a CSV or TSV row, and of a JSON line or a JSON value that is
# not an object: _record(row, where).
_record_from_row = partial(_record, read=_TABLE_READ, order=_TABLE_ORDER)
_record_from_json = partial(_record, read=_JSON_READ, order=_JSON_ORDER)


def validate_record(rec: PublicationRecord, census_year: int) -> None:
    """Raise CorpusValidationError naming the record on any invariant violation."""
    for name in _CHECK_ORDER:
        fault = _fault(_FIELDS[name], getattr(rec, name), census_year)
        if fault:
            raise CorpusValidationError(f"record {rec.pub_id!r}: {fault}")


def _fault(field: _Field, value, census_year: int) -> str | None:
    """What is wrong with a field's value, or None: a weight map's own
    fault, or the first of the value, a review's criteria or a required
    map's weights that is out of the field's range, as the field words it."""
    if field.kind == "weights" and not field.required:
        # abs() lets one sum catch a nan or infinite weight and a positive
        # total that overflows, either of which breaks the reassignment.
        return "reference weights not finite" if value and not math.isfinite(sum(map(abs, value.values()))) else None
    if field.kind == "weights":
        if not value:
            return "empty category weights"
        total = sum(value.values())
        if abs(total - 1.0) > WEIGHT_TOL:
            return f"weights sum {total:g}"
    elif value is None:
        return None
    parts = value.items() if field.kind == "weights" else zip(_CRITERIA, _criterion_scores(value)) if field.kind == "review" else [(None, value)]
    low, high = _bounds(field, census_year)
    for part, v in parts:
        if not low <= v <= high or (v == low and field.kind == "weights"):
            words = field.below if field.below and v < low else field.outside
            return words.format(name=field.name, value=v, low=low, high=high, part=part)
    return None


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


_CHUNK_ROWS = 256  # rows read and converted at a time
# The columns of a JSON line in the order _json_chunks reads them: its
# keys but the reviews', then the criteria of each review.
_JSON_KEYS = tuple(name for name in _FIELDS if name not in _REVIEWS)
_JSON_COLUMNS = (*_JSON_KEYS, *(column for name in _REVIEWS for column in _FIELDS[name].columns))
_NO_REVIEW, _NOT_REVIEW = (_NO_SCORE,) * len(_CRITERIA), (_ABSENT,) * len(_CRITERIA)
# The fields coded through a table of their distinct values: these repeat
# across a file.
_CODED = (*_CODED_IDS, *(name for name, field in _FIELDS.items() if field.kind in ("integer", "review")))
# The flags of a distinct value: it may break an invariant of
# validate_record, or it is a blank criterion.
_SUSPECT, _BLANK = 1, 2


class _Texts(dict):
    """The distinct values of a column for a whole file, each mapped to its
    code. A value looked up for the first time is read by parse, which may
    raise, and kept under the next free code with its flags, screen(what
    parse read)."""

    def __init__(self, parse: Callable, screen: Callable[..., int]):
        self.parse, self.screen = parse, screen
        self.values, self.chunks = [], []  # chunks: the codes of each chunk
        self.flags, self.flagged = bytearray(), False  # flagged: whether any value has a flag

    def __missing__(self, key) -> int:
        value = self.parse(key)
        flags = self.screen(value)
        self.values.append(value)
        self.flags.append(flags)
        self.flagged = self.flagged or flags != 0
        code = self[key] = len(self.values) - 1
        return code

    def code(self, columns: Sequence[Sequence]) -> np.ndarray:
        """The codes of columns of equally many values, a row per column,
        kept as a chunk's."""
        shape = (len(columns), len(columns[0]))
        codes = np.fromiter(map(self.__getitem__, chain.from_iterable(columns)), dtype=np.int32, count=shape[0] * shape[1])
        self.chunks.append(codes.reshape(shape))
        return self.chunks[-1]

    def flags_of(self, codes: np.ndarray) -> np.ndarray:
        return np.frombuffer(self.flags, dtype=np.uint8)[codes]

    def joined(self) -> np.ndarray:
        """The codes of every chunk side by side."""
        return np.concatenate(self.chunks, axis=1)


def _screen(field: _Field, census_year: int | None) -> Callable[..., int]:
    """The flags of a converted value of a coded field, or of a criterion of a review."""
    if field.kind == "id":
        return lambda value: 0
    low, high = _bounds(field, census_year)
    return lambda value: _BLANK if value is None else _SUSPECT * (not low <= value <= high)


def _sorted_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct strings of values, and each value's index among them."""
    names = sorted(set(values))
    index = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _each(read: Callable, field: _Field, values: Sequence) -> list:
    """read(value, field) of each value."""
    return [read(value, field) for value in values]


def _each_distinct(read: Callable, field: _Field, texts: Sequence[str]) -> list:
    """read(text, field) of each text, called once per distinct text."""
    converted = {text: read(text, field) for text in dict.fromkeys(texts)}
    return list(map(converted.__getitem__, texts))


def _entries(maps: Sequence[dict], labels: _Texts) -> Entries:
    """The entries of one weight map per row, the rows counted from 0,
    their labels coded by labels."""
    return Entries(
        np.repeat(np.arange(len(maps)), list(map(len, maps))),
        np.fromiter(map(labels.__getitem__, chain.from_iterable(maps)), dtype=np.intp),
        np.fromiter(chain.from_iterable(map(dict.values, maps)), dtype=float),
    )


class _Coder:
    """Columns built a chunk at a time, each field's values converted by
    read of its kind, a review's one criterion at a time as integers. The
    ids but pub_id, the integers and the criterion scores, which repeat
    across a file, become codes into a _Texts per field, which converts and
    screens each distinct value once; they are decoded once every chunk is
    added. The pub_ids, weight maps and percentiles, which seldom repeat,
    are converted a chunk at a time, the maps and percentiles with
    each(read, field, values), and screened with numpy.

    A JSON bool is no number, but as a key of a _Texts it equals 0 or 1 and
    would take that number's code: so a JSON chunk with a bool among its
    coded numbers is refused, for its row parse to word."""

    def __init__(self, read: dict[str, Callable], census_year: int | None, each: Callable = _each):
        self.read, self.each, self.pub_id = read, each, []
        self.texts = {
            name: _Texts(partial(read["integer" if name in _REVIEWS else field.kind], field=field), _screen(field, census_year))
            for name, field in _FIELDS.items()
            if name in _CODED
        }
        self.labels = _Texts(lambda label: label, lambda label: 0)  # of every weight map
        self.chunks: dict[str, list] = {name: [] for name in _FIELDS if name not in _CODED and name != "pub_id"}

    def add(self, cells: dict[str, Sequence]) -> np.ndarray:
        """Add a chunk, its cells by column. Return which rows the screen
        flags; raise where a row does not convert."""
        columns = {name: [cells[column] for column in field.columns] for name, field in _FIELDS.items()}
        if self.read is _JSON_READ:
            numbers = chain.from_iterable(columns[name] for name in _CODED if _FIELDS[name].kind != "id")
            if bool in set(map(type, chain.from_iterable(numbers))):
                raise ValueError("a bool where a number belongs")
        start, n = len(self.pub_id), len(cells["pub_id"])
        flags = np.zeros(n, dtype=np.uint8)
        for name, texts in self.texts.items():
            codes = texts.code(columns[name])
            if texts.flagged:
                flagged = texts.flags_of(codes)
                blank = (flagged & _BLANK) > 0
                if (blank.any(axis=0) != blank.all(axis=0)).any():
                    raise ValueError("a review with some but not all of its cells blank")
                flags |= np.bitwise_or.reduce(flagged, axis=0)
        suspect = (flags & _SUSPECT) > 0
        for name, chunks in self.chunks.items():
            field = _FIELDS[name]
            values = self.each(self.read[field.kind], field, columns[name][0])
            low, high = _bounds(field)
            if field.kind == "percentile":
                # NaN where a percentile is absent (None).
                present = np.fromiter(map(operator.is_not, values, repeat(None)), dtype=bool, count=n)
                pct = np.full(n, np.nan)
                pct[present] = list(compress(values, present))
                suspect |= present & ~((pct >= low) & (pct <= high))
                chunks.append(pct)
                continue
            e = _entries(values, self.labels)
            if field.required:
                total = np.bincount(e.row, weights=e.weight, minlength=n)
                outside = np.bincount(e.row, weights=~((e.weight > low) & (e.weight <= high)), minlength=n) > 0
                # validate_record sums the weights with sum(), which
                # compensates rounding from Python 3.12 on; a total within
                # half the tolerance here is within the tolerance there.
                suspect |= (np.bincount(e.row, minlength=n) == 0) | ~(np.abs(total - 1.0) <= WEIGHT_TOL / 2) | outside
            else:
                # Likewise a sum of absolute weights below 1e308 is finite both ways.
                suspect |= ~(np.bincount(e.row, weights=np.abs(e.weight), minlength=n) < 1e308)
            chunks.append(e._replace(row=e.row + start))
        self.pub_id += _each(self.read["id"], _FIELDS["pub_id"], cells["pub_id"])
        return suspect

    def columns(self) -> Columns:
        """The columns of every row added, each _Texts dropped as its column is decoded."""
        texts, chunks, n = self.texts, self.chunks, len(self.pub_id)
        values: dict = {"pub_id": self.pub_id}
        values["labels"], sorted_label = _sorted_codes(self.labels.values)
        for name, attr in (("category_weights", "weights"), ("ref_category_weights", "refs")):
            row, label, weight = map(np.concatenate, zip(*chunks.pop(name)))
            values[attr] = Entries(row, sorted_label[label], weight)
        reviews = list(map(texts.pop, _REVIEWS))
        scores = [_int_array([value or 0 for value in review.values]) for review in reviews]
        values["review"] = np.empty((n, len(reviews), len(_CRITERIA)), dtype=np.result_type(*scores))
        values["has_review"] = np.empty((n, len(reviews)), dtype=bool)
        for k, (review, score) in enumerate(zip(reviews, scores)):
            codes = review.joined()
            for c, criterion in enumerate(codes):
                values["review"][:, k, c] = score[criterion]
            # Once every row parses, a review is present where its first criterion is not blank.
            values["has_review"][:, k] = (review.flags_of(codes[0]) & _BLANK) == 0
        del codes, reviews, scores
        for name in _CODED_IDS:
            ids = texts.pop(name)
            values[name + "s"], sorted_code = _sorted_codes(ids.values)
            values[name] = sorted_code[ids.joined()[0]]
        for name in ("year", "citations"):
            ints = texts.pop(name)
            values[name] = _int_array(ints.values)[ints.joined()[0]]
        for name in _PERCENTILES:
            values[name] = np.concatenate(chunks.pop(name))
        return Columns(**values)


def _by_column(names: Sequence[str], rows: list[list]) -> dict[str, tuple]:
    """The cells of rows by column name, rows emptied so that only the cells stay."""
    cells = dict(zip(names, zip(*rows)))
    rows.clear()
    return cells


def _table_chunks(fh: TextIO, file_name: str, numbers: array, delimiter: str) -> Iterator[dict[str, tuple]]:
    """Each chunk of the nonblank rows of a CSV or TSV file, read with one
    islice of the csv reader, as its cells by column, each row's number in
    the file appended to numbers. A row with the wrong number of fields or
    that the csv module cannot read (a cell past csv.field_size_limit()),
    or text that is not UTF-8, raises once the rows before it are yielded."""
    reader = csv.reader(fh, delimiter=delimiter)
    try:
        header = next(reader, None) or []
    except csv.Error as exc:
        raise CorpusParseError(f"{file_name} row 1: {exc}") from None
    missing = set(CSV_COLUMNS) - set(header)
    if missing:
        raise CorpusParseError(f"{file_name}: missing columns {sorted(missing)}")
    # csv.DictReader skips blank rows, and does not number them.
    rows, width, full = filter(None, reader), len(header), True
    while full:
        chunk, first, fault = [], len(numbers) + 2, None
        try:
            chunk += islice(rows, _CHUNK_ROWS)
        except csv.Error as exc:
            fault = CorpusParseError(f"{file_name} row {first + len(chunk)}: {exc}")
        except UnicodeDecodeError as exc:
            fault = exc
        if any(map(width.__ne__, map(len, chunk))):
            i, size = next((i, size) for i, size in enumerate(map(len, chunk)) if size != width)
            more = "more" if size > width else "fewer"
            fault = CorpusParseError(f"{file_name} row {first + i}: {more} fields than the header")
            del chunk[i:]
        numbers.extend(range(first, first + len(chunk)))
        full = len(chunk) == _CHUNK_ROWS
        if chunk:
            yield _by_column(header, chunk)
        if fault is not None:
            raise fault


def _json_chunks(fh: TextIO, file_name: str, numbers: array) -> Iterator[dict[str, tuple]]:
    """Each chunk of the lines of a JSON Lines file that are not blank as
    their cells by column, each line's number appended to numbers. A field
    a line leaves out is _ABSENT. A review object gives the criteria of its
    columns, each _ABSENT that it lacks; an absent or null review gives
    _NO_SCORE for each, and any other value _ABSENT, so that no key outlives
    its line. A line that is not a JSON object, or text that is not UTF-8,
    raises once the lines before it are yielded."""
    chunk: list[list] = []
    try:
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
            row = list(map(obj.get, _JSON_KEYS, repeat(_ABSENT)))
            for key in _REVIEWS:
                review = obj.get(key)
                if type(review) is dict:
                    row += map(review.get, _CRITERIA, repeat(_ABSENT))
                else:
                    row += _NO_REVIEW if review is None else _NOT_REVIEW
            numbers.append(number)
            chunk.append(row)
            if len(chunk) == _CHUNK_ROWS:
                yield _by_column(_JSON_COLUMNS, chunk)
    except (CorpusParseError, UnicodeDecodeError):
        if chunk:
            yield _by_column(_JSON_COLUMNS, chunk)
        raise
    if chunk:
        yield _by_column(_JSON_COLUMNS, chunk)


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


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL) into columns.

    The file is read a chunk of rows at a time. Each id, year, citation and
    criterion cell becomes a code into a table of the distinct values of its
    column that lasts the whole load (_Coder), each value converted and
    screened once; the weight maps and percentiles are converted, and
    screened with numpy, a chunk at a time. A chunk that does not convert is
    parsed row by row instead: the first row that does not parse raises, and
    a conversion that fails although every row parses raises AssertionError.
    A fault that stops reading is raised once the rows before it are
    converted, so an earlier row that does not parse wins. Only the rows the
    screen flags keep their row parse, to be validated once the whole file
    is read. So the earliest faulty row is named: parse faults come first,
    in row order, then validation faults, in row order with the scan for a
    repeated pub_id ahead of validate_record within a row. Each row's number
    in the file is kept once, in one array, to name a row.

    A 3,000-record file, CSV or JSON Lines, peaks at about 1.34 times the
    memory of the corpus returned, and 1.32 when each record has weight
    maps of its own. At 20,000 records the peak is 1.67 times (7.02 MB
    against 4.19 MB held) and comes from _first_clash's set of the pub_ids,
    not from the chunked read (1.27 times without it).
    """
    path, census_year = Path(path), options.census_year
    fmt, numbers = _detect_format(path), array("q")  # numbers: row -> its number in the file
    kind = "line" if fmt == "jsonl" else "row"  # as messages name a row
    if fmt == "jsonl":
        read, parse, coder = _json_chunks, _record_from_json, _Coder(_JSON_READ, census_year)
    else:
        read = partial(_table_chunks, delimiter="\t" if fmt == "tsv" else ",")
        parse, coder = _record_from_row, _Coder(_TABLE_READ, census_year, _each_distinct)
    flagged, start = [], 0  # flagged: (row, its parse) of each row the screen flags; start: the chunk's first row
    with _open_text(path, "corpus") as fh:
        try:
            for cells in read(fh, path.name, numbers):

                def parse_row(i: int) -> PublicationRecord:
                    return parse({name: column[i] for name, column in cells.items()}, f"{path.name} {kind} {numbers[start + i]}")

                try:
                    suspects = coder.add(cells)
                except Exception as exc:  # noqa: BLE001 - the row parse words it, or it is a converter bug
                    for i in range(len(numbers) - start):
                        parse_row(i)
                    raise AssertionError("a column conversion failed but every row parses") from exc
                flagged += [(start + i, parse_row(i)) for i in np.flatnonzero(suspects).tolist()]
                del cells  # the next chunk is read without them
                start = len(numbers)
        except UnicodeDecodeError:
            raise _not_utf8(path, path.name) from None
    if not numbers:
        raise CorpusParseError(f"{path.name}: no records")
    columns = coder.columns()
    if census_year is None:
        census_year = int(columns.year.max())
    clash = _first_clash(columns.pub_id)
    for r, record in flagged:
        if clash is not None and clash[0] <= r:
            break
        validate_record(record, census_year)
    if clash is not None:
        row, first = clash
        raise CorpusValidationError(
            f"{path.name} {kind} {numbers[row]}: duplicate pub_id {columns.pub_id[row]!r}, first on {kind} {numbers[first]}"
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
    """Write a corpus back out in the canonical layout: a column (one per
    criterion of a review) and a JSON key per field in _FIELDS order, weight
    maps in label order, each value converted as its row is written."""
    fmt = _detect_format(Path(path))
    records, columns = corpus.records, []  # columns: the values of each JSON key, or the cells of each column
    for field in _FIELDS.values():
        values = map(operator.attrgetter(field.name), records)
        if field.kind == "weights" and fmt == "jsonl":
            values = (dict(sorted(v.items())) if v or field.required else None for v in values)
        elif field.kind == "weights":
            values = (_format_weights(v) if v else "" for v in values)
        elif field.kind == "review" and fmt == "jsonl":
            values = (dict(zip(_CRITERIA, _criterion_scores(v))) if v else None for v in values)
        elif field.kind == "review":
            # A criterion of an absent review (None) is blank.
            columns += (map(getattr, map(operator.attrgetter(field.name), records), repeat(c), repeat("")) for c in _CRITERIA)
            continue
        elif field.kind == "percentile" and fmt != "jsonl":
            values = ("" if v is None else repr(v) for v in values)
        columns.append(values)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if fmt == "jsonl":
            fh.writelines(json.dumps(dict(zip(_FIELDS, row))) + "\n" for row in zip(*columns))
            return
        writer = csv.writer(fh, delimiter="\t" if fmt == "tsv" else ",")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*columns))


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
