"""Publication data model, columnar corpus I/O and reviewer role assignment.

A corpus is held as columns (``Columns``): one list or array per field of
a record, and the category and reference weight maps as flat entry arrays.
Institution, area and journal ids and the weight labels are integer codes
in the sorted order of what they code. A run reads, screens and transforms
these columns and never builds a ``PublicationRecord``; ``Corpus.records``
is a view, built on first access.

``_FIELDS`` gives each field's CSV/TSV columns, JSON key, kind, required
flag and range, and how a value out of range is worded; beside it stand
the three within-row orders. The converters of each kind and the load's
coder (``_Coder``), which alone finds and words each faulty row, read them
from there. The weight-map rules (a required map is not empty and sums to
1, an optional one is finite) are rules of the kind, screened with numpy
in ``_Coder.add`` on the map's weights folded left from 0.0.
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
    bound. outside words a value out of range, below instead one under the
    range where it is given; each is formatted with name, value, low, high
    and part, the criterion or label of a value.
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


def _outside(field: _Field, census_year: int | None, part: str | None, value) -> str | None:
    """How the field words a value out of its range, or None: the value, a
    criterion of a review or a weight of a required map, whose low end is
    open; part names the criterion or the weight's label."""
    low, high = _bounds(field, census_year)
    if low <= value <= high and not (value == low and field.kind == "weights"):
        return None
    words = field.below if field.below and value < low else field.outside
    return words.format(name=field.name, value=value, low=low, high=high, part=part)


# The converters of each kind of field, of a CSV or TSV cell and of a JSON
# value, a review's of one criterion's. A value that does not convert
# raises one of _PARSE_FAULTS, worded for its row: a ValueError the
# converter words, or as Python words a JSON map that is not an object
# (AttributeError) or a number too large for a float (OverflowError).
_PARSE_FAULTS = (ValueError, AttributeError, OverflowError)


def _text_id(text: str, field: _Field) -> str:
    value = text.strip()
    if not value:
        raise ValueError(f"{field.name} must be a non-empty string, got {value!r}")
    return value


# How _text_number words a cell of each kind that does not convert.
_TEXT_FAULTS = {"integer": "bad year/citations", "review": "non-integer criterion score", "percentile": "bad numeric value {!r}"}


def _text_number(text: str, field: _Field, part: str | None = None) -> float | None:
    """An integer, a criterion score or a percentile; None for a blank cell
    of an optional field. A criterion's fault does not name it (part)."""
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


_TABLE_READ = {"id": _text_id, "integer": _text_number, "weights": _parse_weights, "review": _text_number, "percentile": _text_number}
_JSON_READ = {"id": _json_id, "integer": _json_number, "weights": _json_map, "review": _json_number, "percentile": _json_percentile}
# A record's values are converted already; an absent review's criteria are None.
_RECORD_READ = dict.fromkeys(_TABLE_READ, lambda value, field, part=None: value)


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
# The flags of a distinct value: it does not convert, it is out of its
# field's range, or it is a blank criterion.
_UNREAD, _OUTSIDE, _BLANK = 1, 2, 4
# The JSON values that cannot share a code with an equal value: a bool,
# which equals 0 or 1 as a key but is no number, and a list or an object,
# which is no key.
_ODD = frozenset((bool, list, dict))


def _converted(convert: Callable, value) -> tuple:
    """convert(value) and None, or None and the fault of a value that does not convert."""
    try:
        return convert(value), None
    except _PARSE_FAULTS as exc:
        return None, str(exc)


class _Texts(dict):
    """The distinct values of a column for a whole file, each mapped to its
    code. A value looked up for the first time is converted by convert and
    kept under the next free code with its flags and its fault, if any: the
    converter's message, or outside(the converted value)."""

    def __init__(self, convert: Callable, outside: Callable):
        self.convert, self.outside = convert, outside
        self.values, self.faults, self.chunks = [], [], []  # chunks: the codes of each chunk
        self.flags, self.flagged = bytearray(), False  # flagged: whether any value has a flag

    def __missing__(self, key) -> int:
        code = self[key] = self.new(key)
        return code

    def new(self, key) -> int:
        """The next free code, given to key's value alone."""
        value, fault = _converted(self.convert, key)
        flags = _UNREAD if fault is not None else _BLANK if value is None else 0
        if not flags:
            fault = self.outside(value)
            flags = _OUTSIDE * (fault is not None)
        self.values.append(value)
        self.faults.append(fault)
        self.flags.append(flags)
        self.flagged = self.flagged or flags != 0
        return len(self.values) - 1

    def code(self, cells: Sequence, odd: frozenset = frozenset()) -> np.ndarray:
        """The codes of a chunk's cells, kept as its chunk's; each cell of a
        type in odd gets a code of its own."""
        codes = (self.new(key) if type(key) in odd else self[key] for key in cells) if odd else map(self.__getitem__, cells)
        self.chunks.append(np.fromiter(codes, dtype=np.int32, count=len(cells)))
        return self.chunks[-1]

    def flags_of(self, codes: np.ndarray) -> np.ndarray:
        return np.frombuffer(self.flags, dtype=np.uint8)[codes]

    def joined(self) -> np.ndarray:
        """The codes of every chunk, in order."""
        return np.concatenate(self.chunks)


def _sorted_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct strings of values, and each value's index among them."""
    names = sorted(set(values))
    index = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _each(read: Callable, field: _Field, values: Sequence) -> tuple[list, dict[int, str]]:
    """read(value, field) of each value, None for one that does not
    convert, and the fault of each such value by its index. Only a sequence
    with such a value is converted a second time, one value at a time."""
    try:
        return [read(value, field) for value in values], {}
    except _PARSE_FAULTS:
        pass
    converted = list(map(_converted, repeat(partial(read, field=field)), values))
    return [value for value, _ in converted], {i: fault for i, (_, fault) in enumerate(converted) if fault is not None}


def _each_distinct(read: Callable, field: _Field, texts: Sequence[str]) -> tuple[list, dict[int, str]]:
    """_each, read called once per distinct text when every text converts."""
    try:
        converted = {text: read(text, field) for text in dict.fromkeys(texts)}
    except _PARSE_FAULTS:
        return _each(read, field, texts)
    return list(map(converted.__getitem__, texts)), {}


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
    read of its kind, and each row's faults found and worded.

    The ids but pub_id, the integers and each criterion score, which repeat
    across a file, become codes into a _Texts per column, which converts
    and screens each distinct value once; they are decoded once every chunk
    is added. The pub_ids, weight maps and percentiles, which seldom repeat,
    are converted a chunk at a time, the maps and percentiles with
    each(read, field, values), and screened with numpy: np.bincount folds a
    map's weights left from 0.0, where sum() compensates from Python 3.12
    on, and the verdict must not depend on the Python.
    """

    def __init__(self, read: dict[str, Callable], census_year: int | None, order: tuple = (), each: Callable = _each):
        self.read, self.order, self.each, self.pub_id, self.texts = read, order, each, [], {}
        for field in map(_FIELDS.__getitem__, _CODED):
            # A review's column per criterion, its part.
            for column, part in zip(field.columns, _CRITERIA if field.kind == "review" else [None]):
                convert = partial(read[field.kind], field=field)
                outside = partial(_outside, field, census_year, part) if field.kind != "id" else lambda value: None
                self.texts[column] = _Texts(partial(convert, part=part) if part else convert, outside)
        self.labels = _Texts(lambda label: label, lambda label: None)  # of every weight map
        self.chunks: dict[str, list] = {name: [] for name in _FIELDS if name not in _CODED and name != "pub_id"}

    def add(self, cells: dict[str, Sequence]) -> tuple[tuple[int, str] | None, tuple[int, str] | None]:
        """Add a chunk, its cells by column. Return its first row that does
        not parse and its first row out of range, each as (row, its fault)
        or None: the first faulty field of the row in the order of the
        format's parse (a required JSON field that a line lacks first within
        its step, worded as Python words a missing key) or of validation."""
        n, start = len(cells["pub_id"]), len(self.pub_id)
        unread: dict[str, dict[int, str]] = {}  # field -> {row: its fault}, of the rows that do not parse
        outside: dict[str, dict[int, str]] = {}  # the same, of the rows out of range
        odd = frozenset()
        if self.read is _JSON_READ:
            odd = _ODD.intersection(map(type, chain.from_iterable(map(cells.__getitem__, self.texts))))
        codes = {column: texts.code(cells[column], odd) for column, texts in self.texts.items()}
        for name in _CODED:
            self._screen(_FIELDS[name], codes, unread, outside)
        values, unread["pub_id"] = _each(self.read["id"], _FIELDS["pub_id"], cells["pub_id"])
        self.pub_id += values
        for name, chunks in self.chunks.items():
            field = _FIELDS[name]
            values, unread[name] = self.each(self.read[field.kind], field, cells[name])
            low, high = _bounds(field)
            if field.kind == "percentile":
                # NaN where a percentile is absent (None).
                present = np.fromiter(map(operator.is_not, values, repeat(None)), dtype=bool, count=n)
                pct = np.full(n, np.nan)
                pct[present] = list(compress(values, present))
                bad = present & ~((pct >= low) & (pct <= high))
                outside[name] = {i: _outside(field, None, None, float(pct[i])) for i in np.flatnonzero(bad).tolist()}
                chunks.append(pct)
                continue
            e = _entries([value or {} for value in values] if unread[name] else values, self.labels)
            if field.required:
                count = np.bincount(e.row, minlength=n)
                total = np.bincount(e.row, weights=e.weight, minlength=n)
                out = ~((e.weight > low) & (e.weight <= high))
                bad = (count == 0) | (np.abs(total - 1.0) > WEIGHT_TOL) | (np.bincount(e.row, weights=out, minlength=n) > 0)
                outside[name] = {i: self._map_fault(field, e, i, count[i], float(total[i])) for i in np.flatnonzero(bad).tolist()}
            else:
                bad = ~np.isfinite(np.bincount(e.row, weights=np.abs(e.weight), minlength=n))
                outside[name] = dict.fromkeys(np.flatnonzero(bad).tolist(), "reference weights not finite")
            chunks.append(e._replace(row=e.row + start))
        first = min(chain.from_iterable(unread.values()), default=None)
        if first is not None:
            return (first, self._parse_fault(first, cells, unread)), None
        first = min(chain.from_iterable(outside.values()), default=None)
        if first is not None:
            return None, (first, next(outside[name][first] for name in _CHECK_ORDER if first in outside.get(name, ())))
        return None, None

    def _screen(self, field: _Field, codes: dict[str, np.ndarray], unread: dict, outside: dict) -> None:
        """The faults of a coded field by row into unread and outside: its
        first criterion (the value itself, for another field) that does not
        convert, or that is out of range; and a review with some but not all
        of its criteria blank does not parse."""
        texts = [self.texts[column] for column in field.columns]
        if not any(t.flagged for t in texts):
            return
        columns = [codes[column] for column in field.columns]
        flags = np.stack([t.flags_of(c) for t, c in zip(texts, columns)])
        for flag, found in ((_UNREAD, unread), (_OUTSIDE, outside)):
            hit = (flags & flag) > 0
            rows = np.flatnonzero(hit.any(axis=0))
            found[field.name] = {i: texts[k].faults[columns[k][i]] for i, k in zip(rows.tolist(), hit.argmax(axis=0)[rows].tolist())}
        blank = (flags & _BLANK) > 0
        some = np.flatnonzero(blank.any(axis=0) & ~blank.all(axis=0)).tolist()
        unread[field.name].update(dict.fromkeys(some, f"incomplete reviewer score for {field.columns[0].rsplit('_', 1)[0]}"))

    def _map_fault(self, field: _Field, e: Entries, i: int, count: int, total: float) -> str:
        """The fault of row i's required map, of which e holds the entries."""
        if not count:
            return "empty category weights"
        if abs(total - 1.0) > WEIGHT_TOL:
            return f"weights sum {total:g}"
        at = e.row == i
        labels = map(self.labels.values.__getitem__, e.label[at].tolist())
        return next(filter(None, map(partial(_outside, field, None), labels, e.weight[at].tolist())))

    def _parse_fault(self, i: int, cells: dict[str, Sequence], unread: dict[str, dict[int, str]]) -> str:
        """The fault of row i, which does not parse: the first in the
        format's order."""
        for step in self.order:
            absent = [name for name in step if _FIELDS[name].required and cells[name][i] is _ABSENT]
            if absent:
                return repr(absent[0])
            fault = next((unread[name][i] for name in step if i in unread.get(name, ())), None)
            if fault is not None:
                return fault

    def columns(self) -> Columns:
        """The columns of every row added, each _Texts dropped as its column is decoded."""
        texts, chunks, n = self.texts, self.chunks, len(self.pub_id)
        values: dict = {"pub_id": self.pub_id}
        values["labels"], sorted_label = _sorted_codes(self.labels.values)
        for name, attr in (("category_weights", "weights"), ("ref_category_weights", "refs")):
            row, label, weight = map(np.concatenate, zip(*chunks.pop(name)))
            values[attr] = Entries(row, sorted_label[label], weight)
        reviews = [[texts.pop(column) for column in _FIELDS[name].columns] for name in _REVIEWS]
        scores = [[_int_array([value or 0 for value in t.values]) for t in review] for review in reviews]
        values["review"] = np.empty((n, len(reviews), len(_CRITERIA)), dtype=np.result_type(*chain.from_iterable(scores)))
        values["has_review"] = np.empty((n, len(reviews)), dtype=bool)
        for k, (review, score) in enumerate(zip(reviews, scores)):
            for c, (criterion, s) in enumerate(zip(review, score)):
                values["review"][:, k, c] = s[criterion.joined()]
            # Once every row parses, a review is present where its first criterion is not blank.
            values["has_review"][:, k] = (review[0].flags_of(review[0].joined()) & _BLANK) == 0
        del reviews, scores
        for name in _CODED_IDS:
            ids = texts.pop(name)
            values[name + "s"], sorted_code = _sorted_codes(ids.values)
            values[name] = sorted_code[ids.joined()]
        for name in ("year", "citations"):
            ints = texts.pop(name)
            values[name] = _int_array(ints.values)[ints.joined()]
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
                try:
                    obj[_JSON_KEYS[0]]  # a value that is not an object has no fields, as Python words it
                except TypeError as exc:
                    raise CorpusParseError(f"{file_name} line {number}: {exc}") from exc
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
    earlier row). One sort tells whether any id repeats: a set of the ids
    would hold a table about four times their number."""
    in_order = sorted(ids)
    repeated = set(compress(islice(in_order, 1, None), map(operator.eq, in_order, islice(in_order, 1, None))))
    del in_order
    first_row: dict[str, int] = {}
    for row, pub_id in enumerate(ids):
        if pub_id in repeated:
            earlier = first_row.setdefault(pub_id, row)
            if earlier != row:
                return row, earlier
    return None


def load_corpus(path: str | Path, options: SchemaOptions = SchemaOptions()) -> Corpus:
    """Read and validate a corpus file (CSV/TSV or JSONL) into columns.

    The file is read and converted a chunk of rows at a time (_Coder),
    which alone finds and words each row's first fault. The first row that
    does not parse raises once its chunk is converted; a fault that stops
    reading is raised once the rows before it are converted, so an earlier
    row that does not parse wins. The first row out of range is raised only
    once the whole file is read, unless the scan for a repeated pub_id
    names an earlier row or the same one. A year's range is known from the
    start: the census year given, or by default the largest year, which no
    year exceeds. Each row's number in the file is kept once, in one array,
    to name a row.

    A 3,000-record file, CSV or JSON Lines, peaks at about 1.28 times the
    memory of the corpus returned, and 1.32 when each record has weight
    maps of its own; a 20,000-record file at 1.21 times.
    """
    path, census_year = Path(path), options.census_year
    fmt, numbers = _detect_format(path), array("q")  # numbers: row -> its number in the file
    kind = "line" if fmt == "jsonl" else "row"  # as messages name a row
    if fmt == "jsonl":
        read, coder = _json_chunks, _Coder(_JSON_READ, census_year, _JSON_ORDER)
    else:
        read = partial(_table_chunks, delimiter="\t" if fmt == "tsv" else ",")
        coder = _Coder(_TABLE_READ, census_year, _TABLE_ORDER, _each_distinct)
    invalid, start = None, 0  # invalid: (row, its fault) of the first row out of range; start: the chunk's first row
    with _open_text(path, "corpus") as fh:
        try:
            for cells in read(fh, path.name, numbers):
                unparsed, outside = coder.add(cells)
                del cells  # the next chunk is read without them
                if unparsed:
                    raise CorpusParseError(f"{path.name} {kind} {numbers[start + unparsed[0]]}: {unparsed[1]}")
                if outside and not invalid:
                    invalid = start + outside[0], outside[1]
                start = len(numbers)
        except UnicodeDecodeError:
            raise _not_utf8(path, path.name) from None
    if not numbers:
        raise CorpusParseError(f"{path.name}: no records")
    clash = _first_clash(coder.pub_id)
    if invalid and (clash is None or invalid[0] < clash[0]):
        raise CorpusValidationError(f"record {coder.pub_id[invalid[0]]!r}: {invalid[1]}")
    if clash is not None:
        row, first = clash
        raise CorpusValidationError(
            f"{path.name} {kind} {numbers[row]}: duplicate pub_id {coder.pub_id[row]!r}, first on {kind} {numbers[first]}"
        )
    columns = coder.columns()
    if census_year is None:
        census_year = int(columns.year.max())

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
