"""Publication data model, columnar corpus I/O and reviewer role assignment.

A corpus is held as columns (``Columns``): one list or array per field of
a record, and the category and reference weight maps as flat entry arrays.
Institution, area and journal ids and the weight labels are integer codes
in the sorted order of what they code. A run reads, screens and transforms
these columns and never builds a ``PublicationRecord``; ``Corpus.records``
is a view, built on first access.

``load_corpus`` reads a file a chunk of rows at a time (``_Coder``). Each
cell of the id, year, citation and criterion columns, whose values repeat
across a file, becomes a code into a table of the distinct values of its
column for the whole file, so each is converted and screened once; the
weight maps and percentiles, which seldom repeat, are converted a chunk
at a time. ``Columns.from_records`` builds its columns the same way. The
row-by-row functions ``_record_from_row``, ``_record_from_json`` and
``validate_record`` define a valid row and word every error: a chunk with
a row that does not parse is parsed row by row, in file order, up to that
row, and only the rows the screen flags keep their row parse, to be
validated one by one once the whole file is read. So the message, the row
it names and the fault that wins are theirs.
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
        coder = _Coder(_RECORD_PARSE, None)
        keys = {name: [[getattr(r, name) for r in records]] for name in _ONE_FIELD}
        reviews = ([r.review_a for r in records], [r.review_b for r in records])
        keys["review"] = _criterion_columns([[_criterion_scores(s) if s else _NO_REVIEW for s in column] for column in reviews])
        maps = [[r.category_weights for r in records], [r.ref_category_weights or {} for r in records]]
        pct = [_percentiles([getattr(r, name) for r in records]) for name in _EXT_COLUMNS]
        coder.add(keys, [r.pub_id for r in records], maps, pct)
        return coder.columns()

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
    """A JSON value where a number belongs that is not one: a string, null,
    a list or an object, and a bool where any number belongs."""


class _NonIntegral(ValueError):
    """A JSON value that is not an integral number: a bool or a float with a fraction."""


def _json_int(value) -> int:
    """int(value) for a JSON value taken as an integral number."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise _NonIntegral(value)
    if not isinstance(value, (int, float)):
        raise _NotNumber(value)
    return int(value)


def _json_float(value) -> float:
    """float(value) for a JSON value taken as a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
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

_CHUNK_ROWS = 256  # rows read and converted at a time
_EXT_COLUMNS = ("ext_citation_percentile", "ext_journal_percentile")
_WEIGHT_COLUMNS = ("category_weights", "ref_category_weights")
_JSON_FIELDS = (*_ID_COLUMNS, "year", "citations", *_WEIGHT_COLUMNS, "review_a", "review_b", *_EXT_COLUMNS)
_REVIEW_AT = (_JSON_FIELDS.index("review_a"), _JSON_FIELDS.index("review_b"))
# The coded columns of one field each; the six criterion scores are coded
# as one more, "review".
_ONE_FIELD = (*_CODED_IDS, "year", "citations")
# The six criterion cells of a CSV or TSV row, review a's then review b's.
_CRITERION_CELLS = (*_SCORE_COLUMNS["rev_a"], *_SCORE_COLUMNS["rev_b"])
# The flags of a distinct value: it may break an invariant of
# validate_record, or it is a blank criterion.
_SUSPECT, _BLANK = 1, 2
# A criterion of an absent review in JSON Lines and records; the criteria
# of an absent review, and of a JSON review that is not an object.
_NO_SCORE = object()
_NO_REVIEW, _NOT_REVIEW = (_NO_SCORE,) * 3, (_ABSENT,) * 3


def _int_text(text: str) -> int:
    return int(text.strip())


def _id(value) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError("an id that is not a non-empty string")
    return value


def _json_map(value) -> dict[str, float]:
    return {label: _json_float(w) for label, w in value.items()}


# How each coded column reads a value of a CSV or TSV file, of a JSON Lines
# file and of records; None is a blank criterion.
_TABLE_PARSE = {
    **dict.fromkeys(_CODED_IDS, lambda text: _id(text.strip())),
    "year": _int_text,
    "citations": _int_text,
    "review": lambda text: _int_text(text) if text.strip() else None,
}
_JSON_PARSE = {
    **dict.fromkeys(_CODED_IDS, _id),
    "year": _json_int,
    "citations": _json_int,
    "review": lambda score: None if score is _NO_SCORE else _json_int(score),
}
_RECORD_PARSE = {
    **dict.fromkeys((*_CODED_IDS, "year", "citations"), lambda value: value),
    "review": lambda score: None if score is _NO_SCORE else score,
}


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


def _sorted_codes(values: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct strings of values, and each value's index among them."""
    names = sorted(set(values))
    index = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def _each_distinct(convert: Callable, texts: Sequence[str]) -> list:
    """convert(text) of each text, called once per distinct text."""
    converted = {text: convert(text) for text in dict.fromkeys(texts)}
    return list(map(converted.__getitem__, texts))


def _entries(maps: Sequence[dict], labels: _Texts) -> Entries:
    """The entries of one weight map per row, the rows counted from 0,
    their labels coded by labels."""
    return Entries(
        np.repeat(np.arange(len(maps)), list(map(len, maps))),
        np.fromiter(map(labels.__getitem__, chain.from_iterable(maps)), dtype=np.intp),
        np.fromiter(chain.from_iterable(map(dict.values, maps)), dtype=float),
    )


def _criterion_columns(reviews: Sequence[Sequence[tuple]]) -> list[list]:
    """The six criterion columns of the review a and b columns, each review the tuple of its scores."""
    return [[review[k] for review in column] for column in reviews for k in range(3)]


def _percentiles(values: Sequence[float | None]) -> tuple[np.ndarray, np.ndarray]:
    """A percentile column: the values, NaN where absent (None), and which are present."""
    present = np.fromiter(map(operator.is_not, values, repeat(None)), dtype=bool, count=len(values))
    pct = np.full(len(values), np.nan)
    if present.any():
        pct[present] = list(compress(values, present))
    return pct, present


class _Coder:
    """Columns built a chunk at a time. The institution, area and journal
    ids, years, citation counts and the six criterion scores, which repeat
    across a file, become codes into a _Texts each, which reads and screens
    each distinct value once; they are decoded once every chunk is added.
    The weight maps, percentiles and pub_ids, which seldom repeat, come
    converted a chunk at a time."""

    def __init__(self, parse: dict[str, Callable], census_year: int | None):
        screen = {
            "year": lambda year: _SUSPECT * (census_year is not None and year > census_year),
            "citations": lambda n: _SUSPECT * (not 0 <= n <= MAX_CITATIONS),
            "review": lambda score: _BLANK if score is None else _SUSPECT * (not 1 <= score <= 10),
        }
        self.texts = {name: _Texts(read, screen.get(name, lambda value: 0)) for name, read in parse.items()}
        self.labels = _Texts(lambda label: label, lambda label: 0)  # of both weight maps
        self.chunks: dict[str, list] = {name: [] for name in (*_WEIGHT_COLUMNS, *_EXT_COLUMNS)}
        self.pub_id: list[str] = []

    def add(self, keys: dict[str, list[Sequence]], pub_id: list[str], maps: list[list[dict]], pct: list[tuple]) -> np.ndarray:
        """Add a chunk: the values of its coded columns by _Texts, its
        pub_ids, its category and reference weight maps, and each percentile
        column as (values, NaN where absent, which are present). Return which
        rows the screen flags; raise where a row does not parse."""
        n = len(pub_id)
        codes = {name: texts.code(keys[name]) for name, texts in self.texts.items()}
        flags = np.zeros(n, dtype=np.uint8)
        for name, texts in self.texts.items():
            if texts.flagged:
                flags |= np.bitwise_or.reduce(texts.flags_of(codes[name]), axis=0)
        if (flags & _BLANK).any():
            blank = (self.texts["review"].flags_of(codes["review"]) & _BLANK).reshape(2, 3, n) > 0
            if (blank.any(axis=1) != blank.all(axis=1)).any():
                raise ValueError("a review with some but not all of its cells blank")
        w, refs = entries = [_entries(column, self.labels) for column in maps]
        total = np.bincount(w.row, weights=w.weight, minlength=n)
        outside = np.bincount(w.row, weights=~((w.weight > 0.0) & (w.weight <= 1.0)), minlength=n) > 0
        ref_mass = np.bincount(refs.row, weights=np.abs(refs.weight), minlength=n)
        suspect = (
            (flags & _SUSPECT).astype(bool)
            | (np.bincount(w.row, minlength=n) == 0)
            # validate_record sums the weights with sum(), which compensates
            # rounding from Python 3.12 on; a total within half the tolerance
            # here is within the tolerance there.
            | ~(np.abs(total - 1.0) <= WEIGHT_TOL / 2)
            | outside
            # Likewise a sum of absolute reference weights below 1e308 is finite both ways.
            | ~(ref_mass < 1e308)
        )
        for name, (values, present) in zip(_EXT_COLUMNS, pct):
            suspect |= present & ~((values >= 0.0) & (values <= 100.0))
            self.chunks[name].append(values)
        for name, e in zip(_WEIGHT_COLUMNS, entries):
            self.chunks[name].append(e._replace(row=e.row + len(self.pub_id)))
        self.pub_id += pub_id
        return suspect

    def columns(self) -> Columns:
        """The columns of every row added, each _Texts dropped as its column is decoded."""
        texts, n = self.texts, len(self.pub_id)
        values: dict = {"pub_id": self.pub_id}
        values["labels"], sorted_label = _sorted_codes(self.labels.values)
        for field, name in zip(("weights", "refs"), _WEIGHT_COLUMNS):
            row, label, weight = map(np.concatenate, zip(*self.chunks.pop(name)))
            values[field] = Entries(row, sorted_label[label], weight)
        review = texts.pop("review")
        codes, score = review.joined(), _int_array([value or 0 for value in review.values])
        values["review"] = np.empty((n, 2, 3), dtype=score.dtype)
        for k, criterion in enumerate(codes):
            values["review"].reshape(n, 6)[:, k] = score[criterion]
        # Once every row parses, a review is present where its first criterion is not blank.
        values["has_review"] = np.ascontiguousarray(((review.flags_of(codes[::3]) & _BLANK) == 0).T)
        del codes, review
        for name in _CODED_IDS:
            ids = texts.pop(name)
            values[name + "s"], sorted_code = _sorted_codes(ids.values)
            values[name] = sorted_code[ids.joined()[0]]
        for name in ("year", "citations"):
            ints = texts.pop(name)
            values[name] = _int_array(ints.values)[ints.joined()[0]]
        for name in _EXT_COLUMNS:
            values[name] = np.concatenate(self.chunks.pop(name))
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
    their values of _JSON_FIELDS by field, each line's number appended to
    numbers. A field a line leaves out is _ABSENT, and a review object the
    tuple of its criterion scores (a JSON value is never a tuple), so that
    no key outlives its line. A line that is not a JSON object, or text
    that is not UTF-8, raises once the lines before it are yielded."""
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
            row = list(map(obj.get, _JSON_FIELDS, repeat(_ABSENT)))
            for k in _REVIEW_AT:
                if type(row[k]) is dict:
                    # Built from a list: a tuple built from map() starts at a
                    # guessed size and is shrunk, and the free list then keeps
                    # such tuples after they are freed.
                    row[k] = tuple(list(map(row[k].get, _CRITERIA, repeat(_ABSENT))))
            numbers.append(number)
            chunk.append(row)
            if len(chunk) == _CHUNK_ROWS:
                yield _by_column(_JSON_FIELDS, chunk)
    except (CorpusParseError, UnicodeDecodeError):
        if chunk:
            yield _by_column(_JSON_FIELDS, chunk)
        raise
    if chunk:
        yield _by_column(_JSON_FIELDS, chunk)


def _table_keys(cells: dict[str, Sequence[str]]) -> tuple:
    """_Coder.add's arguments for a chunk of a CSV or TSV file, from its cells."""
    keys = {name: [cells[name]] for name in _ONE_FIELD}
    keys["review"] = [cells[column] for column in _CRITERION_CELLS]
    pub_id = list(map(str.strip, cells["pub_id"]))
    if "" in pub_id:
        raise ValueError("a blank pub_id")
    maps = [_each_distinct(lambda text: _parse_weights(text, ""), cells[name]) for name in _WEIGHT_COLUMNS]
    # A blank percentile is absent, as _opt_float reads it.
    pct = [_each_distinct(lambda text: float(text) if text.strip() else None, cells[name]) for name in _EXT_COLUMNS]
    return keys, pub_id, maps, list(map(_percentiles, pct))


def _json_keys(fields: dict[str, Sequence]) -> tuple:
    """_Coder.add's arguments for a chunk of a JSON Lines file, from its values."""
    keys = {name: [fields[name]] for name in _ONE_FIELD}
    keys["review"] = _criterion_columns(
        [
            [sub if type(sub) is tuple else _NO_REVIEW if sub is None or sub is _ABSENT else _NOT_REVIEW for sub in fields[key]]
            for key in ("review_a", "review_b")
        ]
    )
    # A bool is no number, but as a key it equals 0 or 1.
    if bool in set(map(type, chain(fields["year"], fields["citations"], *keys["review"]))):
        raise ValueError("a bool where a number belongs")
    # An absent or empty reference map is no map.
    maps = [list(map(_json_map, fields["category_weights"]))]
    maps.append([_json_map(m) if m is not _ABSENT and m else {} for m in fields["ref_category_weights"]])
    pct = [list(map(_json_percentile, fields[name])) for name in _EXT_COLUMNS]
    return keys, list(map(_id, fields["pub_id"])), maps, list(map(_percentiles, pct))


def _json_record(row: dict, where: str) -> PublicationRecord:
    """_record_from_json of a line's fields as _json_chunks reads them."""
    obj = {name: value for name, value in row.items() if value is not _ABSENT}
    for key in ("review_a", "review_b"):
        if type(obj.get(key)) is tuple:
            obj[key] = {c: v for c, v in zip(_CRITERIA, obj[key]) if v is not _ABSENT}
    return _record_from_json(obj, where)


def _row_name(path: Path, number: int) -> str:
    """The row of the given number in a corpus file as messages name it,
    such as "c.csv row 3" or "c.jsonl line 2"."""
    return f"{path.name} {'line' if _detect_format(path) == 'jsonl' else 'row'} {number}"


def _read(path: Path, census_year: int | None, numbers: array) -> tuple[Columns, list[tuple[int, PublicationRecord]]]:
    """The columns of a corpus file, read a chunk of rows at a time, each
    row's number in the file appended to numbers, and (row, its parse) of
    each row the screen flags. The file's format gives a chunk reader, the
    arguments of _Coder.add for a chunk and a row parse, looked up at each
    call. A chunk that does not convert is parsed row by row instead: the
    first row that does not parse raises, and a conversion that fails
    although every row parses raises AssertionError. A fault that stops
    reading is raised once the rows before it are converted, so an earlier
    row that does not parse wins."""
    fmt = _detect_format(path)
    if fmt == "jsonl":
        read, keys, parse, coder = _json_chunks, _json_keys, _json_record, _Coder(_JSON_PARSE, census_year)
    else:
        read = partial(_table_chunks, delimiter="\t" if fmt == "tsv" else ",")
        keys, parse, coder = _table_keys, _record_from_row, _Coder(_TABLE_PARSE, census_year)
    flagged, start = [], 0  # start: the chunk's first row
    with _open_text(path, "corpus") as fh:
        try:
            for cells in read(fh, path.name, numbers):

                def parse_row(i: int) -> PublicationRecord:
                    return parse({name: column[i] for name, column in cells.items()}, _row_name(path, numbers[start + i]))

                try:
                    suspects = coder.add(*keys(cells))
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
    return coder.columns(), flagged


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

    The file is read a chunk of rows at a time (_read). Each id, year,
    citation and criterion cell becomes a code into a table of the distinct
    values of its column that lasts the whole load (_Coder), each value
    converted and screened once; the weight maps and percentiles are
    converted, and screened with numpy, a chunk at a time. Only the rows
    the screen flags keep their row parse. A 3,000-record file peaks at
    about 1.36 (CSV) and 1.40 (JSON Lines) times the memory of the corpus
    returned, and 1.33 and 1.36 when each record has weight maps of its
    own. The earliest faulty row is named: parse faults come first, in row
    order, then validation faults, in row order with the scan for a repeated
    pub_id ahead of validate_record within a row. Each row's number in the
    file is kept once, in one array, to name a repeat and its first row.
    """
    path = Path(path)
    numbers = array("q")  # row -> its number in the file
    columns, flagged = _read(path, options.census_year, numbers)
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

