"""Delimiter-separated tabular files: corpora, candidates, environments, careers.

All readers are strict: every malformed row is reported with the physical
line it starts on and nothing is silently dropped. Blank lines are skipped;
every other row must have exactly as many fields as the header. Every
header column has a name, no name repeats, and the names are part of the
file contract. Files are UTF-8: a leading byte-order mark is skipped, and
a byte that is not UTF-8 is reported with its line.

  corpus:      id, year, category, citations, doc_type
  candidates:  id, year, category, citations, doc_type, candidate_id, validated
  profiles:    id, <one column per indicator>  (a criterion column is ignored)
  environment: id, criterion, <one column per cue>
  career:      position, impact

A reader that reads its file a second time, to name the lines of its
problems, sees the first read's bytes: a pipe, which cannot seek back, is
held in memory (_opened).

A corpus or candidates file is read first by one tight loop,
_publications, which accepts what the checked conversions accept but keeps
no line numbers. At its first bad row, or when a publication id repeats
within a candidate, the file is read again through the checked
conversions: one pass, like every other reader's, that names every bad
row and every repeated key together, in line order. Every Publication a reader
loads has citations >= 0, as does one built any other way: the loop checks
the sign before it builds the tuple with tuple.__new__, and the checked
path builds through Publication(...), whose __new__ checks it.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import io
import math
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterator

from .indicators import (
    CandidateProfile,
    DocType,
    Publication,
    ReferenceCorpus,
    Validation,
)

CORPUS_COLUMNS = ("id", "year", "category", "citations", "doc_type")
CANDIDATE_COLUMNS = CORPUS_COLUMNS + ("candidate_id", "validated")
CAREER_COLUMNS = ("position", "impact")
# in profiles and environments every other column holds one finite number
KEY_COLUMNS = ("id", "criterion")

if TYPE_CHECKING:
    # the readers that build them import them, so that screen and choose load neither module
    from .careers import CareerSequence
    from .ecology import Environment


class TableError(ValueError):
    """A tabular input violated the file contract."""


@contextlib.contextmanager
def _opened(path: Path) -> Iterator[BinaryIO]:
    """The file's bytes, for every look a reader takes at them: a pipe,
    which cannot seek back, is read into memory once."""
    with path.open("rb") as raw:
        yield raw if raw.seekable() else io.BytesIO(raw.read())


@contextlib.contextmanager
def _csv_rows(source: BinaryIO) -> Iterator:
    """A csv.reader over the text of `source` from its first byte."""
    source.seek(0)
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        yield csv.reader(text)
    finally:
        text.detach()  # leave the source open for the next look


def _header(path: Path, reader: Iterator[list[str]], required: tuple[str, ...]) -> list[str]:
    """The first row that is not blank, once every required column is in it,
    no column is nameless and no name repeats."""
    header = next((row for row in reader if row), None)
    if header is None:
        raise TableError(f"{path}: file is empty (expected a header row)")
    missing = [col for col in required if col not in header]
    if missing:
        raise TableError(f"{path}: missing required columns: {', '.join(missing)}")
    nameless = next((i for i, col in enumerate(header) if not col.strip()), None)
    if nameless is not None:
        raise TableError(f"{path}: header column {nameless + 1} has no name")
    repeated = sorted({col for col in header if header.count(col) > 1})
    if repeated:
        raise TableError(f"{path}: repeated header columns: {', '.join(repeated)}")
    return header


def _read_table(path: str | Path, required: tuple[str, ...],
                converter: Callable[[list[str]], Callable[[list[str]], object]],
                unique: str) -> list:
    """Every row of a file that only the checked conversions read, as _read_rows converts it."""
    path = Path(path)
    with _opened(path) as source:
        return list(_read_rows(path, source, required, converter, unique))


def _read_rows(path: Path, source: BinaryIO, required: tuple[str, ...],
               converter: Callable[[list[str]], Callable[[list[str]], object]],
               unique: str | None = None) -> Iterator:
    """Yield convert(fields) for every data row of the CSV file at `path`,
    whose bytes `source` holds as _opened gives them.

    convert is made once, by converter(header), and takes a row's fields in
    header order. A ValueError from converter(header) is the header's
    problem; one from convert(fields) is the row's, reported with its line.
    With `unique` naming the row's key, convert returns a tuple led by the
    key's value, and no two rows may share it. Every row problem is
    collected, and after the last row they are raised together as one
    TableError.
    """
    problems: list[str] = []
    first_line: dict = {}
    end = 0
    try:
        with _csv_rows(source) as reader:
            header = _header(path, reader, required)
            try:
                convert = converter(header)
            except ValueError as exc:
                raise TableError(f"{path}: {exc}") from None
            width = len(header)
            end = reader.line_num
            for fields in reader:
                # a quoted newline makes one row span several physical lines
                line, end = end + 1, reader.line_num
                if not fields:
                    continue
                if len(fields) != width:
                    problems.append(f"line {line}: {len(fields)} fields, header has {width}")
                    continue
                try:
                    value = convert(fields)
                except ValueError as exc:
                    problems.append(f"line {line}: {exc}")
                    continue
                if unique is not None:
                    first = first_line.setdefault(value[0], line)
                    if first != line:
                        problems.append(f"line {line}: {unique} {value[0]!r} repeats line {first}")
                        continue
                yield value
    except csv.Error as exc:
        problems.append(f"line {end + 1}: {exc}")
    except UnicodeDecodeError:
        source.seek(0)
        problems.append(undecodable_byte(source.read()))
    if problems:
        raise TableError(f"{path}: " + "; ".join(problems))


def undecodable_byte(data: bytes) -> str:
    """Where the first byte of a file's `data` that is not UTF-8 sits, as
    `line N: byte 0x.. is not valid UTF-8`. A decoder's error gives a
    position within its chunk, so the caller passes the bytes it decoded;
    bytes that decode were not the ones the decoder saw."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
    else:
        return "the file changed while it was read"
    # csv counts a line at every \r\n, \r or \n
    breaks = data.count(b"\n", 0, at) + data.count(b"\r", 0, at) - data.count(b"\r\n", 0, at)
    return f"line {breaks + 1}: byte 0x{data[at]:02x} is not valid UTF-8"


def _number(text: str, column: str, kind: type = float):
    """The field as an int, or as a finite float; fields become numbers only here."""
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(
            f"{column} {text!r} is not {'an integer' if kind is int else 'a number'}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{column} {text!r} is not a finite number")
    return value


_DOC_TYPES = {member.value: member for member in DocType}
_VALIDATIONS = {member.value: member for member in Validation}


def _member(text: str, column: str, members: dict[str, enum.Enum]):
    try:
        return members[text]
    except KeyError:
        raise ValueError(f"{column} {text!r} is not one of {', '.join(members)}") from None


def _publications(path: Path, source: BinaryIO,
                  required: tuple[str, ...]) -> list[Publication] | dict | None:
    """A well-formed corpus or candidates file, read in one loop: for
    CORPUS_COLUMNS its Publications, for CANDIDATE_COLUMNS a dict from
    candidate_id to that candidate's Publications, each in file order.

    It accepts what the checked path accepts: a blank row, or one as wide as
    the header with int year and citations, citations >= 0 and a known
    doc_type and validated. At the first header, row, csv.Error or byte it
    cannot accept it returns None, for the checked path to name every bad line.
    """
    with _csv_rows(source) as reader:
        try:
            header = _header(path, reader, required)
            i_id, i_year, i_category, i_citations, i_doc_type = map(header.index, CORPUS_COLUMNS)
            grouped = required == CANDIDATE_COLUMNS
            if grouped:
                i_candidate, i_validated = map(header.index, ("candidate_id", "validated"))
            width, new, doc_types, validations = len(header), tuple.__new__, _DOC_TYPES, _VALIDATIONS
            found, included = {} if grouped else [], Validation.INCLUDED
            for fields in reader:
                if len(fields) != width:
                    if fields:
                        return None
                    continue
                citations = int(fields[i_citations])
                if citations < 0:
                    return None
                pub = new(Publication, (fields[i_id], int(fields[i_year]), fields[i_category],
                                        citations, doc_types[fields[i_doc_type]],
                                        validations[fields[i_validated]] if grouped else included))
                if grouped:
                    found.setdefault(fields[i_candidate], []).append(pub)
                else:
                    found.append(pub)
        except (ValueError, KeyError, csv.Error):  # TableError, UnicodeDecodeError are ValueErrors
            return None
    return found


def _checked_publication(fields: list[str], columns: tuple[int, ...],
                         validated: Validation) -> Publication:
    """The row's Publication, with `columns` the positions of CORPUS_COLUMNS,
    through the checked conversions: they raise naming the first bad field
    in the order year, citations, doc_type, and Publication(...) then checks
    the sign of citations."""
    pid, year, category, citations, doc_type = (fields[i] for i in columns)
    return Publication(pid, _number(year, "year", int), category,
                       _number(citations, "citations", int),
                       _member(doc_type, "doc_type", _DOC_TYPES), validated)


def _publication_converter(header: list[str]) -> Callable[[list[str]], Publication]:
    columns = tuple(map(header.index, CORPUS_COLUMNS))
    return lambda fields: _checked_publication(fields, columns, Validation.INCLUDED)


def read_corpus(path: str | Path) -> ReferenceCorpus:
    path = Path(path)
    with _opened(path) as source:
        publications = _publications(path, source, CORPUS_COLUMNS)
        if publications is None:
            publications = list(_read_rows(path, source, CORPUS_COLUMNS,
                                           _publication_converter))
    # a list, not a row generator: ReferenceCorpus then only builds, so
    # reading and building can be timed apart
    return ReferenceCorpus(publications)


def _candidate_converter(header: list[str]) -> Callable[[list[str]], tuple]:
    columns = tuple(map(header.index, CORPUS_COLUMNS))
    i_candidate, i_validated = map(header.index, ("candidate_id", "validated"))

    def candidate_row(fields: list[str]) -> tuple[tuple[str, str], Publication]:
        # validated is checked first, so a bad one is named before any other field
        validated = _member(fields[i_validated], "validated", _VALIDATIONS)
        pub = _checked_publication(fields, columns, validated)
        return (fields[i_candidate], pub.id), pub

    return candidate_row


def _profiles(grouped: dict[str, list[Publication]]) -> list[CandidateProfile]:
    return [CandidateProfile(id=candidate_id, publications=tuple(pubs))
            for candidate_id, pubs in sorted(grouped.items())]


def read_candidates(path: str | Path) -> list[CandidateProfile]:
    """Candidate publication rows grouped into profiles by candidate_id."""
    path = Path(path)
    with _opened(path) as source:
        grouped = _publications(path, source, CANDIDATE_COLUMNS)
        if grouped is not None:
            try:
                return _profiles(grouped)
            except ValueError:  # a publication id repeats within a candidate
                pass
        grouped = {}
        for (candidate_id, _), pub in _read_rows(path, source, CANDIDATE_COLUMNS,
                                                 _candidate_converter,
                                                 unique="(candidate_id, id)"):
            grouped.setdefault(candidate_id, []).append(pub)
    return _profiles(grouped)


def _value_columns(header: list[str], what: str) -> list[tuple[int, str]]:
    columns = [(i, column) for i, column in enumerate(header) if column not in KEY_COLUMNS]
    if not columns:
        raise ValueError(f"{what} has no value columns")
    return columns


def _values(fields: list[str], columns: list[tuple[int, str]]) -> dict[str, float]:
    return {column: _number(fields[i], column) for i, column in columns}


def _profile_converter(header: list[str]) -> Callable[[list[str]], tuple]:
    i_id, columns = header.index("id"), _value_columns(header, "profiles table")
    return lambda fields: (fields[i_id], _values(fields, columns))


def _environment_converter(header: list[str]) -> Callable[[list[str]], tuple]:
    i_id, i_criterion = map(header.index, KEY_COLUMNS)
    columns = _value_columns(header, "environment file")
    return lambda fields: (fields[i_id], _number(fields[i_criterion], "criterion"),
                           _values(fields, columns))


def read_profiles_table(path: str | Path) -> list[CandidateProfile]:
    """Candidate indicator scores: column id plus one numeric column per
    indicator. A criterion column, if present, is ground truth rather than
    a cue and is not loaded as an indicator.
    """
    rows = _read_table(path, ("id",), _profile_converter, unique="id")
    return [CandidateProfile(id=pid, indicators=indicators) for pid, indicators in rows]


def read_environment(path: str | Path) -> Environment:
    """id, criterion, plus one column per cue; every extra column is a cue."""
    from .ecology import Environment

    rows = _read_table(path, KEY_COLUMNS, _environment_converter, unique="id")
    if len(rows) < 2:
        raise TableError(f"{path}: environment needs at least 2 objects, got {len(rows)}")
    ids, criterion, cues = zip(*rows)
    return Environment(ids, criterion, [list(c.values()) for c in cues], list(cues[0]))


def _career_converter(header: list[str]) -> Callable[[list[str]], tuple[int, float]]:
    i_position, i_impact = map(header.index, CAREER_COLUMNS)

    def career_row(fields: list[str]) -> tuple[int, float]:
        position = _number(fields[i_position], "position", int)
        impact = _number(fields[i_impact], "impact")
        if impact < 0:
            raise ValueError(f"impact must be >= 0, got {impact!r}")
        return position, impact

    return career_row


def read_career(path: str | Path) -> CareerSequence:
    from .careers import CareerSequence

    rows = sorted(_read_table(path, CAREER_COLUMNS, _career_converter, unique="position"))
    if not rows:
        raise TableError(f"{path}: career file contains no works")
    return CareerSequence(tuple(impact for _, impact in rows))


def write_career(seq: CareerSequence, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CAREER_COLUMNS)
        for position, impact in enumerate(seq.impacts):
            writer.writerow([position, repr(impact)])
