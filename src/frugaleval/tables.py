"""Delimiter-separated tabular files: corpora, candidates, environments, careers.

All readers are strict: every malformed row is reported with the physical
line it starts on and nothing is silently dropped. Blank lines are skipped;
every other row must have exactly as many fields as the header. Column
names are part of the file contract.

  corpus:      id, year, category, citations, doc_type
  candidates:  id, year, category, citations, doc_type, candidate_id, validated
  profiles:    id, <one column per indicator>  (a criterion column is ignored)
  environment: id, criterion, <one column per cue>
  career:      position, impact
"""

from __future__ import annotations

import csv
import enum
import math
from pathlib import Path
from typing import Callable, Iterator

from .careers import CareerSequence
from .ecology import Environment
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


class TableError(ValueError):
    """A tabular input violated the file contract."""


class _RowError(ValueError):
    """One row violated the file contract; the reader adds file and line."""


def _read_rows(path: str | Path, required: tuple[str, ...],
               convert: Callable[[dict[str, str]], object], unique: str | None = None) -> Iterator:
    """Yield convert(row) for every data row of a CSV file.

    A row maps each header column to its field. With `unique` naming a
    column, convert returns a tuple led by that column's value, and no two
    rows may share it. Every problem is collected, and after the last row
    they are raised together as one TableError.
    """
    path = Path(path)
    problems: list[str] = []
    first_line: dict = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise TableError(f"{path}: file is empty (expected a header row)")
        missing = [col for col in required if col not in header]
        if missing:
            raise TableError(f"{path}: missing required columns: {', '.join(missing)}")
        repeated = sorted({col for col in header if header.count(col) > 1})
        if repeated:
            raise TableError(f"{path}: repeated header columns: {', '.join(repeated)}")
        end = reader.line_num
        try:
            for fields in reader:
                # a quoted newline makes one row span several physical lines
                line, end = end + 1, reader.line_num
                if not fields:
                    continue
                if len(fields) != len(header):
                    problems.append(f"line {line}: {len(fields)} fields, header has {len(header)}")
                    continue
                try:
                    value = convert(dict(zip(header, fields)))
                except _RowError as exc:
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
    if problems:
        raise TableError(f"{path}: " + "; ".join(problems))


def _number(row: dict[str, str], column: str, kind: type = float):
    """The field as an int, or as a finite float; fields become numbers only here."""
    text = row[column]
    try:
        value = kind(text)
    except ValueError:
        raise _RowError(
            f"{column} {text!r} is not {'an integer' if kind is int else 'a number'}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise _RowError(f"{column} {text!r} is not a finite number")
    return value


def _member(row: dict[str, str], column: str, kind: type[enum.Enum]):
    try:
        return kind(row[column])
    except ValueError:
        known = ", ".join(member.value for member in kind)
        raise _RowError(f"{column} {row[column]!r} is not one of {known}") from None


def _publication(row: dict[str, str], validated: Validation = Validation.INCLUDED) -> Publication:
    year = _number(row, "year", int)
    citations = _number(row, "citations", int)
    if citations < 0:
        raise _RowError(f"citations must be >= 0, got {citations}")
    return Publication(
        id=row["id"],
        year=year,
        category=row["category"],
        citations=citations,
        doc_type=_member(row, "doc_type", DocType),
        validated=validated,
    )


def read_corpus(path: str | Path) -> ReferenceCorpus:
    # a list, not the row generator: ReferenceCorpus then only builds, so
    # reading and building can be timed apart
    return ReferenceCorpus(list(_read_rows(path, CORPUS_COLUMNS, _publication)))


def _candidate_row(row: dict[str, str]) -> tuple[str, Publication]:
    return row["candidate_id"], _publication(row, _member(row, "validated", Validation))


def read_candidates(path: str | Path) -> list[CandidateProfile]:
    """Candidate publication rows grouped into profiles by candidate_id."""
    grouped: dict[str, list[Publication]] = {}
    for candidate_id, pub in _read_rows(path, CANDIDATE_COLUMNS, _candidate_row):
        grouped.setdefault(candidate_id, []).append(pub)
    try:
        return [
            CandidateProfile(id=candidate_id, publications=tuple(pubs))
            for candidate_id, pubs in sorted(grouped.items())
        ]
    except ValueError:
        # a publication id repeats within a candidate: only now key the rows,
        # in a second read, to name the lines
        list(_read_rows(path, CANDIDATE_COLUMNS, lambda row: ((row["candidate_id"], row["id"]),),
                        unique="(candidate_id, id)"))
        raise


def _read_value_rows(path: str | Path, required: tuple[str, ...], convert, what: str) -> list:
    """Rows of a profiles or environment table: one id each, the values last."""
    rows = list(_read_rows(path, required, convert, unique="id"))
    if rows and not rows[0][-1]:
        raise TableError(f"{path}: {what} has no value columns")
    return rows


def _values(row: dict[str, str]) -> dict[str, float]:
    return {column: _number(row, column) for column in row if column not in KEY_COLUMNS}


def read_profiles_table(path: str | Path) -> list[CandidateProfile]:
    """Candidate indicator scores: column id plus one numeric column per
    indicator. A criterion column, if present, is ground truth rather than
    a cue and is not loaded as an indicator.
    """
    rows = _read_value_rows(path, ("id",), lambda row: (row["id"], _values(row)), "profiles table")
    return [CandidateProfile(id=pid, indicators=indicators) for pid, indicators in rows]


def read_environment(path: str | Path) -> Environment:
    """id, criterion, plus one column per cue; every extra column is a cue."""
    rows = _read_value_rows(
        path,
        KEY_COLUMNS,
        lambda row: (row["id"], _number(row, "criterion"), _values(row)),
        "environment file",
    )
    if len(rows) < 2:
        raise TableError(f"{path}: environment needs at least 2 objects, got {len(rows)}")
    ids, criterion, cues = zip(*rows)
    return Environment(ids, criterion, [list(c.values()) for c in cues], list(cues[0]))


def write_environment(env: Environment, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "criterion", *env.cue_names])
        rows = zip(env.ids, env.criterion_values.tolist(), env.cue_matrix.tolist())
        for pid, criterion, cues in rows:
            writer.writerow([pid, repr(criterion), *map(repr, cues)])


def _career_row(row: dict[str, str]) -> tuple[int, float]:
    position = _number(row, "position", int)
    impact = _number(row, "impact")
    if impact < 0:
        raise _RowError(f"impact must be >= 0, got {impact!r}")
    return position, impact


def read_career(path: str | Path) -> CareerSequence:
    rows = sorted(_read_rows(path, CAREER_COLUMNS, _career_row, unique="position"))
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
