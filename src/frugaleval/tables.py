"""Delimiter-separated tabular files: corpora, candidates, environments, careers.

All readers are strict: every malformed row is reported with its line
number and nothing is silently dropped. Column names are part of the file
contract.

  corpus:      id, year, category, citations, doc_type
  candidates:  id, year, category, citations, doc_type, candidate_id, validated
  environment: id, criterion, <one column per cue>
  career:      position, impact
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

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


class TableError(ValueError):
    """A tabular input violated the file contract."""


def _open_rows(path: str | Path, required: tuple[str, ...]):
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if header is None:
            raise TableError(f"{path}: file is empty (expected a header row)")
        missing = [col for col in required if col not in header]
        if missing:
            raise TableError(f"{path}: missing required columns: {', '.join(missing)}")
        # DictReader consumes the header, so data starts at line 2
        yield from ((lineno, row) for lineno, row in enumerate(reader, start=2))


def _raise_collected(path: str | Path, problems: list[str]) -> None:
    if problems:
        raise TableError(f"{path}: " + "; ".join(problems))


def _parse_publication(
    row: dict[str, str], lineno: int, problems: list[str], validated: Validation
) -> Publication | None:
    if any(row.get(col) is None for col in CORPUS_COLUMNS):
        problems.append(f"line {lineno}: row has fewer fields than the header")
        return None
    try:
        year = int(row["year"])
    except ValueError:
        problems.append(f"line {lineno}: year {row['year']!r} is not an integer")
        return None
    try:
        citations = int(row["citations"])
    except ValueError:
        problems.append(f"line {lineno}: citations {row['citations']!r} is not an integer")
        return None
    if citations < 0:
        problems.append(f"line {lineno}: citations must be >= 0, got {citations}")
        return None
    try:
        doc_type = DocType(row["doc_type"])
    except ValueError:
        problems.append(f"line {lineno}: unknown doc_type {row['doc_type']!r}")
        return None
    return Publication(
        id=row["id"],
        year=year,
        category=row["category"],
        citations=citations,
        doc_type=doc_type,
        validated=validated,
    )


def read_corpus(path: str | Path) -> ReferenceCorpus:
    problems: list[str] = []
    publications: list[Publication] = []
    for lineno, row in _open_rows(path, CORPUS_COLUMNS):
        pub = _parse_publication(row, lineno, problems, Validation.INCLUDED)
        if pub is not None:
            publications.append(pub)
    _raise_collected(path, problems)
    return ReferenceCorpus(publications)


def read_candidates(path: str | Path) -> list[CandidateProfile]:
    """Candidate publication rows grouped into profiles by candidate_id."""
    problems: list[str] = []
    grouped: dict[str, list[Publication]] = {}
    for lineno, row in _open_rows(path, CANDIDATE_COLUMNS):
        if row.get("candidate_id") is None or row.get("validated") is None:
            problems.append(f"line {lineno}: row has fewer fields than the header")
            continue
        try:
            validated = Validation(row["validated"])
        except ValueError:
            problems.append(f"line {lineno}: unknown validated value {row['validated']!r}")
            continue
        pub = _parse_publication(row, lineno, problems, validated)
        if pub is not None:
            grouped.setdefault(row["candidate_id"], []).append(pub)
    _raise_collected(path, problems)
    return [
        CandidateProfile(id=candidate_id, publications=tuple(pubs))
        for candidate_id, pubs in sorted(grouped.items())
    ]


def read_profiles_table(path: str | Path) -> list[CandidateProfile]:
    """Candidate indicator scores: column id plus one numeric column per
    indicator. A criterion column, if present, is ground truth rather than
    a cue and is not loaded as an indicator.
    """
    problems: list[str] = []
    profiles: list[CandidateProfile] = []
    indicator_names: list[str] | None = None
    for lineno, row in _open_rows(path, ("id",)):
        if indicator_names is None:
            indicator_names = [c for c in row if c is not None and c not in ("id", "criterion")]
            if not indicator_names:
                raise TableError(f"{path}: profiles table has no indicator columns")
        if row.get("id") is None:
            problems.append(f"line {lineno}: row has fewer fields than the header")
            continue
        indicators = {}
        ok = True
        for name in indicator_names:
            try:
                indicators[name] = float(row[name])
            except (TypeError, ValueError):
                problems.append(f"line {lineno}: {name} {row[name]!r} is not a number")
                ok = False
        if ok:
            profiles.append(CandidateProfile(id=row["id"], indicators=indicators))
    _raise_collected(path, problems)
    return profiles


def read_environment(path: str | Path) -> Environment:
    """id, criterion, plus one column per cue; every extra column is a cue."""
    problems: list[str] = []
    ids: list[str] = []
    rows: list[list[float]] = []
    cue_names: list[str] | None = None
    for lineno, row in _open_rows(path, ("id", "criterion")):
        if cue_names is None:
            cue_names = [c for c in row if c is not None and c not in ("id", "criterion")]
            if not cue_names:
                raise TableError(f"{path}: environment file has no cue columns")
        if row.get("id") is None:
            problems.append(f"line {lineno}: row has fewer fields than the header")
            continue
        values = []
        for column in ["criterion", *cue_names]:
            try:
                value = float(row[column])
            except (TypeError, ValueError):
                problems.append(f"line {lineno}: {column} {row[column]!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"line {lineno}: {column} {row[column]!r} is not a finite number")
                continue
            values.append(value)
        if len(values) == 1 + len(cue_names):
            ids.append(row["id"])
            rows.append(values)
    _raise_collected(path, problems)
    if len(rows) < 2:
        raise TableError(f"{path}: environment needs at least 2 objects, got {len(rows)}")
    return Environment.from_arrays(ids, [r[0] for r in rows], [r[1:] for r in rows], cue_names)


def write_environment(env: Environment, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "criterion", *env.cue_names])
        for obj in env.objects:
            writer.writerow(
                [obj.id, repr(obj.criterion), *(repr(obj.cues[name]) for name in env.cue_names)]
            )


def read_career(path: str | Path, owner: str = "") -> CareerSequence:
    problems: list[str] = []
    rows: list[tuple[int, float]] = []
    for lineno, row in _open_rows(path, CAREER_COLUMNS):
        try:
            position = int(row["position"])
        except (TypeError, ValueError):
            problems.append(f"line {lineno}: position {row['position']!r} is not an integer")
            continue
        try:
            impact = float(row["impact"])
        except (TypeError, ValueError):
            problems.append(f"line {lineno}: impact {row['impact']!r} is not a number")
            continue
        rows.append((position, impact))
    _raise_collected(path, problems)
    if not rows:
        raise TableError(f"{path}: career file contains no works")
    rows.sort()
    return CareerSequence(tuple(impact for _, impact in rows), owner=owner)


def write_career(seq: CareerSequence, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CAREER_COLUMNS)
        for position, impact in enumerate(seq.impacts):
            writer.writerow([position, repr(impact)])
