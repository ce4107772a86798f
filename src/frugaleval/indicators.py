"""Bibliometric data model and the highly-cited-paper indicator.

A publication counts as highly cited when it sits in the top share
(default 10%) of its own subject category and publication year, ranked
by citation count against a reference corpus. Boundary ties are all
included, so the highly cited stratum can be larger than the nominal
share; the alternative (dropping an arbitrary subset of tied papers)
would make the classification depend on input order.

All types are immutable values and all operations are pure functions,
so everything here is safe to call concurrently.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

HIGHLY_CITED = "highly_cited_papers"


class DocType(enum.Enum):
    ARTICLE = "article"
    REVIEW = "review"
    OTHER = "other"


class Validation(enum.Enum):
    PENDING = "pending"
    INCLUDED = "included"
    EXCLUDED = "excluded"


class Direction(enum.Enum):
    """Orientation of an indicator: which end of the scale is good."""

    HIGHER_IS_BETTER = "higher_is_better"
    LOWER_IS_BETTER = "lower_is_better"


class PendingPublicationsError(ValueError):
    """A profile is scored before every pending publication is resolved."""


def top_quota(fraction: float, n: int) -> int:
    """ceil(fraction * n), guarded against float noise on exact multiples."""
    return math.ceil(round(fraction * n, 9))


@dataclass(frozen=True)
class Publication:
    id: str
    year: int
    category: str
    citations: int
    doc_type: DocType = DocType.ARTICLE
    validated: Validation = Validation.INCLUDED

    def __post_init__(self) -> None:
        if self.citations < 0:
            raise ValueError(
                f"publication {self.id!r}: citations must be >= 0, got {self.citations}"
            )


@dataclass(frozen=True)
class IndicatorDefinition:
    name: str
    direction: Direction = Direction.HIGHER_IS_BETTER

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("indicator name must be non-empty")


@dataclass(frozen=True)
class CandidateProfile:
    """A candidate: identifier, publication list, named indicator scores."""

    id: str
    publications: tuple[Publication, ...] = ()
    indicators: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "publications", tuple(self.publications))
        object.__setattr__(self, "indicators", dict(self.indicators))
        seen: set[str] = set()
        for pub in self.publications:
            if pub.id in seen:
                raise ValueError(f"profile {self.id!r}: duplicate publication id {pub.id!r}")
            seen.add(pub.id)
        for name, score in self.indicators.items():
            if not math.isfinite(score):
                raise ValueError(
                    f"profile {self.id!r}: indicator {name!r} has non-finite score {score!r}"
                )

    def indicator(self, name: str) -> float:
        try:
            return self.indicators[name]
        except KeyError:
            raise ValueError(f"profile {self.id!r} is missing indicator {name!r}") from None

    def with_indicator(self, name: str, score: float) -> CandidateProfile:
        """Return a copy with one indicator score set (profiles are immutable)."""
        return replace(self, indicators={**self.indicators, name: score})

    def pending_publications(self) -> tuple[Publication, ...]:
        return tuple(p for p in self.publications if p.validated is Validation.PENDING)


class ReferenceCorpus:
    """Publications grouped by (category, year): the population that
    citation ranks are computed against.

    Group membership is taken from each publication's own category and
    year fields. Publications marked excluded never enter any group.
    """

    def __init__(self, publications: Iterable[Publication]):
        groups: dict[tuple[str, int], list[Publication]] = {}
        for pub in publications:
            if pub.validated is Validation.EXCLUDED:
                continue
            groups.setdefault((pub.category, pub.year), []).append(pub)
        self._groups = {key: tuple(pubs) for key, pubs in groups.items()}
        # ascending citation counts per group, for O(log n) rank queries
        self._citations = {
            key: sorted(p.citations for p in pubs) for key, pubs in self._groups.items()
        }

    @property
    def publications(self) -> tuple[Publication, ...]:
        return tuple(p for key in sorted(self._groups) for p in self._groups[key])

    def group_keys(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._groups))

    def group(self, category: str, year: int) -> tuple[Publication, ...]:
        try:
            return self._groups[(category, year)]
        except KeyError:
            raise ValueError(
                f"reference corpus has no group for category={category!r}, year={year}"
            ) from None

    def group_citations(self, category: str, year: int) -> list[int]:
        self.group(category, year)
        return self._citations[(category, year)]


def finalize_publication_list(
    profile: CandidateProfile,
    decisions: Mapping[str, Validation | str],
) -> CandidateProfile:
    """Apply include/exclude decisions and resolve every pending publication.

    Publications absent from ``decisions`` default to included. Decision
    values may be Validation members or the strings "included"/"excluded".
    """
    known = {p.id for p in profile.publications}
    resolved: dict[str, Validation] = {}
    for pub_id, decision in decisions.items():
        if pub_id not in known:
            raise ValueError(f"decision references unknown publication id {pub_id!r}")
        value = Validation(decision) if isinstance(decision, str) else decision
        if value is Validation.PENDING:
            raise ValueError(f"decision for {pub_id!r} must be included or excluded")
        resolved[pub_id] = value
    finalized = tuple(
        replace(pub, validated=resolved.get(pub.id, Validation.INCLUDED))
        for pub in profile.publications
    )
    return replace(profile, publications=finalized)


def is_highly_cited(pub: Publication, corpus: ReferenceCorpus, p: float = 0.10) -> bool:
    """True when fewer than ceil(p * N) publications in the publication's own
    (category, year) group cite strictly more than it does.

    Every publication tied at the boundary qualifies, so the maximum of a
    non-empty group always qualifies.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if pub.validated is not Validation.INCLUDED:
        raise ValueError(f"publication {pub.id!r} is not included (status: {pub.validated.value})")
    if pub.doc_type not in (DocType.ARTICLE, DocType.REVIEW):
        raise ValueError(
            f"publication {pub.id!r} has doc_type {pub.doc_type.value!r}; "
            "only articles and reviews are ranked"
        )
    citations = corpus.group_citations(pub.category, pub.year)
    n = len(citations)
    strictly_greater = n - bisect.bisect_right(citations, pub.citations)
    return strictly_greater < top_quota(p, n)


def count_highly_cited(
    profile: CandidateProfile, corpus: ReferenceCorpus, p: float = 0.10
) -> int:
    """Number of included article/review publications that are highly cited.

    The profile must be finalized first; callers typically write the result
    back with ``profile.with_indicator(HIGHLY_CITED, count)``.
    """
    pending = profile.pending_publications()
    if pending:
        ids = ", ".join(repr(p.id) for p in pending)
        raise PendingPublicationsError(f"profile {profile.id!r} has pending publications: {ids}")
    count = 0
    for pub in profile.publications:
        if pub.validated is not Validation.INCLUDED:
            continue
        if pub.doc_type not in (DocType.ARTICLE, DocType.REVIEW):
            continue
        if is_highly_cited(pub, corpus, p):
            count += 1
    return count
