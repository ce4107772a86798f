"""Bibliometric data model and the highly-cited-paper indicator.

A publication counts as highly cited when it sits in the top share
(default 10%) of its own subject category and publication year, ranked
by citation count against a reference corpus. The population of a
(category, year) group is every corpus publication in it that is not
excluded, of any document type, `other` included; of the publications
being scored, only articles and reviews can count. Boundary ties are all
included, so the highly cited stratum can be larger than the nominal
share; the alternative (dropping an arbitrary subset of tied papers)
would make the classification depend on input order.

All types are immutable values and all operations are pure functions,
so everything here is safe to call concurrently. The one cache, a
corpus's thresholds per share, is filled with values that depend on the
share alone, so two threads filling it at once store the same values.
"""

from __future__ import annotations

import enum
import math
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from ._records import _checked_make

HIGHLY_CITED = "highly_cited_papers"


class DocType(enum.Enum):
    ARTICLE = "article"
    REVIEW = "review"
    OTHER = "other"


# the document types that are ranked; every other type is never highly cited
_RANKED = (DocType.ARTICLE, DocType.REVIEW)


class Validation(enum.Enum):
    PENDING = "pending"
    INCLUDED = "included"
    EXCLUDED = "excluded"


class PendingPublicationsError(ValueError):
    """A profile is scored before every pending publication is resolved."""


class MissingGroupError(ValueError):
    """A publication's (category, year) group is absent from the reference corpus."""


def top_quota(fraction: float, n: int) -> int:
    """ceil(fraction * n), guarded against float noise on exact multiples;
    at least 1 of n >= 1, however small the fraction."""
    return max(math.ceil(round(fraction * n, 9)), min(n, 1))


class _PublicationFields(NamedTuple):
    id: str
    year: int
    category: str
    citations: int
    doc_type: DocType
    validated: Validation


class Publication(_PublicationFields):
    """One publication: an immutable tuple of its six fields.

    Being a tuple, a Publication compares equal to a plain tuple holding
    the same fields in the same order.

    citations >= 0 holds however a Publication is built: __new__ checks it,
    and _make and _replace go through __new__. The corpus and candidates
    readers' loop for a well-formed file builds rows with tuple.__new__
    and checks the sign itself first; their checked path, which reads a
    file with a bad row, builds through Publication(...), so __new__
    checks it there (see frugaleval.tables).
    """

    __slots__ = ()

    def __new__(cls, id: str, year: int, category: str, citations: int,
                doc_type: DocType = DocType.ARTICLE,
                validated: Validation = Validation.INCLUDED) -> Publication:
        if citations < 0:
            raise ValueError(f"publication {id!r}: citations must be >= 0, got {citations}")
        return tuple.__new__(cls, (id, year, category, citations, doc_type, validated))

    _make = classmethod(_checked_make)


class _CandidateProfileFields(NamedTuple):
    id: str
    publications: tuple[Publication, ...]
    indicators: Mapping[str, float]


class CandidateProfile(_CandidateProfileFields):
    """A candidate: identifier, publication list, named indicator scores."""

    __slots__ = ()

    def __new__(cls, id: str, publications: Iterable[Publication] = (),
                indicators: Mapping[str, float] = MappingProxyType({})) -> CandidateProfile:
        publications = tuple(publications)
        # read-only, so the finite-score check below holds for the profile's life
        indicators = MappingProxyType(dict(indicators))
        seen: set[str] = set()
        for pub in publications:
            if pub.id in seen:
                raise ValueError(f"profile {id!r}: duplicate publication id {pub.id!r}")
            seen.add(pub.id)
        for name, score in indicators.items():
            if not math.isfinite(score):
                raise ValueError(
                    f"profile {id!r}: indicator {name!r} has non-finite score {score!r}"
                )
        return tuple.__new__(cls, (id, publications, indicators))

    _make = classmethod(_checked_make)

    def indicator(self, name: str) -> float:
        try:
            return self.indicators[name]
        except KeyError:
            raise ValueError(f"profile {self.id!r} is missing indicator {name!r}") from None

    def pending_publications(self) -> tuple[Publication, ...]:
        pending = Validation.PENDING
        return tuple(p for p in self.publications if p.validated is pending)


class ReferenceCorpus:
    """Publications grouped by (category, year): the population that
    citation ranks are computed against.

    Group membership is taken from each publication's own category and
    year fields. Every publication not marked excluded enters its group,
    whatever its document type, so `other` rows move the thresholds;
    excluded ones never enter any group. `publications` holds the others,
    in input order.
    """

    def __init__(self, publications: Iterable[Publication]):
        kept: list[Publication] = []
        groups: dict[tuple[str, int], list[int]] = {}
        # an enum member read through its class is a slow lookup; read it once
        excluded = Validation.EXCLUDED
        for pub in publications:
            _, year, category, citations, _, validated = pub
            if validated is not excluded:
                kept.append(pub)
                try:
                    groups[category, year].append(citations)
                except KeyError:  # the group's first publication
                    groups[category, year] = [citations]
        # ascending citation counts per group: the q-th largest is group[-q]
        for citations in groups.values():
            citations.sort()
        self.publications = tuple(kept)
        self._citations = groups
        # share p -> {group: threshold}, filled by threshold() once per p
        self._thresholds: dict[float, dict[tuple[str, int], int]] = {}

    def group_keys(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._citations))

    def threshold(self, category: str, year: int, p: float) -> int:
        """The q-th largest citation count of the group, q = ceil(p * N):
        a publication of the group is in its top share p exactly when it
        has at least this many citations (fewer than q members cite more).

        The thresholds of every group are computed on the first query of a
        share p and kept for later queries of the same p.
        """
        try:
            return self._share_thresholds(p)[(category, year)]
        except KeyError:
            raise _missing_group(category, year) from None

    def _share_thresholds(self, p: float) -> dict[tuple[str, int], int]:
        """{(category, year): threshold} of share p, for every group."""
        thresholds = self._thresholds.get(p)
        if thresholds is None:
            _check_share(p)
            thresholds = self._thresholds[p] = {
                key: group[-top_quota(p, len(group))] for key, group in self._citations.items()
            }
        return thresholds


def _missing_group(category: str, year: int) -> MissingGroupError:
    return MissingGroupError(
        f"reference corpus has no group for category={category!r}, year={year}")


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
        pub._replace(validated=resolved.get(pub.id, Validation.INCLUDED))
        for pub in profile.publications
    )
    return profile._replace(publications=finalized)


def _check_share(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")


def is_highly_cited(pub: Publication, corpus: ReferenceCorpus, p: float = 0.10) -> bool:
    """True when fewer than ceil(p * N) publications in the publication's own
    (category, year) group cite strictly more than it does.

    Every publication tied at the boundary qualifies, so the maximum of a
    non-empty group always qualifies.
    """
    _check_share(p)
    if pub.validated is not Validation.INCLUDED:
        raise ValueError(f"publication {pub.id!r} is not included (status: {pub.validated.value})")
    if pub.doc_type not in _RANKED:
        raise ValueError(
            f"publication {pub.id!r} has doc_type {pub.doc_type.value!r}; "
            "only articles and reviews are ranked"
        )
    return pub.citations >= corpus.threshold(pub.category, pub.year, p)


def count_highly_cited(
    profile: CandidateProfile, corpus: ReferenceCorpus, p: float = 0.10
) -> int:
    """Number of included article/review publications that are highly cited.

    The profile must be finalized first; callers typically record the result
    as a new profile's score, ``CandidateProfile(id, indicators={HIGHLY_CITED: count})``.
    """
    _check_share(p)
    pending = profile.pending_publications()
    if pending:
        ids = ", ".join(repr(p.id) for p in pending)
        raise PendingPublicationsError(f"profile {profile.id!r} has pending publications: {ids}")
    thresholds = corpus._share_thresholds(p)
    included = Validation.INCLUDED
    count = 0
    for pub_id, year, category, citations, doc_type, validated in profile.publications:
        if validated is not included or doc_type not in _RANKED:
            continue
        threshold = thresholds.get((category, year))
        if threshold is None:
            raise MissingGroupError(
                f"profile {profile.id!r}, publication {pub_id!r}: "
                f"{_missing_group(category, year)}")
        count += citations >= threshold
    return count
