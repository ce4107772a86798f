import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from frugaleval.indicators import (
    CandidateProfile,
    DocType,
    MissingGroupError,
    Publication,
    ReferenceCorpus,
    Validation,
    count_highly_cited,
    finalize_publication_list,
    is_highly_cited,
)


def make_group(citations, category="phys", year=2020, prefix="g"):
    return [
        Publication(f"{prefix}{i}", year, category, c) for i, c in enumerate(citations)
    ]


def sorted_group(corpus, category, year, n):
    """The n citation counts of a group, ascending, read back from its
    thresholds: at a share between (q - 1) / n and q / n the threshold is the
    q-th largest count."""
    return [corpus.threshold(category, year, (q - 0.5) / n) for q in range(n, 0, -1)]


def brute_force_highly_cited(group_citations, citations, p):
    """Independent oracle: competition rank over the descending-sorted group,
    against the documented quota ceil(p * n), with p * n in exact arithmetic
    rounded to 9 decimal places."""
    ranked = sorted(group_citations, reverse=True)
    rank = 1
    for value in ranked:
        if value > citations:
            rank += 1
        else:
            break
    return rank <= math.ceil(round(Fraction(p) * len(ranked), 9))


class TestIsHighlyCited:
    def test_decile_boundary_in_0_to_9_group(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        nine = Publication("x", 2020, "phys", 9)
        eight = Publication("y", 2020, "phys", 8)
        assert is_highly_cited(nine, corpus, 0.10) is True
        assert is_highly_cited(eight, corpus, 0.10) is False
        assert brute_force_highly_cited(range(10), 9, 0.10) is True
        assert brute_force_highly_cited(range(10), 8, 0.10) is False

    def test_all_ties_all_qualify(self):
        corpus = ReferenceCorpus(make_group([5] * 10))
        pub = Publication("x", 2020, "phys", 5)
        assert is_highly_cited(pub, corpus, 0.10) is True
        assert brute_force_highly_cited([5] * 10, 5, 0.10) is True

    @pytest.mark.parametrize("citations", [0, 3, 1000])
    def test_singleton_group_member_always_qualifies(self, citations):
        pub = Publication("only", 2020, "phys", citations)
        corpus = ReferenceCorpus([pub])
        assert is_highly_cited(pub, corpus, 0.10) is True

    def test_tiny_share_keeps_the_group_maximum(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        assert is_highly_cited(Publication("x", 2020, "phys", 9), corpus, 1e-11) is True
        assert is_highly_cited(Publication("y", 2020, "phys", 8), corpus, 1e-11) is False

    @settings(derandomize=True)
    @given(
        citations=st.lists(st.integers(0, 30), min_size=1, max_size=40),
        p=st.floats(0.01, 0.99),
        probe=st.integers(0, 30),
    )
    # p * 25 computes as 7.000000000000001 and 14.000000000000002: the quota is 7 and 14
    @example(citations=list(range(25)), p=0.28, probe=17)
    @example(citations=list(range(25)), p=0.56, probe=10)
    def test_matches_rank_oracle(self, citations, p, probe):
        corpus = ReferenceCorpus(make_group(citations))
        pub = Publication("probe", 2020, "phys", probe)
        assert is_highly_cited(pub, corpus, p) == brute_force_highly_cited(
            citations, probe, p
        )

    @settings(derandomize=True)
    @given(citations=st.lists(st.integers(0, 20), min_size=1, max_size=30))
    def test_upward_closure_and_quota_lower_bound(self, citations):
        corpus = ReferenceCorpus(make_group(citations))
        flags = [
            is_highly_cited(Publication(f"q{i}", 2020, "phys", c), corpus, 0.10)
            for i, c in enumerate(citations)
        ]
        # at least the maximum qualifies
        assert any(flags)
        # anything cited at least as much as a qualifying paper qualifies
        qualifying = [c for c, f in zip(citations, flags) if f]
        threshold = min(qualifying)
        for c, f in zip(citations, flags):
            if c >= threshold:
                assert f

    def test_missing_group_is_an_error(self):
        corpus = ReferenceCorpus(make_group(range(5)))
        stray = Publication("x", 1999, "chem", 100)
        with pytest.raises(ValueError, match="chem"):
            is_highly_cited(stray, corpus, 0.10)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_p_outside_unit_interval_rejected(self, p):
        corpus = ReferenceCorpus(make_group(range(5)))
        with pytest.raises(ValueError, match="p must be"):
            is_highly_cited(Publication("x", 2020, "phys", 3), corpus, p)

    def test_non_included_and_wrong_doc_type_rejected(self):
        corpus = ReferenceCorpus(make_group(range(5)))
        excluded = Publication("x", 2020, "phys", 3, validated=Validation.EXCLUDED)
        with pytest.raises(ValueError, match="not included"):
            is_highly_cited(excluded, corpus, 0.10)
        other = Publication("y", 2020, "phys", 3, doc_type=DocType.OTHER)
        with pytest.raises(ValueError, match="articles and reviews"):
            is_highly_cited(other, corpus, 0.10)

    def test_excluded_corpus_publications_do_not_count(self):
        # excluded heavy hitters must not push others out of the top stratum
        heavy = [
            Publication(f"h{i}", 2020, "phys", 100, validated=Validation.EXCLUDED)
            for i in range(5)
        ]
        corpus = ReferenceCorpus(make_group(range(10)) + heavy)
        assert is_highly_cited(Publication("x", 2020, "phys", 9), corpus, 0.10)


class TestCountHighlyCited:
    def test_mixed_profile(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        profile = CandidateProfile(
            "cand",
            publications=(
                Publication("a", 2020, "phys", 9),
                Publication("b", 2020, "phys", 2),
            ),
        )
        assert count_highly_cited(profile, corpus, 0.10) == 1

    def test_empty_profile(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        assert count_highly_cited(CandidateProfile("cand"), corpus, 0.10) == 0

    def test_doc_type_other_filtered_out(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        profile = CandidateProfile(
            "cand",
            publications=(Publication("a", 2020, "phys", 9, doc_type=DocType.OTHER),),
        )
        assert count_highly_cited(profile, corpus, 0.10) == 0

    def test_excluded_publication_never_contributes(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        profile = CandidateProfile(
            "cand",
            publications=(
                Publication("a", 2020, "phys", 9),
                Publication("b", 2020, "phys", 9, validated=Validation.EXCLUDED),
            ),
        )
        assert count_highly_cited(profile, corpus, 0.10) == 1

    def test_pending_publications_rejected(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        profile = CandidateProfile(
            "cand",
            publications=(Publication("a", 2020, "phys", 9, validated=Validation.PENDING),),
        )
        with pytest.raises(ValueError, match="pending"):
            count_highly_cited(profile, corpus, 0.10)

    @settings(derandomize=True)
    @given(
        group=st.lists(st.integers(0, 6), min_size=1, max_size=40),
        pubs=st.lists(st.tuples(st.integers(0, 8), st.sampled_from(DocType),
                                st.sampled_from([Validation.INCLUDED, Validation.EXCLUDED])),
                      max_size=8),
        # binary fractions, so the oracle's ceil(p * n) carries no float noise
        p=st.sampled_from([k / 64 for k in range(1, 64)]),
    )
    def test_matches_rank_oracle(self, group, pubs, p):
        corpus = ReferenceCorpus(make_group(group))
        profile = CandidateProfile("cand", publications=tuple(
            Publication(f"x{i}", 2020, "phys", c, doc_type, validated)
            for i, (c, doc_type, validated) in enumerate(pubs)))
        expected = sum(brute_force_highly_cited(group, c, p) for c, doc_type, validated in pubs
                       if validated is Validation.INCLUDED and doc_type is not DocType.OTHER)
        assert count_highly_cited(profile, corpus, p) == expected

    def test_exclusion_monotonicity(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        pubs = tuple(Publication(f"p{i}", 2020, "phys", c) for i, c in enumerate((9, 9, 3)))
        profile = CandidateProfile("cand", publications=pubs)
        base = count_highly_cited(profile, corpus, 0.10)
        for pub in pubs:
            smaller = finalize_publication_list(profile, {pub.id: "excluded"})
            assert count_highly_cited(smaller, corpus, 0.10) <= base


@st.composite
def corpus_and_shares(draw):
    """Up to three groups of counts 0..5, so ties at the boundary are common,
    and several shares to query one corpus with: near 0, near 1, anywhere,
    and k / n for a group's size n, where p * n is exactly the integer k."""
    groups = draw(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=40),
                           min_size=1, max_size=3))
    multiples = sorted({k / len(g) for g in groups for k in range(1, len(g))})
    share = st.one_of(
        # from 1e-9 up, the oracle's exact ceil(p * n) is at least 1, as top_quota's is
        st.floats(1e-9, 0.02), st.floats(0.98, 1.0, exclude_max=True), st.floats(0.02, 0.98),
        *([st.sampled_from(multiples)] if multiples else []),
    )
    return groups, draw(st.lists(share, min_size=2, max_size=6))


class TestGroupThreshold:
    """count_highly_cited and is_highly_cited read one threshold per group
    and share p, which the corpus computes once per p and keeps."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(corpus_and_shares())
    @example(([list(range(25))], [0.28, 0.56, 0.28]))
    @example(([[3, 3, 3, 2, 1, 1, 0, 0, 0, 0], [5] * 7], [0.1, 1e-9, 0.999999, 0.3, 0.1]))
    def test_both_functions_match_the_rank_oracle_at_every_share(self, case):
        groups, shares = case
        corpus = ReferenceCorpus([pub for g, counts in enumerate(groups)
                                  for pub in make_group(counts, f"c{g}", prefix=f"r{g}_")])
        probes = [(g, c) for g in range(len(groups)) for c in range(7)]
        pubs = [Publication(f"x{g}_{c}", 2020, f"c{g}", c) for g, c in probes]
        profile = CandidateProfile("cand", publications=pubs)
        # one corpus, several shares, some repeated: a share never reads another's thresholds
        for p in shares:
            expected = [brute_force_highly_cited(groups[g], c, p) for g, c in probes]
            assert [is_highly_cited(pub, corpus, p) for pub in pubs] == expected
            assert count_highly_cited(profile, corpus, p) == sum(expected)
            for g, counts in enumerate(groups):
                assert corpus.threshold(f"c{g}", 2020, p) == min(
                    c for c in counts if brute_force_highly_cited(counts, c, p))

    def test_an_invalid_share_is_rejected_on_every_query(self):
        corpus = ReferenceCorpus(make_group(range(10)))
        for _ in range(2):
            with pytest.raises(ValueError, match="p must be in"):
                corpus.threshold("phys", 2020, 1.5)
        assert corpus.threshold("phys", 2020, 0.1) == 9

    def test_missing_group_messages(self):
        corpus = ReferenceCorpus(make_group(range(5)))
        stray = Publication("x", 1999, "chem", 100)
        message = "reference corpus has no group for category='chem', year=1999"
        with pytest.raises(MissingGroupError) as err:
            is_highly_cited(stray, corpus, 0.10)
        assert str(err.value) == message
        with pytest.raises(MissingGroupError) as err:
            count_highly_cited(CandidateProfile("cand", publications=(stray,)), corpus, 0.10)
        assert str(err.value) == f"profile 'cand', publication 'x': {message}"
        with pytest.raises(MissingGroupError) as err:
            corpus.threshold("chem", 1999, 0.10)
        assert str(err.value) == message


class TestFinalizePublicationList:
    def _pending_profile(self):
        return CandidateProfile(
            "cand",
            publications=tuple(
                Publication(f"p{i}", 2020, "phys", i, validated=Validation.PENDING)
                for i in (1, 2, 3)
            ),
        )

    def test_decisions_applied_and_rest_included(self):
        profile = self._pending_profile()
        out = finalize_publication_list(profile, {"p2": "excluded"})
        status = {p.id: p.validated for p in out.publications}
        assert status == {
            "p1": Validation.INCLUDED,
            "p2": Validation.EXCLUDED,
            "p3": Validation.INCLUDED,
        }
        assert not out.pending_publications()

    def test_empty_profile_empty_decisions(self):
        profile = CandidateProfile("cand")
        out = finalize_publication_list(profile, {})
        assert out == profile
        assert not out.pending_publications()

    def test_unknown_id_named_in_error(self):
        with pytest.raises(ValueError, match="zz"):
            finalize_publication_list(self._pending_profile(), {"zz": "excluded"})

    def test_pending_decision_rejected(self):
        with pytest.raises(ValueError, match="included or excluded"):
            finalize_publication_list(self._pending_profile(), {"p1": "pending"})

    def test_original_profile_untouched(self):
        profile = self._pending_profile()
        finalize_publication_list(profile, {"p1": "excluded"})
        assert all(p.validated is Validation.PENDING for p in profile.publications)


class TestPublicationValue:
    def test_attributes_cannot_be_assigned(self):
        pub = Publication("x", 2020, "phys", 3)
        with pytest.raises(AttributeError):
            pub.citations = 4
        with pytest.raises(AttributeError):
            pub.note = "new"
        assert pub.citations == 3

    def test_negative_citations_message(self):
        with pytest.raises(ValueError) as err:
            Publication("x", 2020, "phys", -1)
        assert str(err.value) == "publication 'x': citations must be >= 0, got -1"
        with pytest.raises(ValueError, match="citations must be >= 0, got -2"):
            Publication("x", 2020, "phys", 3)._replace(citations=-2)

    def test_defaults(self):
        pub = Publication("x", 2020, "phys", 3)
        assert pub.doc_type is DocType.ARTICLE
        assert pub.validated is Validation.INCLUDED

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = Publication(id="x", year=2020, category="phys", citations=3,
                                 doc_type=DocType.REVIEW, validated=Validation.PENDING)
        by_position = Publication("x", 2020, "phys", 3, DocType.REVIEW, Validation.PENDING)
        assert by_keyword == by_position
        assert hash(by_keyword) == hash(by_position)
        assert by_keyword._fields == ("id", "year", "category", "citations", "doc_type",
                                      "validated")

    def test_equals_the_plain_tuple_of_its_fields(self):
        pub = Publication("x", 2020, "phys", 3)
        assert pub == ("x", 2020, "phys", 3, DocType.ARTICLE, Validation.INCLUDED)

    def test_finalize_returns_publications_with_resolved_status(self):
        pubs = tuple(Publication(f"p{i}", 2020, "phys", i, validated=Validation.PENDING)
                     for i in (1, 2))
        out = finalize_publication_list(CandidateProfile("cand", publications=pubs),
                                        {"p2": "excluded"})
        assert all(type(pub) is Publication for pub in out.publications)
        assert out.publications == (
            Publication("p1", 2020, "phys", 1, validated=Validation.INCLUDED),
            Publication("p2", 2020, "phys", 2, validated=Validation.EXCLUDED),
        )


class TestDomainTypes:
    def test_negative_citations_rejected(self):
        with pytest.raises(ValueError, match="citations"):
            Publication("x", 2020, "phys", -1)

    def test_non_finite_indicator_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            CandidateProfile("cand", indicators={"hcp": float("nan")})

    def test_indicator_scores_are_read_only(self):
        scores = {"hcp": 2.0}
        prof = CandidateProfile("cand", indicators=scores)
        with pytest.raises(TypeError):
            prof.indicators["hcp"] = float("nan")
        with pytest.raises(TypeError):
            prof.indicators["new"] = 1.0
        scores["hcp"] = float("nan")  # the caller's dict is copied, not shared
        assert prof.indicator("hcp") == 2.0

    def test_duplicate_publication_ids_rejected(self):
        pub = Publication("same", 2020, "phys", 1)
        with pytest.raises(ValueError, match="duplicate"):
            CandidateProfile("cand", publications=(pub, pub))

    def test_corpus_groups_by_own_category_and_year(self):
        corpus = ReferenceCorpus(
            make_group(range(3), category="phys", year=2020, prefix="a")
            + make_group(range(4), category="chem", year=2021, prefix="b")
        )
        assert corpus.group_keys() == (("chem", 2021), ("phys", 2020))
        assert len(corpus.publications) == 7
        assert sorted_group(corpus, "phys", 2020, 3) == [0, 1, 2]
        assert sorted_group(corpus, "chem", 2021, 4) == [0, 1, 2, 3]
