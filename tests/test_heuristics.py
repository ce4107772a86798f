import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugaleval.ecology import Environment, EnvironmentObject
from frugaleval.heuristics import (
    CueOrder,
    Decision,
    DiscriminationRule,
    Provenance,
    RuleMode,
    StoppingReason,
    WeightVector,
    _seeded_bit,
    _seeded_bits,
    cue_validity,
    minimalist_choose,
    one_cue_select,
    one_reason_choose,
    recognition_accuracy,
    recognition_choose,
    recognition_choose_pairs,
    take_the_best_choose,
    tallying_choose,
    validity_order,
    weighted_linear_choose,
)
from frugaleval.indicators import CandidateProfile, Direction


def splitmix64(seed):
    """One splitmix64 output from the state `seed` (any int, taken mod 2**64)."""
    z = (seed + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def profile(pid, **scores):
    return CandidateProfile(pid, indicators={k: float(v) for k, v in scores.items()})


def env_from_rows(rows, directions=None):
    """rows: list of (criterion, {cue: value})"""
    objects = [
        EnvironmentObject(f"o{i}", float(crit), {k: float(v) for k, v in cues.items()})
        for i, (crit, cues) in enumerate(rows)
    ]
    return Environment(objects, directions)


def reference_lexicographic(a, b, cues):
    """Independent brute-force scanner: first strict inequality wins."""
    for cue in cues:
        if a.indicators[cue] > b.indicators[cue]:
            return Decision.CHOOSE_A
        if a.indicators[cue] < b.indicators[cue]:
            return Decision.CHOOSE_B
    return Decision.UNDECIDED


class TestOneCueSelect:
    def test_tie_at_cutoff_expands_the_set(self):
        profiles = [profile(p, hcp=v) for p, v in
                    [("A", 4), ("B", 3), ("C", 3), ("D", 1), ("E", 0)]]
        cset = one_cue_select(profiles, "hcp", 0.40)
        assert cset.selected == ("A", "B", "C")
        assert cset.cutoff_value == 3.0

    def test_single_profile_full_quota(self):
        cset = one_cue_select([profile("A", hcp=9)], "hcp", 1.0)
        assert cset.selected == ("A",)

    def test_no_tie_keeps_exact_quota(self):
        cset = one_cue_select([profile("A", hcp=9), profile("B", hcp=0)], "hcp", 0.5)
        assert cset.selected == ("A",)

    def test_lower_is_better_direction(self):
        profiles = [profile(p, rank=v) for p, v in [("A", 1), ("B", 2), ("C", 9)]]
        cset = one_cue_select(profiles, "rank", 0.33, direction=Direction.LOWER_IS_BETTER)
        assert cset.selected == ("A",)
        assert cset.cutoff_value == 1.0

    def test_indicator_definition_carries_its_direction(self):
        from frugaleval.indicators import IndicatorDefinition

        rank = IndicatorDefinition("rank", Direction.LOWER_IS_BETTER)
        profiles = [profile(p, rank=v) for p, v in [("A", 1), ("B", 2), ("C", 9)]]
        assert one_cue_select(profiles, rank, 0.33).selected == ("A",)

    def test_missing_cue_names_profile_and_cue(self):
        with pytest.raises(ValueError) as err:
            one_cue_select([profile("A", hcp=1), CandidateProfile("B")], "hcp", 0.5)
        assert "B" in str(err.value) and "hcp" in str(err.value)

    def test_selected_dominate_unselected(self):
        profiles = [profile(f"c{i}", hcp=v) for i, v in enumerate([5, 3, 3, 3, 2, 1, 0])]
        cset = one_cue_select(profiles, "hcp", 0.30)
        inside = {pid for pid in cset.selected}
        worst_in = min(p.indicators["hcp"] for p in profiles if p.id in inside)
        best_out = max(
            (p.indicators["hcp"] for p in profiles if p.id not in inside), default=-1.0
        )
        assert worst_in >= best_out

    @given(
        values=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        x=st.floats(0.05, 1.0),
    )
    def test_monotone_transform_keeps_membership(self, values, x):
        profiles = [profile(f"c{i}", hcp=v) for i, v in enumerate(values)]
        transformed = [profile(f"c{i}", hcp=3 * v + 7) for i, v in enumerate(values)]
        before = one_cue_select(profiles, "hcp", x).selected
        after = one_cue_select(transformed, "hcp", x).selected
        assert before == after


class TestOneReasonChoose:
    def test_first_cue_discriminates(self):
        a = profile("a", hcp=10, collab=3)
        b = profile("b", hcp=2, collab=7)
        decision, trace = one_reason_choose(a, b, CueOrder(("hcp", "collab")))
        assert decision is Decision.CHOOSE_A
        assert len(trace.steps) == 1
        assert trace.stopping_reason is StoppingReason.DISCRIMINATED

    def test_identical_profiles_undecided(self):
        a = profile("a", hcp=5, collab=5)
        b = profile("b", hcp=5, collab=5)
        decision, trace = one_reason_choose(a, b, CueOrder(("hcp", "collab")))
        assert decision is Decision.UNDECIDED
        assert trace.stopping_reason is StoppingReason.CUES_EXHAUSTED
        assert len(trace.steps) == 2

    def test_sub_threshold_difference_moves_to_next_cue(self):
        a = profile("a", hcp=6, collab=9)
        b = profile("b", hcp=5, collab=3)
        decision, trace = one_reason_choose(
            a, b, CueOrder(("hcp", "collab")), DiscriminationRule(2.0)
        )
        assert decision is Decision.CHOOSE_A
        assert [s.cue for s in trace.steps] == ["hcp", "collab"]
        assert not trace.steps[0].discriminated
        assert trace.steps[1].discriminated

    def test_lower_is_better_cue_flips_winner(self):
        a = profile("a", rank=8)
        b = profile("b", rank=2)
        decision, _ = one_reason_choose(
            a, b, CueOrder(("rank",)), directions={"rank": Direction.LOWER_IS_BETTER}
        )
        assert decision is Decision.CHOOSE_B

    def test_relative_mode(self):
        a = profile("a", hcp=110)
        b = profile("b", hcp=100)
        rule = DiscriminationRule(0.2, RuleMode.RELATIVE)
        decision, _ = one_reason_choose(a, b, CueOrder(("hcp",)), rule)
        assert decision is Decision.UNDECIDED  # 10/110 < 0.2
        rule = DiscriminationRule(0.05, RuleMode.RELATIVE)
        decision, _ = one_reason_choose(a, b, CueOrder(("hcp",)), rule)
        assert decision is Decision.CHOOSE_A

    def test_relative_mode_falls_back_on_zero_scores(self):
        a = profile("a", hcp=0)
        b = profile("b", hcp=0)
        rule = DiscriminationRule(0.5, RuleMode.RELATIVE)
        decision, _ = one_reason_choose(a, b, CueOrder(("hcp",)), rule)
        assert decision is Decision.UNDECIDED

    def test_relative_mode_divides_rather_than_scaling_delta(self):
        # |0.04 - 0.05| / 0.05 rounds to just above 0.2, while 0.2 * 0.05
        # rounds to exactly |0.04 - 0.05|: only the ratio form discriminates
        rule = DiscriminationRule(0.2, RuleMode.RELATIVE)
        assert rule.discriminates(0.04, 0.05)
        scores_a = np.array([0.04, 0.0, 100.0, 110.0])
        scores_b = np.array([0.05, 0.0, 70.0, 100.0])
        assert rule.discriminates(scores_a, scores_b).tolist() == [True, False, True, False]

    def test_missing_cue_named(self):
        with pytest.raises(ValueError, match="collab"):
            one_reason_choose(
                profile("a", hcp=1), profile("b", hcp=2), CueOrder(("hcp", "collab"))
            )

    def test_exhaustive_agreement_with_reference_scanner(self):
        # every unordered pair of 2-cue profiles over {0, 1, 2}
        cues = ("c1", "c2")
        profiles = [
            profile(f"p{i}", **dict(zip(cues, vals)))
            for i, vals in enumerate(itertools.product((0, 1, 2), repeat=2))
        ]
        order = CueOrder(cues)
        for a, b in itertools.combinations_with_replacement(profiles, 2):
            decision, _ = one_reason_choose(a, b, order)
            assert decision is reference_lexicographic(a, b, cues)

    @given(
        scores_a=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        scores_b=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        scale=st.floats(0.5, 10.0),
        shift=st.floats(-5.0, 5.0),
    )
    def test_monotone_transform_invariance_at_delta_zero(
        self, scores_a, scores_b, scale, shift
    ):
        cues = ("c1", "c2", "c3")
        a = profile("a", **dict(zip(cues, scores_a)))
        b = profile("b", **dict(zip(cues, scores_b)))
        ta = profile("a", **{c: scale * v + shift for c, v in zip(cues, scores_a)})
        tb = profile("b", **{c: scale * v + shift for c, v in zip(cues, scores_b)})
        order = CueOrder(cues)
        assert one_reason_choose(a, b, order)[0] is one_reason_choose(ta, tb, order)[0]
        assert tallying_choose(a, b, cues) is tallying_choose(ta, tb, cues)

    @given(
        scores_a=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        scores_b=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        delta=st.floats(0.0, 2.0),
    )
    def test_trace_soundness_replay(self, scores_a, scores_b, delta):
        cues = ("c1", "c2")
        a = profile("a", **dict(zip(cues, scores_a)))
        b = profile("b", **dict(zip(cues, scores_b)))
        rule = DiscriminationRule(delta)
        decision, trace = one_reason_choose(a, b, CueOrder(cues), rule)
        # replaying the recorded scores through the rule reproduces the decision
        replayed = Decision.UNDECIDED
        for step in trace.steps:
            assert rule.discriminates(step.score_a, step.score_b) == step.discriminated
            if step.discriminated:
                replayed = (
                    Decision.CHOOSE_A if step.score_a > step.score_b else Decision.CHOOSE_B
                )
        assert replayed is decision
        # frugality bound
        assert len(trace.steps) <= 2


class TestCueValidity:
    def test_perfectly_aligned_cue(self):
        env = env_from_rows([(10, {"c": 3}), (5, {"c": 2}), (1, {"c": 1})])
        assert cue_validity(env, "c") == 1.0

    def test_constant_cue_has_no_discrimination(self):
        env = env_from_rows([(10, {"c": 7}), (5, {"c": 7}), (1, {"c": 7})])
        assert cue_validity(env, "c") == 0.5

    def test_inverted_cue(self):
        env = env_from_rows([(10, {"c": 1}), (5, {"c": 2})])
        assert cue_validity(env, "c") == 0.0

    def test_absent_cue_is_an_error(self):
        env = env_from_rows([(10, {"c": 1}), (5, {"c": 2})])
        with pytest.raises(ValueError, match="zz"):
            cue_validity(env, "zz")


class TestTakeTheBest:
    def _env(self):
        # c2 always agrees with the criterion; c1 agrees on 4 of 5
        # discriminating pairs (enumerated by hand: only o0-o1 is inverted)
        return env_from_rows(
            [
                (4, {"c1": 1, "c2": 4}),
                (3, {"c1": 2, "c2": 3}),
                (2, {"c1": 1, "c2": 2}),
                (1, {"c1": 0, "c2": 1}),
            ]
        )

    def test_orders_by_validity_descending(self):
        env = self._env()
        assert cue_validity(env, "c2") == 1.0
        assert cue_validity(env, "c1") == 0.8
        order = validity_order(env)
        assert order.cues == ("c2", "c1")
        assert order.provenance is Provenance.VALIDITY_RANKED

    def test_tied_validities_fall_back_to_name_order(self):
        env = env_from_rows([(2, {"b": 1, "a": 1}), (1, {"b": 0, "a": 0})])
        assert validity_order(env).cues == ("a", "b")

    @settings(derandomize=True, max_examples=200)
    @given(data=st.data())
    def test_validity_order_matches_per_pair_count(self, data):
        names = data.draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True))
        n = data.draw(st.integers(2, 8))
        rows = [(data.draw(st.integers(0, 5)), {name: data.draw(st.integers(0, 3)) for name in names})
                for _ in range(n)]
        env = env_from_rows(rows)

        def counted(cue):
            # independent oracle: walk every pair in Python
            right = total = 0
            for (ca, a), (cb, b) in itertools.combinations(rows, 2):
                if a[cue] != b[cue]:
                    total += 1
                    right += (a[cue] - b[cue]) * (ca - cb) > 0
            return right / total if total else 0.5

        validities = {name: cue_validity(env, name) for name in names}
        assert validities == {name: counted(name) for name in names}
        assert validity_order(env).cues == tuple(sorted(names, key=lambda c: (-validities[c], c)))

    def test_behaves_as_one_reason_on_reordered_cues(self):
        env = self._env()
        a = profile("a", c1=5, c2=1)
        b = profile("b", c1=0, c2=2)
        ttb_decision, ttb_trace = take_the_best_choose(a, b, env)
        reference = one_reason_choose(a, b, CueOrder(("c2", "c1")))
        assert ttb_decision is reference[0]
        assert ttb_trace.steps == reference[1].steps


class TestMinimalist:
    def test_single_discriminating_cue_decides_for_every_seed(self):
        cues = ("c1", "c2", "c3", "c4")
        a = profile("a", c1=1, c2=1, c3=0, c4=1)
        b = profile("b", c1=1, c2=1, c3=1, c4=1)
        # derived oracle: every permutation reaches the same first strict inequality
        outcomes = {
            reference_lexicographic(a, b, perm) for perm in itertools.permutations(cues)
        }
        assert outcomes == {Decision.CHOOSE_B}
        for seed in range(25):
            decision, _ = minimalist_choose(a, b, seed)
            assert decision is Decision.CHOOSE_B

    def test_same_seed_same_trace(self):
        a = profile("a", c1=1, c2=3, c3=0)
        b = profile("b", c1=1, c2=2, c3=4)
        d1, t1 = minimalist_choose(a, b, seed=11)
        d2, t2 = minimalist_choose(a, b, seed=11)
        assert d1 is d2
        assert t1 == t2

    def test_all_tied_is_undecided_for_any_seed(self):
        a = profile("a", c1=1, c2=2)
        b = profile("b", c1=1, c2=2)
        for seed in range(10):
            decision, trace = minimalist_choose(a, b, seed)
            assert decision is Decision.UNDECIDED
            assert trace.stopping_reason is StoppingReason.CUES_EXHAUSTED

    def test_random_provenance_and_no_repeats(self):
        a = profile("a", c1=1, c2=2, c3=3)
        b = profile("b", c1=1, c2=2, c3=3)
        _, trace = minimalist_choose(a, b, seed=0)
        inspected = [s.cue for s in trace.steps]
        assert sorted(inspected) == ["c1", "c2", "c3"]  # permutation, no repeats


class TestTallying:
    def test_majority_of_cues_wins(self):
        a = profile("a", c1=1, c2=0, c3=1)
        b = profile("b", c1=0, c2=1, c3=0)
        assert tallying_choose(a, b, ("c1", "c2", "c3")) is Decision.CHOOSE_A

    def test_identical_profiles_undecided(self):
        a = profile("a", c1=1, c2=1)
        b = profile("b", c1=1, c2=1)
        assert tallying_choose(a, b, ("c1", "c2")) is Decision.UNDECIDED

    def test_equal_tallies_undecided(self):
        a = profile("a", c1=1, c2=0, c3=5)
        b = profile("b", c1=0, c2=1, c3=5)
        assert tallying_choose(a, b, ("c1", "c2", "c3")) is Decision.UNDECIDED

    def test_direction_aware(self):
        a = profile("a", rank=1)
        b = profile("b", rank=9)
        directions = {"rank": Direction.LOWER_IS_BETTER}
        assert tallying_choose(a, b, ("rank",), directions) is Decision.CHOOSE_A


class TestWeightedLinear:
    def test_weighted_sums_compared(self):
        w = WeightVector({"c1": 4, "c2": 2, "c3": 1})
        a = profile("a", c1=1, c2=0, c3=0)
        b = profile("b", c1=0, c2=1, c3=1)
        assert weighted_linear_choose(a, b, w) is Decision.CHOOSE_A

    def test_zero_weights_always_undecided(self):
        w = WeightVector({"c1": 0, "c2": 0})
        a = profile("a", c1=9, c2=9)
        b = profile("b", c1=0, c2=0)
        assert weighted_linear_choose(a, b, w) is Decision.UNDECIDED

    def test_unit_weights_reproduce_tallying_on_binary_cues(self):
        cues = ("c1", "c2", "c3")
        unit = WeightVector({c: 1.0 for c in cues})
        profiles = [
            profile(f"p{i}", **dict(zip(cues, bits)))
            for i, bits in enumerate(itertools.product((0, 1), repeat=3))
        ]
        for a, b in itertools.product(profiles, repeat=2):
            assert weighted_linear_choose(a, b, unit) is tallying_choose(a, b, cues)

    def test_non_compensatory_weights_match_lexicographic_order(self):
        # with w_k > sum of later weights, the weighted sum and the
        # cue-order lexicographic scan rank binary profiles identically
        cues = ("c1", "c2", "c3", "c4")
        w = WeightVector(dict(zip(cues, (8.0, 4.0, 2.0, 1.0))))
        order = CueOrder(cues)
        profiles = [
            profile(f"p{i}", **dict(zip(cues, bits)))
            for i, bits in enumerate(itertools.product((0, 1), repeat=4))
        ]
        for a, b in itertools.product(profiles, repeat=2):
            linear = weighted_linear_choose(a, b, w)
            if linear is Decision.UNDECIDED:
                continue
            assert one_reason_choose(a, b, order)[0] is linear


class TestRecognition:
    def test_single_recognized_object_chosen(self):
        assert recognition_choose("a", "b", {"a"}) is Decision.CHOOSE_A
        assert recognition_choose("a", "b", {"b"}) is Decision.CHOOSE_B

    def test_unrecognized_pair_guesses_reproducibly(self):
        first = recognition_choose("a", "b", set(), seed=123)
        assert first in (Decision.CHOOSE_A, Decision.CHOOSE_B)
        assert recognition_choose("a", "b", set(), seed=123) is first
        # different seeds reach both outcomes
        outcomes = {recognition_choose("a", "b", set(), seed=s) for s in range(64)}
        assert outcomes == {Decision.CHOOSE_A, Decision.CHOOSE_B}

    def test_both_recognized_delegates_to_knowledge(self):
        always_a = lambda a, b: Decision.CHOOSE_A
        assert recognition_choose("a", "b", {"a", "b"}, always_a) is Decision.CHOOSE_A

    def test_both_recognized_without_knowledge_guesses(self):
        assert recognition_choose("a", "b", {"a", "b"}, None, seed=5) is recognition_choose(
            "a", "b", {"a", "b"}, None, seed=5
        )

    def test_seeded_bits_match_pure_python_splitmix64(self):
        # published splitmix64 outputs anchor the reference itself
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1234567) == 6457827717110365317
        seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, *range(2, 200), *(3**k for k in range(41))]
        bits = _seeded_bits(np.array(seeds, dtype=np.uint64))
        assert bits.tolist() == [splitmix64(s) & 1 for s in seeds]
        assert [_seeded_bit(s) for s in seeds] == [splitmix64(s) & 1 for s in seeds]

    @pytest.mark.parametrize("seed", [-1, -2, -(2**63), -(2**64) - 5, 2**64, 2**64 + 7, 2**70 + 3,
                                      2**128])
    def test_seed_outside_uint64_is_reduced_mod_2_64(self, seed):
        # (seed + step) is taken mod 2**64, so any Python int is a seed
        expected = Decision.CHOOSE_A if splitmix64(seed) & 1 else Decision.CHOOSE_B
        assert recognition_choose("a", "b", set(), seed=seed) is expected

    def test_no_overflow_warning_at_the_uint64_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 2**63 - 1, 2**64 - 1, -1, 2**64):
                recognition_choose("a", "b", set(), seed=seed)
            _seeded_bits(np.array([0, 2**63 - 1, 2**64 - 1], dtype=np.uint64))
            recognition_choose_pairs([False], [False], seeds=np.array([2**64 - 1], dtype=np.uint64))

    @staticmethod
    def scalar_codes(cases, with_knowledge):
        """The recognition_choose decision of each (a_known, b_known,
        knowledge_picks_a, seed) case, as a +1/-1 code."""
        codes = []
        for a_known, b_known, picks_a, seed in cases:
            recognized = {name for name, known in (("a", a_known), ("b", b_known)) if known}
            knowledge = None
            if with_knowledge:
                knowledge = lambda a, b, picks_a=picks_a: (
                    Decision.CHOOSE_A if picks_a else Decision.CHOOSE_B
                )
            decision = recognition_choose("a", "b", recognized, knowledge, seed=seed)
            codes.append(1 if decision is Decision.CHOOSE_A else -1)
        return codes

    @staticmethod
    def array_codes(cases, with_knowledge):
        a_known, b_known, picks_a, seeds = zip(*cases)
        codes = recognition_choose_pairs(
            np.array(a_known), np.array(b_known), np.array(picks_a) if with_knowledge else None,
            seeds=np.array(seeds, dtype=np.uint64),
        )
        return codes.tolist()

    @pytest.mark.parametrize("with_knowledge", [False, True])
    def test_pairs_cover_every_case_like_recognition_choose(self, with_knowledge):
        seeds = range(16)
        assert {_seeded_bit(s) for s in seeds} == {0, 1}
        cases = list(itertools.product((False, True), (False, True), (False, True), seeds))
        assert self.array_codes(cases, with_knowledge) == self.scalar_codes(cases, with_knowledge)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        cases=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans(), st.integers(0, 2**63 - 1)),
            min_size=1, max_size=40,
        ),
        with_knowledge=st.booleans(),
    )
    def test_pairs_equal_recognition_choose(self, cases, with_knowledge):
        assert self.array_codes(cases, with_knowledge) == self.scalar_codes(cases, with_knowledge)


class TestRecognitionAccuracy:
    def test_nobody_recognized_is_guessing(self):
        assert recognition_accuracy(50, 0, 0.8, 0.6) == 0.5

    def test_everyone_recognized_is_pure_knowledge(self):
        assert recognition_accuracy(50, 50, 0.8, 0.6) == pytest.approx(0.6)

    def test_known_midpoint_value(self):
        # (2*25*25*0.8 + 25*24*0.5 + 25*24*0.6) / (50*49)
        assert recognition_accuracy(50, 25, 0.8, 0.6) == pytest.approx(1660 / 2450)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(N=1, n=0, alpha=0.8, beta=0.6),
            dict(N=50, n=51, alpha=0.8, beta=0.6),
            dict(N=50, n=-1, alpha=0.8, beta=0.6),
            dict(N=50, n=10, alpha=1.2, beta=0.6),
            dict(N=50, n=10, alpha=0.8, beta=-0.1),
        ],
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            recognition_accuracy(**kwargs)

    def test_less_is_more_effect(self):
        # alpha above one half and beta below alpha: some partial
        # recognition level beats recognizing everyone
        N, alpha, beta = 50, 0.8, 0.6
        curve = [recognition_accuracy(N, n, alpha, beta) for n in range(N + 1)]
        assert max(curve[:-1]) > curve[-1]


class TestDecisionTraceInvariants:
    def test_non_final_discrimination_rejected(self):
        from frugaleval.heuristics import DecisionTrace, TraceStep

        steps = (
            TraceStep("c1", 1.0, 0.0, True),
            TraceStep("c2", 1.0, 1.0, False),
        )
        with pytest.raises(ValueError, match="last"):
            DecisionTrace(steps, StoppingReason.CUES_EXHAUSTED, Decision.UNDECIDED)

    def test_stopping_reason_must_match_steps(self):
        from frugaleval.heuristics import DecisionTrace, TraceStep

        steps = (TraceStep("c1", 1.0, 1.0, False),)
        with pytest.raises(ValueError, match="inconsistent"):
            DecisionTrace(steps, StoppingReason.DISCRIMINATED, Decision.CHOOSE_A)

    def test_cue_order_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicates"):
            CueOrder(("a", "a"))
        with pytest.raises(ValueError, match="empty"):
            CueOrder(())
