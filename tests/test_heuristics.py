import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugaleval.ecology import (
    Environment,
    MinimalistStrategy,
    PairBlock,
    TakeTheBestStrategy,
    cue_validity,
    validity_order,
)
from frugaleval.heuristics import (
    CueOrder,
    Decision,
    DecisionTrace,
    DiscriminationRule,
    RuleMode,
    StoppingReason,
    TraceStep,
    WeightVector,
    one_cue_select,
    one_reason_choose,
    recognition_accuracy,
    recognition_choose,
    tallying_choose,
    weighted_linear_choose,
)
from frugaleval.indicators import CandidateProfile


def profile(pid, **scores):
    return CandidateProfile(pid, indicators={k: float(v) for k, v in scores.items()})


def make_env(criterion, cue_matrix, cue_names):
    """An environment of objects o0, o1, ... with one cue_matrix row each."""
    return Environment([f"o{i}" for i in range(len(criterion))], criterion, cue_matrix, cue_names)


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

    def test_tiny_quota_keeps_the_top_candidate(self):
        # ceil(1e-11 * 3) is 1, though 3e-11 rounds to 0 at 9 decimal places
        profiles = [profile("A", hcp=4), profile("B", hcp=3), profile("C", hcp=1)]
        cset = one_cue_select(profiles, "hcp", 1e-11)
        assert cset.selected == ("A",)
        assert cset.cutoff_value == 4.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="^at least one profile is required$"):
            one_cue_select([], "x", 0.5)

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

    @settings(derandomize=True)
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


# scores for the relative rule: zeros of both signs, subnormals, negatives,
# huge magnitudes whose difference overflows, and small integer counts
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -1.0,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.integers(-1000, 1000),
)


def block_discriminates(pairs, rule):
    """Whether PairBlock.signs under the rule marks each (a, b) score pair
    as discriminating: one cue, object 2k scoring a and object 2k + 1 b."""
    scores = [[score] for pair in pairs for score in pair]
    env = make_env([0.0] * len(scores), scores, ["c"])
    firsts = np.arange(0, len(scores), 2)
    # a difference past the float range is inf, which discriminates
    with np.errstate(over="ignore"):
        signs = PairBlock(env, firsts, firsts + 1).signs(rule)
    return (signs[:, 0] != 0).tolist()


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
        pairs = [(0.04, 0.05), (0.0, 0.0), (100.0, 70.0), (110.0, 100.0)]
        assert [rule.discriminates(a, b) for a, b in pairs] == [True, False, True, False]
        assert block_discriminates(pairs, rule) == [True, False, True, False]

    @settings(derandomize=True, max_examples=300)
    @given(
        pairs=st.lists(st.tuples(SCORES, SCORES), min_size=1, max_size=8),
        delta=st.sampled_from([0.0, 5e-324, 0.2, 1.0, 2.0]) | st.floats(0.0, 3.0),
    )
    def test_relative_mode_on_two_numbers_is_the_array_rule(self, pairs, delta):
        rule = DiscriminationRule(delta, RuleMode.RELATIVE)
        found = [rule.discriminates(x, y) for x, y in pairs]
        assert found == block_discriminates(pairs, rule)
        assert all(type(hit) is bool for hit in found)

    @settings(derandomize=True, max_examples=300)
    @given(
        pairs=st.lists(st.tuples(SCORES, SCORES), min_size=1, max_size=8),
        delta=st.sampled_from([0.0, 5e-324, 0.5, 1.0]) | st.floats(0.0, 1e3),
    )
    def test_absolute_mode_on_two_numbers_is_the_array_rule(self, pairs, delta):
        rule = DiscriminationRule(delta)
        found = [rule.discriminates(x, y) for x, y in pairs]
        assert found == block_discriminates(pairs, rule)
        assert all(type(hit) is bool for hit in found)

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

    @settings(derandomize=True)
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

    @settings(derandomize=True)
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
        env = make_env([10, 5, 1], [[3], [2], [1]], ["c"])
        assert cue_validity(env, "c") == 1.0

    def test_constant_cue_has_no_discrimination(self):
        env = make_env([10, 5, 1], [[7], [7], [7]], ["c"])
        assert cue_validity(env, "c") == 0.5

    def test_inverted_cue(self):
        env = make_env([10, 5], [[1], [2]], ["c"])
        assert cue_validity(env, "c") == 0.0

    def test_absent_cue_is_an_error(self):
        env = make_env([10, 5], [[1], [2]], ["c"])
        with pytest.raises(ValueError, match="zz"):
            cue_validity(env, "zz")

    def test_differences_whose_product_underflows_still_count(self):
        # (1e-200 - 0) * (1e-200 - 0) underflows to 0.0; the signs agree
        env = Environment(["a", "b"], [0, 1e-200], [[0], [1e-200]], ["c"])
        assert cue_validity(env, "c") == 1.0


class TestTakeTheBest:
    def _env(self):
        # c2 always agrees with the criterion; c1 agrees on 4 of 5
        # discriminating pairs (enumerated by hand: only o0-o1 is inverted)
        return make_env([4, 3, 2, 1], [[1, 4], [2, 3], [1, 2], [0, 1]], ["c1", "c2"])

    def test_orders_by_validity_descending(self):
        env = self._env()
        assert cue_validity(env, "c2") == 1.0
        assert cue_validity(env, "c1") == 0.8
        order = validity_order(env)
        assert order.cues == ("c2", "c1")

    def test_tied_validities_fall_back_to_name_order(self):
        env = make_env([2, 1], [[1, 1], [0, 0]], ["b", "a"])
        assert validity_order(env).cues == ("a", "b")

    @settings(derandomize=True, max_examples=200)
    @given(data=st.data())
    def test_validity_order_matches_per_pair_count(self, data):
        names = data.draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=5, unique=True))
        n = data.draw(st.integers(2, 8))
        # tiny values too, so that a product of two differences can underflow
        tiny = st.integers(0, 3).map(lambda k: k * 1e-200)
        crits = st.one_of(st.integers(0, 5), tiny)
        values = st.one_of(st.integers(0, 3), tiny)
        rows = [(data.draw(crits), {name: data.draw(values) for name in names})
                for _ in range(n)]
        env = make_env([crit for crit, _ in rows],
                       [[cues[name] for name in names] for _, cues in rows], names)

        def counted(cue):
            # independent oracle: walk every pair in Python
            right = total = 0
            for (ca, a), (cb, b) in itertools.combinations(rows, 2):
                if a[cue] != b[cue]:
                    total += 1
                    right += ca != cb and (a[cue] > b[cue]) == (ca > cb)
            return right / total if total else 0.5

        validities = {name: cue_validity(env, name) for name in names}
        assert validities == {name: counted(name) for name in names}
        assert validity_order(env).cues == tuple(sorted(names, key=lambda c: (-validities[c], c)))

    def test_behaves_as_one_reason_on_reordered_cues(self):
        strategy = TakeTheBestStrategy()
        strategy.fit(self._env(), seed=0)
        pair = make_env([0.0, 0.0], [[5, 1], [0, 2]], ["c1", "c2"])
        codes, inspected = strategy.decide(PairBlock(pair, np.array([0]), np.array([1])))
        a, b = profile("a", c1=5, c2=1), profile("b", c1=0, c2=2)
        decision, trace = one_reason_choose(a, b, CueOrder(("c2", "c1")))
        # c2, the more valid cue, decides before c1 (which favors a) is seen
        assert decision is Decision.CHOOSE_B
        assert (codes[0], inspected[0]) == (-1, len(trace.steps))


class TestMinimalist:
    """The benchmark's minimalist: a seeded random cue order per pair."""

    @staticmethod
    def decide(a_cues, b_cues, seed):
        names = [f"c{k + 1}" for k in range(len(a_cues))]
        env = make_env([0.0, 0.0], [a_cues, b_cues], names)
        strategy = MinimalistStrategy()
        strategy.fit(env, seed)
        codes, inspected = strategy.decide(PairBlock(env, np.array([0]), np.array([1])))
        return int(codes[0]), int(inspected[0])

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
            assert self.decide([1, 1, 0, 1], [1, 1, 1, 1], seed)[0] == -1

    def test_same_seed_same_trace(self):
        env = make_env([0.0] * 6, [[k % 2, k % 3, k % 5] for k in range(6)], ["c1", "c2", "c3"])
        i, j = np.triu_indices(len(env), k=1)
        runs = []
        for _ in range(2):
            strategy = MinimalistStrategy()
            strategy.fit(env, seed=11)
            runs.append(strategy.decide(PairBlock(env, i, j)))
        assert all(np.array_equal(x, y) for x, y in zip(*runs))

    def test_all_tied_is_undecided_for_any_seed(self):
        for seed in range(10):
            assert self.decide([1, 2], [1, 2], seed) == (0, 2)

    def test_random_order_inspects_each_cue_once(self):
        # only c3 discriminates, so the cues inspected are its place in the order
        places = {self.decide([1, 2, 3], [1, 2, 4], seed)[1] for seed in range(40)}
        assert places == {1, 2, 3}


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


class TestWeightedLinear:
    def test_weighted_sums_compared(self):
        w = WeightVector({"c1": 4, "c2": 2, "c3": 1})
        a = profile("a", c1=1, c2=0, c3=0)
        b = profile("b", c1=0, c2=1, c3=1)
        assert weighted_linear_choose(a, b, w) is Decision.CHOOSE_A

    def test_weights_are_read_only(self):
        weights = {"a": 1.0}
        w = WeightVector(weights)
        with pytest.raises(TypeError):
            w.weights["a"] = float("nan")
        with pytest.raises(TypeError):
            w.weights["b"] = 1.0
        weights["a"] = float("nan")  # the caller's dict is copied, not shared
        assert w["a"] == 1.0

    def test_a_weight_vector_reads_as_its_mapping(self):
        w = WeightVector({"a": 2.0, "b": 1.0})
        assert (w["a"], "a" in w, "z" in w) == (2.0, True, False)
        with pytest.raises(KeyError):
            w["z"]
        assert (list(w), len(w), bool(WeightVector({}))) == (["a", "b"], 2, False)
        # the named-tuple methods still see the one field
        assert w._asdict() == {"weights": w.weights}
        assert w._replace(weights={"c": 3.0}).weights == {"c": 3.0}
        assert w._replace() == w == copy.copy(w) == (w.weights,)
        with pytest.raises(ValueError, match="unexpected field names: \\['delta'\\]"):
            w._replace(delta=1.0)

    def test_zero_weights_always_undecided(self):
        w = WeightVector({"c1": 0, "c2": 0})
        a = profile("a", c1=9, c2=9)
        b = profile("b", c1=0, c2=0)
        assert weighted_linear_choose(a, b, w) is Decision.UNDECIDED

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
        # whichever way the coin fell
        for guess_a in (False, True):
            assert recognition_choose("a", "b", {"a"}, guess_a=guess_a) is Decision.CHOOSE_A
            assert recognition_choose("a", "b", {"b"}, guess_a=guess_a) is Decision.CHOOSE_B

    def test_unrecognized_pair_guesses_reproducibly(self):
        # the guess follows the caller's coin, both ways
        assert recognition_choose("a", "b", set(), guess_a=True) is Decision.CHOOSE_A
        assert recognition_choose("a", "b", set(), guess_a=False) is Decision.CHOOSE_B

    def test_both_recognized_delegates_to_knowledge(self):
        always_a = lambda a, b: Decision.CHOOSE_A
        assert recognition_choose("a", "b", {"a", "b"}, always_a, guess_a=False) is Decision.CHOOSE_A

    def test_both_recognized_without_knowledge_guesses(self):
        for guess_a, expected in ((True, Decision.CHOOSE_A), (False, Decision.CHOOSE_B)):
            assert recognition_choose("a", "b", {"a", "b"}, None, guess_a=guess_a) is expected


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
        steps = (
            TraceStep("c1", 1.0, 0.0, True),
            TraceStep("c2", 1.0, 1.0, False),
        )
        with pytest.raises(ValueError, match="last"):
            DecisionTrace(steps)

    @pytest.mark.parametrize("score", [1.0, 0.0, float("nan")])
    def test_discriminating_step_with_no_higher_side_rejected(self, score):
        with pytest.raises(ValueError, match="one side higher"):
            DecisionTrace((TraceStep("c1", 0.5, 0.0, False), TraceStep("c2", score, score, True)))

    def test_decision_follows_the_higher_score(self):
        trace = DecisionTrace((TraceStep("c", 1.0, 2.0, True),))
        assert trace.decision is Decision.CHOOSE_B
        assert trace.record().endswith("stop=discriminated\tdecision=choose_b")

    @settings(derandomize=True)
    @given(
        scores=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=0, max_size=5
        ),
        last_hit=st.booleans(),
    )
    def test_outcome_is_read_off_the_last_step(self, scores, last_hit):
        last_hit = last_hit and bool(scores) and scores[-1][0] != scores[-1][1]
        steps = [TraceStep(f"c{i}", sa, sb, False) for i, (sa, sb) in enumerate(scores)]
        if last_hit:
            steps[-1] = TraceStep(steps[-1].cue, *scores[-1], True)
        trace = DecisionTrace(steps)
        if last_hit:
            sa, sb = scores[-1]
            assert trace.stopping_reason is StoppingReason.DISCRIMINATED
            assert trace.decision is (Decision.CHOOSE_A if sa > sb else Decision.CHOOSE_B)
        else:
            assert trace.stopping_reason is StoppingReason.CUES_EXHAUSTED
            assert trace.decision is Decision.UNDECIDED

    @settings(derandomize=True)
    @given(
        scores=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4
        ),
        delta=st.sampled_from([0.0, 0.5, 1.5]),
        mode=st.sampled_from(list(RuleMode)),
    )
    def test_one_reason_choose_returns_its_trace_decision(self, scores, delta, mode):
        names = [f"c{i}" for i in range(len(scores))]
        a = profile("a", **{n: sa for n, (sa, _) in zip(names, scores)})
        b = profile("b", **{n: sb for n, (_, sb) in zip(names, scores)})
        decision, trace = one_reason_choose(a, b, CueOrder(tuple(names)),
                                            DiscriminationRule(delta, mode))
        assert decision is trace.decision
        assert sum(s.discriminated for s in trace.steps) <= 1

    def test_cue_order_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicates"):
            CueOrder(("a", "a"))
        with pytest.raises(ValueError, match="empty"):
            CueOrder(())
