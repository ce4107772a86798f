import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frugaleval.ecology import (
    Environment,
    EnvironmentObject,
    LinearRegressionStrategy,
    MinimalistStrategy,
    RankDeficientError,
    SplitConfig,
    TakeTheBestStrategy,
    TallyingStrategy,
    fit_linear_weights,
    generate_binary_environment,
    generate_gaussian_environment,
    less_is_more_curve,
    run_benchmark,
    train_test_indices,
)
from frugaleval.heuristics import (
    Decision,
    DiscriminationRule,
    RuleMode,
    WeightVector,
    cue_validity,
    one_reason_choose,
    tallying_choose,
    validity_order,
    weighted_linear_choose,
)
from frugaleval.indicators import Direction

NC_WEIGHTS = WeightVector({"c1": 4.0, "c2": 2.0, "c3": 1.0})

# decide_pairs codes: +1 chooses the first object of a pair, -1 the second
DECISION_CODE = {Decision.CHOOSE_A: 1, Decision.CHOOSE_B: -1, Decision.UNDECIDED: 0}


def env_of(rows):
    return Environment(
        [EnvironmentObject(f"o{i}", float(c), {k: float(v) for k, v in cues.items()})
         for i, (c, cues) in enumerate(rows)]
    )


class AlwaysUndecidedStrategy:
    """Abstains from every pair; pins the 0.5 scoring convention."""

    name = "always_undecided"

    def fit(self, train_env, seed):
        pass

    def decide_pairs(self, env, i, j):
        return np.zeros(len(i), dtype=int), np.zeros(len(i), dtype=int)


@st.composite
def small_environments(draw, min_objects=2):
    """1-5 cues with integer or one-decimal values, so ties are common,
    and a random direction per cue."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(max(min_objects, 2), 8))
    scale = draw(st.sampled_from([1.0, 10.0]))
    value = st.integers(-3, 3).map(lambda v: v / scale)
    names = [f"c{k}" for k in range(m)]
    objects = [
        EnvironmentObject(f"o{k}", draw(value), {name: draw(value) for name in names})
        for k in range(n)
    ]
    directions = {name: draw(st.sampled_from(list(Direction))) for name in names}
    return Environment(objects, directions)


rules = st.builds(
    DiscriminationRule, st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.sampled_from(list(RuleMode))
)


def all_ordered_pairs(env):
    return np.divmod(np.arange(len(env) ** 2), len(env))


class TestGenerateBinaryEnvironment:
    def test_noncompensatory_criterion_matches_lexicographic_order(self):
        env = generate_binary_environment(NC_WEIGHTS, 40, seed=11)
        names = env.cue_names
        for a, b in itertools.combinations(env.objects, 2):
            va = tuple(a.cues[n] for n in names)
            vb = tuple(b.cues[n] for n in names)
            if va == vb:
                assert a.criterion == b.criterion
            else:
                # with 4 > 2 + 1 the weighted sum orders profiles exactly
                # like the first differing cue
                assert (a.criterion > b.criterion) == (va > vb)

    def test_all_eight_distinct_profiles_rank_lexicographically(self):
        profiles = list(itertools.product((0.0, 1.0), repeat=3))
        weights = np.array([4.0, 2.0, 1.0])
        by_criterion = sorted(profiles, key=lambda p: -float(np.dot(weights, p)))
        by_lexicographic = sorted(profiles, reverse=True)
        assert by_criterion == by_lexicographic

    def test_same_seed_identical_environment(self):
        a = generate_binary_environment(NC_WEIGHTS, 12, seed=5)
        b = generate_binary_environment(NC_WEIGHTS, 12, seed=5)
        assert a.objects == b.objects

    def test_zero_weights_zero_criterion(self):
        env = generate_binary_environment(WeightVector({"c1": 0.0, "c2": 0.0}), 6, seed=0)
        assert all(obj.criterion == 0.0 for obj in env.objects)

    def test_too_few_objects_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            generate_binary_environment(NC_WEIGHTS, 1, seed=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            generate_binary_environment(WeightVector({"c1": -1.0}), 5, seed=0)


class TestGenerateGaussianEnvironment:
    def test_perfect_correlation_gives_validity_one(self):
        env = generate_gaussian_environment({"good": 1.0, "noise": 0.3}, 50, seed=2)
        assert cue_validity(env, "good") == 1.0

    def test_zero_correlation_validity_near_half(self):
        env = generate_gaussian_environment({"dud": 0.0}, 2000, seed=3)
        assert abs(cue_validity(env, "dud") - 0.5) <= 0.05

    def test_same_seed_identical_environment(self):
        a = generate_gaussian_environment({"c": 0.7}, 10, seed=9)
        b = generate_gaussian_environment({"c": 0.7}, 10, seed=9)
        assert a.objects == b.objects

    def test_empirical_correlations_follow_requested_ordering(self):
        targets = {"strong": 0.9, "medium": 0.5, "weak": 0.15}
        env = generate_gaussian_environment(targets, 2000, seed=6)
        criterion = env.criterion_values
        corr = {
            name: float(np.corrcoef(env.cue_values(name), criterion)[0, 1])
            for name in targets
        }
        assert corr["strong"] > corr["medium"] > corr["weak"]
        assert cue_validity(env, "strong") > cue_validity(env, "weak")

    def test_target_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="\\[-1, 1\\]"):
            generate_gaussian_environment({"c": 1.5}, 10, seed=0)


class TestFitLinearWeights:
    def test_exact_noiseless_recovery(self):
        rows = [(3.0 * v1, {"c1": v1, "c2": v2})
                for v1, v2 in [(0, 1), (1, 3), (2, 0), (3, 2), (4, 4), (5, 1)]]
        w = fit_linear_weights(env_of(rows))
        assert w["c1"] == pytest.approx(3.0, abs=1e-9)
        assert w["c2"] == pytest.approx(0.0, abs=1e-9)

    def test_single_cue_identity(self):
        rows = [(v, {"c": v}) for v in (0.0, 1.0, 2.0, 5.0)]
        w = fit_linear_weights(env_of(rows))
        assert w["c"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        # independent oracle: solve (X'X) w = X'y directly
        rows = [
            (2.3, {"c1": 1.0, "c2": 0.5}),
            (1.1, {"c1": 0.2, "c2": 1.5}),
            (4.7, {"c1": 2.0, "c2": 0.1}),
            (3.2, {"c1": 1.4, "c2": 0.9}),
            (0.4, {"c1": 0.1, "c2": 0.3}),
        ]
        env = env_of(rows)
        X = np.column_stack([
            np.ones(5),
            [r[1]["c1"] for r in rows],
            [r[1]["c2"] for r in rows],
        ])
        y = np.array([r[0] for r in rows])
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        w = fit_linear_weights(env)
        assert w["c1"] == pytest.approx(oracle[1], abs=1e-9)
        assert w["c2"] == pytest.approx(oracle[2], abs=1e-9)

    def test_rank_deficient_matrix_names_dependent_cues(self):
        rows = [(v, {"c1": v, "twice": 2 * v}) for v in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(ValueError) as err:
            fit_linear_weights(env_of(rows))
        assert "c1" in str(err.value) and "twice" in str(err.value)

    def test_constant_cue_is_dependent_on_intercept(self):
        rows = [(v, {"c1": v, "flat": 1.0}) for v in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(ValueError, match="flat"):
            fit_linear_weights(env_of(rows))

    def test_too_few_objects_rejected(self):
        rows = [(1.0, {"c1": 1.0, "c2": 2.0}), (2.0, {"c1": 2.0, "c2": 1.0})]
        with pytest.raises(RankDeficientError, match="at least 3"):
            fit_linear_weights(env_of(rows))


class TestRunBenchmark:
    def _noncompensatory_env(self, n=20, seed=17):
        return generate_binary_environment(NC_WEIGHTS, n, seed=seed)

    def test_always_undecided_scores_exactly_half(self):
        env = self._noncompensatory_env()
        report = run_benchmark(env, [AlwaysUndecidedStrategy()], SplitConfig(0.5, 5, seed=1))
        assert report.results[0].accuracy == 0.5
        assert report.results[0].undecided_rate == 1.0

    def test_train_fraction_one_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            SplitConfig(train_fraction=1.0, repetitions=1, seed=0)

    def test_tiny_train_split_rejected(self):
        with pytest.raises(ValueError, match=r"train split has 1 objects.*n=5, train_fraction=0.3"):
            train_test_indices(5, 0.3, np.random.default_rng(0))

    def test_tiny_test_split_rejected(self):
        env = self._noncompensatory_env(n=4)
        with pytest.raises(ValueError, match="test split"):
            run_benchmark(env, [TallyingStrategy()], SplitConfig(0.9, 1, seed=0))

    def test_no_strategies_rejected(self):
        env = self._noncompensatory_env()
        with pytest.raises(ValueError, match="at least one strategy"):
            run_benchmark(env, [], SplitConfig(0.5, 1, seed=0))

    def test_take_the_best_matches_linear_on_noncompensatory_environment(self):
        env = self._noncompensatory_env()
        split = SplitConfig(0.5, 20, seed=7)
        report = run_benchmark(
            env, [TakeTheBestStrategy(), LinearRegressionStrategy()], split
        )
        ttb, linear = report.results
        assert ttb.accuracy == linear.accuracy
        assert ttb.frugality < len(env.cue_names)

    def test_report_deterministic_apart_from_wall_time(self):
        env = self._noncompensatory_env()
        split = SplitConfig(0.5, 10, seed=23)

        def snapshot():
            report = run_benchmark(
                env,
                [TakeTheBestStrategy(), MinimalistStrategy(), TallyingStrategy(),
                 LinearRegressionStrategy()],
                split,
            )
            return [
                (r.name, r.accuracy, r.frugality, r.decisions, r.undecided_rate)
                for r in report.results
            ]

        assert snapshot() == snapshot()

    def test_train_test_hygiene_permuting_test_criteria_changes_nothing_fitted(self):
        env = self._noncompensatory_env(n=16, seed=29)
        rng = np.random.default_rng(4)
        train_idx, test_idx = train_test_indices(len(env), 0.5, rng)
        # permute criterion values among the test objects only
        permuted = list(env.objects)
        shuffled = [permuted[i].criterion for i in test_idx][::-1]
        for i, crit in zip(test_idx, shuffled):
            obj = permuted[i]
            permuted[i] = EnvironmentObject(obj.id, crit, obj.cues)
        env2 = Environment(permuted)
        train1, train2 = env.subset(train_idx), env2.subset(train_idx)
        assert validity_order(train1) == validity_order(train2)
        assert fit_linear_weights(train1) == fit_linear_weights(train2)

    def test_minimalist_frugality_within_cue_count(self):
        env = self._noncompensatory_env()
        report = run_benchmark(env, [MinimalistStrategy()], SplitConfig(0.5, 5, seed=2))
        assert 1.0 <= report.results[0].frugality <= len(env.cue_names)

    def test_linear_strategy_survives_degenerate_training_sample(self):
        # a constant cue in the training half is rank-deficient for the
        # strict fit; the strategy falls back to the minimum-norm solution
        objects = [
            EnvironmentObject(f"o{i}", float(4 * a + c), {"c1": float(a), "flat": 1.0, "c3": float(c)})
            for i, (a, c) in enumerate(itertools.product((0, 1), repeat=2))
        ] * 1
        env = Environment(objects)
        strategy = LinearRegressionStrategy()
        strategy.fit(env, seed=0)
        codes, _ = strategy.decide_pairs(env, np.array([3]), np.array([0]))
        assert codes[0] == DECISION_CODE[Decision.CHOOSE_A]

    def test_scores_match_the_scalar_functions_pair_by_pair(self):
        # reference: a loop over the scalar free functions, one pair at a time,
        # on values rounded to one decimal so that cues and criterion values tie
        base = generate_gaussian_environment({"a": 0.8, "b": -0.5, "c": 0.3}, 30, seed=3)
        directions = {"b": Direction.LOWER_IS_BETTER}
        env = Environment.from_arrays(
            base.ids, base.criterion_values.round(1), base.cue_matrix.round(1),
            base.cue_names, directions,
        )
        rule = DiscriminationRule(0.5, RuleMode.RELATIVE)
        split = SplitConfig(0.5, 4, seed=11)
        report = run_benchmark(
            env, [TakeTheBestStrategy(rule), TallyingStrategy(), LinearRegressionStrategy()], split
        )
        scores = {"take_the_best": [], "tallying": [], "linear_regression": []}
        inspected = dict.fromkeys(scores, 0)
        undecided = dict.fromkeys(scores, 0)
        pairs = 0
        for rep_seq in np.random.SeedSequence(split.seed).spawn(split.repetitions):
            rng = np.random.default_rng(rep_seq.spawn(4)[0])
            train_idx, test_idx = train_test_indices(len(env), split.train_fraction, rng)
            train = env.subset(train_idx)
            test = env.subset(test_idx)
            profiles = test.profiles()
            criterion = test.criterion_values
            order = validity_order(train)
            weights = fit_linear_weights(train)

            def take_the_best(a, b):
                decision, trace = one_reason_choose(a, b, order, rule, directions)
                return decision, len(trace.steps)

            deciders = {
                "take_the_best": take_the_best,
                "tallying": lambda a, b: (tallying_choose(a, b, env.cue_names, directions), 3),
                "linear_regression": lambda a, b: (weighted_linear_choose(a, b, weights), 3),
            }
            rep_pairs = list(itertools.combinations(range(len(profiles)), 2))
            pairs += len(rep_pairs)
            for name, decide in deciders.items():
                score = 0.0
                for i, j in rep_pairs:
                    decision, n_inspected = decide(profiles[i], profiles[j])
                    inspected[name] += n_inspected
                    if decision is Decision.UNDECIDED:
                        undecided[name] += 1
                        score += 0.5
                    elif criterion[i] == criterion[j]:
                        score += 0.5
                    elif (decision is Decision.CHOOSE_A) == (criterion[i] > criterion[j]):
                        score += 1.0
                scores[name].append(score / len(rep_pairs))
        for r in report.results:
            assert r.accuracy == float(np.mean(scores[r.name]))
            assert r.frugality == inspected[r.name] / pairs
            assert r.undecided_rate == undecided[r.name] / pairs
        assert 0.0 < report.results[0].undecided_rate < 1.0


class TestDecidePairs:
    """The array pass against the scalar free functions, pair by pair."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_environments(), rules)
    def test_take_the_best_matches_one_reason_choose(self, env, rule):
        strategy = TakeTheBestStrategy(rule)
        strategy.fit(env, seed=0)
        order = validity_order(env)
        profiles = env.profiles()
        i, j = all_ordered_pairs(env)
        codes, inspected = strategy.decide_pairs(env, i, j)
        for a, b, code, n_inspected in zip(i, j, codes, inspected):
            decision, trace = one_reason_choose(
                profiles[a], profiles[b], order, rule, env.cue_directions
            )
            assert (code, n_inspected) == (DECISION_CODE[decision], len(trace.steps))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_environments())
    def test_tallying_matches_tallying_choose(self, env):
        strategy = TallyingStrategy()
        strategy.fit(env, seed=0)
        profiles = env.profiles()
        i, j = all_ordered_pairs(env)
        codes, inspected = strategy.decide_pairs(env, i, j)
        for a, b, code, n_inspected in zip(i, j, codes, inspected):
            decision = tallying_choose(profiles[a], profiles[b], env.cue_names, env.cue_directions)
            assert (code, n_inspected) == (DECISION_CODE[decision], len(env.cue_names))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_environments(min_objects=6))
    def test_linear_matches_weighted_linear_choose(self, env):
        strategy = LinearRegressionStrategy()
        strategy.fit(env, seed=0)
        weights = strategy._weights
        profiles = env.profiles()
        i, j = all_ordered_pairs(env)
        codes, inspected = strategy.decide_pairs(env, i, j)
        for a, b, code, n_inspected in zip(i, j, codes, inspected):
            decision = weighted_linear_choose(profiles[a], profiles[b], weights)
            assert (code, n_inspected) == (DECISION_CODE[decision], len(env.cue_names))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_environments(), st.integers(0, 2**32))
    def test_minimalist_properties(self, env, seed):
        strategy = MinimalistStrategy()
        strategy.fit(env, seed)
        m = len(env.cue_names)
        i, j = all_ordered_pairs(env)
        codes, inspected = strategy.decide_pairs(env, i, j)
        a, b = env.cue_matrix[i], env.cue_matrix[j]
        assert np.array_equal(codes == 0, (a == b).all(axis=1))
        assert ((1 <= inspected) & (inspected <= m)).all()
        assert (inspected[codes == 0] == m).all()
        # a profile at least as good on every cue and better on one always wins
        flip = np.array([env.cue_directions[c] is Direction.LOWER_IS_BETTER for c in env.cue_names])
        a_better = np.where(flip, a < b, a > b)
        b_better = np.where(flip, a > b, a < b)
        a_dominates = a_better.any(axis=1) & ~b_better.any(axis=1)
        b_dominates = b_better.any(axis=1) & ~a_better.any(axis=1)
        assert (codes[a_dominates] == 1).all()
        assert (codes[b_dominates] == -1).all()


class TestLessIsMoreCurve:
    def test_endpoints_and_interior_maximum(self):
        N, alpha, beta, trials = 20, 0.8, 0.6, 20_000
        rows = less_is_more_curve(N, alpha, beta, trials=trials, seed=1)
        bound = 3.0 * math.sqrt(0.25 / trials)
        n0, formula0, sim0 = rows[0]
        assert (n0, formula0) == (0, 0.5)
        assert abs(sim0 - 0.5) <= bound
        nN, formulaN, simN = rows[-1]
        assert (nN, formulaN) == (N, pytest.approx(beta))
        assert abs(simN - beta) <= bound
        # interior maximum beats full recognition in both columns
        assert max(f for _, f, _ in rows[:-1]) > rows[-1][1]
        assert max(s for _, _, s in rows[:-1]) > rows[-1][2]

    def test_formula_and_simulation_agree_everywhere(self):
        trials = 20_000
        rows = less_is_more_curve(20, 0.8, 0.6, trials=trials, seed=1)
        bound = 3.0 * math.sqrt(0.25 / trials)
        assert all(abs(f - s) <= bound for _, f, s in rows)

    def test_same_seed_identical_curve(self):
        a = less_is_more_curve(10, 0.7, 0.55, trials=2000, seed=8)
        b = less_is_more_curve(10, 0.7, 0.55, trials=2000, seed=8)
        assert a == b

    @pytest.mark.parametrize("args, digest", [
        ((10, 0.7, 0.55, 2000, 8),
         "904837220a2ad065e9538891bc13c5472a6ad2c8d9d70b232097d5183b45b880"),
        ((50, 0.8, 0.6, 20000, 5),
         "f2b4600a4eea2bb781f75014c8a2013168082cef6d7c9996147eec8070106cad"),
    ])
    def test_random_stream_is_pinned(self, args, digest):
        # the rows, and so the draws behind them, are pinned bit for bit:
        # a change of the random stream must show here
        rows = less_is_more_curve(*args)
        assert hashlib.sha256(json.dumps([list(r) for r in rows]).encode()).hexdigest() == digest

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            less_is_more_curve(10, 0.7, 0.55, trials=0, seed=0)


class TestEnvironmentType:
    def test_requires_two_objects(self):
        with pytest.raises(ValueError, match="at least 2"):
            Environment([EnvironmentObject("a", 1.0, {"c": 1.0})])

    def test_requires_shared_cue_names(self):
        with pytest.raises(ValueError, match="cue names"):
            Environment([
                EnvironmentObject("a", 1.0, {"c": 1.0}),
                EnvironmentObject("b", 2.0, {"d": 1.0}),
            ])

    def test_rejects_non_finite_criterion(self):
        with pytest.raises(ValueError, match="non-finite"):
            Environment([
                EnvironmentObject("a", float("inf"), {"c": 1.0}),
                EnvironmentObject("b", 2.0, {"c": 1.0}),
            ])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_cue(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            Environment([
                EnvironmentObject("a", 1.0, {"c": value}),
                EnvironmentObject("b", 2.0, {"c": 1.0}),
            ])

    def test_subset_slices_rows(self):
        env = env_of([(float(k), {"c": 10.0 + k, "d": -k}) for k in range(5)])
        part = env.subset([3, 1])
        assert part.ids == ("o3", "o1")
        assert part.objects == (env.objects[3], env.objects[1])
        assert part.cue_matrix.tolist() == [[13.0, -3.0], [11.0, -1.0]]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Environment([
                EnvironmentObject("a", 1.0, {"c": 1.0}),
                EnvironmentObject("a", 2.0, {"c": 0.0}),
            ])
