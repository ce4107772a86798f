import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frugaleval import ecology
from frugaleval.ecology import (
    Environment,
    LinearRegressionStrategy,
    MinimalistStrategy,
    PairBlock,
    RankDeficientError,
    SplitConfig,
    TakeTheBestStrategy,
    TallyingStrategy,
    cue_validity,
    fit_linear_weights,
    generate_binary_environment,
    generate_gaussian_environment,
    less_is_more_curve,
    run_benchmark,
    train_test_indices,
    validity_order,
)
from frugaleval.heuristics import (
    Decision,
    DiscriminationRule,
    RuleMode,
    WeightVector,
    one_reason_choose,
    recognition_accuracy,
    recognition_choose,
    tallying_choose,
    weighted_linear_choose,
)

NC_WEIGHTS = WeightVector({"c1": 4.0, "c2": 2.0, "c3": 1.0})

# decide codes: +1 chooses the first object of a pair, -1 the second
DECISION_CODE = {Decision.CHOOSE_A: 1, Decision.CHOOSE_B: -1, Decision.UNDECIDED: 0}


def env_of(criterion, cue_matrix, cue_names):
    """An environment of objects o0, o1, ... with one cue_matrix row each."""
    ids = [f"o{i}" for i in range(len(criterion))]
    return Environment(ids, criterion, cue_matrix, cue_names)


def same_environment(a, b):
    return (a.ids == b.ids and a.cue_names == b.cue_names
            and np.array_equal(a.criterion_values, b.criterion_values)
            and np.array_equal(a.cue_matrix, b.cue_matrix))


class AlwaysUndecidedStrategy:
    """Abstains from every pair; pins the 0.5 scoring convention."""

    name = "always_undecided"

    def fit(self, train_env, seed):
        pass

    def decide(self, block):
        return np.zeros(len(block), dtype=int), np.zeros(len(block), dtype=int)


@st.composite
def small_environments(draw, min_objects=2):
    """1-5 cues with integer or one-decimal values, so ties are common."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(max(min_objects, 2), 8))
    scale = draw(st.sampled_from([1.0, 10.0]))
    value = st.integers(-3, 3).map(lambda v: v / scale)
    names = [f"c{k}" for k in range(m)]
    # one row per object: its criterion value, then its cues
    rows = [[draw(value) for _ in range(m + 1)] for _ in range(n)]
    return env_of([row[0] for row in rows], [row[1:] for row in rows], names)


rules = st.builds(
    DiscriminationRule, st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.sampled_from(list(RuleMode))
)


def all_ordered_pairs(env):
    return np.divmod(np.arange(len(env) ** 2), len(env))


class TestGenerateBinaryEnvironment:
    def test_noncompensatory_criterion_matches_lexicographic_order(self):
        env = generate_binary_environment(NC_WEIGHTS, 40, seed=11)
        assert env.cue_names == ("c1", "c2", "c3")
        cues = [tuple(row) for row in env.cue_matrix.tolist()]
        criterion = env.criterion_values.tolist()
        for a, b in itertools.combinations(range(len(env)), 2):
            if cues[a] == cues[b]:
                assert criterion[a] == criterion[b]
            else:
                # with 4 > 2 + 1 the weighted sum orders profiles exactly
                # like the first differing cue
                assert (criterion[a] > criterion[b]) == (cues[a] > cues[b])

    def test_all_eight_distinct_profiles_rank_lexicographically(self):
        profiles = list(itertools.product((0.0, 1.0), repeat=3))
        weights = np.array([4.0, 2.0, 1.0])
        by_criterion = sorted(profiles, key=lambda p: -float(np.dot(weights, p)))
        by_lexicographic = sorted(profiles, reverse=True)
        assert by_criterion == by_lexicographic

    def test_same_seed_identical_environment(self):
        a = generate_binary_environment(NC_WEIGHTS, 12, seed=5)
        b = generate_binary_environment(NC_WEIGHTS, 12, seed=5)
        assert same_environment(a, b)

    def test_zero_weights_zero_criterion(self):
        env = generate_binary_environment(WeightVector({"c1": 0.0, "c2": 0.0}), 6, seed=0)
        assert env.criterion_values.tolist() == [0.0] * 6

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
        assert same_environment(a, b)

    def test_empirical_correlations_follow_requested_ordering(self):
        targets = {"strong": 0.9, "medium": 0.5, "weak": 0.15}
        env = generate_gaussian_environment(targets, 2000, seed=6)
        criterion = env.criterion_values
        corr = {
            name: float(np.corrcoef(env.cue_matrix[:, env.cue_names.index(name)], criterion)[0, 1])
            for name in targets
        }
        assert corr["strong"] > corr["medium"] > corr["weak"]
        assert cue_validity(env, "strong") > cue_validity(env, "weak")

    def test_no_targets_rejected(self):
        # the CLI rejects an empty --targets before it gets here
        with pytest.raises(ValueError, match="^at least one cue target is required$"):
            generate_gaussian_environment({}, 5, 0)

    def test_target_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="\\[-1, 1\\]"):
            generate_gaussian_environment({"c": 1.5}, 10, seed=0)


@st.composite
def linear_designs(draw):
    """Small environments whose design is often rank-deficient: binary cues,
    one of them a copy of another or constant, and as few as 2 objects."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 6))
    cues = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                                  min_size=n, max_size=n)), dtype=float)
    kind = draw(st.sampled_from(["binary", "duplicated", "constant"]))
    k = draw(st.integers(0, m - 1))
    if kind == "duplicated":
        cues[:, k] = cues[:, (k + 1) % m]
    elif kind == "constant":
        cues[:, k] = draw(st.integers(0, 3))
    criterion = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return env_of(criterion, cues, [f"c{j}" for j in range(m)])


def design_of(env):
    return np.column_stack([np.ones(len(env)), env.cue_matrix])


class TestFitLinearWeights:
    def test_exact_noiseless_recovery(self):
        cues = np.array([(0, 1), (1, 3), (2, 0), (3, 2), (4, 4), (5, 1)], dtype=float)
        w = fit_linear_weights(env_of(3.0 * cues[:, 0], cues, ["c1", "c2"]))
        assert w["c1"] == pytest.approx(3.0, abs=1e-9)
        assert w["c2"] == pytest.approx(0.0, abs=1e-9)

    def test_single_cue_identity(self):
        values = [0.0, 1.0, 2.0, 5.0]
        w = fit_linear_weights(env_of(values, [[v] for v in values], ["c"]))
        assert w["c"] == pytest.approx(1.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        # independent oracle: solve (X'X) w = X'y directly
        y = np.array([2.3, 1.1, 4.7, 3.2, 0.4])
        cues = np.array([[1.0, 0.5], [0.2, 1.5], [2.0, 0.1], [1.4, 0.9], [0.1, 0.3]])
        env = env_of(y, cues, ["c1", "c2"])
        X = np.column_stack([np.ones(5), cues])
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        w = fit_linear_weights(env)
        assert w["c1"] == pytest.approx(oracle[1], abs=1e-9)
        assert w["c2"] == pytest.approx(oracle[2], abs=1e-9)

    def test_rank_deficient_matrix_names_dependent_cues(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError) as err:
            fit_linear_weights(env_of(v, np.column_stack([v, 2 * v]), ["c1", "twice"]))
        assert "c1" in str(err.value) and "twice" in str(err.value)

    def test_constant_cue_is_dependent_on_intercept(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="flat"):
            fit_linear_weights(env_of(v, np.column_stack([v, np.ones(4)]), ["c1", "flat"]))

    def test_too_few_objects_rejected(self):
        with pytest.raises(RankDeficientError, match="at least 3"):
            fit_linear_weights(env_of([1.0, 2.0], [[1.0, 2.0], [2.0, 1.0]], ["c1", "c2"]))


    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(linear_designs())
    def test_raises_exactly_when_the_design_is_rank_deficient(self, env):
        # oracle: the rank of the design with its intercept column
        deficient = np.linalg.matrix_rank(design_of(env)) < len(env.cue_names) + 1
        try:
            fit_linear_weights(env)
        except RankDeficientError:
            assert deficient
        else:
            assert not deficient

    @pytest.mark.parametrize("criterion, cues", [
        # a doubled cue and a constant one
        ([3.0, 1.0, 4.0, 1.5], [[1, 2, 1], [2, 4, 1], [3, 6, 1], [4, 8, 1]]),
        # fewer objects than cues + 1
        ([2.0, 7.0], [[1, 0, 3], [0, 2, 5]]),
    ])
    def test_error_carries_the_minimum_norm_weights(self, criterion, cues):
        env = env_of(criterion, cues, ["c1", "c2", "c3"])
        coef = np.linalg.lstsq(design_of(env), env.criterion_values, rcond=None)[0]
        with pytest.raises(RankDeficientError) as err:
            fit_linear_weights(env)
        weights = err.value.weights
        assert weights == WeightVector(dict(zip(env.cue_names, coef[1:].tolist())))
        # the minimum-norm solution is the pseudo-inverse's
        minimum_norm = np.linalg.pinv(design_of(env)) @ env.criterion_values
        assert [weights[c] for c in env.cue_names] == pytest.approx(minimum_norm[1:], abs=1e-9)
        strategy = LinearRegressionStrategy()
        strategy.fit(env, seed=0)
        assert strategy._weights == weights


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

    @pytest.mark.parametrize("fraction, n_train", [(0.29, 29), (0.57, 57), (0.5, 50)])
    def test_train_size_ignores_float_noise(self, fraction, n_train):
        # in floats 0.29 * 100 is 28.999999999999996 and 0.57 * 100 is 56.99999999999999
        train, test = train_test_indices(100, fraction, np.random.default_rng(0))
        assert (len(train), len(test)) == (n_train, 100 - n_train)

    def test_no_strategies_rejected(self):
        env = self._noncompensatory_env()
        with pytest.raises(ValueError, match="at least one strategy"):
            run_benchmark(env, [], SplitConfig(0.5, 1, seed=0))

    def test_a_huge_repetition_count_starts_its_first_repetitions(self):
        # each repetition's seed is built as it starts: a count past 2**63
        # reaches the second fit instead of failing in an up-front spawn
        class Stop(Exception):
            pass

        class StopsAtTheSecondFit(AlwaysUndecidedStrategy):
            fits = 0

            def fit(self, train_env, seed):
                self.fits += 1
                if self.fits == 2:
                    raise Stop

        with pytest.raises(Stop):
            run_benchmark(self._noncompensatory_env(), [StopsAtTheSecondFit()],
                          SplitConfig(0.5, 10**20, 0))

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
        criterion = env.criterion_values.copy()
        criterion[test_idx] = criterion[test_idx][::-1]
        env2 = Environment(env.ids, criterion, env.cue_matrix, env.cue_names)
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
        a, c = np.array(list(itertools.product((0.0, 1.0), repeat=2))).T
        env = env_of(4 * a + c, np.column_stack([a, np.ones(4), c]), ["c1", "flat", "c3"])
        strategy = LinearRegressionStrategy()
        strategy.fit(env, seed=0)
        codes, _ = strategy.decide(PairBlock(env, np.array([3]), np.array([0])))
        assert codes[0] == DECISION_CODE[Decision.CHOOSE_A]

    def test_scores_match_the_scalar_functions_pair_by_pair(self):
        # reference: a loop over the scalar free functions, one pair at a time,
        # on values rounded to one decimal so that cues and criterion values tie
        base = generate_gaussian_environment({"a": 0.8, "b": -0.5, "c": 0.3}, 30, seed=3)
        env = Environment(
            base.ids, base.criterion_values.round(1), base.cue_matrix.round(1), base.cue_names
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
                decision, trace = one_reason_choose(a, b, order, rule)
                return decision, len(trace.steps)

            deciders = {
                "take_the_best": take_the_best,
                "tallying": lambda a, b: (tallying_choose(a, b, env.cue_names), 3),
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


def without_wall_time(results):
    return [r._replace(wall_time=0.0) for r in results]


def abstainer(name):
    stub = AlwaysUndecidedStrategy()
    stub.name = name
    return stub


def tied_environment():
    """Cues rounded to whole numbers plus a constant one, and a criterion
    rounded to one decimal: many pairs tie on a cue, on every cue or on the
    criterion."""
    base = generate_gaussian_environment({"a": 0.8, "b": 0.5, "c": -0.3}, 40, seed=5)
    cues = np.column_stack([base.cue_matrix.round(), np.ones(len(base))])
    return env_of(base.criterion_values.round(1), cues, [*base.cue_names, "flat"])


ENVIRONMENTS = {
    "binary": lambda: generate_binary_environment(NC_WEIGHTS, 40, seed=3),
    "gaussian": lambda: generate_gaussian_environment({"a": 0.8, "b": 0.5, "c": -0.3}, 40, seed=4),
    "tied": tied_environment,
}


class TestPairBlocks:
    """The pair engine walks the pairs in blocks of at most PAIR_BLOCK; the
    block size changes no report."""

    @pytest.mark.parametrize("size", [1, 7, 13, 2**16])
    @pytest.mark.parametrize("n", [2, 3, 10, 41])
    def test_blocks_walk_the_pairs_in_triu_order(self, monkeypatch, n, size):
        monkeypatch.setattr(ecology, "PAIR_BLOCK", size)
        blocks = list(ecology.pair_blocks(n))
        assert all(0 < len(i) == len(j) <= size for i, j in blocks)
        i, j = np.triu_indices(n, k=1)
        assert np.array_equal(np.concatenate([i for i, _ in blocks]), i)
        assert np.array_equal(np.concatenate([j for _, j in blocks]), j)

    @pytest.mark.parametrize("rule", [
        DiscriminationRule(), DiscriminationRule(0.5), DiscriminationRule(0.3, RuleMode.RELATIVE),
    ], ids=["absolute", "absolute_delta", "relative_delta"])
    @pytest.mark.parametrize("env_name", ENVIRONMENTS)
    def test_blocks_of_seven_report_as_one_block(self, monkeypatch, env_name, rule):
        env = ENVIRONMENTS[env_name]()

        def results():
            strategies = [TakeTheBestStrategy(rule), MinimalistStrategy(), TallyingStrategy(),
                          LinearRegressionStrategy()]
            return without_wall_time(run_benchmark(env, strategies, SplitConfig(0.5, 3, 9)).results)

        monkeypatch.setattr(ecology, "PAIR_BLOCK", 10**9)
        one_block = results()
        monkeypatch.setattr(ecology, "PAIR_BLOCK", 7)
        assert results() == one_block

    @pytest.mark.parametrize("env_name", ENVIRONMENTS)
    def test_validities_in_blocks_of_seven(self, monkeypatch, env_name):
        env = ENVIRONMENTS[env_name]()

        def validities():
            return validity_order(env), [cue_validity(env, name) for name in env.cue_names]

        monkeypatch.setattr(ecology, "PAIR_BLOCK", 10**9)
        one_block = validities()
        monkeypatch.setattr(ecology, "PAIR_BLOCK", 7)
        assert validities() == one_block

    def test_minimalist_stream_is_pinned_across_default_blocks(self):
        # 400 test objects give 79,800 pairs, two default blocks; the cue
        # orders drawn block by block must be those of one draw over all pairs
        base = generate_gaussian_environment({"a": 0.8, "b": 0.5, "c": -0.3, "d": 0.1}, 800, 19)
        env = Environment(base.ids, base.criterion_values, base.cue_matrix.round(), base.cue_names)
        report = run_benchmark(env, [MinimalistStrategy()], SplitConfig(0.5, 2, seed=23))
        rows = [[r.name, r.accuracy, r.frugality, r.decisions, r.undecided_rate]
                for r in report.results]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "03f8eff5c7d03b3ae8669f2b276039470760f6a63fd6afa16cf62f7633ac5091")

    @pytest.mark.parametrize("first", [True, False], ids=["rule_first", "rule_last"])
    def test_shared_signs_are_kept_per_rule(self, first):
        env = tied_environment()
        split = SplitConfig(0.5, 3, seed=13)

        def strategies():
            ttb = TakeTheBestStrategy(DiscriminationRule(0.5, RuleMode.RELATIVE))
            others = [MinimalistStrategy(), TallyingStrategy()]
            return [ttb, *others] if first else [*others, ttb]

        together = without_wall_time(run_benchmark(env, strategies(), split).results)
        for k, strategy in enumerate(strategies()):
            # alone among abstainers, at the same place, so it draws the same seed
            line_up = [abstainer(f"abstainer{x}") for x in range(3)]
            line_up[k] = strategy
            alone = without_wall_time(run_benchmark(env, line_up, split).results)
            assert alone[k] == together[k]

    def test_memory_does_not_grow_with_the_pairs(self):
        # 1000 test objects: 499,500 pairs of 6 cues in eight blocks; one
        # pairs x cues float array over all of them alone would take 23 MiB
        targets = {f"c{k}": 0.9 - 0.15 * k for k in range(6)}
        env = generate_gaussian_environment(targets, 2000, seed=1)
        strategies = [TakeTheBestStrategy(), MinimalistStrategy(), TallyingStrategy(),
                      LinearRegressionStrategy()]
        tracemalloc.start()
        try:
            run_benchmark(env, strategies, SplitConfig(0.5, 1, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


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
        codes, inspected = strategy.decide(PairBlock(env, i, j))
        for a, b, code, n_inspected in zip(i, j, codes, inspected):
            decision, trace = one_reason_choose(profiles[a], profiles[b], order, rule)
            assert (code, n_inspected) == (DECISION_CODE[decision], len(trace.steps))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_environments())
    def test_tallying_matches_tallying_choose(self, env):
        strategy = TallyingStrategy()
        strategy.fit(env, seed=0)
        profiles = env.profiles()
        i, j = all_ordered_pairs(env)
        codes, inspected = strategy.decide(PairBlock(env, i, j))
        for a, b, code, n_inspected in zip(i, j, codes, inspected):
            decision = tallying_choose(profiles[a], profiles[b], env.cue_names)
            assert (code, n_inspected) == (DECISION_CODE[decision], len(env.cue_names))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(small_environments(min_objects=6))
    def test_linear_matches_weighted_linear_choose(self, env):
        strategy = LinearRegressionStrategy()
        strategy.fit(env, seed=0)
        weights = strategy._weights
        profiles = env.profiles()
        i, j = all_ordered_pairs(env)
        codes, inspected = strategy.decide(PairBlock(env, i, j))
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
        codes, inspected = strategy.decide(PairBlock(env, i, j))
        a, b = env.cue_matrix[i], env.cue_matrix[j]
        assert np.array_equal(codes == 0, (a == b).all(axis=1))
        assert ((1 <= inspected) & (inspected <= m)).all()
        assert (inspected[codes == 0] == m).all()
        # a profile at least as good on every cue and better on one always wins
        a_better, b_better = a > b, a < b
        a_dominates = a_better.any(axis=1) & ~b_better.any(axis=1)
        b_dominates = b_better.any(axis=1) & ~a_better.any(axis=1)
        assert (codes[a_dominates] == 1).all()
        assert (codes[b_dominates] == -1).all()


def choices_of_a(a_known, b_known, knowledge_picks_a, guesses_a):
    """How many of the pairs the scalar recognition_choose decides for a:
    pair k recognizes a when a_known[k] and b when b_known[k], knowledge
    picks a when knowledge_picks_a[k] and a guess when guesses_a[k]."""
    chosen = 0
    pairs = zip(a_known.tolist(), b_known.tolist(), knowledge_picks_a.tolist(), guesses_a.tolist())
    for a_is_known, b_is_known, picks_a, guess_a in pairs:
        recognized = {name for name, known in (("a", a_is_known), ("b", b_is_known)) if known}
        answer = Decision.CHOOSE_A if picks_a else Decision.CHOOSE_B
        decision = recognition_choose("a", "b", recognized, lambda a, b: answer, guess_a=guess_a)
        chosen += decision is Decision.CHOOSE_A
    return chosen


def reference_curve(N, alpha, beta, trials, seed):
    """less_is_more_curve as first written, the oracle of its kernel: per
    block, rng.choice draws the pair type and three rng.random calls the
    recognition, knowledge and guess uniforms; recognition_choose decides
    every pair and the choices of the better object, a, are counted."""
    seeds = np.random.SeedSequence(seed).spawn(N + 1)
    rows = []
    total_pairs = N * (N - 1)
    for n in range(N + 1):
        rng = np.random.default_rng(seeds[n])
        p_one = 2.0 * n * (N - n) / total_pairs
        p_both = n * (n - 1) / total_pairs
        p_neither = max(0.0, 1.0 - p_one - p_both)
        correct = 0
        for first in range(0, trials, ecology.PAIR_BLOCK):
            size = min(ecology.PAIR_BLOCK, trials - first)
            pair_type = rng.choice(3, size=size, p=[p_neither, p_one, p_both])
            recognized_is_better = rng.random(size) < alpha
            knowledge_is_right = rng.random(size) < beta
            guesses_a = rng.random(size) < 0.5
            one, both = pair_type == 1, pair_type == 2
            correct += choices_of_a(both | (one & recognized_is_better),
                                    both | (one & ~recognized_is_better),
                                    knowledge_is_right, guesses_a)
        rows.append((n, recognition_accuracy(N, n, alpha, beta), correct / trials))
    return rows


# 0, 1 and an interior recognition or knowledge validity
VALIDITIES = st.one_of(st.sampled_from([0.0, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
# small, so that the curve runs over many blocks in little time
TEST_BLOCK = 16


class TestLessIsMoreCurve:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(N=st.integers(2, 60), alpha=VALIDITIES, beta=VALIDITIES,
           trials=st.sampled_from([1, TEST_BLOCK, TEST_BLOCK + 1, 3 * TEST_BLOCK + 5]),
           seed=st.integers(0, 2**32))
    # at N = 11 the share of pairs with neither recognized rounds below 0 at n = 10
    @example(N=11, alpha=0.8, beta=0.6, trials=3 * TEST_BLOCK + 5, seed=1)
    @example(N=2, alpha=1.0, beta=0.0, trials=TEST_BLOCK + 1, seed=0)
    def test_rows_equal_the_reference_loop(self, N, alpha, beta, trials, seed):
        # the kernel draws the same stream in one call a block and counts the
        # correct choices without deciding them; the rows must not move
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ecology, "PAIR_BLOCK", TEST_BLOCK)
            assert less_is_more_curve(N, alpha, beta, trials, seed) == \
                reference_curve(N, alpha, beta, trials, seed)

    @pytest.mark.parametrize("alpha, beta", [(0.8, 0.6), (0.0, 1.0), (1.0, 0.0), (0.3, 0.9)])
    def test_one_block_counts_what_recognition_choose_decides(self, alpha, beta):
        # on one block's four uniforms per trial, the curve's count of correct
        # choices is the count of pairs where the recognition heuristic picks
        # the better object, a
        N, trials, seed = 11, 5000, 3
        rows = less_is_more_curve(N, alpha, beta, trials, seed)
        seeds = np.random.SeedSequence(seed).spawn(N + 1)
        total_pairs = N * (N - 1)
        for n, _, simulated in rows:
            p_one = 2.0 * n * (N - n) / total_pairs
            p_both = n * (n - 1) / total_pairs
            cdf = np.array([max(0.0, 1.0 - p_one - p_both), p_one, p_both]).cumsum()
            kind, recognized, knowledge, guess = np.random.default_rng(seeds[n]).random((4, trials))
            pair_type = np.searchsorted(cdf / cdf[-1], kind, side="right")
            one, both = pair_type == 1, pair_type == 2
            assert round(simulated * trials) == choices_of_a(
                both | (one & (recognized < alpha)), both | (one & (recognized >= alpha)),
                knowledge < beta, guess < 0.5)

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
         "a0286e4df3d0332e0489965b39238ad5bad4f3c028e14b3b38a7b77ab69ccf1b"),
        ((50, 0.8, 0.6, 20000, 5),
         "c468dc6e32ff2d3ddd291a665379f1b70754c58855d9f667a503d163b7b98391"),
        # over two blocks of the default PAIR_BLOCK
        ((6, 0.8, 0.6, 2**16 + 3, 4),
         "e64b8425f5cce6b67c102601e082cf980839308d21d1f5fc72ed7fd7be9e0901"),
    ])
    def test_random_stream_is_pinned(self, args, digest):
        # the rows, and so the draws behind them, are pinned bit for bit:
        # a change of the random stream must show here
        rows = less_is_more_curve(*args)
        assert hashlib.sha256(json.dumps([list(r) for r in rows]).encode()).hexdigest() == digest

    def test_population_where_no_pair_is_unrecognized_rounds_below_zero(self):
        # at n = N - 1 = 10 the share of pairs with neither object recognized
        # computes as 1 - p_one - p_both = -1.1e-16, not 0
        rows = less_is_more_curve(11, 0.8, 0.6, 100, 1)
        assert [n for n, _, _ in rows] == list(range(12))

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            less_is_more_curve(10, 0.7, 0.55, trials=0, seed=0)

    def test_memory_does_not_grow_with_trials(self):
        # 1,000,000 trials are sixteen blocks; drawn all at once, their
        # draws alone would take 35 MiB
        tracemalloc.start()
        try:
            less_is_more_curve(10, 0.8, 0.6, trials=1_000_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestEnvironmentType:
    def test_requires_two_objects(self):
        with pytest.raises(ValueError, match="at least 2"):
            Environment(["a"], [1.0], [[1.0]], ["c"])

    def test_requires_distinct_cue_names(self):
        with pytest.raises(ValueError, match="distinct cue names"):
            Environment(["a", "b"], [1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], ["c", "c"])

    @pytest.mark.parametrize("name", ["", " "], ids=["empty", "blank"])
    def test_rejects_blank_cue_name(self, name):
        with pytest.raises(ValueError, match="must not be blank"):
            Environment(["a", "b"], [1.0, 2.0], [[1.0, 1.0], [2.0, 2.0]], ["c", name])

    @pytest.mark.parametrize("criterion", [
        [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0], [2.0], [3.0]], [[1.0], [2.0], [3.0], [4.0]],
    ], ids=["short", "long", "column", "long_column"])
    def test_rejects_a_criterion_of_the_wrong_shape(self, criterion):
        with pytest.raises(ValueError, match="one value per object"):
            Environment(["a", "b", "c"], criterion, [[1.0], [2.0], [3.0]], ["c"])

    def test_columns_are_stored_in_name_order(self):
        env = Environment(["a", "b"], [1.0, 2.0], [[1.0, 10.0], [2.0, 20.0]], ["z", "y"])
        assert env.cue_names == ("y", "z")
        assert env.cue_matrix.tolist() == [[10.0, 1.0], [20.0, 2.0]]

    def test_rejects_non_finite_criterion(self):
        with pytest.raises(ValueError, match="non-finite"):
            Environment(["a", "b"], [float("inf"), 2.0], [[1.0], [1.0]], ["c"])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_cue(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            Environment(["a", "b"], [1.0, 2.0], [[value], [1.0]], ["c"])

    def test_subset_slices_rows(self):
        env = env_of([float(k) for k in range(5)], [[10.0 + k, -k] for k in range(5)], ["c", "d"])
        part = env.subset([3, 1])
        assert part.ids == ("o3", "o1")
        assert part.criterion_values.tolist() == [3.0, 1.0]
        assert part.cue_matrix.tolist() == [[13.0, -3.0], [11.0, -1.0]]

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            Environment(["a", "a"], [1.0, 2.0], [[1.0], [0.0]], ["c"])
