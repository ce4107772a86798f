"""Benchmark harness: when do frugal strategies match information-greedy ones?

A task environment is object ids, a criterion vector and one cue matrix
(`Environment`), read from a file or generated. The benchmark fits cue
orders (by cue validity) and linear weights on a training split only, and
scores every strategy on all unordered test pairs -- accuracy, frugality
(mean cues inspected) and wall time. The pairs are walked in bounded
blocks (`pair_blocks`) and each block is decided at once (`PairBlock`),
so memory does not grow with the number of pairs, and every count adds
up over the blocks exactly. This module holds every array pass over object pairs: cue
validities and the strategies' decisions, which read a block's cue signs
and criterion order, and the less-is-more curve's count of correct
choices. Each is tested against a scalar reference in heuristics, the
curve's count against recognition_choose deciding the same draws.
Splits and generators are fully seeded; identical seeds reproduce reports
bit for bit apart from wall time. The module imports numpy, so the commands
that do no array work never import it.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ._records import _checked_make
from .heuristics import CueOrder, DiscriminationRule, RuleMode, WeightVector, recognition_accuracy
# imported only so that the benchmark tracer (bench/tracing.py) finds them here
from .heuristics import (  # noqa: F401
    one_reason_choose,
    recognition_choose,
    tallying_choose,
    weighted_linear_choose,
)

if TYPE_CHECKING:
    # Environment.profiles imports it itself, so that bench loads no indicators
    from .indicators import CandidateProfile

# A strategy's decide(block) decides every pair (block.i[k], block.j[k]) of a
# PairBlock at once, exactly as the scalar functions in heuristics would,
# reading cue signs from block.signs so that strategies under one rule share
# them. It returns a code per pair (+1 first object, -1 second, 0 undecided)
# and the cues each inspected. Cue names map to columns once, in fit: every
# Environment sorts its columns by cue name, so the test split's match.
Codes = tuple[np.ndarray, np.ndarray]

# Most pairs (or Monte Carlo trials) a block holds. The pair engine's arrays
# are pairs x cues, so this bounds its memory whatever n is.
PAIR_BLOCK = 2**16


def pair_blocks(n: int):
    """The pairs i < j of n items in np.triu_indices order (i ascending,
    then j ascending), as (i, j) index arrays of at most PAIR_BLOCK pairs
    each, without ever holding all of them."""
    rows = np.arange(n - 1)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of pair (r, r + 1)
    total = n * (n - 1) // 2
    for first in range(0, total, PAIR_BLOCK):
        last = min(first + PAIR_BLOCK, total)
        r0, r1 = np.searchsorted(starts, [first, last - 1], side="right") - 1
        # where each row the block spans begins within the block
        begins = np.maximum(starts[r0:r1 + 1], first) - first
        i = np.repeat(rows[r0:r1 + 1], np.diff(begins, append=last - first))
        yield i, np.arange(first, last) - starts.take(i) + i + 1


class Environment:
    """Objects with one criterion value and shared named cues, held as
    `ids`, a `criterion_values` vector and an n x m `cue_matrix` whose
    columns follow the sorted `cue_names`. The constructor accepts
    cue_names in any order, with cue_matrix columns to match, and sorts both.
    """

    def __init__(self, ids, criterion, cue_matrix, cue_names):
        ids = tuple(ids)
        order = sorted(range(len(cue_names)), key=cue_names.__getitem__)
        names = tuple(cue_names[k] for k in order)
        criterion = np.array(criterion, dtype=float)
        cue_matrix = np.asarray(cue_matrix, dtype=float).reshape(len(ids), len(names))[:, order]
        if len(ids) < 2:
            raise ValueError(f"environment needs at least 2 objects, got {len(ids)}")
        if criterion.shape != (len(ids),):
            raise ValueError(f"criterion needs one value per object, got shape {criterion.shape}")
        if not names or len(set(names)) != len(names):
            raise ValueError(f"environment needs distinct cue names, got {list(names)}")
        if not all(name.strip() for name in names):
            raise ValueError(f"environment cue names must not be blank, got {list(names)}")
        if len(set(ids)) != len(ids):
            duplicate = next(pid for k, pid in enumerate(ids) if pid in ids[:k])
            raise ValueError(f"duplicate object id {duplicate!r}")
        finite = np.isfinite(criterion)
        if not finite.all():
            k = np.argmin(finite)
            raise ValueError(f"object {ids[k]!r} has non-finite criterion {criterion[k]}")
        finite = np.isfinite(cue_matrix)
        if not finite.all():
            k, c = np.argwhere(~finite)[0]
            raise ValueError(f"object {ids[k]!r}: non-finite cue {names[c]!r} = {cue_matrix[k, c]}")
        criterion.setflags(write=False)
        cue_matrix.setflags(write=False)
        self.ids, self.criterion_values, self.cue_matrix = ids, criterion, cue_matrix
        self.cue_names = names

    def __len__(self) -> int:
        return len(self.ids)

    def columns(self, names: Sequence[str]) -> list[int]:
        """Column indices of the named cues in cue_matrix."""
        for name in names:
            if name not in self.cue_names:
                raise ValueError(f"environment has no cue named {name!r}")
        return [self.cue_names.index(name) for name in names]

    def subset(self, indices: Sequence[int]) -> Environment:
        rows = np.asarray(indices, dtype=np.intp)
        return Environment([self.ids[k] for k in rows], self.criterion_values[rows],
                           self.cue_matrix[rows], self.cue_names)

    def profiles(self) -> list[CandidateProfile]:
        """View each object as a candidate whose indicators are its cues."""
        from .indicators import CandidateProfile

        return [CandidateProfile(pid, indicators=dict(zip(self.cue_names, cues)))
                for pid, cues in zip(self.ids, self.cue_matrix.tolist())]


class _SplitConfigFields(NamedTuple):
    train_fraction: float
    repetitions: int
    seed: int


class SplitConfig(_SplitConfigFields):
    __slots__ = ()

    def __new__(cls, train_fraction: float, repetitions: int, seed: int) -> SplitConfig:
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(
                f"train fraction must be strictly inside (0, 1), got {train_fraction}"
            )
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        return tuple.__new__(cls, (train_fraction, repetitions, seed))

    _make = classmethod(_checked_make)


class StrategyResult(NamedTuple):
    name: str
    accuracy: float
    frugality: float
    decisions: int
    undecided_rate: float
    wall_time: float


class BenchmarkReport(NamedTuple):
    results: tuple[StrategyResult, ...]


def _object_ids(n_objects: int) -> list[str]:
    width = len(str(n_objects - 1))
    return [f"obj{i:0{width}d}" for i in range(n_objects)]


def generate_binary_environment(
    weights: WeightVector, n_objects: int, seed: int
) -> Environment:
    """Objects with seeded random binary cues; criterion = weighted cue sum."""
    if n_objects < 2:
        raise ValueError(f"need at least 2 objects, got {n_objects}")
    names = sorted(weights.names)
    for name in names:
        if weights[name] < 0:
            raise ValueError(f"weight for {name!r} must be non-negative, got {weights[name]}")
    rng = np.random.default_rng(seed)
    cue_matrix = rng.integers(0, 2, size=(n_objects, len(names)))
    w = np.array([weights[name] for name in names], dtype=float)
    # a criterion that overflows becomes inf, which Environment rejects
    with np.errstate(over="ignore"):
        criterion = cue_matrix @ w
    return Environment(_object_ids(n_objects), criterion, cue_matrix, names)


def generate_gaussian_environment(
    validity_targets: Mapping[str, float], n_objects: int, seed: int
) -> Environment:
    """Standard-normal criterion; each cue is the criterion scaled by its
    target correlation plus independent noise, so empirical cue-criterion
    correlations match the requested ordering in expectation.
    """
    if n_objects < 2:
        raise ValueError(f"need at least 2 objects, got {n_objects}")
    if not validity_targets:
        raise ValueError("at least one cue target is required")
    for name, rho in validity_targets.items():
        if not -1.0 <= rho <= 1.0:
            raise ValueError(f"correlation target for {name!r} must be in [-1, 1], got {rho}")
    rng = np.random.default_rng(seed)
    criterion = rng.standard_normal(n_objects)
    names = sorted(validity_targets)
    columns = []
    for name in names:
        rho = validity_targets[name]
        noise = rng.standard_normal(n_objects)
        columns.append(rho * criterion + math.sqrt(1.0 - rho * rho) * noise)
    cue_matrix = np.column_stack(columns)
    return Environment(_object_ids(n_objects), criterion, cue_matrix, names)


class RankDeficientError(ValueError):
    """The cue matrix does not support a unique least-squares fit.

    `weights` holds the minimum-norm least-squares weights of the same
    solve, which a caller may use as a fallback fit.
    """

    def __init__(self, message: str, weights: WeightVector):
        super().__init__(message)
        self.weights = weights


def fit_linear_weights(env: Environment) -> WeightVector:
    """Ordinary least-squares weights regressing the criterion on the cues.

    An intercept is included in the fit and discarded: it cancels in any
    pairwise comparison of weighted sums. Fewer than m + 1 objects cannot
    fix m weights plus the intercept, so they raise RankDeficientError like
    any other rank-deficient sample.
    """
    n, m = env.cue_matrix.shape
    design = np.column_stack([np.ones(n), env.cue_matrix])
    # lstsq returns the minimum-norm solution (the unique fit at full rank), so
    # redundant cues (e.g. one constant in a small training sample) get weight 0
    coef, _, rank, _ = np.linalg.lstsq(design, env.criterion_values, rcond=None)
    weights = WeightVector(dict(zip(env.cue_names, (float(c) for c in coef[1:]))))
    if n < m + 1:
        raise RankDeficientError(
            f"need at least {m + 1} objects to fit {m} cue weights, got {n}", weights
        )
    if rank < m + 1:
        dependent = _dependent_cues(design, env.cue_names)
        raise RankDeficientError(
            "cue matrix is rank-deficient; linearly dependent cues: " + ", ".join(dependent),
            weights,
        )
    return weights


def _dependent_cues(design: np.ndarray, names: Sequence[str]) -> list[str]:
    # a cue column is dependent when the remaining columns reproduce it
    dependent = []
    for k, name in enumerate(names):
        col = design[:, k + 1]
        others = np.delete(design, k + 1, axis=1)
        fit, *_ = np.linalg.lstsq(others, col, rcond=None)
        residual = col - others @ fit
        if np.linalg.norm(residual) <= 1e-9 * max(1.0, np.linalg.norm(col)):
            dependent.append(name)
    return dependent or list(names)


def train_test_indices(
    n_objects: int, train_fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Seeded shuffle split; each side keeps at least 2 objects."""
    # rounded first, as top_quota does, so float noise below an exact
    # multiple (0.29 * 100 = 28.999999999999996) does not cost an object
    n_train = int(round(train_fraction * n_objects, 9))
    for side, size in (("train", n_train), ("test", n_objects - n_train)):
        if size < 2:
            raise ValueError(
                f"{side} split has {size} objects; need at least 2 "
                f"(n={n_objects}, train_fraction={train_fraction})"
            )
    permutation = rng.permutation(n_objects)
    return permutation[:n_train].tolist(), permutation[n_train:].tolist()


def _compare(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """+1 where a > b, -1 where a < b, 0 where they are equal (int8)."""
    return np.greater(a, b).astype(np.int8) - np.less(a, b)


class PairBlock:
    """Pairs (i[k], j[k]) of one environment's objects, decided together.

    `truth` is the order of each pair's criterion values (+1 / -1 / 0).
    `signs(rule)`, the array form of DiscriminationRule.discriminates, is
    the pairs x cues matrix (in column order) of the side each cue favors,
    0 where the rule says the scores do not differ substantially; it is
    computed once per rule and shared by every strategy under that rule.
    """

    def __init__(self, env: Environment, i: np.ndarray, j: np.ndarray):
        self.env, self.i, self.j = env, i, j
        self.truth = _compare(env.criterion_values.take(i), env.criterion_values.take(j))
        self._signs: dict[DiscriminationRule, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.i)

    def signs(self, rule: DiscriminationRule) -> np.ndarray:
        signs = self._signs.get(rule)
        if signs is None:
            matrix = self.env.cue_matrix
            a, b = matrix.take(self.i, axis=0), matrix.take(self.j, axis=0)
            signs = _compare(a, b)
            if rule.delta > 0.0:  # at 0, any difference of finite scores discriminates
                # two finite scores can differ by more than the float range:
                # that difference is inf, which discriminates, as it should
                with np.errstate(over="ignore"):
                    diff = abs(a - b)
                if rule.mode is RuleMode.RELATIVE:
                    scale = np.maximum(abs(a), abs(b))
                    diff = diff / np.where(scale > 0.0, scale, 1.0)
                signs = signs * (diff > rule.delta)
            signs.setflags(write=False)  # shared by every strategy under this rule
            self._signs[rule] = signs
        return signs


def _lexicographic(signs: np.ndarray) -> Codes:
    """Cue columns in inspection order: the first nonzero one decides and
    the search stops there."""
    first = np.argmax(signs != 0, axis=1)
    codes = np.take_along_axis(signs, first[:, None], axis=1)[:, 0]
    # a row without a hit has argmax 0 and a zero sign there: undecided
    return codes, np.where(codes != 0, first + 1, signs.shape[1])


def _validities(env: Environment) -> list[float]:
    """cue_validity of every cue of env, in column order."""
    totals = np.zeros(len(env.cue_names), dtype=np.int64)
    corrects = np.zeros(len(env.cue_names), dtype=np.int64)
    for i, j in pair_blocks(len(env)):
        block = PairBlock(env, i, j)
        signs = block.signs(DiscriminationRule())
        totals += np.count_nonzero(signs, axis=0)
        # +1 exactly where the cue discriminates and agrees with the criterion
        corrects += np.count_nonzero(signs * block.truth[:, None] > 0, axis=0)
    return [correct / total if total else 0.5
            for correct, total in zip(corrects.tolist(), totals.tolist())]


def cue_validity(env: Environment, cue: str) -> float:
    """Share of cue-discriminating object pairs where the higher-cue object
    also has the higher criterion; 0.5 when no pair discriminates.
    """
    return _validities(env)[env.columns([cue])[0]]


def validity_order(env: Environment) -> CueOrder:
    """Cues ranked by validity, best first; ties broken by name."""
    validities = dict(zip(env.cue_names, _validities(env)))
    ranked = sorted(env.cue_names, key=lambda name: (-validities[name], name))
    return CueOrder(tuple(ranked))


class TakeTheBestStrategy:
    """Lexicographic choice with the cue order learned from training data."""

    name = "take_the_best"

    def __init__(self, rule: DiscriminationRule | None = None):
        self.rule = rule or DiscriminationRule()

    def fit(self, train_env: Environment, seed: int) -> None:
        self._columns = train_env.columns(validity_order(train_env).cues)

    def decide(self, block: PairBlock) -> Codes:
        return _lexicographic(block.signs(self.rule).take(self._columns, axis=1))


class MinimalistStrategy:
    """Lexicographic choice over a fresh random cue order per decision."""

    name = "minimalist"

    def fit(self, train_env: Environment, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def decide(self, block: PairBlock) -> Codes:
        signs = block.signs(DiscriminationRule())
        # one order per pair, drawn block after block: the same orders as
        # one call over all pairs
        m = signs.shape[1]
        orders = np.tile(np.arange(m), (len(block), 1))
        self._rng.permuted(orders, axis=1, out=orders)
        orders += np.arange(0, orders.size, m)[:, None]  # flat index into signs
        return _lexicographic(signs.take(orders))


class TallyingStrategy:
    """Unit-weight vote count over all cues."""

    name = "tallying"

    def fit(self, train_env: Environment, seed: int) -> None:
        pass  # tallying learns nothing

    def decide(self, block: PairBlock) -> Codes:
        signs = block.signs(DiscriminationRule())
        return np.sign(signs.sum(axis=1)), np.full(len(block), signs.shape[1])


class LinearRegressionStrategy:
    """Weighted-sum comparison with weights fit on the training split.

    A degenerate training sample (rank-deficient cue matrix, or fewer
    objects than cues + 1) falls back to the minimum-norm least-squares fit
    so a benchmark repetition never dies on an unlucky draw.
    """

    name = "linear_regression"

    def fit(self, train_env: Environment, seed: int) -> None:
        try:
            self._weights = fit_linear_weights(train_env)
        except RankDeficientError as exc:
            self._weights = exc.weights

    def decide(self, block: PairBlock) -> Codes:
        env = block.env
        # weights come keyed by cue_names (fit_linear_weights), so in column
        # order; summed cue by cue from 0.0, as weighted_linear_choose does,
        # the sums agree bit for bit (a matrix product need not)
        sums = np.zeros(len(env))
        for weight, column in zip(self._weights.weights.values(), env.cue_matrix.T):
            sums = sums + weight * column
        codes = _compare(sums.take(block.i), sums.take(block.j))
        return codes, np.full(len(block), len(env.cue_names))


STRATEGY_FACTORIES: dict[str, Callable[[], object]] = {
    "take_the_best": TakeTheBestStrategy,
    "minimalist": MinimalistStrategy,
    "tallying": TallyingStrategy,
    "linear": LinearRegressionStrategy,
}


def run_benchmark(
    env: Environment, strategies: Sequence[object], split: SplitConfig
) -> BenchmarkReport:
    """Out-of-sample pair-comparison benchmark.

    Per repetition: seeded shuffle split, strategies fitted on the training
    objects only, then every unordered test pair is decided. A decision is
    correct when it picks the higher-criterion object; undecided scores 0.5,
    as does any decision on a pair whose criterion values tie (no answer is
    defined there). Accuracy is averaged over repetitions, frugality over
    all decisions. The test pairs are decided block by block (`PairBlock`);
    a strategy's wall time includes a block's cue signs only when it is the
    first to ask for them under its rule.
    """
    if not strategies:
        raise ValueError("at least one strategy is required")
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"strategy names must be unique, got {names}")
    accuracies: dict[str, list[float]] = {s.name: [] for s in strategies}
    inspected: dict[str, int] = {s.name: 0 for s in strategies}
    undecided: dict[str, int] = {s.name: 0 for s in strategies}
    wall: dict[str, float] = {s.name: 0.0 for s in strategies}
    decisions = 0  # per strategy: every strategy decides every test pair

    for rep in range(split.repetitions):
        # repetition rep's seed is the one SeedSequence(seed).spawn(repetitions)
        # would give, built as it starts, so a long run allocates no seed list
        rep_seq = np.random.SeedSequence(split.seed, spawn_key=(rep,))
        children = rep_seq.spawn(1 + len(strategies))
        rng = np.random.default_rng(children[0])
        train_idx, test_idx = train_test_indices(len(env), split.train_fraction, rng)
        train_env = env.subset(train_idx)
        test_env = env.subset(test_idx)
        for strategy, child in zip(strategies, children[1:]):
            strategy.fit(train_env, int(child.generate_state(2, np.uint64)[0]))
        # half-points, 1 + code * truth a pair: 2 decided right, 1 undecided
        # or a criterion tie, 0 decided wrong
        points = dict.fromkeys(names, 0)
        pairs = len(test_env) * (len(test_env) - 1) // 2
        for i, j in pair_blocks(len(test_env)):
            block = PairBlock(test_env, i, j)
            for strategy in strategies:
                start = time.perf_counter()
                codes, n_inspected = strategy.decide(block)
                wall[strategy.name] += time.perf_counter() - start
                points[strategy.name] += len(block) + int(np.sum(codes * block.truth))
                inspected[strategy.name] += int(np.sum(n_inspected))
                undecided[strategy.name] += int(np.count_nonzero(codes == 0))
        decisions += pairs
        for name in names:
            accuracies[name].append(points[name] / (2 * pairs))

    results = tuple(
        StrategyResult(
            name=s.name,
            accuracy=float(np.mean(accuracies[s.name])),
            frugality=inspected[s.name] / decisions,
            decisions=decisions,
            undecided_rate=undecided[s.name] / decisions,
            wall_time=wall[s.name],
        )
        for s in strategies
    )
    return BenchmarkReport(results)


def less_is_more_curve(
    N: int, alpha: float, beta: float, trials: int, seed: int
) -> list[tuple[int, float, float]]:
    """For each recognized count n in 0..N, pair the closed-form expected
    accuracy with a seeded Monte Carlo estimate in which every simulated
    pair ("better" as a, "worse" as b) is decided by the recognition
    heuristic.

    A trial is four uniforms, drawn for a block of at most PAIR_BLOCK
    trials at once, so memory does not grow with trials: the pair type
    (none, one or both recognized) from the cumulative type shares, as
    Generator.choice reads it, then whether the recognized object is the
    better one (alpha), whether knowledge is right (beta) and a coin. The
    heuristic's choice is correct exactly when the one that decides is:
    recognition for one recognized, knowledge for both, the coin for
    neither. The correct choices are counted from those, with no array of
    choices; recognition_choose decides the same draws in the tests and
    must count the same.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    recognition_accuracy(N, 0, alpha, beta)  # validates N, alpha, beta
    seeds = np.random.SeedSequence(seed).spawn(N + 1)
    rows: list[tuple[int, float, float]] = []
    total_pairs = N * (N - 1)
    for n in range(N + 1):
        rng = np.random.default_rng(seeds[n])
        p_one = 2.0 * n * (N - n) / total_pairs
        p_both = n * (n - 1) / total_pairs
        # at n = N - 1 the remainder can round to -1e-16 instead of 0
        p_neither = max(0.0, 1.0 - p_one - p_both)
        # Generator.choice's cdf; the last share is exactly 1.0, above every uniform
        cdf = np.array([p_neither, p_one, p_both]).cumsum()
        cdf /= cdf[-1]
        correct = 0
        for first in range(0, trials, PAIR_BLOCK):
            size = min(PAIR_BLOCK, trials - first)
            kind, recognized, knowledge, guess = rng.random((4, size))
            correct += int(np.count_nonzero(np.where(
                kind >= cdf[1],
                knowledge < beta,
                np.where(kind >= cdf[0], recognized < alpha, guess < 0.5),
            )))
        rows.append((n, recognition_accuracy(N, n, alpha, beta), correct / trials))
    return rows
