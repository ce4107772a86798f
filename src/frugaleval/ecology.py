"""Benchmark harness: when do frugal strategies match information-greedy ones?

A task environment is object ids, a criterion vector and one cue matrix
(`Environment`), read from a file or generated. The benchmark fits cue
orders (by cue validity) and linear weights on a training split only, and
scores every strategy on all unordered test pairs -- accuracy, frugality
(mean cues inspected) and wall time. Pairs are walked in blocks of at
most PAIR_BLOCK (`PairBlock`), so memory does not grow with the number of
pairs; within a block, the strategies that read cue signs under one
discrimination rule share one sign matrix, and every count adds up over
the blocks exactly. This module holds every array pass over object pairs:
cue validities, the strategies' decisions and the recognition pair pass
of the less-is-more curve. Each reads the order of a pair from `_compare`
alone, and each is tested against a scalar reference in heuristics.
Splits and generators are fully seeded; identical seeds reproduce reports
bit for bit apart from wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ._numpy import np
from .heuristics import CueOrder, DiscriminationRule, WeightVector, recognition_accuracy
# imported only so that the benchmark tracer (bench/tracing.py) finds them here
from .heuristics import (  # noqa: F401
    one_reason_choose,
    recognition_choose,
    tallying_choose,
    weighted_linear_choose,
)
from .indicators import CandidateProfile

# A strategy's decide(block) decides every pair (block.i[k], block.j[k]) of a
# PairBlock at once, exactly as the scalar functions in heuristics would,
# reading cue signs from block.signs so that strategies under one rule share
# them. It returns a code per pair (+1 first object, -1 second, 0 undecided)
# and the cues each inspected.
# A string, so that importing this module reads nothing of numpy (see _numpy).
Codes = "tuple[np.ndarray, np.ndarray]"

# Most pairs one block holds: a block's arrays are pairs x cues, so this
# bounds the pair engine's memory whatever the number of objects.
PAIR_BLOCK = 2**16


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
        return [CandidateProfile(pid, indicators=dict(zip(self.cue_names, cues)))
                for pid, cues in zip(self.ids, self.cue_matrix.tolist())]


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float
    repetitions: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train fraction must be strictly inside (0, 1), got {self.train_fraction}"
            )
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True)
class StrategyResult:
    name: str
    accuracy: float
    frugality: float
    decisions: int
    undecided_rate: float
    wall_time: float


@dataclass(frozen=True)
class BenchmarkReport:
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


def _pair_blocks(n: int):
    """The pairs i < j of n objects in np.triu_indices order, as (i, j)
    index arrays of at most PAIR_BLOCK pairs each, without ever holding
    all of them."""
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


class PairBlock:
    """Pairs (i[k], j[k]) of one environment's objects, decided together.

    `signs(rule, cues)` is the pairs x cues matrix of the side each cue
    favors (+1 / -1), 0 where the rule says the two scores do not differ
    substantially. It is computed once per rule over all of the
    environment's cues, and every strategy that asks under that rule reads
    its columns from the same matrix.
    """

    def __init__(self, env: Environment, i: np.ndarray, j: np.ndarray):
        self.env, self.i, self.j = env, i, j
        self._signs: dict[DiscriminationRule, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.i)

    def signs(self, rule: DiscriminationRule, cues: Sequence[str]) -> np.ndarray:
        signs = self._signs.get(rule)
        if signs is None:
            matrix = self.env.cue_matrix
            a, b = matrix.take(self.i, axis=0), matrix.take(self.j, axis=0)
            signs = self._signs[rule] = _compare(a, b) * rule.discriminates(a, b)
            signs.setflags(write=False)  # shared by every strategy under this rule
        columns = self.env.columns(cues)
        return signs if columns == list(range(signs.shape[1])) else signs[:, columns]


def _lexicographic(signs: np.ndarray) -> Codes:
    """Cue columns in inspection order: the first nonzero one decides and
    the search stops there."""
    first = np.argmax(signs != 0, axis=1)
    codes = np.take_along_axis(signs, first[:, None], axis=1)[:, 0]
    # a row without a hit has argmax 0 and a zero sign there: undecided
    return codes, np.where(codes != 0, first + 1, signs.shape[1])


def _validities(cues: np.ndarray, criterion: np.ndarray) -> list[float]:
    """cue_validity of every column of an n x m cue matrix, over one pairing."""
    by_cue = cues.T  # signs as cues x pairs: each cue's counts sum one row
    totals = np.zeros(len(by_cue), dtype=np.int64)
    corrects = np.zeros(len(by_cue), dtype=np.int64)
    for i, j in _pair_blocks(len(criterion)):
        signs = _compare(by_cue.take(i, axis=1), by_cue.take(j, axis=1))
        discriminates = signs != 0
        totals += np.count_nonzero(discriminates, axis=1)
        truth = _compare(criterion.take(i), criterion.take(j))
        corrects += np.count_nonzero((signs == truth) & discriminates, axis=1)
    return [correct / total if total else 0.5
            for correct, total in zip(corrects.tolist(), totals.tolist())]


def cue_validity(env: Environment, cue: str) -> float:
    """Share of cue-discriminating object pairs where the higher-cue object
    also has the higher criterion; 0.5 when no pair discriminates.
    """
    return _validities(env.cue_matrix[:, env.columns([cue])], env.criterion_values)[0]


def validity_order(env: Environment) -> CueOrder:
    """Cues ranked by validity, best first; ties broken by name."""
    validities = dict(zip(env.cue_names, _validities(env.cue_matrix, env.criterion_values)))
    ranked = sorted(env.cue_names, key=lambda name: (-validities[name], name))
    return CueOrder(tuple(ranked))


class TakeTheBestStrategy:
    """Lexicographic choice with the cue order learned from training data."""

    name = "take_the_best"

    def __init__(self, rule: DiscriminationRule | None = None):
        self.rule = rule or DiscriminationRule()

    def fit(self, train_env: Environment, seed: int) -> None:
        self._order = validity_order(train_env).cues

    def decide(self, block: PairBlock) -> Codes:
        return _lexicographic(block.signs(self.rule, self._order))


class MinimalistStrategy:
    """Lexicographic choice over a fresh random cue order per decision."""

    name = "minimalist"

    def fit(self, train_env: Environment, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._cues = train_env.cue_names

    def decide(self, block: PairBlock) -> Codes:
        signs = block.signs(DiscriminationRule(), self._cues)
        # one order per pair, drawn block after block: the same orders as
        # one call over all pairs
        m = len(self._cues)
        orders = np.tile(np.arange(m), (len(block), 1))
        self._rng.permuted(orders, axis=1, out=orders)
        orders += np.arange(0, orders.size, m)[:, None]  # flat index into signs
        return _lexicographic(signs.take(orders))


class TallyingStrategy:
    """Unit-weight vote count over all cues."""

    name = "tallying"

    def fit(self, train_env: Environment, seed: int) -> None:
        self._cues = train_env.cue_names

    def decide(self, block: PairBlock) -> Codes:
        signs = block.signs(DiscriminationRule(), self._cues)
        return np.sign(signs.sum(axis=1)), np.full(len(block), len(self._cues))


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
        env, names = block.env, self._weights.names
        # summed cue by cue from 0.0 in weight order, as weighted_linear_choose
        # does, so the sums agree bit for bit (a matrix product need not)
        sums = np.zeros(len(env))
        for name, column in zip(names, env.columns(names)):
            sums = sums + self._weights[name] * env.cue_matrix[:, column]
        return _compare(sums.take(block.i), sums.take(block.j)), np.full(len(block), len(names))


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
    rep_seeds = np.random.SeedSequence(split.seed).spawn(split.repetitions)
    accuracies: dict[str, list[float]] = {s.name: [] for s in strategies}
    inspected: dict[str, int] = {s.name: 0 for s in strategies}
    undecided: dict[str, int] = {s.name: 0 for s in strategies}
    wall: dict[str, float] = {s.name: 0.0 for s in strategies}
    decisions = 0  # per strategy: every strategy decides every test pair

    for rep_seq in rep_seeds:
        children = rep_seq.spawn(1 + len(strategies))
        rng = np.random.default_rng(children[0])
        train_idx, test_idx = train_test_indices(len(env), split.train_fraction, rng)
        train_env = env.subset(train_idx)
        test_env = env.subset(test_idx)
        for strategy, child in zip(strategies, children[1:]):
            strategy.fit(train_env, int(child.generate_state(2, np.uint64)[0]))
        # pairs scored 0.5 (undecided, or a criterion tie) and pairs decided right
        half = dict.fromkeys(names, 0)
        correct = dict.fromkeys(names, 0)
        pairs = 0
        criterion = test_env.criterion_values
        for i, j in _pair_blocks(len(test_env)):
            block = PairBlock(test_env, i, j)
            truth = _compare(criterion.take(i), criterion.take(j))
            pairs += len(block)
            for strategy in strategies:
                start = time.perf_counter()
                codes, n_inspected = strategy.decide(block)
                wall[strategy.name] += time.perf_counter() - start
                abstains = codes == 0
                halves = abstains | (truth == 0)
                half[strategy.name] += int(np.count_nonzero(halves))
                correct[strategy.name] += int(np.count_nonzero(~halves & (codes == truth)))
                inspected[strategy.name] += int(np.sum(n_inspected))
                undecided[strategy.name] += int(np.count_nonzero(abstains))
        decisions += pairs
        for name in names:
            accuracies[name].append((0.5 * half[name] + correct[name]) / pairs)

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


def recognition_choose_pairs(
    a_known: np.ndarray,
    b_known: np.ndarray,
    knowledge_picks_a: np.ndarray | None = None,
    *,
    guesses_a: np.ndarray,
) -> np.ndarray:
    """recognition_choose for many pairs at once: +1 chooses a, -1 chooses b.

    Pair k recognizes a when a_known[k] and b when b_known[k]; when both are
    recognized, knowledge_picks_a[k] is the knowledge comparator's answer
    (None: no knowledge, guess). A guess picks a when guesses_a[k], as
    recognition_choose does for guess_a=guesses_a[k].
    """
    a_known = np.asarray(a_known, dtype=bool)
    b_known = np.asarray(b_known, dtype=bool)
    picks_a = np.asarray(guesses_a, dtype=bool)
    if knowledge_picks_a is not None:
        picks_a = np.where(a_known & b_known, knowledge_picks_a, picks_a)
    # exactly one recognized: choose it
    picks_a = np.where(a_known != b_known, a_known, picks_a)
    return np.where(picks_a, 1, -1)


def less_is_more_curve(
    N: int, alpha: float, beta: float, trials: int, seed: int
) -> list[tuple[int, float, float]]:
    """For each recognized count n in 0..N, pair the closed-form expected
    accuracy with a seeded Monte Carlo estimate in which every simulated
    pair ("better" as a, "worse" as b) is decided by the recognition
    heuristic. All trials of one n are decided in one array pass
    (recognition_choose_pairs, tested against recognition_choose).
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
        pair_type = rng.choice(3, size=trials, p=[p_neither, p_one, p_both])
        recognized_is_better = rng.random(trials) < alpha
        knowledge_is_right = rng.random(trials) < beta
        guesses_a = rng.random(trials) < 0.5
        one, both = pair_type == 1, pair_type == 2
        codes = recognition_choose_pairs(
            both | (one & recognized_is_better),
            both | (one & ~recognized_is_better),
            knowledge_is_right,
            guesses_a=guesses_a,
        )
        correct = np.count_nonzero(codes == 1)
        rows.append((n, recognition_accuracy(N, n, alpha, beta), correct / trials))
    return rows
