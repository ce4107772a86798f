"""Benchmark harness: when do frugal strategies match information-greedy ones?

Builds controlled task environments (objects with a criterion value and
named cue values, held as one cue matrix), fits cue orders and linear
weights on a training split only, and scores every strategy on all
unordered test pairs, decided in one array pass per strategy -- accuracy,
frugality (mean cues inspected) and wall time. Splits and generators are
fully seeded; identical seeds reproduce reports bit for bit apart from
wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .heuristics import (
    DiscriminationRule,
    WeightVector,
    recognition_accuracy,
    recognition_choose_pairs,
    validity_order,
)
# imported only so that the benchmark tracer (bench/tracing.py) finds them here
from .heuristics import (  # noqa: F401
    one_reason_choose,
    recognition_choose,
    tallying_choose,
    weighted_linear_choose,
)
from .indicators import CandidateProfile, Direction

# A strategy's decide_pairs(env, i, j) decides every pair (i[k], j[k]) at once,
# exactly as the scalar functions in heuristics would. It returns a code per
# pair (+1 first object, -1 second, 0 undecided) and the cues each inspected.
Codes = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class EnvironmentObject:
    """One environment row: the row constructor's input and `objects` view."""

    id: str
    criterion: float
    cues: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cues", dict(self.cues))


class Environment:
    """Objects with one criterion value and shared named cues, held as
    `ids`, a `criterion_values` vector and an n x m `cue_matrix` whose
    columns follow the sorted `cue_names`.
    """

    def __init__(self, objects: Sequence[EnvironmentObject],
                 cue_directions: Mapping[str, Direction] | None = None):
        objects = tuple(objects)
        names = sorted(objects[0].cues) if objects else []
        for obj in objects:
            if (got := sorted(obj.cues)) != names:
                raise ValueError(f"object {obj.id!r} has cue names {got}, expected {names}")
        self._assign([o.id for o in objects], [o.criterion for o in objects],
                     [[o.cues[name] for name in names] for o in objects], names, cue_directions)

    @classmethod
    def from_arrays(cls, ids, criterion, cue_matrix, cue_names, cue_directions=None) -> Environment:
        """Build from a criterion vector and an n x m cue matrix whose
        columns follow cue_names, in any order."""
        env = cls.__new__(cls)
        env._assign(ids, criterion, cue_matrix, cue_names, cue_directions)
        return env

    def _assign(self, ids, criterion, cue_matrix, cue_names, cue_directions) -> None:
        # the one validation every constructor runs; columns end up in name order
        ids = tuple(ids)
        order = sorted(range(len(cue_names)), key=cue_names.__getitem__)
        names = tuple(cue_names[k] for k in order)
        criterion = np.array(criterion, dtype=float)
        cue_matrix = np.asarray(cue_matrix, dtype=float).reshape(len(ids), len(names))[:, order]
        if len(ids) < 2:
            raise ValueError(f"environment needs at least 2 objects, got {len(ids)}")
        if not names or len(set(names)) != len(names):
            raise ValueError(f"environment needs distinct cue names, got {list(names)}")
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
        self.cue_directions = dict(cue_directions or {})

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def objects(self) -> tuple[EnvironmentObject, ...]:
        """Row view, built on demand."""
        rows = zip(self.ids, self.criterion_values.tolist(), self.cue_matrix.tolist())
        return tuple(EnvironmentObject(pid, crit, dict(zip(self.cue_names, cues)))
                     for pid, crit, cues in rows)

    def columns(self, names: Sequence[str]) -> list[int]:
        """Column indices of the named cues in cue_matrix."""
        for name in names:
            if name not in self.cue_names:
                raise ValueError(f"environment has no cue named {name!r}")
        return [self.cue_names.index(name) for name in names]

    def cue_values(self, name: str) -> np.ndarray:
        return self.cue_matrix[:, self.columns([name])[0]]

    def subset(self, indices: Sequence[int]) -> Environment:
        rows = np.asarray(indices, dtype=np.intp)
        return Environment.from_arrays([self.ids[k] for k in rows], self.criterion_values[rows],
                                       self.cue_matrix[rows], self.cue_names, self.cue_directions)

    def profiles(self) -> list[CandidateProfile]:
        """View each object as a candidate whose indicators are its cues."""
        return [CandidateProfile(obj.id, indicators=obj.cues) for obj in self.objects]


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
    repetitions: int
    train_fraction: float
    seed: int
    n_objects: int
    cue_names: tuple[str, ...]


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
    return Environment.from_arrays(_object_ids(n_objects), cue_matrix @ w, cue_matrix, names)


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
    return Environment.from_arrays(_object_ids(n_objects), criterion, cue_matrix, names)


class RankDeficientError(ValueError):
    """The cue matrix does not support a unique least-squares fit."""


def fit_linear_weights(env: Environment) -> WeightVector:
    """Ordinary least-squares weights regressing the criterion on the cues.

    An intercept is included in the fit and discarded: it cancels in any
    pairwise comparison of weighted sums. Fewer than m + 1 objects cannot
    fix m weights plus the intercept, so they raise RankDeficientError like
    any other rank-deficient sample.
    """
    n, m = env.cue_matrix.shape
    if n < m + 1:
        raise RankDeficientError(f"need at least {m + 1} objects to fit {m} cue weights, got {n}")
    design = np.column_stack([np.ones(n), env.cue_matrix])
    if np.linalg.matrix_rank(design) < m + 1:
        dependent = _dependent_cues(design, env.cue_names)
        raise RankDeficientError(
            "cue matrix is rank-deficient; linearly dependent cues: " + ", ".join(dependent)
        )
    return _minimum_norm_weights(env)


def _minimum_norm_weights(env: Environment) -> WeightVector:
    # lstsq returns the minimum-norm solution (the unique fit at full rank), so
    # redundant cues (e.g. one constant in a small training sample) get weight 0
    design = np.column_stack([np.ones(len(env)), env.cue_matrix])
    coef, *_ = np.linalg.lstsq(design, env.criterion_values, rcond=None)
    return WeightVector(dict(zip(env.cue_names, (float(c) for c in coef[1:]))))


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
    n_train = int(train_fraction * n_objects)
    for side, size in (("train", n_train), ("test", n_objects - n_train)):
        if size < 2:
            raise ValueError(
                f"{side} split has {size} objects; need at least 2 "
                f"(n={n_objects}, train_fraction={train_fraction})"
            )
    permutation = rng.permutation(n_objects)
    return permutation[:n_train].tolist(), permutation[n_train:].tolist()


def _compare(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """+1 where a > b, -1 where a < b, 0 where they are equal."""
    return np.greater(a, b).astype(int) - np.less(a, b)


def _cue_signs(env: Environment, i: np.ndarray, j: np.ndarray, cues: Sequence[str],
               directions: Mapping[str, Direction], rule: DiscriminationRule) -> np.ndarray:
    """Pairs x cues: the side each cue favors (+1 / -1), 0 where the rule
    says the two scores do not differ substantially."""
    columns = env.cue_matrix[:, env.columns(cues)]
    a, b = columns[i], columns[j]
    flip = [directions.get(cue) is Direction.LOWER_IS_BETTER for cue in cues]
    return np.where(rule.discriminates(a, b), np.where(flip, -1, 1) * _compare(a, b), 0)


def _lexicographic(signs: np.ndarray) -> Codes:
    """Cue columns in inspection order: the first nonzero one decides and
    the search stops there."""
    hit = signs != 0
    first = np.argmax(hit, axis=1)
    pairs = np.arange(len(signs))
    # a row without a hit has argmax 0 and a zero sign there: undecided
    return signs[pairs, first], np.where(hit[pairs, first], first + 1, signs.shape[1])


class TakeTheBestStrategy:
    """Lexicographic choice with the cue order learned from training data."""

    name = "take_the_best"

    def __init__(self, rule: DiscriminationRule | None = None):
        self.rule = rule or DiscriminationRule()

    def fit(self, train_env: Environment, seed: int) -> None:
        self._order = validity_order(train_env).cues
        self._directions = train_env.cue_directions

    def decide_pairs(self, env: Environment, i: np.ndarray, j: np.ndarray) -> Codes:
        return _lexicographic(_cue_signs(env, i, j, self._order, self._directions, self.rule))


class MinimalistStrategy:
    """Lexicographic choice over a fresh random cue order per decision."""

    name = "minimalist"

    def fit(self, train_env: Environment, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._cues = train_env.cue_names
        self._directions = train_env.cue_directions

    def decide_pairs(self, env: Environment, i: np.ndarray, j: np.ndarray) -> Codes:
        signs = _cue_signs(env, i, j, self._cues, self._directions, DiscriminationRule())
        orders = self._rng.permuted(np.tile(np.arange(len(self._cues)), (len(i), 1)), axis=1)
        return _lexicographic(np.take_along_axis(signs, orders, axis=1))


class TallyingStrategy:
    """Unit-weight vote count over all cues."""

    name = "tallying"

    def fit(self, train_env: Environment, seed: int) -> None:
        self._cues = train_env.cue_names
        self._directions = train_env.cue_directions

    def decide_pairs(self, env: Environment, i: np.ndarray, j: np.ndarray) -> Codes:
        signs = _cue_signs(env, i, j, self._cues, self._directions, DiscriminationRule())
        return np.sign(signs.sum(axis=1)), np.full(len(i), len(self._cues))


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
        except RankDeficientError:
            self._weights = _minimum_norm_weights(train_env)

    def decide_pairs(self, env: Environment, i: np.ndarray, j: np.ndarray) -> Codes:
        names = self._weights.names
        # summed cue by cue from 0.0 in weight order, as weighted_linear_choose
        # does, so the sums agree bit for bit (a matrix product need not)
        sums = np.zeros(len(env))
        for name, column in zip(names, env.columns(names)):
            sums = sums + self._weights[name] * env.cue_matrix[:, column]
        return _compare(sums[i], sums[j]), np.full(len(i), len(names))


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
    all decisions.
    """
    if not strategies:
        raise ValueError("at least one strategy is required")
    names = [s.name for s in strategies]
    if len(set(names)) != len(names):
        raise ValueError(f"strategy names must be unique, got {names}")
    n = len(env)
    rep_seeds = np.random.SeedSequence(split.seed).spawn(split.repetitions)
    accuracies: dict[str, list[float]] = {s.name: [] for s in strategies}
    inspected: dict[str, int] = {s.name: 0 for s in strategies}
    undecided: dict[str, int] = {s.name: 0 for s in strategies}
    wall: dict[str, float] = {s.name: 0.0 for s in strategies}
    decisions = 0  # per strategy: every strategy decides every test pair

    for rep_seq in rep_seeds:
        children = rep_seq.spawn(1 + len(strategies))
        rng = np.random.default_rng(children[0])
        train_idx, test_idx = train_test_indices(n, split.train_fraction, rng)
        train_env = env.subset(train_idx)
        test_env = env.subset(test_idx)
        i, j = np.triu_indices(len(test_env), k=1)
        truth = _compare(test_env.criterion_values[i], test_env.criterion_values[j])
        decisions += len(i)
        for strategy, child in zip(strategies, children[1:]):
            strategy.fit(train_env, int(child.generate_state(2, np.uint64)[0]))
            start = time.perf_counter()
            codes, n_inspected = strategy.decide_pairs(test_env, i, j)
            wall[strategy.name] += time.perf_counter() - start
            half = (codes == 0) | (truth == 0)
            score = 0.5 * np.count_nonzero(half) + np.count_nonzero(~half & (codes == truth))
            accuracies[strategy.name].append(score / len(i))
            inspected[strategy.name] += int(np.sum(n_inspected))
            undecided[strategy.name] += int(np.count_nonzero(codes == 0))

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
    return BenchmarkReport(
        results=results,
        repetitions=split.repetitions,
        train_fraction=split.train_fraction,
        seed=split.seed,
        n_objects=n,
        cue_names=env.cue_names,
    )


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
        pair_type = rng.choice(3, size=trials, p=[1.0 - p_one - p_both, p_one, p_both])
        recognized_is_better = rng.random(trials) < alpha
        knowledge_is_right = rng.random(trials) < beta
        guess_seeds = rng.integers(0, 2**63, size=trials)
        one, both = pair_type == 1, pair_type == 2
        codes = recognition_choose_pairs(
            both | (one & recognized_is_better),
            both | (one & ~recognized_is_better),
            knowledge_is_right,
            seeds=guess_seeds,
        )
        correct = np.count_nonzero(codes == 1)
        rows.append((n, recognition_accuracy(N, n, alpha, beta), correct / trials))
    return rows
