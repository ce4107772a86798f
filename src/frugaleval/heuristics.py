"""Fast-and-frugal decision strategies over named indicator scores.

Pairwise strategies (one-reason, take-the-best, minimalist) inspect cues
one at a time and stop at the first cue that discriminates; they return
the decision together with an audit trace of every cue inspected.
Compensatory baselines (tallying, weighted linear) and the recognition
heuristic are included for comparison, plus single-cue screening that
prunes a candidate pool down to a consideration set.

Everything is a pure function over immutable inputs; randomness is always
passed in as an explicit seed.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .indicators import CandidateProfile, Direction, IndicatorDefinition, top_quota

if TYPE_CHECKING:
    from .ecology import Environment

_MASK64 = (1 << 64) - 1


class Decision(enum.Enum):
    CHOOSE_A = "choose_a"
    CHOOSE_B = "choose_b"
    UNDECIDED = "undecided"


class StoppingReason(enum.Enum):
    DISCRIMINATED = "discriminated"
    CUES_EXHAUSTED = "cues_exhausted"


class Provenance(enum.Enum):
    FUNDER_GOALS = "funder_goals"
    VALIDITY_RANKED = "validity_ranked"
    RANDOM_SEEDED = "random_seeded"


@dataclass(frozen=True)
class CueOrder:
    """Inspection order over indicator names (the search rule)."""

    cues: tuple[str, ...]
    provenance: Provenance = Provenance.FUNDER_GOALS

    def __post_init__(self) -> None:
        object.__setattr__(self, "cues", tuple(self.cues))
        if not self.cues:
            raise ValueError("cue order must not be empty")
        if len(set(self.cues)) != len(self.cues):
            raise ValueError(f"cue order contains duplicates: {self.cues}")


class RuleMode(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


@dataclass(frozen=True)
class DiscriminationRule:
    """When do two scores differ enough to stop the search?

    delta = 0 in absolute mode is pure lexicographic choice: any strict
    inequality discriminates. Relative mode compares |a - b| / max(|a|, |b|)
    and falls back to the absolute difference when both scores are zero.
    Scores may be scalars or numpy arrays (compared elementwise).
    """

    delta: float = 0.0
    mode: RuleMode = RuleMode.ABSOLUTE

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError(f"delta must be a finite value >= 0, got {self.delta}")

    def discriminates(self, a: float | np.ndarray, b: float | np.ndarray) -> bool | np.ndarray:
        diff = abs(a - b)
        if self.mode is RuleMode.RELATIVE:
            scale = np.maximum(abs(a), abs(b))
            # both scores zero: dividing by 1 keeps the absolute difference
            diff = diff / np.where(scale > 0.0, scale, 1.0)
        return diff > self.delta


@dataclass(frozen=True)
class TraceStep:
    cue: str
    score_a: float
    score_b: float
    discriminated: bool


@dataclass(frozen=True)
class DecisionTrace:
    """Ordered record of the cues a pairwise choice actually inspected."""

    steps: tuple[TraceStep, ...]
    stopping_reason: StoppingReason
    decision: Decision

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if any(step.discriminated for step in self.steps[:-1]):
            raise ValueError("only the last inspected cue may discriminate")
        last_hit = bool(self.steps) and self.steps[-1].discriminated
        if last_hit != (self.stopping_reason is StoppingReason.DISCRIMINATED):
            raise ValueError("stopping reason is inconsistent with the recorded steps")

    def record(self) -> str:
        """Serialize to text, one line per inspected cue."""
        lines = [
            f"{i}\t{s.cue}\ta={s.score_a:g}\tb={s.score_b:g}\t"
            f"{'discriminated' if s.discriminated else 'no-discrimination'}"
            for i, s in enumerate(self.steps, start=1)
        ]
        lines.append(f"stop={self.stopping_reason.value}\tdecision={self.decision.value}")
        return "\n".join(lines)


@dataclass(frozen=True)
class WeightVector:
    """Named cue weights for the weighted-linear comparison model."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        for name, w in self.weights.items():
            if not math.isfinite(w):
                raise ValueError(f"weight for {name!r} is not finite: {w!r}")

    def __getitem__(self, name: str) -> float:
        return self.weights[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.weights)


@dataclass(frozen=True)
class ConsiderationSet:
    """Candidates surviving single-cue screening, best first."""

    selected: tuple[str, ...]
    cutoff_value: float
    quota: float


def _direction_of(name: str, directions: Mapping[str, Direction] | None) -> Direction:
    if directions is None:
        return Direction.HIGHER_IS_BETTER
    return directions.get(name, Direction.HIGHER_IS_BETTER)


def _checked_score(profile: CandidateProfile, cue: str) -> float:
    score = profile.indicator(cue)
    if not math.isfinite(score):
        raise ValueError(f"profile {profile.id!r}: cue {cue!r} has non-finite score {score!r}")
    return score


def one_cue_select(
    profiles: Sequence[CandidateProfile],
    cue: str | IndicatorDefinition,
    x: float,
    direction: Direction = Direction.HIGHER_IS_BETTER,
) -> ConsiderationSet:
    """Keep the top x share of candidates on a single indicator.

    The quota is ceil(x * m); every candidate tied with the quota-boundary
    value is kept as well, so the set can be larger than the quota (a
    candidate indistinguishable from a selected one is never dropped).
    Ties in the returned ranking are ordered by candidate id. Passing an
    IndicatorDefinition uses its declared direction.
    """
    if isinstance(cue, IndicatorDefinition):
        cue, direction = cue.name, cue.direction
    if not profiles:
        raise ValueError("at least one profile is required")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"selection share x must be in (0, 1], got {x}")
    scored = [(p.id, _checked_score(p, cue)) for p in profiles]
    sign = -1.0 if direction is Direction.HIGHER_IS_BETTER else 1.0
    ranked = sorted(scored, key=lambda item: (sign * item[1], item[0]))
    q = top_quota(x, len(ranked))
    cutoff = ranked[q - 1][1]
    selected = tuple(pid for pid, score in ranked if sign * score <= sign * cutoff)
    return ConsiderationSet(selected=selected, cutoff_value=cutoff, quota=x)


def one_reason_choose(
    a: CandidateProfile,
    b: CandidateProfile,
    order: CueOrder,
    rule: DiscriminationRule | None = None,
    directions: Mapping[str, Direction] | None = None,
) -> tuple[Decision, DecisionTrace]:
    """Inspect cues in the given order; the first one whose scores differ
    substantially (per the rule) decides in favor of the better score.

    With no discriminating cue the outcome is undecided -- deliberately a
    first-class result, not a hidden coin flip.
    """
    if rule is None:
        rule = DiscriminationRule()
    scores = [(cue, _checked_score(a, cue), _checked_score(b, cue)) for cue in order.cues]
    steps: list[TraceStep] = []
    decision = Decision.UNDECIDED
    reason = StoppingReason.CUES_EXHAUSTED
    for cue, score_a, score_b in scores:
        hit = bool(rule.discriminates(score_a, score_b))
        steps.append(TraceStep(cue, score_a, score_b, hit))
        if hit:
            a_better = score_a > score_b
            if _direction_of(cue, directions) is Direction.LOWER_IS_BETTER:
                a_better = not a_better
            decision = Decision.CHOOSE_A if a_better else Decision.CHOOSE_B
            reason = StoppingReason.DISCRIMINATED
            break
    trace = DecisionTrace(steps=tuple(steps), stopping_reason=reason, decision=decision)
    return decision, trace


def _validities(cues: np.ndarray, criterion: np.ndarray) -> list[float]:
    """cue_validity of every column of an n x m cue matrix, over one pairing."""
    i, j = np.triu_indices(len(criterion), k=1)
    cue_diff = cues[i] - cues[j]
    crit_diff = criterion[i] - criterion[j]
    totals = np.count_nonzero(cue_diff != 0.0, axis=0).tolist()
    # a pair the cue does not discriminate has a zero product, never counted
    corrects = np.count_nonzero(cue_diff * crit_diff[:, None] > 0.0, axis=0).tolist()
    return [correct / total if total else 0.5 for correct, total in zip(corrects, totals)]


def cue_validity(env: "Environment", cue: str) -> float:
    """Share of cue-discriminating object pairs where the higher-cue object
    also has the higher criterion; 0.5 when no pair discriminates.
    """
    return _validities(env.cue_values(cue)[:, None], env.criterion_values)[0]


def validity_order(env: "Environment") -> CueOrder:
    """Cues ranked by validity, best first; ties broken by name."""
    validities = dict(zip(env.cue_names, _validities(env.cue_matrix, env.criterion_values)))
    ranked = sorted(env.cue_names, key=lambda name: (-validities[name], name))
    return CueOrder(tuple(ranked), Provenance.VALIDITY_RANKED)


def take_the_best_choose(
    a: CandidateProfile,
    b: CandidateProfile,
    env: "Environment",
    rule: DiscriminationRule | None = None,
) -> tuple[Decision, DecisionTrace]:
    """One-reason choice with the cue order learned from an environment
    (cues ranked by validity, best first)."""
    order = validity_order(env)
    return one_reason_choose(a, b, order, rule, env.cue_directions)


def minimalist_choose(
    a: CandidateProfile,
    b: CandidateProfile,
    seed: int,
    directions: Mapping[str, Direction] | None = None,
) -> tuple[Decision, DecisionTrace]:
    """One-reason choice over a seeded random permutation of the shared cues
    (no cue inspected twice), pure lexicographic stopping (delta = 0)."""
    shared = sorted(set(a.indicators) & set(b.indicators))
    rng = random.Random(seed)
    rng.shuffle(shared)
    order = CueOrder(tuple(shared), Provenance.RANDOM_SEEDED)
    return one_reason_choose(a, b, order, DiscriminationRule(), directions)


def tallying_choose(
    a: CandidateProfile,
    b: CandidateProfile,
    cues: Iterable[str],
    directions: Mapping[str, Direction] | None = None,
) -> Decision:
    """Count the cues favoring each side, all weighted equally; the higher
    tally wins and equal tallies stay undecided. Ties on a cue favor neither.
    """
    votes_a = 0
    votes_b = 0
    for cue in cues:
        score_a = _checked_score(a, cue)
        score_b = _checked_score(b, cue)
        if score_a == score_b:
            continue
        a_better = score_a > score_b
        if _direction_of(cue, directions) is Direction.LOWER_IS_BETTER:
            a_better = not a_better
        if a_better:
            votes_a += 1
        else:
            votes_b += 1
    if votes_a > votes_b:
        return Decision.CHOOSE_A
    if votes_b > votes_a:
        return Decision.CHOOSE_B
    return Decision.UNDECIDED


def weighted_linear_choose(
    a: CandidateProfile, b: CandidateProfile, w: WeightVector
) -> Decision:
    """Compare weighted sums of the cue scores; the strictly larger sum wins."""
    sum_a = 0.0
    sum_b = 0.0
    for cue in w.names:
        sum_a += w[cue] * _checked_score(a, cue)
        sum_b += w[cue] * _checked_score(b, cue)
    if sum_a > sum_b:
        return Decision.CHOOSE_A
    if sum_b > sum_a:
        return Decision.CHOOSE_B
    return Decision.UNDECIDED


# splitmix64 (Steele, Lea & Flood 2014): the increment and the two finalizer
# multipliers; the algorithm works modulo 2**64, as uint64 array arithmetic does
_SPLITMIX_STEP = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _seeded_bits(seeds: np.ndarray) -> np.ndarray:
    """One well-mixed bit (0 or 1) per uint64 seed: the low bit of the
    splitmix64 finalizer, for a whole array of seeds at once."""
    z = np.asarray(seeds, dtype=np.uint64) + _SPLITMIX_STEP
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MUL[0]
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MUL[1]
    return (z ^ (z >> np.uint64(31))) & np.uint64(1)


def _seeded_bit(seed: int) -> int:
    # a 1-element array, not a numpy scalar: scalar uint64 overflow warns
    return int(_seeded_bits(np.array([seed & _MASK64], dtype=np.uint64))[0])


def recognition_choose(
    a_id: str,
    b_id: str,
    recognized: frozenset[str] | set[str],
    knowledge: Callable[[str, str], Decision] | None = None,
    seed: int = 0,
) -> Decision:
    """If exactly one of two objects is recognized, choose it. Both
    recognized delegates to the knowledge comparator; neither recognized
    falls back to a seeded uniform guess. Total: never raises on its own.
    """
    a_known = a_id in recognized
    b_known = b_id in recognized
    if a_known and not b_known:
        return Decision.CHOOSE_A
    if b_known and not a_known:
        return Decision.CHOOSE_B
    if a_known and b_known and knowledge is not None:
        return knowledge(a_id, b_id)
    return Decision.CHOOSE_A if _seeded_bit(seed) else Decision.CHOOSE_B


def recognition_choose_pairs(
    a_known: np.ndarray,
    b_known: np.ndarray,
    knowledge_picks_a: np.ndarray | None = None,
    *,
    seeds: np.ndarray,
) -> np.ndarray:
    """recognition_choose for many pairs at once: +1 chooses a, -1 chooses b.

    Pair k recognizes a when a_known[k] and b when b_known[k]; when both are
    recognized, knowledge_picks_a[k] is the knowledge comparator's answer
    (None: no knowledge, guess). Guesses are the seeded bits of seeds[k]
    (uint64), exactly as recognition_choose draws them for seed=seeds[k].
    """
    a_known = np.asarray(a_known, dtype=bool)
    b_known = np.asarray(b_known, dtype=bool)
    picks_a = _seeded_bits(seeds) == 1
    if knowledge_picks_a is not None:
        picks_a = np.where(a_known & b_known, knowledge_picks_a, picks_a)
    # exactly one recognized: choose it
    picks_a = np.where(a_known != b_known, a_known, picks_a)
    return np.where(picks_a, 1, -1)


def recognition_accuracy(N: int, n: int, alpha: float, beta: float) -> float:
    """Expected share of correct choices over a uniformly random pair when n
    of N objects are recognized, recognition validity is alpha and knowledge
    validity is beta. Unrecognized pairs are coin flips.
    """
    if N < 2:
        raise ValueError(f"population size must be >= 2, got {N}")
    if not 0 <= n <= N:
        raise ValueError(f"recognized count must be in [0, {N}], got {n}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"recognition validity must be in [0, 1], got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"knowledge validity must be in [0, 1], got {beta}")
    numerator = (
        2.0 * n * (N - n) * alpha
        + (N - n) * (N - n - 1) * 0.5
        + n * (n - 1) * beta
    )
    return numerator / (N * (N - 1))
