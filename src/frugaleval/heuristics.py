"""Fast-and-frugal decision strategies over named indicator scores: the
scalar reference layer, one pair of candidates at a time.

One-reason choice inspects cues one at a time in a given order and stops
at the first cue that discriminates; it returns the decision together
with an audit trace of every cue inspected. Compensatory baselines
(tallying, weighted linear) and the recognition heuristic are included
for comparison, plus single-cue screening that prunes a candidate pool
down to a consideration set. Every array pass over object pairs (cue
validities, the benchmark strategies, the less-is-more count) lives in
ecology and is tested against these functions.

Everything is a pure function over immutable inputs; randomness is always
passed in as an explicit seed or draw.
"""

from __future__ import annotations

import enum
import math
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._records import _checked_make

if TYPE_CHECKING:
    # one_cue_select imports top_quota itself, so that bench loads no indicators
    from .indicators import CandidateProfile


class Decision(enum.Enum):
    CHOOSE_A = "choose_a"
    CHOOSE_B = "choose_b"
    UNDECIDED = "undecided"


class StoppingReason(enum.Enum):
    DISCRIMINATED = "discriminated"
    CUES_EXHAUSTED = "cues_exhausted"


class _CueOrderFields(NamedTuple):
    cues: tuple[str, ...]


class CueOrder(_CueOrderFields):
    """Inspection order over indicator names (the search rule)."""

    __slots__ = ()

    def __new__(cls, cues: Iterable[str]) -> CueOrder:
        cues = tuple(cues)
        if not cues:
            raise ValueError("cue order must not be empty")
        if len(set(cues)) != len(cues):
            raise ValueError(f"cue order contains duplicates: {cues}")
        return tuple.__new__(cls, (cues,))

    _make = classmethod(_checked_make)


class RuleMode(enum.Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


class _DiscriminationRuleFields(NamedTuple):
    delta: float
    mode: RuleMode


class DiscriminationRule(_DiscriminationRuleFields):
    """When do two scores differ enough to stop the search?

    delta = 0 in absolute mode is pure lexicographic choice: any strict
    inequality discriminates. Relative mode compares |a - b| / max(|a|, |b|)
    and falls back to the absolute difference when both scores are zero.
    The array form, over a block of pairs, is `ecology.PairBlock.signs`.
    """

    __slots__ = ()

    def __new__(cls, delta: float = 0.0, mode: RuleMode = RuleMode.ABSOLUTE) -> DiscriminationRule:
        if not (math.isfinite(delta) and delta >= 0.0):
            raise ValueError(f"delta must be a finite value >= 0, got {delta}")
        return tuple.__new__(cls, (delta, mode))

    _make = classmethod(_checked_make)

    def discriminates(self, a: float, b: float) -> bool:
        diff = abs(a - b)
        if self.mode is RuleMode.RELATIVE:
            # both scores zero: dividing by 1 keeps the absolute difference
            scale = max(abs(a), abs(b))
            diff = diff / (scale if scale > 0.0 else 1.0)
        return diff > self.delta


class TraceStep(NamedTuple):
    cue: str
    score_a: float
    score_b: float
    discriminated: bool


class _DecisionTraceFields(NamedTuple):
    steps: tuple[TraceStep, ...]


class DecisionTrace(_DecisionTraceFields):
    """Ordered record of the cues a pairwise choice actually inspected; the
    stopping reason and the decision are read off the last step."""

    __slots__ = ()

    def __new__(cls, steps: Iterable[TraceStep]) -> DecisionTrace:
        self = tuple.__new__(cls, (tuple(steps),))
        if any(step.discriminated for step in self.steps[:-1]):
            raise ValueError("only the last inspected cue may discriminate")
        if self.stopping_reason is StoppingReason.DISCRIMINATED:
            last = self.steps[-1]
            if not (last.score_a > last.score_b or last.score_b > last.score_a):
                raise ValueError("the discriminating cue must score one side higher")
        return self

    _make = classmethod(_checked_make)

    @property
    def stopping_reason(self) -> StoppingReason:
        hit = bool(self.steps) and self.steps[-1].discriminated
        return StoppingReason.DISCRIMINATED if hit else StoppingReason.CUES_EXHAUSTED

    @property
    def decision(self) -> Decision:
        if self.stopping_reason is StoppingReason.CUES_EXHAUSTED:
            return Decision.UNDECIDED
        last = self.steps[-1]
        return Decision.CHOOSE_A if last.score_a > last.score_b else Decision.CHOOSE_B

    def record(self) -> str:
        """Serialize to text, one line per inspected cue."""
        lines = [
            f"{i}\t{s.cue}\ta={s.score_a:g}\tb={s.score_b:g}\t"
            f"{'discriminated' if s.discriminated else 'no-discrimination'}"
            for i, s in enumerate(self.steps, start=1)
        ]
        lines.append(f"stop={self.stopping_reason.value}\tdecision={self.decision.value}")
        return "\n".join(lines)


class _WeightVectorFields(NamedTuple):
    weights: Mapping[str, float]


class WeightVector(_WeightVectorFields):
    """Named cue weights for the weighted-linear comparison model.

    Read as its weights mapping, not as a one-field tuple: w["a"] is cue
    a's weight, "a" in w tests a cue name, iteration yields the cue names
    and len counts them. _asdict, _replace and copy read the field by name.
    """

    __slots__ = ()

    def __new__(cls, weights: Mapping[str, float]) -> WeightVector:
        # read-only, so the finite check below holds for the vector's life
        weights = MappingProxyType(dict(weights))
        for name, w in weights.items():
            if not math.isfinite(w):
                raise ValueError(f"weight for {name!r} is not finite: {w!r}")
        return tuple.__new__(cls, (weights,))

    _make = classmethod(_checked_make)

    def __getitem__(self, name: str) -> float:
        return self.weights[name]

    def __contains__(self, name: object) -> bool:
        return name in self.weights

    def __iter__(self) -> Iterator[str]:
        return iter(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    # a named tuple's own versions of these iterate the record for its fields
    def __getnewargs__(self) -> tuple[Mapping[str, float]]:
        return (self.weights,)

    def _asdict(self) -> dict[str, Mapping[str, float]]:
        return {"weights": self.weights}

    def _replace(self, /, **changes: Mapping[str, float]) -> WeightVector:
        weights = changes.pop("weights", self.weights)
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return WeightVector(weights)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.weights)


class ConsiderationSet(NamedTuple):
    """Candidates surviving single-cue screening, best first."""

    selected: tuple[str, ...]
    cutoff_value: float


def one_cue_select(
    profiles: Sequence[CandidateProfile],
    cue: str,
    quota: float,
) -> ConsiderationSet:
    """Keep the top quota share of candidates on a single indicator.

    ceil(quota * m) candidates are kept; every candidate tied with the
    boundary value is kept as well, so the set can be larger (a candidate
    indistinguishable from a selected one is never dropped). Ties in the
    returned ranking are ordered by candidate id.
    """
    from .indicators import top_quota

    if not profiles:
        raise ValueError("at least one profile is required")
    if not 0.0 < quota <= 1.0:
        raise ValueError(f"quota must be in (0, 1], got {quota}")
    scored = [(p.id, p.indicator(cue)) for p in profiles]
    ranked = sorted(scored, key=lambda item: (-item[1], item[0]))
    kept = top_quota(quota, len(ranked))
    cutoff = ranked[kept - 1][1]
    selected = tuple(pid for pid, score in ranked if score >= cutoff)
    return ConsiderationSet(selected=selected, cutoff_value=cutoff)


def one_reason_choose(
    a: CandidateProfile,
    b: CandidateProfile,
    order: CueOrder,
    rule: DiscriminationRule | None = None,
) -> tuple[Decision, DecisionTrace]:
    """Inspect cues in the given order; the first one whose scores differ
    substantially (per the rule) decides in favor of the higher score.

    With no discriminating cue the outcome is undecided -- deliberately a
    first-class result, not a hidden coin flip.
    """
    if rule is None:
        rule = DiscriminationRule()
    scores = [(cue, a.indicator(cue), b.indicator(cue)) for cue in order.cues]
    steps: list[TraceStep] = []
    for cue, score_a, score_b in scores:
        hit = bool(rule.discriminates(score_a, score_b))
        steps.append(TraceStep(cue, score_a, score_b, hit))
        if hit:
            break
    trace = DecisionTrace(tuple(steps))
    return trace.decision, trace


def tallying_choose(
    a: CandidateProfile,
    b: CandidateProfile,
    cues: Iterable[str],
) -> Decision:
    """Count the cues favoring each side, all weighted equally; the higher
    tally wins and equal tallies stay undecided. Ties on a cue favor neither.
    """
    votes_a = 0
    votes_b = 0
    for cue in cues:
        score_a = a.indicator(cue)
        score_b = b.indicator(cue)
        if score_a == score_b:
            continue
        if score_a > score_b:
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
        sum_a += w[cue] * a.indicator(cue)
        sum_b += w[cue] * b.indicator(cue)
    if sum_a > sum_b:
        return Decision.CHOOSE_A
    if sum_b > sum_a:
        return Decision.CHOOSE_B
    return Decision.UNDECIDED


def recognition_choose(
    a_id: str,
    b_id: str,
    recognized: frozenset[str] | set[str],
    knowledge: Callable[[str, str], Decision] | None = None,
    *,
    guess_a: bool,
) -> Decision:
    """If exactly one of two objects is recognized, choose it. Both
    recognized delegates to the knowledge comparator; neither recognized
    (or both, without knowledge) is a guess: the caller's coin, guess_a,
    picks a. Total: never raises on its own.
    """
    a_known = a_id in recognized
    b_known = b_id in recognized
    if a_known and not b_known:
        return Decision.CHOOSE_A
    if b_known and not a_known:
        return Decision.CHOOSE_B
    if a_known and b_known and knowledge is not None:
        return knowledge(a_id, b_id)
    return Decision.CHOOSE_A if guess_a else Decision.CHOOSE_B


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
