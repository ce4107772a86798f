"""Synthetic careers with planted hot streaks, and streak detection.

A hot streak is a temporally localized interval of a career whose per-work
impact is substantially elevated over the rest, with productivity (the
number of works) unchanged. Detection works on y = log10(impact + 1):
citation-style impact is heavy-tailed and streak elevation is
multiplicative, so the log transform turns it into an additive level
shift. An exhaustive O(n^2) scan fits a two-level step model (one mean
inside the candidate interval, one outside) to every interval of length
>= 3 that leaves at least one point outside, and keeps the best interval
only if its penalized score beats the single-level model and the inside
level is above the outside level.

Scores are BIC-style on the residual sum of squares:

    score = n * ln(RSS / n) + (extra parameters) * penalty

where the two-level model pays for 2 extra parameters and the penalty
defaults to 2 * ln(n) per parameter. The penalty is configurable; stricter
penalties trade recall on weak streaks for fewer spurious detections.

One subtlety: an interval that touches either end of the career describes
the same two-level partition as its complement, just with inside and
outside swapped. Each such partition is scored once, under the encoding
whose inside is the elevated side, so a streak planted flush against a
career boundary is still recovered by name rather than rejected as its
own low complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_STREAK_LEN = 3
_RSS_FLOOR = 1e-300  # keeps ln(RSS) finite on exactly piecewise-constant input


@dataclass(frozen=True)
class CareerSequence:
    """Ordered per-work impact values (e.g. citation counts) for one person."""

    impacts: tuple[float, ...]
    owner: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "impacts", tuple(float(v) for v in self.impacts))
        if not self.impacts:
            raise ValueError("career must contain at least one work")
        for k, value in enumerate(self.impacts):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"impact at position {k} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class HotStreakFit:
    """Detected streak interval (inclusive indices) or absent.

    Levels are mean log10(impact + 1) inside/outside the interval;
    penalized_score_gain is how much the two-level model beats the
    single-level model after the parameter penalty (absent fits report
    the best candidate's gain clamped to <= 0).
    """

    interval: tuple[int, int] | None
    baseline_level: float
    streak_level: float | None
    penalized_score_gain: float

    @property
    def found(self) -> bool:
        return self.interval is not None


def generate_career(
    length: int,
    baseline_mean: float,
    streak_multiplier: float,
    streak_len_range: tuple[int, int],
    noise_sigma: float,
    seed: int,
) -> tuple[CareerSequence, tuple[int, int]]:
    """Draw a lognormal career and multiply one seeded interval's impacts.

    Impacts are exp(Normal(ln(baseline_mean), noise_sigma)); the streak
    interval has seeded length within streak_len_range and a seeded
    uniformly placed start. The streak scales impact only -- the number of
    works is unchanged.
    """
    lo, hi = streak_len_range
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid streak length range {streak_len_range}")
    if hi > length:
        raise ValueError(f"streak length up to {hi} does not fit in a career of length {length}")
    if streak_multiplier < 1.0:
        raise ValueError(f"streak multiplier must be >= 1, got {streak_multiplier}")
    if noise_sigma < 0.0:
        raise ValueError(f"noise sigma must be >= 0, got {noise_sigma}")
    if baseline_mean <= 0.0:
        raise ValueError(f"baseline mean must be > 0, got {baseline_mean}")
    rng = np.random.default_rng(seed)
    impacts = np.exp(rng.normal(math.log(baseline_mean), noise_sigma, size=length))
    streak_len = int(rng.integers(lo, hi + 1))
    start = int(rng.integers(0, length - streak_len + 1))
    end = start + streak_len - 1
    impacts[start : end + 1] *= streak_multiplier
    return CareerSequence(tuple(impacts)), (start, end)


def _log_impacts(seq: CareerSequence) -> np.ndarray:
    return np.log10(np.asarray(seq.impacts) + 1.0)


def _bic_score(rss: float, n: int, extra_params: int, penalty: float) -> float:
    return n * math.log(max(rss, _RSS_FLOOR) / n) + extra_params * penalty


def _hot_twin_is_legal(start: int, end: int, n: int, min_len: int) -> bool:
    """True when the complement of (start, end) is itself a searchable
    interval, so the partition will be (or was) scored under the encoding
    whose inside is the elevated side."""
    if start == 0:
        return n - 1 - end >= min_len
    if end == n - 1:
        return start >= min_len
    return False


def detect_hot_streak(
    seq: CareerSequence,
    min_len: int = MIN_STREAK_LEN,
    penalty_per_param: float | None = None,
) -> HotStreakFit:
    """Exhaustive two-level fit over all candidate intervals.

    Ties on the penalized score go to the earlier start, then the shorter
    interval. Prefix sums make each candidate O(1), so the whole scan is
    O(n^2); n = 200 runs well under a second.
    """
    n = len(seq.impacts)
    if n < 5:
        raise ValueError(f"need at least 5 works to look for a streak, got {n}")
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    y = _log_impacts(seq)
    penalty = 2.0 * math.log(n) if penalty_per_param is None else penalty_per_param

    total = float(np.sum(y))
    total_sq = float(np.sum(y * y))
    overall_mean = total / n
    rss_single = total_sq - n * overall_mean * overall_mean
    score_single = _bic_score(rss_single, n, 0, penalty)

    prefix = np.concatenate([[0.0], np.cumsum(y)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(y * y)])

    best: tuple[int, int] | None = None
    best_score = math.inf
    best_levels = (overall_mean, overall_mean)
    for start in range(n):
        # the interval may touch either boundary but must leave outside points
        max_end = n - 2 if start == 0 else n - 1
        for end in range(start + min_len - 1, max_end + 1):
            k = end - start + 1
            inside_sum = prefix[end + 1] - prefix[start]
            inside_sq = prefix_sq[end + 1] - prefix_sq[start]
            outside_sum = total - inside_sum
            outside_sq = total_sq - inside_sq
            mean_in = inside_sum / k
            mean_out = outside_sum / (n - k)
            if mean_in <= mean_out and _hot_twin_is_legal(start, end, n, min_len):
                # a boundary interval and its complement describe the same
                # two-level partition; score it once, under its hot name
                continue
            rss = (inside_sq - k * mean_in * mean_in) + (
                outside_sq - (n - k) * mean_out * mean_out
            )
            score = _bic_score(rss, n, 2, penalty)
            if score < best_score:
                best_score = score
                best = (start, end)
                best_levels = (mean_out, mean_in)
    gain = score_single - best_score
    baseline_level, streak_level = best_levels
    if best is not None and gain > 0.0 and streak_level > baseline_level:
        return HotStreakFit(
            interval=best,
            baseline_level=baseline_level,
            streak_level=streak_level,
            penalized_score_gain=gain,
        )
    return HotStreakFit(
        interval=None,
        baseline_level=overall_mean,
        streak_level=None,
        penalized_score_gain=min(gain, 0.0) if best is not None else 0.0,
    )


def streak_adjusted_summary(
    seq: CareerSequence, fit: HotStreakFit
) -> tuple[float, float, float | None]:
    """(overall mean impact, baseline mean, streak mean or None), given the
    streak fit of the same career (from detect_hot_streak).

    Makes visible how much a detected streak pulls the overall mean away
    from the baseline: ignoring streaks over- or under-states typical
    performance.
    """
    impacts = np.asarray(seq.impacts)
    overall = float(np.mean(impacts))
    if fit.interval is None:
        return overall, overall, None
    start, end = fit.interval
    inside = impacts[start : end + 1]
    outside = np.concatenate([impacts[:start], impacts[end + 1 :]])
    return overall, float(np.mean(outside)), float(np.mean(inside))
