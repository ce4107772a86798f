"""Synthetic careers with planted hot streaks, and streak detection.

A hot streak is a temporally localized interval of a career whose per-work
impact is substantially elevated over the rest, with productivity (the
number of works) unchanged. Detection works on y = log10(impact + 1):
citation-style impact is heavy-tailed and streak elevation is
multiplicative, so the log transform turns it into an additive level
shift. An exhaustive scan fits a two-level step model (one mean inside
the candidate interval, one outside) to every interval of length >= 3
that leaves at least one point outside, and keeps the best interval only
if its penalized score beats the single-level model and the inside level
is above the outside level. The O(n^2) intervals are scored one length
at a time, every start of a length in one array pass, so memory grows
with n, not n^2 (see detect_hot_streak).

Scores are BIC-style on the residual sum of squares:

    score = n * ln(RSS / n) + (extra parameters) * penalty

where the two-level model pays for 2 extra parameters and the penalty
defaults to 2 * ln(n) per parameter. The penalty is configurable; stricter
penalties trade recall on weak streaks for fewer spurious detections.
Ties on the score go to the earlier start, then the shorter interval; two
intervals whose RSS differ but round to the same score tie too.

One subtlety: an interval that touches either end of the career describes
the same two-level partition as its complement, just with inside and
outside swapped. Each such partition is scored once, under the encoding
whose inside is the elevated side, so a streak planted flush against a
career boundary is still recovered by name rather than rejected as its
own low complement.
"""

from __future__ import annotations

import math
import struct
import sys
from typing import Iterable, NamedTuple

import numpy as np

from ._records import _checked_make

MIN_STREAK_LEN = 3
_RSS_FLOOR = 1e-300  # keeps ln(RSS) finite on exactly piecewise-constant input


class _CareerSequenceFields(NamedTuple):
    impacts: tuple[float, ...]


class CareerSequence(_CareerSequenceFields):
    """Ordered per-work impact values (e.g. citation counts) for one person."""

    __slots__ = ()

    def __new__(cls, impacts: Iterable[float]) -> CareerSequence:
        impacts = tuple(float(v) for v in impacts)
        if not impacts:
            raise ValueError("career must contain at least one work")
        for k, value in enumerate(impacts):
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"impact at position {k} must be finite and >= 0, got {value!r}")
        return tuple.__new__(cls, (impacts,))

    _make = classmethod(_checked_make)


class HotStreakFit(NamedTuple):
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
    if not (math.isfinite(streak_multiplier) and streak_multiplier >= 1.0):
        raise ValueError(f"streak multiplier must be finite and >= 1, got {streak_multiplier}")
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ValueError(f"noise sigma must be finite and >= 0, got {noise_sigma}")
    if not (math.isfinite(baseline_mean) and baseline_mean > 0.0):
        raise ValueError(f"baseline mean must be finite and > 0, got {baseline_mean}")
    rng = np.random.default_rng(seed)
    log_impacts = rng.normal(math.log(baseline_mean), noise_sigma, size=length)
    streak_len = int(rng.integers(lo, hi + 1))
    start = int(rng.integers(0, length - streak_len + 1))
    end = start + streak_len - 1
    # an impact that overflows becomes inf, which CareerSequence rejects
    with np.errstate(over="ignore"):
        impacts = np.exp(log_impacts)
        impacts[start : end + 1] *= streak_multiplier
    return CareerSequence(tuple(impacts)), (start, end)


def _log_impacts(seq: CareerSequence) -> np.ndarray:
    return np.log10(np.asarray(seq.impacts) + 1.0)


def _bic_score(rss: float, n: int, extra_params: int, penalty: float) -> float:
    return n * math.log(max(rss, _RSS_FLOOR) / n) + extra_params * penalty


def _score_ceiling(score: float, rss: float, n: int, penalty: float) -> float:
    """The largest RSS whose two-level score is `score`, given an RSS that
    scores it. The score never falls as the RSS grows, so an RSS scores
    `score` exactly when it lies between the smallest RSS and this."""
    # positive doubles order as their bit patterns do: bisect those, from the
    # given RSS (raised to the floor, which scores the same) to the largest
    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def value(b: int) -> float:
        return struct.unpack("<d", struct.pack("<q", b))[0]

    lo, hi = bits(max(rss, _RSS_FLOOR)), bits(sys.float_info.max)
    if _bic_score(value(hi), n, 2, penalty) == score:
        return value(hi)
    while hi - lo > 1:  # scores `score` at lo, more at hi
        mid = (lo + hi) // 2
        if _bic_score(value(mid), n, 2, penalty) == score:
            lo = mid
        else:
            hi = mid
    return value(lo)


def detect_hot_streak(
    seq: CareerSequence,
    min_len: int = MIN_STREAK_LEN,
    penalty_per_param: float | None = None,
) -> HotStreakFit:
    """Exhaustive two-level fit over all candidate intervals.

    The intervals are scored one length k at a time: every start of length
    k in one array pass over the prefix sums, so memory is O(n) whatever
    the number of intervals. Ties on the penalized score go to the earlier
    start, then the shorter interval. The score never falls as the RSS
    grows, so the best score is the scalar score (math.log) of the smallest
    RSS of any length, and the winner is the earliest interval with an RSS
    that scores that: two RSS values that round to the same score tie, and
    so do all RSS values at or below the floor. A first pass keeps each
    length's smallest RSS; a second rescans only the lengths whose smallest
    RSS scores the best, for their first such start. The reported score
    gain and levels are the winning interval's own values.
    """
    n = len(seq.impacts)
    if n < 5:
        raise ValueError(f"need at least 5 works to look for a streak, got {n}")
    if not 1 <= min_len <= n - 1:
        raise ValueError(
            f"min_len must be between 1 and n - 1 = {n - 1} for a career of {n} works, "
            f"got {min_len}"
        )
    if penalty_per_param is not None and not math.isfinite(penalty_per_param):
        raise ValueError(f"penalty_per_param must be finite, got {penalty_per_param}")
    y = _log_impacts(seq)
    penalty = 2.0 * math.log(n) if penalty_per_param is None else penalty_per_param

    total = float(np.sum(y))
    total_sq = float(np.sum(y * y))
    overall_mean = total / n
    rss_single = total_sq - n * overall_mean * overall_mean
    score_single = _bic_score(rss_single, n, 0, penalty)

    prefix = np.concatenate([[0.0], np.cumsum(y)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(y * y)])

    def scan(k: int):
        """The RSS of every interval of k works, by start, with its levels."""
        inside_sum = prefix[k:] - prefix[:-k]
        inside_sq = prefix_sq[k:] - prefix_sq[:-k]
        k_in, k_out = np.float64(k), np.float64(n - k)
        mean_in = inside_sum / k_in
        mean_out = (total - inside_sum) / k_out
        rss = (inside_sq - k_in * mean_in * mean_in) + (
            (total_sq - inside_sq) - k_out * mean_out * mean_out)
        # an edge interval and its complement describe the same two-level
        # partition; score it once, under its hot name, where the complement
        # is itself a searchable interval
        if n - k >= min_len:
            for edge in (0, -1):
                if mean_in[edge] <= mean_out[edge]:
                    rss[edge] = math.inf
        return rss, mean_out, mean_in

    # (0, n - 1) leaves no work outside and is not scanned; (1, min_len) or
    # (0, n - 2) is never skipped, so a winner exists
    lengths = range(min_len, n)
    lows = [float(scan(k)[0].min()) for k in lengths]
    low = min(lows)
    best_score = _bic_score(low, n, 2, penalty)
    ceiling = _score_ceiling(best_score, low, n, penalty)
    # each length's first start that scores the best; the earliest, then the shortest
    start, k = min((int(np.argmax(scan(k)[0] <= ceiling)), k)
                   for k, low in zip(lengths, lows) if low <= ceiling)
    _, mean_out, mean_in = scan(k)
    baseline_level, streak_level = mean_out[start], mean_in[start]
    gain = score_single - best_score
    if gain > 0.0 and streak_level > baseline_level:
        return HotStreakFit(
            interval=(start, start + k - 1),
            baseline_level=baseline_level,
            streak_level=streak_level,
            penalized_score_gain=gain,
        )
    return HotStreakFit(
        interval=None,
        baseline_level=overall_mean,
        streak_level=None,
        penalized_score_gain=min(gain, 0.0),
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
    # a sum that overflows gives an inf mean, which no report accepts
    with np.errstate(over="ignore"):
        overall = float(np.mean(impacts))
        if fit.interval is None:
            return overall, overall, None
        start, end = fit.interval
        inside = impacts[start : end + 1]
        outside = np.concatenate([impacts[:start], impacts[end + 1 :]])
        return overall, float(np.mean(outside)), float(np.mean(inside))
