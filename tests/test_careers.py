"""The hot-streak scan against two references. `scalar_detect` scores one
interval at a time with the scan's own prefix-sum arithmetic and tie rule, so
the scan must match it as a whole fit, down to the bits. `oracle_detect` is
independent of that arithmetic: explicit slices and direct means, so it pins
the chosen interval where no tie is near."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frugaleval.careers import (
    CareerSequence,
    HotStreakFit,
    detect_hot_streak,
    generate_career,
    streak_adjusted_summary,
)


def scalar_candidates(impacts, min_len, penalty_per_param):
    """Every scored interval in scan order (earliest start, then shortest),
    as (start, end, rss, score, mean_out, mean_in), computed one interval at
    a time with the same prefix-sum arithmetic as detect_hot_streak."""
    y = np.log10(np.asarray(impacts) + 1.0)
    n = len(y)
    penalty = 2.0 * math.log(n) if penalty_per_param is None else penalty_per_param
    total = float(np.sum(y))
    total_sq = float(np.sum(y * y))
    prefix = np.concatenate([[0.0], np.cumsum(y)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(y * y)])
    for start in range(n):
        max_end = n - 2 if start == 0 else n - 1
        for end in range(start + min_len - 1, max_end + 1):
            k = end - start + 1
            inside_sum = prefix[end + 1] - prefix[start]
            inside_sq = prefix_sq[end + 1] - prefix_sq[start]
            outside_sum = total - inside_sum
            outside_sq = total_sq - inside_sq
            mean_in = inside_sum / k
            mean_out = outside_sum / (n - k)
            if start == 0:
                twin_is_legal = n - 1 - end >= min_len
            else:
                twin_is_legal = end == n - 1 and start >= min_len
            if mean_in <= mean_out and twin_is_legal:
                continue
            rss = (inside_sq - k * mean_in * mean_in) + (
                outside_sq - (n - k) * mean_out * mean_out
            )
            score = n * math.log(max(rss, 1e-300) / n) + 2 * penalty
            yield start, end, rss, score, mean_out, mean_in


def scalar_detect(seq, min_len=3, penalty_per_param=None):
    """Reference scan: a scalar loop over scalar_candidates that keeps the
    first interval with the strictly lowest score, as a whole HotStreakFit."""
    impacts = seq.impacts
    n = len(impacts)
    y = np.log10(np.asarray(impacts) + 1.0)
    penalty = 2.0 * math.log(n) if penalty_per_param is None else penalty_per_param
    total = float(np.sum(y))
    overall_mean = total / n
    rss_single = float(np.sum(y * y)) - n * overall_mean * overall_mean
    score_single = n * math.log(max(rss_single, 1e-300) / n) + 0 * penalty
    best, best_score, best_levels = None, math.inf, (overall_mean, overall_mean)
    for start, end, _, score, mean_out, mean_in in scalar_candidates(
        impacts, min_len, penalty_per_param
    ):
        if score < best_score:
            best, best_score, best_levels = (start, end), score, (mean_out, mean_in)
    gain = score_single - best_score
    baseline_level, streak_level = best_levels
    if best is not None and gain > 0.0 and streak_level > baseline_level:
        return HotStreakFit(best, baseline_level, streak_level, gain)
    return HotStreakFit(None, overall_mean, None, min(gain, 0.0) if best is not None else 0.0)


def same_fit(a, b):
    """Equal as whole fits, down to the bits and the types of the levels."""
    return a == b and all(
        type(getattr(a, name)) is type(getattr(b, name))
        for name in ("baseline_level", "streak_level", "penalized_score_gain")
    )


@st.composite
def careers_of_every_kind(draw):
    """A career of 5 to 60 works, any min_len and any penalty."""
    n = draw(st.integers(5, 60))
    min_len = draw(st.integers(1, n - 1))
    # 1e300 or -1e300 makes every score tie: the first interval in scan order
    # wins, rejected under 1e300 and, where it is the hot side, accepted under
    # -1e300
    penalty = draw(st.one_of(st.none(), st.just(0.0), st.floats(-20.0, 1e6),
                             st.sampled_from([1e300, -1e300])))
    kind = draw(st.sampled_from(["noisy", "few values", "constant", "plateau",
                                 "flush start", "flush end"]))
    if kind == "noisy":
        impacts = draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n))
    elif kind == "few values":
        impacts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    elif kind == "constant":
        impacts = [draw(st.floats(0.0, 1e6))] * n
    else:
        start = 0 if kind == "flush start" else draw(st.integers(0, n - 1))
        end = n - 1 if kind == "flush end" else draw(st.integers(start, n - 1))
        low, high = draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 1e6))
        impacts = plateau(n, start, end, low, high)
    return CareerSequence(impacts), min_len, penalty


def oracle_detect(impacts, min_len=3, penalty_per_param=None):
    """Independent exhaustive search: explicit slices and direct mean/RSS
    arithmetic, no prefix sums. Returns the accepted interval or None.
    """
    y = [math.log10(v + 1.0) for v in impacts]
    n = len(y)
    penalty = 2.0 * math.log(n) if penalty_per_param is None else penalty_per_param

    def rss(values):
        m = sum(values) / len(values)
        return sum((v - m) ** 2 for v in values)

    def score(residual, extra_params):
        return n * math.log(max(residual, 1e-300) / n) + extra_params * penalty

    single = score(rss(y), 0)
    best, best_score, best_levels = None, math.inf, (0.0, 0.0)
    for s in range(n):
        for e in range(s + min_len - 1, n):
            if s == 0 and e == n - 1:
                continue
            inside = y[s : e + 1]
            outside = y[:s] + y[e + 1 :]
            mean_in = sum(inside) / len(inside)
            mean_out = sum(outside) / len(outside)
            # a boundary interval and its complement are one partition;
            # keep only the encoding whose inside is the elevated side
            if mean_in <= mean_out:
                if s == 0 and n - 1 - e >= min_len:
                    continue
                if e == n - 1 and s >= min_len:
                    continue
            candidate = score(rss(inside) + rss(outside), 2)
            if candidate < best_score:
                best, best_score = (s, e), candidate
                best_levels = (mean_out, mean_in)
    if best is not None and single - best_score > 0.0 and best_levels[1] > best_levels[0]:
        return best
    return None


def plateau(n=30, start=10, end=19, low=1.0, high=10.0):
    impacts = [low] * n
    for k in range(start, end + 1):
        impacts[k] = high
    return tuple(impacts)


class TestGenerateCareer:
    def test_unit_multiplier_leaves_sequence_flat(self):
        seq, interval = generate_career(20, 50.0, 1.0, (5, 5), 0.0, seed=3)
        assert len(set(seq.impacts)) == 1
        assert 0 <= interval[0] <= interval[1] < 20

    def test_noiseless_streak_is_one_elevated_block(self):
        seq, (start, end) = generate_career(30, 5.0, 10.0, (10, 10), 0.0, seed=4)
        values = set(seq.impacts)
        assert len(values) == 2
        low, high = sorted(values)
        assert high == pytest.approx(10.0 * low)
        elevated = [i for i, v in enumerate(seq.impacts) if v == high]
        assert elevated == list(range(start, end + 1))
        assert end - start + 1 == 10

    def test_same_seed_identical_career(self):
        a = generate_career(25, 8.0, 3.0, (4, 8), 0.3, seed=12)
        b = generate_career(25, 8.0, 3.0, (4, 8), 0.3, seed=12)
        assert a == b

    def test_streak_longer_than_career_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            generate_career(10, 5.0, 2.0, (11, 12), 0.0, seed=0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="multiplier"):
            generate_career(10, 5.0, 0.5, (3, 3), 0.0, seed=0)
        with pytest.raises(ValueError, match="sigma"):
            generate_career(10, 5.0, 2.0, (3, 3), -0.1, seed=0)
        with pytest.raises(ValueError, match="baseline"):
            generate_career(10, 0.0, 2.0, (3, 3), 0.1, seed=0)

    @pytest.mark.parametrize("name,args", [
        ("baseline mean", (10, math.nan, 2.0, (3, 3), 0.1)),
        ("baseline mean", (10, math.inf, 2.0, (3, 3), 0.1)),
        ("noise sigma", (10, 5.0, 2.0, (3, 3), math.nan)),
        ("noise sigma", (10, 5.0, 2.0, (3, 3), math.inf)),
        ("streak multiplier", (10, 5.0, math.inf, (3, 3), 0.1)),
        ("streak multiplier", (10, 5.0, math.nan, (3, 3), 0.1)),
    ])
    def test_non_finite_parameter_named(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            generate_career(*args, seed=0)

    def test_streak_changes_impact_not_length(self):
        seq, _ = generate_career(40, 5.0, 10.0, (5, 10), 0.2, seed=7)
        assert len(seq.impacts) == 40


class TestDetectHotStreak:
    def test_constant_sequence_has_no_streak(self):
        fit = detect_hot_streak(CareerSequence((3.0,) * 20))
        assert fit.interval is None
        assert fit.streak_level is None
        assert fit.penalized_score_gain <= 0.0

    def test_noiseless_plateau_recovered_exactly(self):
        seq = CareerSequence(plateau())
        fit = detect_hot_streak(seq)
        assert fit.interval == (10, 19)
        assert fit.streak_level > fit.baseline_level
        assert oracle_detect(seq.impacts) == (10, 19)

    def test_agrees_with_exhaustive_oracle_on_noisy_fixtures(self):
        for seed in range(8):
            seq, _ = generate_career(24, 5.0, 6.0, (4, 9), 0.25, seed=seed)
            fit = detect_hot_streak(seq)
            assert fit.interval == oracle_detect(seq.impacts), f"seed {seed}"

    @pytest.mark.parametrize(
        "label,impacts",
        [
            ("exponential", tuple(100.0 * 0.9**t for t in range(30))),
            ("linear", tuple(float(v) for v in range(30, 0, -1))),
        ],
    )
    def test_monotone_decay_reads_as_early_hot_streak(self, label, impacts):
        # a strong noiseless decay splits into a high early level and a low
        # late level; the score gain of that split is scale-invariant and
        # beats the default penalty, so the elevated early segment is
        # reported. The independent oracle pins the exact interval down.
        fit = detect_hot_streak(CareerSequence(impacts))
        assert fit.interval == oracle_detect(impacts)
        assert fit.interval is not None and fit.interval[0] == 0

    def test_pure_noise_has_no_streak(self):
        # no planted elevation: the two extra parameters are never worth it
        for seed in range(10):
            seq, _ = generate_career(30, 20.0, 1.0, (3, 3), 0.35, seed=seed)
            fit = detect_hot_streak(seq)
            assert fit.interval is None, f"seed {seed}"
            assert oracle_detect(seq.impacts) is None

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            detect_hot_streak(CareerSequence((1.0, 2.0, 3.0, 4.0)))

    def test_scaling_impacts_does_not_move_the_interval(self):
        base = plateau()
        expected = detect_hot_streak(CareerSequence(base)).interval
        for k in (0.2, 3.0, 100.0):
            scaled = tuple(k * v for v in base)
            assert detect_hot_streak(CareerSequence(scaled)).interval == expected

    @pytest.mark.parametrize("multiplier", [2.0, 5.0, 10.0])
    @pytest.mark.parametrize("length", [5, 8])
    def test_noiseless_planted_streaks_recovered_exactly(self, multiplier, length):
        for seed in range(5):
            seq, planted = generate_career(
                30, 5.0, multiplier, (length, length), 0.0, seed=seed
            )
            assert detect_hot_streak(seq).interval == planted

    def test_noisy_recovery_within_one_position(self):
        hits = 0
        for seed in range(20):
            seq, (ps, pe) = generate_career(30, 50.0, 10.0, (10, 10), 0.1, seed=seed)
            fit = detect_hot_streak(seq)
            if fit.interval is not None:
                ds, de = fit.interval
                if abs(ds - ps) <= 1 and abs(de - pe) <= 1:
                    hits += 1
        assert hits >= 18

    def test_two_hundred_works_under_a_second(self):
        seq, _ = generate_career(200, 5.0, 8.0, (20, 20), 0.2, seed=1)
        started = time.perf_counter()
        fit = detect_hot_streak(seq)
        elapsed = time.perf_counter() - started
        assert fit.interval is not None
        assert elapsed < 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(careers_of_every_kind())
    def test_matches_the_scalar_scan_as_a_whole_fit(self, case):
        seq, min_len, penalty = case
        fit = detect_hot_streak(seq, min_len=min_len, penalty_per_param=penalty)
        assert same_fit(fit, scalar_detect(seq, min_len=min_len, penalty_per_param=penalty))

    @pytest.mark.parametrize("penalty,expected", [(-1e300, (0, 2)), (1e300, None)])
    def test_all_scores_tie_first_interval_wins(self, penalty, expected):
        # under a huge penalty every score rounds to the same value, across
        # lengths too, so the scan's first interval (0, 2) wins with its own
        # levels: accepted under -1e300, rejected under 1e300
        seq = CareerSequence(plateau(n=40, start=0, end=9))
        fit = detect_hot_streak(seq, penalty_per_param=penalty)
        assert same_fit(fit, scalar_detect(seq, penalty_per_param=penalty))
        assert fit.interval == expected

    def test_rss_at_the_floor_ties(self):
        # a noiseless plateau fits exactly: its RSS and its twins' are at or
        # below the floor, and the first in scan order is reported
        seq = CareerSequence(plateau(n=12, start=0, end=5))
        fit = detect_hot_streak(seq, min_len=2)
        assert same_fit(fit, scalar_detect(seq, min_len=2))
        assert fit.interval == (0, 5)

    def test_memory_is_bounded_by_one_block(self):
        # 5000 works are 12.5 million intervals: 100 MB for one float array
        # over all of them. The scan holds about a dozen arrays over the
        # starts of one length, at most 40 KiB each
        seq, _ = generate_career(5000, 5.0, 8.0, (200, 400), 0.3, seed=5)
        tracemalloc.start()
        try:
            fit = detect_hot_streak(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.interval is not None
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("impacts,penalty,first,later", [
        # mirror-image intervals of a palindrome: two starts
        ((6.0, 1.2, 14.7, 14.7, 1.2, 6.0), 0.0, (0, 3), (2, 5)),
        # a work at the mid level, in or out of the hot run: two ends of one start
        ((11.0, 11.0, 11.0, 3.2426406871192848, 0.5, 0.5, 0.5), None, (0, 2), (0, 3)),
    ], ids=["two-starts", "one-start"])
    def test_first_of_two_intervals_an_ulp_apart_wins(self, impacts, penalty, first, later):
        # equal RSS on paper, one ulp apart in floats, the same score; the
        # later interval in scan order has the smaller RSS
        rows = {(s, e): (rss, score) for s, e, rss, score, _, _ in
                scalar_candidates(impacts, 3, penalty)}
        (rss_first, score_first), (rss_later, score_later) = rows[first], rows[later]
        assert math.nextafter(rss_later, math.inf) == rss_first
        assert score_first == score_later == min(score for _, score in rows.values())
        seq = CareerSequence(impacts)
        fit = detect_hot_streak(seq, penalty_per_param=penalty)
        assert fit.interval == first
        assert same_fit(fit, scalar_detect(seq, penalty_per_param=penalty))

    @pytest.mark.parametrize("impacts,min_len,expected", [
        (plateau(start=0, end=7), 3, (0, 7)),
        (plateau(start=22, end=29), 3, (22, 29)),
        # a low run flush against a boundary: the hot side is its complement
        (plateau(start=5, end=29), 3, (5, 29)),
        (plateau(start=0, end=24), 3, (0, 24)),
        # the low complement is shorter than min_len, so no twin is searched
        (plateau(start=2, end=29), 3, (2, 29)),
        (plateau(start=0, end=27), 3, (0, 27)),
        # a hot run shorter than min_len: only its low complement is scored
        (plateau(start=0, end=1), 3, None),
        (plateau(start=28, end=29), 3, None),
        ((1.0, 10.0, 10.0, 10.0, 10.0), 4, (1, 4)),
        ((10.0, 10.0, 10.0, 10.0, 1.0), 4, (0, 3)),
        ((10.0, 1.0, 1.0, 1.0, 1.0), 4, None),
        # a hot run of exactly min_len at the end: its low twin is skipped
        (plateau(start=27, end=29), 3, (27, 29)),
        ((1.0, 1.0, 1.0, 10.0, 10.0), 2, (3, 4)),
    ])
    def test_boundary_streaks_match_the_scalar_scan(self, impacts, min_len, expected):
        seq = CareerSequence(impacts)
        fit = detect_hot_streak(seq, min_len=min_len)
        assert fit.interval == expected
        assert same_fit(fit, scalar_detect(seq, min_len=min_len))

    @pytest.mark.parametrize("penalty", [math.nan, math.inf, -math.inf])
    def test_non_finite_penalty_rejected(self, penalty):
        seq = CareerSequence(plateau())
        with pytest.raises(ValueError, match=f"penalty_per_param must be finite, got {penalty}"):
            detect_hot_streak(seq, penalty_per_param=penalty)

    @pytest.mark.parametrize("n,min_len", [(5, 5), (5, 9), (30, 30)])
    def test_min_len_leaving_no_work_outside_rejected(self, n, min_len):
        seq = CareerSequence((1.0,) * n)
        with pytest.raises(ValueError, match=f"n - 1 = {n - 1} .* {n} works, got {min_len}"):
            detect_hot_streak(seq, min_len=min_len)

    def test_custom_penalty_can_veto_a_weak_streak(self):
        seq, _ = generate_career(30, 5.0, 2.0, (6, 6), 0.0, seed=2)
        assert detect_hot_streak(seq).interval is not None
        assert detect_hot_streak(seq, penalty_per_param=1e6).interval is None


class TestStreakAdjustedSummary:
    def test_no_streak_baseline_equals_overall(self):
        seq = CareerSequence((4.0,) * 10)
        overall, baseline, streak = streak_adjusted_summary(seq, detect_hot_streak(seq))
        assert overall == baseline == 4.0
        assert streak is None

    def test_planted_streak_overall_between_baseline_and_streak(self):
        seq = CareerSequence(plateau())
        overall, baseline, streak = streak_adjusted_summary(seq, detect_hot_streak(seq))
        assert baseline < overall < streak

    def test_half_and_half_block(self):
        impacts = (1.0,) * 10 + (10.0,) * 10
        seq = CareerSequence(impacts)
        overall, baseline, streak = streak_adjusted_summary(seq, detect_hot_streak(seq))
        assert overall == pytest.approx(5.5)
        assert baseline == pytest.approx(1.0)
        assert streak == pytest.approx(10.0)


class TestCareerSequenceType:
    def test_empty_career_rejected(self):
        with pytest.raises(ValueError, match="at least one work"):
            CareerSequence(())

    def test_negative_or_non_finite_impact_rejected(self):
        with pytest.raises(ValueError, match="position 1"):
            CareerSequence((1.0, -2.0))
        with pytest.raises(ValueError, match="position 0"):
            CareerSequence((float("nan"), 1.0))
