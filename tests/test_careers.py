import math
import time

import pytest

from frugaleval.careers import (
    CareerSequence,
    detect_hot_streak,
    generate_career,
    streak_adjusted_summary,
)


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
