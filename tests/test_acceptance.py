"""Acceptance gate: one test per release criterion, each at its pinned
tolerance, printing one PASS line when it holds.

Run with output visible:

    pytest tests/test_acceptance.py -s
"""

import itertools
import json
import math

import pytest

from frugaleval.careers import detect_hot_streak, generate_career
from frugaleval.cli import WorkloadQuery, main, workload
from frugaleval.ecology import (
    LinearRegressionStrategy,
    SplitConfig,
    TakeTheBestStrategy,
    generate_binary_environment,
    less_is_more_curve,
    run_benchmark,
    validity_order,
)
from frugaleval.heuristics import (
    CueOrder,
    Decision,
    WeightVector,
    one_cue_select,
    one_reason_choose,
    recognition_accuracy,
    tallying_choose,
    weighted_linear_choose,
)
from frugaleval.indicators import (
    CandidateProfile,
    Publication,
    ReferenceCorpus,
    is_highly_cited,
)


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def profile_of(pid, cues, values):
    return CandidateProfile(pid, indicators=dict(zip(cues, map(float, values))))


def test_criterion_01_workload_reproduction():
    """Panel of 20 assessing 6,446 papers twice over a ten-month working
    year lands at 2.14 reviews per member per day."""
    for days in range(300, 305):
        rate = workload(WorkloadQuery(6446, 2, 20, days))
        assert abs(rate - 2.14) <= 0.03, f"working_days={days}: {rate}"
    ok(1, "workload(6446, 2, 20, d) = 2.14 +/- 0.03 for d in 300..304")


def test_criterion_02_lexicographic_oracle_equivalence():
    """Pure lexicographic choice agrees exactly with an independent
    brute-force scanner on every unordered pair of 4-cue profiles over
    {0, 1, 2} (81 profiles, 3321 unordered pairs incl. self-pairs)."""
    cues = ("c1", "c2", "c3", "c4")

    def reference(a, b):
        for cue in cues:
            if a.indicators[cue] > b.indicators[cue]:
                return Decision.CHOOSE_A
            if a.indicators[cue] < b.indicators[cue]:
                return Decision.CHOOSE_B
        return Decision.UNDECIDED

    profiles = [
        profile_of(f"p{i}", cues, values)
        for i, values in enumerate(itertools.product((0, 1, 2), repeat=4))
    ]
    order = CueOrder(cues)
    pairs = 0
    for a, b in itertools.combinations_with_replacement(profiles, 2):
        decision, _ = one_reason_choose(a, b, order)
        assert decision is reference(a, b), f"{a.indicators} vs {b.indicators}"
        pairs += 1
    assert pairs == 3321
    ok(2, f"one_reason_choose (delta=0) == brute-force scanner on {pairs} pairs")


def test_criterion_03_non_compensatory_theorem():
    """With binary cues and weights 4 > 2 + 1, lexicographic choice in
    weight order and the weighted-sum comparison agree on every profile
    pair whose sums differ."""
    cues = ("c1", "c2", "c3")
    w = WeightVector(dict(zip(cues, (4.0, 2.0, 1.0))))
    order = CueOrder(cues)  # descending weight
    # the learned take-the-best order on the full profile space matches it
    env = generate_binary_environment(w, 64, seed=0)
    assert validity_order(env).cues == cues
    profiles = [
        profile_of(f"p{i}", cues, bits)
        for i, bits in enumerate(itertools.product((0, 1), repeat=3))
    ]
    checked = 0
    for a, b in itertools.product(profiles, repeat=2):
        linear = weighted_linear_choose(a, b, w)
        if linear is Decision.UNDECIDED:
            continue  # equal sums carry no claim
        assert one_reason_choose(a, b, order)[0] is linear
        checked += 1
    assert checked == 56  # 64 ordered pairs minus 8 equal-sum self-pairs
    ok(3, f"take-the-best order == weighted linear on {checked}/64 pairs with unequal sums")


def test_criterion_04_tallying_equals_unit_weight_linear():
    """Equal weighting is tallying: both decide identically on all binary
    3-cue profile pairs."""
    cues = ("c1", "c2", "c3")
    unit = WeightVector({c: 1.0 for c in cues})
    profiles = [
        profile_of(f"p{i}", cues, bits)
        for i, bits in enumerate(itertools.product((0, 1), repeat=3))
    ]
    for a, b in itertools.product(profiles, repeat=2):
        assert tallying_choose(a, b, cues) is weighted_linear_choose(a, b, unit)
    ok(4, "tallying == unit-weight linear on all 64 binary profile pairs")


def test_criterion_05_less_is_more():
    """Partial recognition beats full recognition, and a 100k-trial
    simulation of the recognition heuristic tracks the closed form within
    0.01 at every recognized count. The simulation counts the heuristic's
    correct choices; test_ecology checks that count against
    recognition_choose deciding the same draws."""
    N, alpha, beta, trials = 50, 0.8, 0.6, 100_000
    rows = less_is_more_curve(N, alpha, beta, trials=trials, seed=20260810)
    full_formula = rows[-1][1]
    full_simulated = rows[-1][2]
    assert full_formula == pytest.approx(beta)
    interior = rows[:-1]
    best_formula = max(f for _, f, _ in interior)
    best_simulated = max(s for _, _, s in interior)
    assert best_formula > full_formula
    assert best_simulated > full_simulated
    worst_gap = max(abs(f - s) for _, f, s in rows)
    assert worst_gap <= 0.01
    # sanity against the closed form at the endpoints
    assert rows[0][1] == 0.5
    assert recognition_accuracy(N, N, alpha, beta) == pytest.approx(beta)
    ok(5, f"interior max {best_formula:.4f} > beta {beta}; max |formula-sim| = {worst_gap:.4f}")


def test_criterion_06_one_cue_screening_fixture():
    """Counts 4, 3, 3, 1, 0 with a 40% quota keep three candidates (tie at
    the cutoff expands), and any monotone rescoring keeps the same set."""
    ids = ("A", "B", "C", "D", "E")
    counts = (4.0, 3.0, 3.0, 1.0, 0.0)
    profiles = [CandidateProfile(i, indicators={"hcp": c}) for i, c in zip(ids, counts)]
    cset = one_cue_select(profiles, "hcp", 0.40)
    assert cset.selected == ("A", "B", "C")
    assert len(cset.selected) == 3
    for transform in (lambda v: 10 * v + 3, lambda v: v**3, math.exp):
        rescored = [
            CandidateProfile(i, indicators={"hcp": float(transform(c))})
            for i, c in zip(ids, counts)
        ]
        assert one_cue_select(rescored, "hcp", 0.40).selected == cset.selected
    ok(6, "screening keeps {A, B, C}; membership invariant under monotone transforms")


def test_criterion_07_highly_cited_classification():
    """Top-10% classification against a brute-force rank oracle: in a
    0..9-citation group only the 9-citation paper qualifies; in an all-tied
    group every paper does."""

    def oracle(group, citations, p):
        ranked = sorted(group, reverse=True)
        rank = 1 + sum(1 for value in ranked if value > citations)
        return rank <= math.ceil(p * len(ranked))

    spread = ReferenceCorpus(
        [Publication(f"s{i}", 2020, "phys", i) for i in range(10)]
    )
    flags = [
        is_highly_cited(Publication(f"q{c}", 2020, "phys", c), spread, 0.10)
        for c in range(10)
    ]
    assert flags == [False] * 9 + [True]
    assert [oracle(range(10), c, 0.10) for c in range(10)] == flags

    tied = ReferenceCorpus([Publication(f"t{i}", 2020, "phys", 5) for i in range(10)])
    for i in range(10):
        probe = Publication(f"pt{i}", 2020, "phys", 5)
        assert is_highly_cited(probe, tied, 0.10) is True
        assert oracle([5] * 10, 5, 0.10) is True
    ok(7, "only the 9-citation paper in 0..9; all ten under full ties; oracle agrees")


def test_criterion_08_hot_streak_recovery():
    """Noiseless planted streaks are recovered exactly; with log-domain
    noise 0.1 both boundaries stay within one position in at least 90 of
    100 seeded careers."""
    for seed in range(10):
        seq, planted = generate_career(30, 50.0, 10.0, (10, 10), 0.0, seed=seed)
        assert detect_hot_streak(seq).interval == planted, f"noiseless seed {seed}"
    hits = 0
    for seed in range(100):
        seq, (ps, pe) = generate_career(30, 50.0, 10.0, (10, 10), 0.1, seed=seed)
        fit = detect_hot_streak(seq)
        if fit.interval is not None:
            ds, de = fit.interval
            if abs(ds - ps) <= 1 and abs(de - pe) <= 1:
                hits += 1
    assert hits >= 90
    ok(8, f"noiseless recovery exact on 10 seeds; noisy boundaries within +/-1 in {hits}/100")


def test_criterion_09_ecological_benchmark_sanity():
    """Out of sample on a noiseless non-compensatory binary environment,
    take-the-best matches the fitted linear baseline within 0.02 while
    inspecting strictly fewer cues than there are."""
    env = generate_binary_environment(
        WeightVector({"c1": 4.0, "c2": 2.0, "c3": 1.0}), 20, seed=17
    )
    split = SplitConfig(train_fraction=0.5, repetitions=100, seed=2026)
    report = run_benchmark(env, [TakeTheBestStrategy(), LinearRegressionStrategy()], split)
    ttb, linear = report.results
    # 10 test objects per repetition -> 45 pairs x 100 repetitions
    assert ttb.decisions == 4500
    assert abs(ttb.accuracy - linear.accuracy) <= 0.02
    assert ttb.frugality < len(env.cue_names)
    ok(
        9,
        f"accuracy ttb {ttb.accuracy:.4f} vs linear {linear.accuracy:.4f} "
        f"(gap {abs(ttb.accuracy - linear.accuracy):.4f}); frugality {ttb.frugality:.3f} < 3",
    )


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    """Every command, run twice with the same configuration and seed,
    writes byte-identical report bodies in both formats."""
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "id,year,category,citations,doc_type\n"
        + "".join(f"r{i},2020,phys,{i},article\n" for i in range(10)),
        encoding="utf-8",
    )
    candidates = tmp_path / "cands.csv"
    candidates.write_text(
        "id,year,category,citations,doc_type,candidate_id,validated\n"
        "p1,2020,phys,9,article,alice,included\n"
        "p2,2020,phys,9,article,alice,included\n"
        "p3,2020,phys,2,article,bob,included\n",
        encoding="utf-8",
    )
    profiles = tmp_path / "profiles.csv"
    profiles.write_text("id,hcp,collab\nA,4,1\nB,4,7\n", encoding="utf-8")

    runs = {
        "screen": ["screen", "--corpus", str(corpus), "--candidates", str(candidates),
                   "--quota", "0.5"],
        "choose": ["choose", "--profiles", str(profiles), "--cue-order", "hcp,collab"],
        "bench": ["bench", "--gen", "binary", "--weights", "c1=4,c2=2,c3=1",
                  "--n-objects", "14", "--reps", "5", "--seed", "3",
                  "--strategies", "take_the_best,minimalist,tallying,linear"],
        "career": ["career", "--length", "30", "--baseline-mean", "5",
                   "--multiplier", "10", "--streak-len", "10", "--noise-sigma", "0.1",
                   "--seed", "3"],
        "workload": ["workload", "--papers", "6446", "--reviews-per-paper", "2",
                     "--panel-size", "20", "--working-days", "301"],
    }
    for name, argv in runs.items():
        first = tmp_path / f"{name}-1.txt"
        second = tmp_path / f"{name}-2.txt"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
        assert (
            tmp_path / f"{name}-1.txt.json"
        ).read_bytes() == (tmp_path / f"{name}-2.txt.json").read_bytes(), name
        # report header carries version, seed and full effective config
        payload = json.loads((tmp_path / f"{name}-1.txt.json").read_text())
        assert payload["version"] and "seed" in payload and payload["config"]
    capsys.readouterr()
    ok(10, "five commands x two runs: byte-identical bodies in both formats")
