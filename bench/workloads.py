"""Seeded inputs, reference results and output checks for the four workloads.

Each workload turns a seed into input files and a command line, and knows
what the command must report. The references are computed here with plain
numpy, independently of the frugaleval code they check, so that a faster
implementation inside the package is held to the results of the current
one. Where a reference reproduces a floating-point result bit for bit, it
repeats the package's arithmetic in the same order on purpose.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CLI = "frugaleval.cli"
RECOGNITION = "recognition_cmd"


@dataclass(frozen=True)
class Prepared:
    """One workload made from one seed: the command and how to judge it."""

    module: str  # run as `python -m <module> <args> --out FILE`
    args: tuple[str, ...]
    items: int  # work items one command completes
    check: Callable[[dict], list[str]]  # report -> problems (empty when correct)


def digest(result: object) -> str:
    """sha256 of a report section in canonical JSON."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expect_result(expected: dict) -> Callable[[dict], list[str]]:
    want = digest(expected)

    def check(report: dict) -> list[str]:
        got = digest(report.get("result"))
        return [] if got == want else [f"result digest {got[:12]} != expected {want[:12]}"]

    return check


def _write_rows(path: Path, header: tuple[str, ...], columns: list[list]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))


# --------------------------------------------------------------------------
# screen: highly-cited scoring of 900 candidates against a 60 k corpus

CATEGORIES = 20
YEARS = 10
FIRST_YEAR = 2010
DOC_TYPES = ("article", "review", "other")


def _draw_publications(rng: np.random.Generator, rows: int):
    # the first rows visit every (category, year) group once, so no group is empty
    groups = CATEGORIES * YEARS
    group = np.concatenate([np.arange(min(rows, groups)), rng.integers(0, groups, max(0, rows - groups))])
    category = group // YEARS
    year = FIRST_YEAR + group % YEARS
    citations = np.floor(10.0 * rng.pareto(1.5, rows)).astype(np.int64)
    doc = rng.choice(len(DOC_TYPES), size=rows, p=[0.85, 0.10, 0.05])
    return group, category, year, citations, doc


def _publication_columns(prefix: str, category, year, citations, doc) -> list[list]:
    return [
        [f"{prefix}{i}" for i in range(len(citations))],
        year.tolist(),
        [f"cat{c:02d}" for c in category.tolist()],
        citations.tolist(),
        [DOC_TYPES[d] for d in doc.tolist()],
    ]


def _top_quota(fraction: float, n: int) -> int:
    return math.ceil(round(fraction * n, 9))


def screen_reference(
    corpus_group, corpus_cites, cand_group, cand_cites, eligible, owner, candidates: int,
    p: float, quota: float,
) -> dict:
    """Highly-cited counts per candidate and the top-`quota` consideration set."""
    groups = CATEGORIES * YEARS
    scale = int(corpus_cites.max(initial=0)) + int(cand_cites.max(initial=0)) + 2
    keys = np.sort(corpus_group * scale + corpus_cites)
    sizes = np.bincount(corpus_group, minlength=groups)
    group_end = np.cumsum(sizes)
    limits = np.array([_top_quota(p, int(n)) for n in sizes])
    at_or_below = np.searchsorted(keys, cand_group * scale + cand_cites, side="right")
    strictly_greater = group_end[cand_group] - at_or_below
    highly_cited = eligible & (strictly_greater < limits[cand_group])
    counts = np.bincount(owner[highly_cited], minlength=candidates)

    width = len(str(candidates - 1))
    ids = [f"cand{j:0{width}d}" for j in range(candidates)]
    ranked = sorted(range(candidates), key=lambda j: (-counts[j], ids[j]))
    cutoff = int(counts[ranked[_top_quota(quota, candidates) - 1]])
    return {
        "indicator": "highly_cited_papers",
        "selected": [
            {"id": ids[j], "score": float(counts[j])} for j in ranked if counts[j] >= cutoff
        ],
        "cutoff_value": float(cutoff),
        "quota": quota,
        "candidates_screened": candidates,
    }


def screen(
    seed: int, workdir: Path, corpus_rows: int = 60_000, candidate_rows: int = 18_000,
    candidates: int = 900,
) -> Prepared:
    p, quota = 0.1, 0.1
    rng = np.random.default_rng(seed)
    c_group, c_cat, c_year, c_cites, c_doc = _draw_publications(rng, corpus_rows)
    corpus_path = workdir / "corpus.csv"
    _write_rows(corpus_path, ("id", "year", "category", "citations", "doc_type"),
                _publication_columns("p", c_cat, c_year, c_cites, c_doc))

    k_group, k_cat, k_year, k_cites, k_doc = _draw_publications(rng, candidate_rows)
    owner = np.concatenate(
        [np.arange(candidates), rng.integers(0, candidates, candidate_rows - candidates)]
    )
    included = rng.random(candidate_rows) < 0.9
    width = len(str(candidates - 1))
    candidates_path = workdir / "candidates.csv"
    _write_rows(
        candidates_path,
        ("id", "year", "category", "citations", "doc_type", "candidate_id", "validated"),
        _publication_columns("c", k_cat, k_year, k_cites, k_doc)
        + [[f"cand{j:0{width}d}" for j in owner.tolist()],
           ["included" if v else "excluded" for v in included.tolist()]],
    )
    eligible = included & (k_doc != DOC_TYPES.index("other"))
    expected = screen_reference(c_group, c_cites, k_group, k_cites, eligible, owner,
                                candidates, p, quota)
    return Prepared(
        module=CLI,
        args=("screen", "--corpus", str(corpus_path), "--candidates", str(candidates_path),
              "--p", str(p), "--quota", str(quota), "--format", "machine"),
        items=corpus_rows + candidate_rows,
        check=_expect_result(expected),
    )


# --------------------------------------------------------------------------
# bench: out-of-sample take-the-best / minimalist / tallying / linear

BENCH_WEIGHTS = {f"c{k + 1}": float(2 ** (7 - k)) for k in range(8)}  # 128, 64, ..., 1
STRATEGIES = ("take_the_best", "minimalist", "tallying", "linear")


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


def _validity_order(cues: np.ndarray, criterion: np.ndarray, names: list[str]) -> list[int]:
    i, j = _pairs(len(criterion))
    validities = []
    for k in range(cues.shape[1]):
        diff = cues[i, k] - cues[j, k]
        hit = diff != 0.0
        total = int(np.count_nonzero(hit))
        correct = int(np.count_nonzero(diff[hit] * (criterion[i] - criterion[j])[hit] > 0.0))
        validities.append(correct / total if total else 0.5)
    return sorted(range(len(names)), key=lambda k: (-validities[k], names[k]))


def _linear_sums(train: np.ndarray, train_crit: np.ndarray, test: np.ndarray) -> np.ndarray:
    design = np.column_stack([np.ones(len(train)), train])
    coef, *_ = np.linalg.lstsq(design, train_crit, rcond=None)
    sums = np.zeros(len(test))
    for k, w in enumerate(float(c) for c in coef[1:]):  # cue by cue, as the scalar sum runs
        sums = sums + w * test[:, k]
    return sums


def bench_reference(seed: int, n_objects: int, reps: int, train_fraction: float) -> dict:
    """Accuracy, frugality and counts of take-the-best, tallying and linear,
    decided for all test pairs at once."""
    names = sorted(BENCH_WEIGHTS)
    m = len(names)
    matrix = np.random.default_rng(seed).integers(0, 2, size=(n_objects, m))
    criterion = (matrix @ np.array([BENCH_WEIGHTS[c] for c in names])).astype(float)
    cues = matrix.astype(float)
    accuracy = {s: [] for s in ("take_the_best", "tallying", "linear_regression")}
    inspected = dict.fromkeys(accuracy, 0)
    undecided = dict.fromkeys(accuracy, 0)
    pairs_total = 0
    for rep_seq in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(rep_seq.spawn(1 + len(STRATEGIES))[0])
        perm = rng.permutation(n_objects)
        n_train = max(1, int(train_fraction * n_objects))
        train, test = perm[:n_train], perm[n_train:]
        i, j = _pairs(len(test))
        a, b = cues[test][i], cues[test][j]
        crit_a, crit_b = criterion[test][i], criterion[test][j]
        pairs_total += len(i)

        order = _validity_order(cues[train], criterion[train], names)
        diff = (a - b)[:, order]
        hit = diff != 0.0
        found = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        ttb = np.where(found, np.sign(diff[np.arange(len(i)), first]), 0.0)
        ttb_inspected = int(np.where(found, first + 1, m).sum())

        tally = np.sign((a > b).sum(axis=1) - (a < b).sum(axis=1)).astype(float)
        linear_a = _linear_sums(cues[train], criterion[train], a)
        linear_b = _linear_sums(cues[train], criterion[train], b)
        linear = np.sign(linear_a - linear_b)

        truth = np.sign(crit_a - crit_b)
        for name, decision, n_inspected in (
            ("take_the_best", ttb, ttb_inspected),
            ("tallying", tally, m * len(i)),
            ("linear_regression", linear, m * len(i)),
        ):
            half = (decision == 0) | (truth == 0)
            score = 0.5 * np.count_nonzero(half) + np.count_nonzero(~half & (decision == truth))
            accuracy[name].append(score / len(i))
            inspected[name] += n_inspected
            undecided[name] += int(np.count_nonzero(decision == 0))
    return {
        name: {
            "accuracy": float(np.mean(accuracy[name])),
            "frugality": inspected[name] / pairs_total,
            "decisions": pairs_total,
            "undecided_rate": undecided[name] / pairs_total,
        }
        for name in accuracy
    } | {"minimalist": {"decisions": pairs_total}}


def _check_bench(expected: dict, cues: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        rows = {r.get("name"): r for r in report.get("result", {}).get("strategies", [])}
        problems = []
        if sorted(rows) != sorted(expected):
            return [f"strategies {sorted(rows)} != {sorted(expected)}"]
        for name, want in expected.items():
            got = {key: rows[name].get(key) for key in want}
            if got != want:
                problems.append(f"{name}: {got} != {want}")
        # minimalist draws its own random cue orders: only its ranges are pinned
        mini = rows["minimalist"]
        if not (0.5 <= mini["accuracy"] <= 1.0 and 1.0 <= mini["frugality"] <= cues
                and 0.0 <= mini["undecided_rate"] <= 1.0):
            problems.append(f"minimalist out of range: {mini}")
        return problems

    return check


def bench(seed: int, workdir: Path, n_objects: int = 200, reps: int = 10) -> Prepared:
    train_fraction = 0.5
    expected = bench_reference(seed, n_objects, reps, train_fraction)
    n_test = n_objects - max(1, int(train_fraction * n_objects))
    return Prepared(
        module=CLI,
        args=("bench", "--gen", "binary",
              "--weights", ",".join(f"{c}={w:g}" for c, w in BENCH_WEIGHTS.items()),
              "--n-objects", str(n_objects), "--reps", str(reps),
              "--train-fraction", str(train_fraction), "--strategies", ",".join(STRATEGIES),
              "--seed", str(seed), "--format", "machine"),
        items=len(STRATEGIES) * reps * n_test * (n_test - 1) // 2,
        check=_check_bench(expected, len(BENCH_WEIGHTS)),
    )


# --------------------------------------------------------------------------
# career: exhaustive hot-streak scan of a 600-work career

def intervals_scanned(n: int, min_len: int) -> int:
    """Candidate intervals one exhaustive scan visits: every interval of at
    least min_len works that leaves one work outside."""
    first = max(0, (n - 2) - (min_len - 1) + 1)
    rest = sum(max(0, n - s - min_len + 1) for s in range(1, n))
    return first + rest


def _bic(rss, n: int, extra: int, penalty: float) -> float:
    return n * math.log(max(rss, 1e-300) / n) + extra * penalty


def career_reference(impacts: np.ndarray, min_len: int = 3) -> dict:
    """Best two-level interval: a vectorized scan picks the near-best
    candidates, which are then rescored exactly in scan order."""
    n = len(impacts)
    y = np.log10(np.asarray(impacts) + 1.0)
    penalty = 2.0 * math.log(n)
    total, total_sq = float(np.sum(y)), float(np.sum(y * y))
    prefix = np.concatenate([[0.0], np.cumsum(y)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(y * y)])

    def evaluate(start, end):
        k = end - start + 1
        inside_sum = prefix[end + 1] - prefix[start]
        inside_sq = prefix_sq[end + 1] - prefix_sq[start]
        mean_in = inside_sum / k
        mean_out = (total - inside_sum) / (n - k)
        rss = (inside_sq - k * mean_in * mean_in) + (
            (total_sq - inside_sq) - (n - k) * mean_out * mean_out
        )
        twin = np.where(start == 0, n - 1 - end >= min_len, (end == n - 1) & (start >= min_len))
        return mean_in, mean_out, rss, (mean_in <= mean_out) & twin

    start, end = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    valid = (end >= start + min_len - 1) & ~((start == 0) & (end == n - 1))
    start, end = start[valid], end[valid]  # row-major: earliest start, then shortest
    _, _, rss, skip = evaluate(start, end)
    score = n * np.log(np.maximum(rss, 1e-300) / n) + 2 * penalty
    score[skip] = np.inf

    mean_all = total / n
    score_single = _bic(total_sq - n * mean_all * mean_all, n, 0, penalty)
    best, best_score, levels = None, math.inf, (mean_all, mean_all)
    if np.isfinite(score).any():
        near = np.flatnonzero(score <= score.min() + 1e-9 * max(1.0, abs(score.min())))
        for idx in near:  # exact rescoring with the scalar arithmetic
            s, e = int(start[idx]), int(end[idx])
            mean_in, mean_out, rss_one, _ = evaluate(s, e)
            exact = _bic(rss_one, n, 2, penalty)
            if exact < best_score:
                best, best_score, levels = (s, e), exact, (mean_out, mean_in)
    gain = score_single - best_score
    overall = float(np.mean(impacts))
    if best is not None and gain > 0.0 and levels[1] > levels[0]:
        s, e = best
        outside = np.concatenate([impacts[:s], impacts[e + 1:]])
        return {
            "works": n, "planted_interval": None, "detected_interval": [s, e],
            "baseline_level": levels[0], "streak_level": levels[1],
            "penalized_score_gain": gain, "overall_mean_impact": overall,
            "baseline_mean_impact": float(np.mean(outside)),
            "streak_mean_impact": float(np.mean(impacts[s:e + 1])),
        }
    return {
        "works": n, "planted_interval": None, "detected_interval": None,
        "baseline_level": mean_all, "streak_level": None,
        "penalized_score_gain": min(gain, 0.0) if best is not None else 0.0,
        "overall_mean_impact": overall, "baseline_mean_impact": overall,
        "streak_mean_impact": None,
    }


def career(seed: int, workdir: Path, works: int = 600, streak: tuple[int, int] = (20, 80)) -> Prepared:
    rng = np.random.default_rng(seed)
    impacts = np.exp(rng.normal(math.log(10.0), 0.5, size=works))
    length = int(rng.integers(streak[0], streak[1] + 1))
    first = int(rng.integers(0, works - length + 1))
    impacts[first:first + length] *= 4.0
    path = workdir / "career.csv"
    _write_rows(path, ("position", "impact"), [list(range(works)), [repr(v) for v in impacts.tolist()]])
    return Prepared(
        module=CLI,
        args=("career", "--impacts", str(path), "--format", "machine"),
        items=intervals_scanned(works, 3),
        check=_expect_result(career_reference(impacts)),
    )


# --------------------------------------------------------------------------
# recognition: Monte Carlo less-is-more curve

RECOGNITION_ALPHA = 0.8
RECOGNITION_BETA = 0.6


def closed_form(N: int, n: int, alpha: float, beta: float) -> float:
    return (2.0 * n * (N - n) * alpha + (N - n) * (N - n - 1) * 0.5
            + n * (n - 1) * beta) / (N * (N - 1))


def binomial_interval(trials: int, p: float, tail: float = 1e-7) -> tuple[int, int]:
    """Success counts [lo, hi] outside which Binomial(trials, p) puts less
    than `tail` probability on either side."""
    if p <= 0.0 or p >= 1.0:
        return (0, 0) if p <= 0.0 else (trials, trials)
    k = np.arange(trials)
    # log P(k + 1) - log P(k), summed up from log P(0) = trials * log(1 - p)
    steps = np.log((trials - k) / (k + 1.0)) + math.log(p / (1.0 - p))
    log_pmf = trials * math.log1p(-p) + np.concatenate([[0.0], np.cumsum(steps)])
    pmf = np.exp(log_pmf - log_pmf.max())
    cdf = np.cumsum(pmf) / pmf.sum()
    return int(np.searchsorted(cdf, tail)), int(np.searchsorted(cdf, 1.0 - tail))


def _check_recognition(population: int, trials: int) -> Callable[[dict], list[str]]:
    # each simulated pair is right with the closed-form probability, so each
    # row's count of right choices is binomial; 51 rows at 1e-7 a tail
    # reject a correct curve about once in 10^5 runs
    expected = [closed_form(population, n, RECOGNITION_ALPHA, RECOGNITION_BETA)
                for n in range(population + 1)]
    intervals = [binomial_interval(trials, p) for p in expected]

    def check(report: dict) -> list[str]:
        rows = report.get("result", {}).get("rows", [])
        if [row[0] for row in rows] != list(range(population + 1)):
            return [f"rows do not cover n = 0..{population}"]
        problems = []
        for (n, exact, simulated), want, (lo, hi) in zip(rows, expected, intervals):
            right = round(simulated * trials)
            if abs(exact - want) > 1e-12 or not lo <= right <= hi:
                problems.append(f"n={n}: closed form {exact} (expected {want}), "
                                f"{right} of {trials} right (expected {lo}..{hi})")
        interior = max(row[2] for row in rows[1:-1])
        if not interior > rows[-1][2]:
            problems.append(f"no less-is-more effect: interior max {interior} <= full {rows[-1][2]}")
        return problems

    return check


def recognition(seed: int, workdir: Path, population: int = 50, trials: int = 20_000) -> Prepared:
    return Prepared(
        module=RECOGNITION,
        args=("--population", str(population), "--alpha", str(RECOGNITION_ALPHA),
              "--beta", str(RECOGNITION_BETA), "--trials", str(trials), "--seed", str(seed)),
        items=(population + 1) * trials,
        check=_check_recognition(population, trials),
    )


WORKLOADS = {"screen": screen, "bench": bench, "career": career, "recognition": recognition}
