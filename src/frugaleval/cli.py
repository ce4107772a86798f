"""Command-line entry point.

Commands: screen (single-cue consideration set), choose (pairwise
one-reason choice with audit trace), bench (out-of-sample strategy
benchmark), career (hot-streak generation/detection), workload (panel
review-load arithmetic).

Every report embeds the tool version, the full effective configuration
and the master seed, and is byte-identical across runs with the same
configuration. Diagnostics go to stderr; report content goes to --out or
stdout, never interleaved. With --out the report is written in the
requested format plus a companion file in the other format, both or
neither.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

from . import __version__
from .careers import detect_hot_streak, generate_career, streak_adjusted_summary
from .ecology import (
    STRATEGY_FACTORIES,
    SplitConfig,
    TakeTheBestStrategy,
    generate_binary_environment,
    generate_gaussian_environment,
    run_benchmark,
)
from .heuristics import (
    CueOrder,
    DiscriminationRule,
    RuleMode,
    WeightVector,
    one_cue_select,
    one_reason_choose,
)
from .indicators import (
    HIGHLY_CITED,
    CandidateProfile,
    PendingPublicationsError,
    count_highly_cited,
)
from .tables import (
    read_candidates,
    read_career,
    read_corpus,
    read_environment,
    read_profiles_table,
    write_career,
)


@dataclass(frozen=True)
class WorkloadQuery:
    papers: int
    reviews_per_paper: int
    panel_size: int
    working_days: int

    def __post_init__(self) -> None:
        for name in ("papers", "reviews_per_paper", "panel_size", "working_days"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")


def workload(query: WorkloadQuery) -> float:
    """Reviews each panel member must complete per working day."""
    return (query.papers * query.reviews_per_paper) / (
        query.panel_size * query.working_days
    )


def _require(params: Mapping[str, object], *names: str,
             message: str = "missing required options: {}") -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names if params.get(name) is None]
    if missing:
        raise ValueError(message.format(", ".join(missing)))


def _parse_name_values(text: str, what: str) -> dict[str, float]:
    """Parse "name=value,name=value" option strings."""
    out: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"{what} entry {part!r} must look like name=value")
        name, _, raw = part.partition("=")
        try:
            out[name.strip()] = float(raw)
        except ValueError:
            raise ValueError(f"{what} value for {name.strip()!r} is not a number: {raw!r}") from None
    if not out:
        raise ValueError(f"{what} specification is empty")
    return out


def _names(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _parse_cues(text: str) -> tuple[str, ...]:
    cues = _names(text)
    if not cues:
        # argparse shows an ArgumentTypeError's own message; a ValueError's it hides
        raise argparse.ArgumentTypeError("cue order is empty")
    return cues


def _parse_streak_len(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    value = int(text)
    return value, value


def _score_highly_cited(p: Mapping[str, object]) -> list[CandidateProfile]:
    """The --candidates profiles with the highly-cited indicator scored against --corpus."""
    corpus = read_corpus(p["corpus"])
    try:
        return [
            prof.with_indicator(HIGHLY_CITED, float(count_highly_cited(prof, corpus, p["p"])))
            for prof in read_candidates(p["candidates"])
        ]
    except PendingPublicationsError as exc:
        raise ValueError(f"{p['candidates']}: {exc}") from None


def _cmd_screen(p: Mapping[str, object], seed: int) -> tuple[dict, list[str], list[str]]:
    _require(p, "corpus", "candidates", "quota")
    scored = _score_highly_cited(p)
    if not scored:
        raise ValueError(f"{p['candidates']}: no candidate rows to screen")
    by_id = {prof.id: prof for prof in scored}
    cset = one_cue_select(scored, HIGHLY_CITED, p["quota"])
    result = {
        "indicator": HIGHLY_CITED,
        "selected": [
            {"id": pid, "score": by_id[pid].indicators[HIGHLY_CITED]} for pid in cset.selected
        ],
        "cutoff_value": cset.cutoff_value,
        "quota": cset.quota,
        "candidates_screened": len(scored),
    }
    body = [f"selected {len(cset.selected)} of {len(scored)} candidates "
            f"(quota {cset.quota:g}, cutoff {cset.cutoff_value:g})"]
    body.append(f"{'rank':<6}{'candidate':<20}{HIGHLY_CITED}")
    for rank, pid in enumerate(cset.selected, start=1):
        body.append(f"{rank:<6}{pid:<20}{by_id[pid].indicators[HIGHLY_CITED]:g}")
    return result, body, []


def _cmd_choose(p: Mapping[str, object], seed: int) -> tuple[dict, list[str], list[str]]:
    _require(p, "cue_order")
    if p["profiles"]:
        profiles = read_profiles_table(p["profiles"])
    elif p["corpus"] and p["candidates"]:
        # raw publication files only carry the highly-cited indicator
        profiles = _score_highly_cited(p)
    else:
        raise ValueError("choose needs --profiles FILE, or --corpus plus --candidates")
    by_id = {prof.id: prof for prof in profiles}
    a_id, b_id = p["a"], p["b"]
    if a_id is None or b_id is None:
        if len(profiles) != 2:
            raise ValueError(
                f"--a/--b are required unless the profiles table has exactly two rows "
                f"(got {len(profiles)})"
            )
        a_id, b_id = profiles[0].id, profiles[1].id
    for pid in (a_id, b_id):
        if pid not in by_id:
            raise ValueError(f"profiles table has no candidate with id {pid!r}")
    rule = DiscriminationRule(p["delta"], RuleMode(p["mode"]))
    order = CueOrder(p["cue_order"])
    decision, trace = one_reason_choose(by_id[a_id], by_id[b_id], order, rule)
    result = {
        "a": a_id,
        "b": b_id,
        "decision": decision.value,
        "stopping_reason": trace.stopping_reason.value,
        "trace": [asdict(s) for s in trace.steps],
    }
    body = [f"a={a_id} b={b_id}", f"decision: {decision.value}", trace.record()]
    return result, body, []


def _make_strategies(names: tuple[str, ...], rule: DiscriminationRule) -> list:
    strategies = []
    for name in names:
        factory = STRATEGY_FACTORIES.get(name)
        if factory is None:
            known = ", ".join(sorted(STRATEGY_FACTORIES))
            raise ValueError(f"unknown strategy {name!r}; known strategies: {known}")
        strategies.append(TakeTheBestStrategy(rule) if factory is TakeTheBestStrategy else factory())
    return strategies


def _cmd_bench(p: Mapping[str, object], seed: int) -> tuple[dict, list[str], list[str]]:
    if p["environment"]:
        env = read_environment(p["environment"])
    elif p["gen"] == "binary":
        weights = WeightVector(_parse_name_values(p["weights"], "weights"))
        env = generate_binary_environment(weights, p["n_objects"], seed)
    elif p["gen"] == "gaussian":
        targets = _parse_name_values(p["targets"], "targets")
        env = generate_gaussian_environment(targets, p["n_objects"], seed)
    else:
        raise ValueError("bench needs --environment FILE or --gen binary|gaussian")
    rule = DiscriminationRule(p["delta"], RuleMode(p["mode"]))
    names = _names(p["strategies"])
    if not names:
        raise ValueError(f"strategy list is empty: {p['strategies']!r}")
    strategies = _make_strategies(names, rule)
    split = SplitConfig(p["train_fraction"], p["reps"], seed)
    report = run_benchmark(env, strategies, split)
    result = {
        "n_objects": report.n_objects,
        "cues": list(report.cue_names),
        "repetitions": report.repetitions,
        "train_fraction": report.train_fraction,
        # wall time is a diagnostic: it would break byte-identical report bodies
        "strategies": [{k: v for k, v in asdict(r).items() if k != "wall_time"}
                       for r in report.results],
    }
    body = [
        f"{report.n_objects} objects, cues: {', '.join(report.cue_names)}, "
        f"{report.repetitions} repetitions at train fraction {report.train_fraction:g}"
    ]
    body.append(f"{'strategy':<20}{'accuracy':>10}{'frugality':>11}{'undecided':>11}{'decisions':>11}")
    for r in report.results:
        body.append(
            f"{r.name:<20}{r.accuracy:>10.6f}{r.frugality:>11.4f}"
            f"{r.undecided_rate:>11.4f}{r.decisions:>11d}"
        )
    diagnostics = [
        f"{r.name}: {1000.0 * r.wall_time / max(r.decisions, 1):.6f} s per 1000 decisions"
        for r in report.results
    ]
    return result, body, diagnostics


def _cmd_career(p: Mapping[str, object], seed: int) -> tuple[dict, list[str], list[str]]:
    planted = None
    if p["impacts"]:
        seq = read_career(p["impacts"])
    else:
        _require(p, "length", "baseline_mean", "multiplier", "streak_len",
                 message="career generation needs {} (or --impacts FILE to detect)")
        seq, planted = generate_career(
            length=p["length"],
            baseline_mean=p["baseline_mean"],
            streak_multiplier=p["multiplier"],
            streak_len_range=_parse_streak_len(p["streak_len"]),
            noise_sigma=p["noise_sigma"],
            seed=seed,
        )
        if p["save_career"]:
            write_career(seq, p["save_career"])
    fit = detect_hot_streak(seq, min_len=p["min_streak_len"],
                            penalty_per_param=p["penalty_per_param"])
    overall, baseline_mean, streak_mean = streak_adjusted_summary(seq, fit)
    result = {
        "works": len(seq.impacts),
        "planted_interval": list(planted) if planted else None,
        "detected_interval": list(fit.interval) if fit.interval else None,
        "baseline_level": fit.baseline_level,
        "streak_level": fit.streak_level,
        "penalized_score_gain": fit.penalized_score_gain,
        "overall_mean_impact": overall,
        "baseline_mean_impact": baseline_mean,
        "streak_mean_impact": streak_mean,
    }
    body = [f"career of {len(seq.impacts)} works"]
    if planted:
        body.append(f"planted streak: works {planted[0]}..{planted[1]}")
    if fit.interval:
        body.append(
            f"detected streak: works {fit.interval[0]}..{fit.interval[1]} "
            f"(log-level {fit.baseline_level:.4f} -> {fit.streak_level:.4f}, "
            f"score gain {fit.penalized_score_gain:.4f})"
        )
        body.append(
            f"mean impact: overall {overall:.4f}, baseline {baseline_mean:.4f}, "
            f"streak {streak_mean:.4f}"
        )
    else:
        body.append("no hot streak detected")
        body.append(f"mean impact: overall {overall:.4f}")
    return result, body, []


def _cmd_workload(p: Mapping[str, object], seed: int) -> tuple[dict, list[str], list[str]]:
    _require(p, "papers", "panel_size", "working_days")
    query = WorkloadQuery(
        papers=p["papers"],
        reviews_per_paper=p["reviews_per_paper"],
        panel_size=p["panel_size"],
        working_days=p["working_days"],
    )
    rate = workload(query)
    result = {**asdict(query), "reviews_per_member_per_day": rate}
    body = [f"reviews per member per day: {rate:.4f}"]
    return result, body, []


_HANDLERS = {
    "screen": _cmd_screen,
    "choose": _cmd_choose,
    "bench": _cmd_bench,
    "career": _cmd_career,
    "workload": _cmd_workload,
}


_META_KEYS = ("command", "seed", "out", "format", "config")


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command and emit its report; returns the exit status."""
    params = {k: v for k, v in sorted(vars(args).items()) if k not in _META_KEYS}
    result, body_lines, diagnostics = _HANDLERS[args.command](params, args.seed)
    payload = {
        "tool": "frugaleval",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "config": params,
        "result": result,
    }
    machine = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    header = [
        f"# frugaleval {__version__}",
        f"# command: {args.command}",
        f"# seed: {args.seed}",
        "# config: " + " ".join(f"{k}={v}" for k, v in params.items()),
    ]
    table = "\n".join(header + body_lines) + "\n"
    primary, companion, companion_suffix = (
        (machine, table, ".txt") if args.format == "machine" else (table, machine, ".json")
    )
    for line in diagnostics:
        print(line, file=sys.stderr)
    if args.out:
        out = Path(args.out)
        companion_path = out.with_name(out.name + companion_suffix)
        # both go to temp files beside their targets first; the companion
        # lands first, so a primary report never stands alone
        temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp")
                 for path in (companion_path, out)}
        try:
            temps[companion_path].write_text(companion, encoding="utf-8")
            temps[out].write_text(primary, encoding="utf-8")
            for path, temp in temps.items():
                os.replace(temp, path)
        finally:
            for temp in temps.values():
                temp.unlink(missing_ok=True)
        print(f"report written to {out} (companion: {companion_path})", file=sys.stderr)
    else:
        sys.stdout.write(primary)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master seed; all randomness derives from it")
    sub.add_argument("--out", default=None, help="report file (companion written in the other format)")
    sub.add_argument("--format", choices=("table", "machine"), default="table",
                     help="primary report format (default: table)")
    sub.add_argument("--config", default=None,
                     help="key = value file supplying defaults for any flag of this command")


def _add_publication_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", default=None,
                     help="reference corpus CSV: id, year, category, citations, doc_type")
    sub.add_argument("--candidates", default=None,
                     help="candidate publications CSV: corpus columns plus candidate_id, validated")
    sub.add_argument("--p", type=float, default=0.10,
                     help="highly-cited share within (category, year) group (default: 0.10)")


def _add_rule(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=float, default=0.0,
                     help="discrimination threshold (default: 0 = pure lexicographic)")
    sub.add_argument("--mode", choices=("absolute", "relative"), default="absolute",
                     help="how score differences are compared against delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frugaleval",
        description="Frugal screening and choice heuristics for research evaluation, "
                    "with an out-of-sample benchmark harness.",
    )
    parser.add_argument("--version", action="version", version=f"frugaleval {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    screen = subs.add_parser(
        "screen",
        help="rank candidates on the highly-cited-papers indicator and keep the top share",
    )
    _add_publication_inputs(screen)
    screen.add_argument("--quota", type=float, default=None,
                        help="share of candidates to keep, in (0, 1]")
    _add_common(screen)

    choose = subs.add_parser(
        "choose", help="pairwise one-reason choice over a cue order, with audit trace"
    )
    choose.add_argument("--profiles", default=None,
                        help="CSV with column id plus one numeric column per indicator "
                             "(a criterion column, if present, is ignored); or score "
                             "highly_cited_papers from --corpus and --candidates")
    _add_publication_inputs(choose)
    choose.add_argument("--a", default=None, help="first candidate id")
    choose.add_argument("--b", default=None, help="second candidate id")
    choose.add_argument("--cue-order", dest="cue_order", type=_parse_cues, default=None,
                        help="comma-separated indicator names, most important first")
    _add_rule(choose)
    _add_common(choose)

    bench = subs.add_parser("bench", help="out-of-sample pair-comparison benchmark")
    bench.add_argument("--environment", default=None,
                       help="environment CSV: id, criterion, one column per cue")
    bench.add_argument("--gen", choices=("binary", "gaussian"), default=None,
                       help="generate the environment instead of reading it")
    bench.add_argument("--weights", default=None,
                       help="binary generator weights, e.g. cue_a=4,cue_b=2,cue_c=1")
    bench.add_argument("--targets", default=None,
                       help="gaussian generator cue-criterion correlations, e.g. cue_a=0.9,cue_b=0.5")
    bench.add_argument("--n-objects", dest="n_objects", type=int, default=20,
                       help="generated environment size (default: 20)")
    bench.add_argument("--strategies", default="take_the_best,minimalist,tallying,linear",
                       help="comma-separated strategy names")
    bench.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.5,
                       help="share of objects in the training split (default: 0.5)")
    bench.add_argument("--reps", type=int, default=20,
                       help="number of seeded train/test repetitions (default: 20)")
    _add_rule(bench)
    _add_common(bench)

    career = subs.add_parser(
        "career", help="generate a career with a planted hot streak, or detect one"
    )
    career.add_argument("--impacts", default=None,
                        help="career CSV (position, impact) to run detection on")
    career.add_argument("--length", type=int, default=None, help="works in a generated career")
    career.add_argument("--baseline-mean", dest="baseline_mean", type=float, default=None,
                        help="typical per-work impact of a generated career")
    career.add_argument("--multiplier", type=float, default=None,
                        help="impact multiplier inside the planted streak (>= 1)")
    career.add_argument("--streak-len", dest="streak_len", default=None,
                        help="planted streak length, LO:HI or a single value")
    career.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=0.0,
                        help="log-domain noise sigma for generated impacts (default: 0)")
    career.add_argument("--min-streak-len", dest="min_streak_len", type=int, default=3,
                        help="shortest interval detection may report (default: 3)")
    career.add_argument("--penalty-per-param", dest="penalty_per_param", type=float, default=None,
                        help="score penalty per extra model parameter (default: 2*ln(n))")
    career.add_argument("--save-career", dest="save_career", default=None,
                        help="write the generated career to this CSV")
    _add_common(career)

    wl = subs.add_parser("workload", help="panel review-load arithmetic")
    wl.add_argument("--papers", type=int, default=None, help="papers to assess")
    wl.add_argument("--reviews-per-paper", dest="reviews_per_paper", type=int, default=2,
                    help="reviews each paper receives (default: 2)")
    wl.add_argument("--panel-size", dest="panel_size", type=int, default=None,
                    help="number of panel members")
    wl.add_argument("--working-days", dest="working_days", type=int, default=None,
                    help="working days available")
    _add_common(wl)

    return parser


def _config_flags(path: str, known: set[str]) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags; a key
    is a flag name with dashes or underscores, and must be in `known`."""
    flags = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}: line {lineno}: expected key = value, got {raw!r}")
        name = key.replace("-", "_")
        if name not in known or name in ("command", "config"):
            raise ValueError(f"{path}: line {lineno}: unknown configuration key {key!r} "
                             f"for this command")
        flags.append(f"--{name.replace('_', '-')}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config flags go right after the command, so typed flags, parsed later, win
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, set(vars(args)))
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        return run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
