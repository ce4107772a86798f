"""Command-line entry point.

Commands: screen (single-cue consideration set), choose (pairwise
one-reason choice with audit trace), bench (out-of-sample strategy
benchmark), career (hot-streak generation/detection), workload (panel
review-load arithmetic).

Every report embeds the tool version, the configuration its input mode
read (a flag the mode does not read echoes None, and the table's config
line leaves it out, so that line holds exactly the flags the run read) and
the master seed (None where the mode draws nothing), and is
byte-identical across runs with the same configuration. Diagnostics go
to stderr; report content goes to --out or stdout, never interleaved.
With --out the report is written in the requested format plus a
companion file in the other format, both or neither.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, NoReturn

from . import __version__
# the one package module every command loads: the shared checked _make of a record
from ._records import _checked_make


def __getattr__(name: str) -> Callable:
    """The functions that the benchmark's tracer wraps on this module
    (bench/tracing.py), each imported from its home module on its first
    read. setdefault keeps a wrapper the tracer has put in place. Each
    import is a statement: `-X importtime` logs it, where it would not log
    importlib.import_module, and the import graph test reads it."""
    if name in ("read_corpus", "read_candidates", "read_career"):
        from . import tables as home
    elif name == "count_highly_cited":
        from . import indicators as home
    elif name == "one_cue_select":
        from . import heuristics as home
    elif name in ("generate_binary_environment", "run_benchmark"):
        from . import ecology as home
    elif name in ("detect_hot_streak", "streak_adjusted_summary"):
        from . import careers as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(home, name))


def _load(*names: str) -> None:
    """Bind the named traced functions here before a handler calls them as
    globals, so that it calls the tracer's wrapper while one is in place."""
    for name in names:
        if name not in globals():
            __getattr__(name)


class _WorkloadQueryFields(NamedTuple):
    papers: int
    reviews_per_paper: int
    panel_size: int
    working_days: int


class WorkloadQuery(_WorkloadQueryFields):
    __slots__ = ()

    def __new__(cls, papers: int, reviews_per_paper: int, panel_size: int,
                working_days: int) -> WorkloadQuery:
        self = tuple.__new__(cls, (papers, reviews_per_paper, panel_size, working_days))
        for name, value in zip(self._fields, self):
            if value <= 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        return self

    _make = classmethod(_checked_make)


def workload(query: WorkloadQuery) -> float:
    """Reviews each panel member must complete per working day."""
    try:
        return (query.papers * query.reviews_per_paper) / (
            query.panel_size * query.working_days
        )
    except OverflowError:
        raise ValueError("reviews per member per day is too large for a float") from None


# Defaults of the flags that some input mode does not read, as --help states them: argparse
# leaves them None, so a flag given at its default counts as given. _mode fills in the ones
# the run's input mode uses; any other echoes None. min_streak_len, which every career mode
# reads, is careers.MIN_STREAK_LEN (a test holds them equal), stated here so that building
# the parser imports no careers.
_DEFAULTS = {"p": 0.10, "n_objects": 20, "noise_sigma": 0.0, "delta": 0.0, "mode": "absolute",
             "seed": 0, "min_streak_len": 3}


def _mode(p: dict[str, object], needs: tuple[str, ...], uses: tuple[str, ...], *,
          missing: str = "missing required options: {}",
          unused: str = "this command does not use {}") -> None:
    """Fail naming the flags a handler's input mode needs that are absent, then
    every given flag it neither needs nor uses; then default the flags it uses."""
    absent = [name for name in p if name in needs and p[name] is None]
    extra = [name for name, value in p.items() if value is not None and name not in needs + uses]
    for names, message in ((absent, missing), (extra, unused)):
        if names:
            raise ValueError(message.format(", ".join(f"--{n.replace('_', '-')}" for n in names)))
    p.update((name, value) for name, value in _DEFAULTS.items() if name in uses and p[name] is None)


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
        name = name.strip()
        if not name:
            raise ValueError(f"{what} entry {part!r} has an empty name")
        if name in out:
            raise ValueError(f"{what} entry {name!r} is given more than once")
        try:
            out[name] = float(raw)
        except ValueError:
            raise ValueError(f"{what} value for {name!r} is not a number: {raw!r}") from None
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


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def _parse_streak_len(text: str) -> tuple[int, int]:
    lo, colon, hi = text.partition(":")
    try:
        return int(lo), int(hi if colon else lo)
    except ValueError:
        raise ValueError(f"--streak-len {text!r} is not LO:HI or one integer") from None


def _score_highly_cited(p: Mapping[str, object]) -> list[CandidateProfile]:
    """The --candidates profiles with the highly-cited indicator scored against --corpus."""
    from .indicators import (
        HIGHLY_CITED,
        CandidateProfile,
        MissingGroupError,
        PendingPublicationsError,
    )

    _load("read_corpus", "read_candidates", "count_highly_cited")
    corpus = read_corpus(p["corpus"])
    try:
        return [
            CandidateProfile(prof.id, indicators={
                HIGHLY_CITED: float(count_highly_cited(prof, corpus, p["p"]))})
            for prof in read_candidates(p["candidates"])
        ]
    except (PendingPublicationsError, MissingGroupError) as exc:
        raise ValueError(f"{p['candidates']}: {exc}") from None


# a handler's report result, body lines and stderr diagnostics, and the files
# it saves besides the report: path -> a function that writes that path
_Outcome = "tuple[dict, list[str], list[str], dict[str, Callable[[Path], object]]]"


def _cmd_screen(p: dict[str, object]) -> _Outcome:
    from .indicators import HIGHLY_CITED

    _mode(p, ("corpus", "candidates", "quota"), ("p",))
    _load("one_cue_select")
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
        "quota": p["quota"],
        "candidates_screened": len(scored),
    }
    body = [f"selected {len(cset.selected)} of {len(scored)} candidates "
            f"(quota {p['quota']:g}, cutoff {cset.cutoff_value:g})"]
    body.append(f"{'rank':<6}{'candidate':<20}{HIGHLY_CITED}")
    for rank, pid in enumerate(cset.selected, start=1):
        body.append(f"{rank:<6}{pid:<20}{by_id[pid].indicators[HIGHLY_CITED]:g}")
    return result, body, [], {}


def _cmd_choose(p: dict[str, object]) -> _Outcome:
    from .heuristics import CueOrder, DiscriminationRule, RuleMode, one_reason_choose

    common = ("a", "b", "delta", "mode")
    if p["profiles"]:
        _mode(p, ("profiles", "cue_order"), common, unused="choose --profiles does not use {}")
    elif p["corpus"] and p["candidates"]:
        _mode(p, ("corpus", "candidates", "cue_order"), ("p", *common))
    else:
        raise ValueError("choose needs --profiles FILE, or --corpus plus --candidates")
    if (p["a"] is None) != (p["b"] is None):
        raise ValueError("choose takes both --a and --b, or neither; missing "
                         + ("--a" if p["a"] is None else "--b"))
    if p["profiles"]:
        from .tables import read_profiles_table

        profiles = read_profiles_table(p["profiles"])
    else:  # raw publication files only carry the highly-cited indicator
        profiles = _score_highly_cited(p)
    by_id = {prof.id: prof for prof in profiles}
    a_id, b_id = p["a"], p["b"]
    if a_id is None and b_id is None:
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
        "trace": [s._asdict() for s in trace.steps],
    }
    body = [f"a={a_id} b={b_id}", f"decision: {decision.value}", trace.record()]
    return result, body, [], {}


def _make_strategies(names: tuple[str, ...], p: Mapping[str, object]) -> list:
    from .ecology import STRATEGY_FACTORIES, TakeTheBestStrategy
    from .heuristics import DiscriminationRule, RuleMode

    strategies = []
    for name in names:
        factory = STRATEGY_FACTORIES.get(name)
        if factory is None:
            known = ", ".join(sorted(STRATEGY_FACTORIES))
            raise ValueError(f"unknown strategy {name!r}; known strategies: {known}")
        strategies.append(TakeTheBestStrategy(DiscriminationRule(p["delta"], RuleMode(p["mode"])))
                          if factory is TakeTheBestStrategy else factory())
    return strategies


def _cmd_bench(p: dict[str, object]) -> _Outcome:
    from .heuristics import WeightVector

    names = _names(p["strategies"])
    # of the strategies, only take-the-best reads the discrimination rule
    common = ("strategies", "train_fraction", "reps", "seed",
              *(("delta", "mode") if "take_the_best" in names else ()))
    if p["environment"]:
        _mode(p, ("environment",), common, unused="bench --environment does not use {}")
        from .tables import read_environment

        env = read_environment(p["environment"])
    elif p["gen"] == "binary":
        _mode(p, ("gen", "weights"), ("n_objects", *common), missing="--gen binary needs {}",
              unused="--gen binary does not use {}")
        _load("generate_binary_environment")
        weights = WeightVector(_parse_name_values(p["weights"], "weights"))
        env = generate_binary_environment(weights, p["n_objects"], p["seed"])
    elif p["gen"] == "gaussian":
        _mode(p, ("gen", "targets"), ("n_objects", *common), missing="--gen gaussian needs {}",
              unused="--gen gaussian does not use {}")
        from .ecology import generate_gaussian_environment

        targets = _parse_name_values(p["targets"], "targets")
        env = generate_gaussian_environment(targets, p["n_objects"], p["seed"])
    else:
        raise ValueError("bench needs --environment FILE or --gen binary|gaussian")
    if not names:
        raise ValueError(f"strategy list is empty: {p['strategies']!r}")
    from .ecology import SplitConfig

    _load("run_benchmark")
    strategies = _make_strategies(names, p)
    split = SplitConfig(p["train_fraction"], p["reps"], p["seed"])
    report = run_benchmark(env, strategies, split)
    result = {
        "n_objects": len(env),
        "cues": list(env.cue_names),
        "repetitions": split.repetitions,
        "train_fraction": split.train_fraction,
        # wall time is a diagnostic: it would break byte-identical report bodies
        "strategies": [{k: v for k, v in r._asdict().items() if k != "wall_time"}
                       for r in report.results],
    }
    body = [
        f"{len(env)} objects, cues: {', '.join(env.cue_names)}, "
        f"{split.repetitions} repetitions at train fraction {split.train_fraction:g}"
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
    return result, body, diagnostics, {}


def _cmd_career(p: dict[str, object]) -> _Outcome:
    planted = None
    detect = ("min_streak_len", "penalty_per_param")
    if p["impacts"]:
        _mode(p, ("impacts",), detect, unused="career --impacts detects only and does not use {}")
        _load("read_career")
        seq = read_career(p["impacts"])
    else:
        _mode(p, ("length", "baseline_mean", "multiplier", "streak_len"),
              ("noise_sigma", "save_career", "seed", *detect),
              missing="career generation needs {} (or --impacts FILE to detect)")
        from .careers import generate_career

        seq, planted = generate_career(
            length=p["length"],
            baseline_mean=p["baseline_mean"],
            streak_multiplier=p["multiplier"],
            streak_len_range=_parse_streak_len(p["streak_len"]),
            noise_sigma=p["noise_sigma"],
            seed=p["seed"],
        )
    _load("detect_hot_streak", "streak_adjusted_summary")
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
    saves = {}
    if p["save_career"]:
        from .tables import write_career

        saves[p["save_career"]] = lambda temp: write_career(seq, temp)
    return result, body, [], saves


def _cmd_workload(p: dict[str, object]) -> _Outcome:
    _mode(p, ("papers", "panel_size", "working_days"), ("reviews_per_paper",))
    query = WorkloadQuery(
        papers=p["papers"],
        reviews_per_paper=p["reviews_per_paper"],
        panel_size=p["panel_size"],
        working_days=p["working_days"],
    )
    rate = workload(query)
    result = {**query._asdict(), "reviews_per_member_per_day": rate}
    body = [f"reviews per member per day: {rate:.4f}"]
    return result, body, [], {}


_HANDLERS = {
    "screen": _cmd_screen,
    "choose": _cmd_choose,
    "bench": _cmd_bench,
    "career": _cmd_career,
    "workload": _cmd_workload,
}


_META_KEYS = ("command", "out", "format", "config")

# the files a command reads; no file it writes may be one of them or another it writes
_READ_FILES = ("corpus", "candidates", "profiles", "environment", "impacts", "config")


def _targets(args: argparse.Namespace) -> dict[Path, Path]:
    """The files the run writes, --out, its companion and --save-career, as typed ->
    the path that gets the bytes: a symlink's target for a symlink. Each must name no
    directory, hold nothing or a regular file (or a symlink to one), be in a directory
    that exists, and be no file the run reads nor another file it writes."""
    out, save = args.out, getattr(args, "save_career", None)
    companion = out and out + (".txt" if args.format == "machine" else ".json")
    writes = [target for target in (
        (out, f"--out {out}", f"--out {out} would overwrite", ""),
        (companion, f"the companion {companion} of --out {out}",
         f"--out {out} would write its companion over", f"its companion {companion}"),
        (save, f"--save-career {save}", f"--save-career {save} would overwrite",
         f"the --save-career file {save}")) if target[0]]
    kept = [(path, f"the --{key} file {path}") for key in _READ_FILES
            if (path := getattr(args, key, None))]
    resolved = {}
    for at, (name, who, claim, _) in enumerate(writes):
        if os.path.basename(name) in ("", ".", "..") or os.path.isdir(name):
            raise IsADirectoryError(errno.EISDIR, "Is a directory", name)
        if os.path.lexists(name) and not os.path.isfile(name):  # a FIFO, a device, a bad link
            raise ValueError(f"{who} is not a regular file")
        if not os.path.isdir(os.path.dirname(name) or "."):
            raise FileNotFoundError(errno.ENOENT, "No such file or directory", name)
        resolved[name] = os.path.realpath(name)
        for other, victim in kept + [(later, as_kept) for later, _, _, as_kept in writes[at + 1:]]:
            try:
                same = os.path.samefile(name, other)
            except OSError:  # one of the two does not exist (yet)
                same = resolved[name] == os.path.realpath(other)
            if same:
                raise ValueError(f"{claim} {victim}")
    return {Path(name): Path(path) for name, path in resolved.items()}


def _write_files(writers: dict[Path, Callable[[Path], object]]) -> None:
    """Write each file to a temp file beside it, then move them into place in
    order, so a failed write leaves none of them behind."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in writers}
    try:
        for path, write in writers.items():
            write(temps[path])
        for path, temp in temps.items():
            os.replace(temp, path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _typed(value: object) -> str:
    """A config value as it is typed: a list comma-joined, anything else by str."""
    return ",".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)


def _echo(value: object) -> str:
    """A config value as the table report's config line shows it: as typed,
    quoted as shlex.quote quotes it, so that shlex.split gives the line's
    pairs back."""
    import shlex  # a table report's, not start-up's

    return shlex.quote(_typed(value))


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command and emit its report; returns the exit status."""
    # in declaration order, so that a check names flags as --help lists them
    params = {k: v for k, v in vars(args).items() if k not in _META_KEYS}
    for key, value in params.items():
        # the config line is one line, and a config file one pair a line
        if value is not None and any(c in _typed(value) for c in "\n\r"):
            raise ValueError(f"--{key.replace('_', '-')} {_typed(value)!r} holds a line break, "
                             f"which the report's config line cannot echo")
    targets = _targets(args)
    out, companion_path = list(targets)[:2] if args.out else (None, None)
    # A command builds tens of thousands of long-lived, GC-tracked objects
    # (one Publication per screen row) and makes no reference cycles per
    # row, so the cyclic collector's sweeps over them would find nothing.
    # It is paused for the command, and the caller's setting comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        result, body_lines, diagnostics, saves = _HANDLERS[args.command](params)
    finally:
        if collecting:
            gc.enable()
    # the master seed is reported on its own: the one a drawing mode read, None elsewhere
    seed = params.pop("seed")
    payload = {
        "tool": "frugaleval",
        "version": __version__,
        "command": args.command,
        "seed": seed,
        "config": params,
        "result": result,
    }
    try:
        machine = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        # JSON has no nan or infinity; a result that overflowed is not a report
        raise ValueError(f"{args.command} result is not finite; no report written") from None
    header = [
        f"# frugaleval {__version__}",
        f"# command: {args.command}",
        f"# seed: {seed}",
        # only the flags the run read: with the seed line, the line replays the run
        "# config: " + " ".join(f"{k}={_echo(v)}" for k, v in sorted(params.items())
                                if v is not None),
    ]
    table = "\n".join(header + body_lines) + "\n"
    primary, companion = (machine, table) if args.format == "machine" else (table, machine)
    # files the command saves land once its report has rendered; then the
    # companion lands before the report, so a primary report never stands alone
    writers = {targets[Path(name)]: write for name, write in saves.items()}
    if out:
        writers[targets[companion_path]] = lambda temp: temp.write_text(companion, encoding="utf-8")
        writers[targets[out]] = lambda temp: temp.write_text(primary, encoding="utf-8")
    _write_files(writers)
    # after the write, so that a failed write prints only its error
    for line in diagnostics:
        print(line, file=sys.stderr)
    if out:
        print(f"report written to {out} (companion: {companion_path})", file=sys.stderr)
    else:
        sys.stdout.write(primary)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed, default=None,
                     help="master seed of a mode that draws; all randomness derives from it "
                          f"(default: {_DEFAULTS['seed']})")
    sub.add_argument("--out", default=None, help="report file (companion written in the other format)")
    sub.add_argument("--format", choices=("table", "machine"), default="table",
                     help="primary report format (default: %(default)s)")
    sub.add_argument("--config", default=None,
                     help="key = value file supplying defaults for any flag of this command")


def _add_publication_inputs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--corpus", default=None,
                     help="reference corpus CSV: id, year, category, citations, doc_type")
    sub.add_argument("--candidates", default=None,
                     help="candidate publications CSV: corpus columns plus candidate_id, validated")
    sub.add_argument("--p", type=float, default=None,
                     help=f"highly-cited share within (category, year) group "
                          f"(default: {_DEFAULTS['p']})")


def _add_rule(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delta", type=float, default=None,
                     help="discrimination threshold; 0 is pure lexicographic "
                          f"(default: {_DEFAULTS['delta']})")
    sub.add_argument("--mode", choices=("absolute", "relative"), default=None,
                     help="how score differences are compared against delta "
                          f"(default: {_DEFAULTS['mode']})")


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
    bench.add_argument("--n-objects", dest="n_objects", type=int, default=None,
                       help=f"generated environment size (default: {_DEFAULTS['n_objects']})")
    bench.add_argument("--strategies", default="take_the_best,minimalist,tallying,linear",
                       help="comma-separated strategy names")
    bench.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.5,
                       help="share of objects in the training split (default: %(default)s)")
    bench.add_argument("--reps", type=int, default=20,
                       help="number of seeded train/test repetitions (default: %(default)s)")
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
    career.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None,
                        help="log-domain noise sigma for generated impacts "
                             f"(default: {_DEFAULTS['noise_sigma']})")
    career.add_argument("--min-streak-len", dest="min_streak_len", type=int, default=None,
                        help="shortest interval detection may report "
                             f"(default: {_DEFAULTS['min_streak_len']})")
    career.add_argument("--penalty-per-param", dest="penalty_per_param", type=float, default=None,
                        help="score penalty per extra model parameter (default: 2*ln(n))")
    career.add_argument("--save-career", dest="save_career", default=None,
                        help="write the generated career to this CSV")
    _add_common(career)

    wl = subs.add_parser("workload", help="panel review-load arithmetic")
    wl.add_argument("--papers", type=int, default=None, help="papers to assess")
    wl.add_argument("--reviews-per-paper", dest="reviews_per_paper", type=int, default=2,
                    help="reviews each paper receives (default: %(default)s)")
    wl.add_argument("--panel-size", dest="panel_size", type=int, default=None,
                    help="number of panel members")
    wl.add_argument("--working-days", dest="working_days", type=int, default=None,
                    help="working days available")
    _add_common(wl)

    return parser


def _unquote(value: str) -> str:
    """A config value as the text that shlex.quote quotes to exactly this
    value, as the table report's config line echoes it; any other value raw."""
    if not value.startswith("'"):  # shlex.quote returns a text it need not quote as it is
        return value
    import shlex

    try:
        [text] = shlex.split(value)
    except ValueError:  # no closing quote, or not one word
        return value
    return text if shlex.quote(text) == value else value


def _config_flags(path: str, known: set[str]) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags; a key
    is a flag name with dashes or underscores, must be in `known` and may
    appear once. A value quoted as the table report's config line quotes it
    reads as the text it quotes, so that line, one pair a line, replays the run."""
    data = Path(path).read_bytes()  # once: a pipe gives its bytes only once
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        from .tables import undecodable_byte

        raise ValueError(f"{path}: {undecodable_byte(data)}") from None
    flags, first_line = [], {}
    # every line ends "\n", as the CSV readers count lines; splitlines would
    # also split a quoted value at a form feed or another of the breaks it knows
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        if name in first_line:
            raise ValueError(f"{path}: line {lineno}: key {key} repeats line {first_line[name]}")
        first_line[name] = lineno
        flags.append(f"--{name.replace('_', '-')}={_unquote(value)}")
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


def process_main() -> NoReturn:
    """Run main() as the whole process, the entry point of `python -m
    frugaleval.cli` and of the `frugaleval` script: flush stdout and stderr,
    then end with main's exit status at once, without interpreter teardown.

    Teardown would only free memory the process is about to give back:
    main() leaves no file open (every output is closed before it moves into
    place), and neither the package nor numpy registers an atexit callback.
    A flush that fails after a successful run, for instance into a pipe its
    reader closed, makes the status 1. An exception that escapes main()
    unwinds as usual, with its traceback.
    """
    code, message = main(), ""
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == 0:  # a run that failed has said why already
            code, message = 1, f"error: {exc}\n"
    try:
        sys.stderr.write(message)
        sys.stderr.flush()
    except OSError:
        code = code or 1
    os._exit(code)


if __name__ == "__main__":
    process_main()
