"""In-process tracing of frugaleval from the outside.

The tracer wraps public functions at each module boundary, in the module
where the caller looks the name up (the package imports functions by name,
so patching the defining module alone would miss most calls). Coarse calls
become spans with name, start, end and parent, kept in memory; per-pair
functions called hundreds of thousands of times only add to a call count
and a total time. Nothing under src/ is edited.

A layer is a frugaleval module: tables, indicators, heuristics, ecology,
careers, cli. A span name is `<layer>.<what>`.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

from workloads import intervals_scanned

STRATEGY_NAMES = ("take_the_best", "minimalist", "tallying", "linear_regression")

# (name, unit, better): every per-layer metric, reported on every workload
# (a layer a workload bypasses reports 0 there)
LAYER_METRICS = [
    ("tables.read_corpus_s", "s", "lower"),
    ("tables.read_candidates_s", "s", "lower"),
    ("tables.read_career_s", "s", "lower"),
    ("tables.rows_read", "count", "higher"),
    ("tables.self_s", "s", "lower"),
    ("indicators.corpus_build_s", "s", "lower"),
    ("indicators.count_highly_cited_s", "s", "lower"),
    ("indicators.corpus_groups", "count", "higher"),
    ("indicators.highly_cited_found", "count", "higher"),
    ("indicators.self_s", "s", "lower"),
    ("heuristics.one_cue_select_s", "s", "lower"),
    ("heuristics.selected", "count", "higher"),
    ("heuristics.one_reason_choose_calls", "count", "lower"),
    ("heuristics.one_reason_choose_s", "s", "lower"),
    ("heuristics.tallying_choose_calls", "count", "lower"),
    ("heuristics.tallying_choose_s", "s", "lower"),
    ("heuristics.weighted_linear_choose_calls", "count", "lower"),
    ("heuristics.weighted_linear_choose_s", "s", "lower"),
    ("heuristics.cues_inspected", "count", "lower"),
    ("heuristics.recognition_choose_calls", "count", "lower"),
    ("heuristics.recognition_choose_s", "s", "lower"),
    ("heuristics.self_s", "s", "lower"),
    *[(f"ecology.decide_s.{s}", "s", "lower") for s in STRATEGY_NAMES],
    *[(f"ecology.decide_us_per_decision.{s}", "us", "lower") for s in STRATEGY_NAMES],
    ("ecology.fit_s", "s", "lower"),
    ("ecology.split_s", "s", "lower"),
    ("ecology.decisions", "count", "higher"),
    ("ecology.undecided", "count", "lower"),
    ("ecology.linear_fits", "count", "lower"),
    ("ecology.linear_fallbacks", "count", "lower"),
    ("ecology.linear_fallback_ratio", "ratio", "lower"),
    ("ecology.less_is_more_s", "s", "lower"),
    ("ecology.self_s", "s", "lower"),
    ("careers.detect_calls", "count", "lower"),
    ("careers.detect_s", "s", "lower"),
    ("careers.intervals_scored", "count", "lower"),
    ("careers.summary_self_s", "s", "lower"),
    ("careers.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_coverage", "ratio", "higher"),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    counted: float = 0.0  # time of counted calls made directly inside this span

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    calls: Counter = field(default_factory=Counter)
    call_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)  # work counts that must repeat exactly
    decide: dict = field(default_factory=dict)  # strategy -> (decide wall time, decisions) as reported
    _open: list[int] = field(default_factory=list)

    def span(self, name: str, fn: Callable, on_result=None, on_error=None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = Span(name, 0.0, self._open[-1] if self._open else None)
            self.spans.append(record)
            self._open.append(index)
            record.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                record.end = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def counted(self, name: str, fn: Callable, on_result=None) -> Callable:
        # called up to a million times per run: locals only, no lookups on self
        clock, calls, call_s, spans, open_spans = (
            time.perf_counter, self.calls, self.call_s, self.spans, self._open)

        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            calls[name] += 1
            call_s[name] += elapsed
            if open_spans:
                spans[open_spans[-1]].counted += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus its child spans and counted calls."""
        own = [s.end - s.start - s.counted for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()
        by_name: defaultdict = defaultdict(float)
        self_of: defaultdict = defaultdict(float)
        duration: defaultdict = defaultdict(float)
        for s, t in zip(self.spans, own):
            by_name[s.name] += t
            self_of[s.layer] += t
            duration[s.name] += s.end - s.start
        for name, total in self.call_s.items():
            self_of[name.split(".", 1)[0]] += total
        c = self.counts
        fits = c["ecology.linear_fits"]
        metrics = {
            "tables.read_corpus_s": by_name["tables.read_corpus"],
            "tables.read_candidates_s": by_name["tables.read_candidates"],
            "tables.read_career_s": by_name["tables.read_career"],
            "indicators.corpus_build_s": duration["indicators.corpus_build"],
            "indicators.count_highly_cited_s": self.call_s["indicators.count_highly_cited"],
            "heuristics.one_cue_select_s": duration["heuristics.one_cue_select"],
            "ecology.fit_s": duration["ecology.fit"],
            "ecology.split_s": duration["ecology.split"],
            "ecology.less_is_more_s": duration["ecology.less_is_more_curve"],
            "ecology.linear_fallback_ratio": c["ecology.linear_fallbacks"] / fits if fits else 0.0,
            "careers.detect_s": duration["careers.detect_hot_streak"],
            "careers.summary_self_s": by_name["careers.streak_adjusted_summary"],
        }
        for fn in ("one_reason_choose", "tallying_choose", "weighted_linear_choose",
                   "recognition_choose"):
            metrics[f"heuristics.{fn}_calls"] = self.calls[f"heuristics.{fn}"]
            metrics[f"heuristics.{fn}_s"] = self.call_s[f"heuristics.{fn}"]
        for name, unit, _ in LAYER_METRICS:
            if unit == "count" and name not in metrics:
                metrics[name] = c[name]
        for layer in ("tables", "indicators", "heuristics", "ecology", "careers", "cli"):
            metrics[f"{layer}.self_s"] = self_of[layer]
        for s in STRATEGY_NAMES:
            wall, decisions = self.decide.get(s, (0.0, 0))
            metrics[f"ecology.decide_s.{s}"] = wall
            metrics[f"ecology.decide_us_per_decision.{s}"] = 1e6 * wall / decisions if decisions else 0.0
        return metrics

    def covered_s(self) -> float:
        """Time inside the cli spans that the other layers' spans and
        counted calls account for."""
        own = self.self_times()
        return sum(s.end - s.start - t for s, t in zip(self.spans, own) if s.layer == "cli")

    def dump(self) -> dict:
        """The spans (times relative to the first) and the per-call totals."""
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                       "parent": s.parent} for s in self.spans],
            "calls": {name: {"calls": n, "s": self.call_s[name]} for name, n in self.calls.items()},
        }

    def exact_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        counts.update({f"calls.{name}": n for name, n in self.calls.items()})
        return dict(sorted(counts.items()))


# --------------------------------------------------------------------------
# where each boundary is patched

def _instrument(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every traced boundary."""
    cli = importlib.import_module("frugaleval.cli")
    careers = importlib.import_module("frugaleval.careers")
    ecology = importlib.import_module("frugaleval.ecology")
    tables = importlib.import_module("frugaleval.tables")
    recognition = importlib.import_module("recognition_cmd")
    c = tracer.counts

    def add(key, amount):
        c[key] += amount

    def on_corpus(corpus, args, kwargs):
        add("tables.rows_read", len(corpus.publications))

    def on_candidates(profiles, args, kwargs):
        add("tables.rows_read", sum(len(p.publications) for p in profiles))

    def on_career(seq, args, kwargs):
        add("tables.rows_read", len(seq.impacts))

    def on_corpus_built(corpus, args, kwargs):
        add("indicators.corpus_groups", len(corpus.group_keys()))

    def on_selected(cset, args, kwargs):
        add("heuristics.selected", len(cset.selected))

    def on_report(report, args, kwargs):
        for r in report.results:
            undecided = round(r.undecided_rate * r.decisions)
            add("ecology.decisions", r.decisions)
            add("ecology.undecided", undecided)
            add(f"ecology.decisions.{r.name}", r.decisions)
            add(f"ecology.undecided.{r.name}", undecided)
            add(f"ecology.cues_inspected.{r.name}", round(r.frugality * r.decisions))
            tracer.decide[r.name] = (r.wall_time, r.decisions)

    original_detect = careers.detect_hot_streak

    def on_detect(fit, args, kwargs):
        bound = inspect.signature(original_detect).bind(*args, **kwargs)
        bound.apply_defaults()
        add("careers.detect_calls", 1)
        add("careers.intervals_scored",
            intervals_scanned(len(bound.arguments["seq"].impacts), bound.arguments["min_len"]))

    def on_linear_fit(weights, args, kwargs):
        add("ecology.linear_fits", 1)

    def on_linear_error(exc):
        # the strategy catches this and falls back to minimum-norm weights
        add("ecology.linear_fits", 1)
        if isinstance(exc, ecology.RankDeficientError):
            add("ecology.linear_fallbacks", 1)

    def on_inspected(result):
        add("heuristics.cues_inspected", len(result[1].steps))

    def on_found(count):
        add("indicators.highly_cited_found", count)

    def span(owner, attr, name, on_result=None, on_error=None):
        return owner, attr, tracer.span(name, getattr(owner, attr), on_result, on_error)

    def counted(owner, attr, name, on_result=None):
        return owner, attr, tracer.counted(name, getattr(owner, attr), on_result)

    return [
        span(cli, "main", "cli.main"),
        span(recognition, "main", "cli.main"),
        span(cli, "read_corpus", "tables.read_corpus", on_corpus),
        span(cli, "read_candidates", "tables.read_candidates", on_candidates),
        span(cli, "read_career", "tables.read_career", on_career),
        span(tables, "ReferenceCorpus", "indicators.corpus_build", on_corpus_built),
        counted(cli, "count_highly_cited", "indicators.count_highly_cited", on_found),
        span(cli, "one_cue_select", "heuristics.one_cue_select", on_selected),
        span(cli, "generate_binary_environment", "ecology.generate_environment"),
        span(cli, "run_benchmark", "ecology.run_benchmark", on_report),
        span(ecology.Environment, "subset", "ecology.split"),
        span(ecology.Environment, "profiles", "ecology.split"),
        *(span(cls, "fit", "ecology.fit") for cls in dict.fromkeys(ecology.STRATEGY_FACTORIES.values())),
        span(ecology, "validity_order", "heuristics.validity_order"),
        span(ecology, "fit_linear_weights", "ecology.fit_linear_weights", on_linear_fit,
             on_linear_error),
        counted(ecology, "one_reason_choose", "heuristics.one_reason_choose", on_inspected),
        counted(ecology, "tallying_choose", "heuristics.tallying_choose"),
        counted(ecology, "weighted_linear_choose", "heuristics.weighted_linear_choose"),
        counted(ecology, "recognition_choose", "heuristics.recognition_choose"),
        span(recognition, "less_is_more_curve", "ecology.less_is_more_curve"),
        span(cli, "detect_hot_streak", "careers.detect_hot_streak", on_detect),
        span(careers, "detect_hot_streak", "careers.detect_hot_streak", on_detect),
        span(cli, "streak_adjusted_summary", "careers.streak_adjusted_summary"),
    ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers; restore the originals on exit."""
    patches = _instrument(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
