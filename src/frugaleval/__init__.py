"""Frugal screening and choice heuristics for desk-scale research evaluation.

The exports load on first use (PEP 562): `import frugaleval` runs no
submodule, and the first read of an export, or of the name of the module
that defines one, imports that module.
"""

__version__ = "0.1.0"

# each export by the module that defines it
_EXPORTS = {
    "HIGHLY_CITED": "indicators",
    "CandidateProfile": "indicators",
    "DocType": "indicators",
    "Publication": "indicators",
    "ReferenceCorpus": "indicators",
    "Validation": "indicators",
    "count_highly_cited": "indicators",
    "finalize_publication_list": "indicators",
    "is_highly_cited": "indicators",
    "ConsiderationSet": "heuristics",
    "CueOrder": "heuristics",
    "Decision": "heuristics",
    "DecisionTrace": "heuristics",
    "DiscriminationRule": "heuristics",
    "RuleMode": "heuristics",
    "StoppingReason": "heuristics",
    "TraceStep": "heuristics",
    "WeightVector": "heuristics",
    "one_cue_select": "heuristics",
    "one_reason_choose": "heuristics",
    "recognition_accuracy": "heuristics",
    "recognition_choose": "heuristics",
    "tallying_choose": "heuristics",
    "weighted_linear_choose": "heuristics",
    "BenchmarkReport": "ecology",
    "Environment": "ecology",
    "RankDeficientError": "ecology",
    "SplitConfig": "ecology",
    "StrategyResult": "ecology",
    "cue_validity": "ecology",
    "fit_linear_weights": "ecology",
    "generate_binary_environment": "ecology",
    "generate_gaussian_environment": "ecology",
    "less_is_more_curve": "ecology",
    "run_benchmark": "ecology",
    "validity_order": "ecology",
    "CareerSequence": "careers",
    "HotStreakFit": "careers",
    "detect_hot_streak": "careers",
    "generate_career": "careers",
    "streak_adjusted_summary": "careers",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    home = _EXPORTS.get(name, name)
    # Import statements, which `-X importtime` logs, where importlib.import_module
    # is not logged. A first import of a submodule binds it on this package, and
    # `from . import` would ask this function for it again.
    if home == "indicators":
        import frugaleval.indicators
    elif home == "heuristics":
        import frugaleval.heuristics
    elif home == "ecology":
        import frugaleval.ecology
    elif home == "careers":
        import frugaleval.careers
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[home]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_EXPORTS.values()})
