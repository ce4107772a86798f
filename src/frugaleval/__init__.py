"""Frugal screening and choice heuristics for desk-scale research evaluation."""

import types

__version__ = "0.1.0"

from .indicators import (
    HIGHLY_CITED,
    CandidateProfile,
    DocType,
    Publication,
    ReferenceCorpus,
    Validation,
    count_highly_cited,
    finalize_publication_list,
    is_highly_cited,
)
from .heuristics import (
    ConsiderationSet,
    CueOrder,
    Decision,
    DecisionTrace,
    DiscriminationRule,
    RuleMode,
    StoppingReason,
    TraceStep,
    WeightVector,
    one_cue_select,
    one_reason_choose,
    recognition_accuracy,
    recognition_choose,
    tallying_choose,
    weighted_linear_choose,
)
from .ecology import (
    BenchmarkReport,
    Environment,
    RankDeficientError,
    SplitConfig,
    StrategyResult,
    cue_validity,
    fit_linear_weights,
    generate_binary_environment,
    generate_gaussian_environment,
    less_is_more_curve,
    run_benchmark,
    validity_order,
)
from .careers import (
    CareerSequence,
    HotStreakFit,
    detect_hot_streak,
    generate_career,
    streak_adjusted_summary,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
