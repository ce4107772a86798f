"""Frugal screening and choice heuristics for desk-scale research evaluation."""

__version__ = "0.1.0"

from .indicators import (
    HIGHLY_CITED,
    CandidateProfile,
    Direction,
    DocType,
    IndicatorDefinition,
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
    Provenance,
    RuleMode,
    StoppingReason,
    TraceStep,
    WeightVector,
    cue_validity,
    minimalist_choose,
    one_cue_select,
    one_reason_choose,
    recognition_accuracy,
    recognition_choose,
    recognition_choose_pairs,
    take_the_best_choose,
    tallying_choose,
    validity_order,
    weighted_linear_choose,
)
from .ecology import (
    BenchmarkReport,
    Environment,
    EnvironmentObject,
    RankDeficientError,
    SplitConfig,
    StrategyResult,
    fit_linear_weights,
    generate_binary_environment,
    generate_gaussian_environment,
    less_is_more_curve,
    run_benchmark,
)
from .careers import (
    CareerSequence,
    HotStreakFit,
    detect_hot_streak,
    generate_career,
    streak_adjusted_summary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
