import frugaleval

# the public surface: adding or deleting an export shows up as a diff here
EXPORTS = [
    "BenchmarkReport", "CandidateProfile", "CareerSequence", "ConsiderationSet", "CueOrder",
    "Decision", "DecisionTrace", "DiscriminationRule", "DocType", "Environment",
    "HIGHLY_CITED", "HotStreakFit", "Publication", "RankDeficientError", "ReferenceCorpus",
    "RuleMode", "SplitConfig", "StoppingReason", "StrategyResult", "TraceStep", "Validation",
    "WeightVector", "count_highly_cited", "cue_validity", "detect_hot_streak",
    "finalize_publication_list", "fit_linear_weights", "generate_binary_environment",
    "generate_career", "generate_gaussian_environment", "is_highly_cited",
    "less_is_more_curve", "one_cue_select", "one_reason_choose", "recognition_accuracy",
    "recognition_choose", "recognition_choose_pairs", "run_benchmark",
    "streak_adjusted_summary", "tallying_choose", "validity_order", "weighted_linear_choose",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(frugaleval.__all__) == EXPORTS

