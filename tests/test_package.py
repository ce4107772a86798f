import math

import pytest
from conftest import run_python

import frugaleval
from frugaleval import (
    CandidateProfile,
    CareerSequence,
    CueOrder,
    DecisionTrace,
    DiscriminationRule,
    Publication,
    SplitConfig,
    TraceStep,
    WeightVector,
)
from frugaleval.cli import WorkloadQuery

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
    "recognition_choose", "run_benchmark",
    "streak_adjusted_summary", "tallying_choose", "validity_order", "weighted_linear_choose",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(frugaleval.__all__) == EXPORTS
    assert sorted(frugaleval._EXPORTS) == EXPORTS  # the table the exports load from


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from frugaleval import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == EXPORTS


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        frugaleval.no_such_export


def test_the_package_loads_a_module_when_a_name_from_it_is_first_read(tmp_path):
    # in a fresh interpreter, which has loaded no module yet; dir() lists the
    # exports (__all__ is EXPORTS) before they load
    code = ("import sys\n"
            "import frugaleval\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('frugaleval'))\n"
            "print(loaded(), sorted(set(frugaleval.__all__) - set(dir(frugaleval))))\n"
            "print(frugaleval.careers.__name__, loaded())\n"
            "print(frugaleval.CueOrder.__module__, loaded())\n")
    proc = run_python(["-c", code], tmp_path, text=True)
    assert proc.returncode == 0, proc.stderr
    careers = ["frugaleval", "frugaleval._pairs", "frugaleval._records", "frugaleval.careers"]
    heuristics = sorted([*careers, "frugaleval.heuristics", "frugaleval.indicators"])
    assert proc.stdout.splitlines() == [
        "['frugaleval'] []",
        f"frugaleval.careers {careers}",
        f"frugaleval.heuristics {heuristics}",
    ]


def trace_steps(*hits):
    return [TraceStep(cue, 1.0, 2.0, hit) for cue, hit in zip("abc", hits)]


# each record that checks its fields: an instance, a field change the
# constructor refuses and a field change it normalises (or, with nothing to
# normalise, accepts)
CHECKED_RECORDS = {
    "CueOrder": (CueOrder(["a", "b"]), {"cues": ["a", "a"]}, {"cues": ["b", "a"]}),
    "DiscriminationRule": (DiscriminationRule(), {"delta": -1.0}, {"delta": 0.5}),
    "DecisionTrace": (DecisionTrace(trace_steps(False)), {"steps": trace_steps(True, True)},
                      {"steps": trace_steps(False, True)}),
    "WeightVector": (WeightVector({"a": 1.0}), {"weights": {"a": math.nan}},
                     {"weights": {"a": 2.0, "b": 1.0}}),
    "CareerSequence": (CareerSequence([1.0, 2.0]), {"impacts": [1, -1]}, {"impacts": [3, 4]}),
    "CandidateProfile": (CandidateProfile("c", indicators={"h": 1.0}),
                         {"indicators": {"h": math.inf}},
                         {"publications": [Publication("p", 2020, "phys", 3)],
                          "indicators": {"h": 2.0}}),
    "SplitConfig": (SplitConfig(0.5, 3, 7), {"repetitions": 0}, {"train_fraction": 0.25}),
    "WorkloadQuery": (WorkloadQuery(10, 3, 5, 2), {"panel_size": 0}, {"papers": 20}),
}


@pytest.mark.parametrize("name", sorted(CHECKED_RECORDS))
def test_replace_checks_and_normalises_as_the_constructor_does(name):
    record, bad, good = CHECKED_RECORDS[name]
    cls = type(record)
    with pytest.raises(ValueError) as built:
        cls(**{**record._asdict(), **bad})
    with pytest.raises(ValueError) as replaced:
        record._replace(**bad)
    assert str(replaced.value) == str(built.value)
    expected = cls(**{**record._asdict(), **good})
    changed = record._replace(**good)
    assert type(changed) is cls
    assert changed == expected
    # by name: a WeightVector iterates over its cue names, not its field
    assert ([type(getattr(changed, f)) for f in cls._fields]
            == [type(getattr(expected, f)) for f in cls._fields])
