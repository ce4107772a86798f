import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import itertools
import json
import os
import re
import stat
import tempfile
from pathlib import Path

import pytest
from conftest import (
    MODES,
    _write_csv,
    as_flags,
    input_modes,
    mode_argv,
    record_modes,
    write_mode_inputs,
)
from hypothesis import example, given, settings, strategies as st

from frugaleval import careers, cli, ecology, indicators
from frugaleval.cli import WorkloadQuery, main, workload
from frugaleval.heuristics import DiscriminationRule
from frugaleval.tables import read_career, write_career

# the career that GENERATE_CAREER (seed 0) saves with --save-career
SAVED_CAREER_SHA256 = "c2c0c665344dbd9ec9d892e0ad52bae67c898c30759d601e8e54d58112028331"
GENERATE_CAREER = ["career", "--length", "30", "--baseline-mean", "5", "--multiplier", "10",
                   "--streak-len", "4"]

CORPUS_HEADER = "id,year,category,citations,doc_type\n"
CANDIDATE_HEADER = "id,year,category,citations,doc_type,candidate_id,validated\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def environment_file(path, n_objects=6, cues=("c1",)):
    """Object k has criterion k, and bit i of k as cue i."""
    _write_csv(path, ["id", "criterion", *cues],
               [[f"o{k}", k, *(k >> i & 1 for i in range(len(cues)))] for k in range(n_objects)])
    return str(path)


def corpus_file(tmp_path, citations=range(10)):
    rows = "".join(f"ref{i},2020,phys,{c},article\n" for i, c in enumerate(citations))
    return write(tmp_path / "corpus.csv", CORPUS_HEADER + rows)


def candidates_file(tmp_path, counts):
    """One candidate per (name, highly cited count); top papers cite 9 in a
    0..9 reference group, fillers cite 5."""
    rows = []
    k = 0
    for name, top in counts.items():
        for _ in range(top):
            rows.append(f"p{k},2020,phys,9,article,{name},included")
            k += 1
        rows.append(f"p{k},2020,phys,5,article,{name},included")
        k += 1
    return write(tmp_path / "candidates.csv", CANDIDATE_HEADER + "".join(f"{r}\n" for r in rows))


def error_of(capsys, argv):
    """The stderr of a run that fails: exit 1, with nothing on stdout."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (1, ""), err
    return err


class TestWorkload:
    def test_panel_figure(self):
        assert workload(WorkloadQuery(6446, 2, 20, 301)) == pytest.approx(2.14, abs=0.01)

    def test_plain_arithmetic(self):
        assert workload(WorkloadQuery(100, 1, 10, 10)) == 1.0
        assert workload(WorkloadQuery(1, 1, 1, 1)) == 1.0

    @pytest.mark.parametrize("field", ["papers", "reviews_per_paper", "panel_size", "working_days"])
    def test_non_positive_inputs_rejected(self, field):
        kwargs = dict(papers=10, reviews_per_paper=1, panel_size=2, working_days=5)
        kwargs[field] = 0
        with pytest.raises(ValueError, match=field):
            WorkloadQuery(**kwargs)


class TestScreenCommand:
    def test_tie_expansion_fixture(self, tmp_path, capsys):
        corpus = corpus_file(tmp_path)
        cands = candidates_file(tmp_path, {"A": 4, "B": 3, "C": 3, "D": 1, "E": 0})
        code = main([
            "screen", "--corpus", corpus, "--candidates", cands,
            "--quota", "0.4", "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert [row["id"] for row in payload["result"]["selected"]] == ["A", "B", "C"]
        assert payload["result"]["cutoff_value"] == 3.0
        assert payload["config"]["p"] == 0.1
        # screening draws nothing, so the report holds no seed
        assert payload["seed"] is None
        assert payload["version"]

    def test_inputs_not_mutated(self, tmp_path, capsys):
        corpus = corpus_file(tmp_path)
        cands = candidates_file(tmp_path, {"A": 1, "B": 0})
        digests = [hashlib.sha256(open(f, "rb").read()).hexdigest() for f in (corpus, cands)]
        main(["screen", "--corpus", corpus, "--candidates", cands, "--quota", "0.5"])
        capsys.readouterr()
        after = [hashlib.sha256(open(f, "rb").read()).hexdigest() for f in (corpus, cands)]
        assert digests == after

    def test_missing_file_fails_with_diagnostic(self, tmp_path, capsys):
        assert "error:" in error_of(capsys, [
            "screen", "--corpus", str(tmp_path / "nope.csv"),
            "--candidates", str(tmp_path / "nope2.csv"), "--quota", "0.5",
        ])

    @pytest.mark.parametrize("command", [
        ["screen", "--quota", "0.5"],
        ["choose", "--cue-order", "highly_cited_papers"],
    ])
    def test_pending_publications_name_the_candidates_file(self, tmp_path, capsys, command):
        corpus = corpus_file(tmp_path)
        cands = write(tmp_path / "candidates.csv", CANDIDATE_HEADER
                      + "p0,2020,phys,9,article,cand00,pending\n"
                      + "p1,2020,phys,5,article,cand00,pending\n"
                      + "p2,2020,phys,9,article,cand01,included\n")
        assert error_of(capsys, [*command, "--corpus", corpus, "--candidates", cands]) == (
            f"error: {cands}: profile 'cand00' has pending publications: 'p0', 'p1'\n")

    @pytest.mark.parametrize("quota", ["0", "1.5", "-0.2"])
    def test_quota_outside_unit_interval_names_the_quota(self, tmp_path, capsys, quota):
        corpus = corpus_file(tmp_path)
        cands = candidates_file(tmp_path, {"alice": 1, "bob": 0})
        argv = ["screen", "--corpus", corpus, "--candidates", cands, "--quota", quota]
        assert error_of(capsys, argv) == f"error: quota must be in (0, 1], got {float(quota)}\n"

    @pytest.mark.parametrize("command", [
        ["screen", "--quota", "0.5"],
        ["choose", "--cue-order", "highly_cited_papers", "--a", "cand00", "--b", "cand01"],
    ])
    @pytest.mark.parametrize("p", ["0", "1.5"])
    def test_p_outside_unit_interval_rejected_without_ranked_publications(
            self, tmp_path, capsys, command, p):
        # no publication is ranked: one is excluded, the other is neither article nor review
        corpus = corpus_file(tmp_path)
        cands = write(tmp_path / "candidates.csv", CANDIDATE_HEADER
                      + "p0,2020,phys,9,article,cand00,excluded\n"
                      + "p1,2020,phys,5,other,cand01,included\n")
        argv = [*command, "--corpus", corpus, "--candidates", cands, "--p", p]
        assert error_of(capsys, argv) == f"error: p must be in (0, 1), got {float(p)}\n"

    def test_missing_corpus_group_names_candidate_publication_and_group(self, tmp_path, capsys):
        corpus = corpus_file(tmp_path)
        cands = write(tmp_path / "candidates.csv", CANDIDATE_HEADER
                      + "p0,2020,phys,9,article,cand00,included\n"
                      + "p1,2019,chem,4,review,cand01,included\n")
        argv = ["screen", "--corpus", corpus, "--candidates", cands, "--quota", "0.5"]
        assert error_of(capsys, argv) == (
            f"error: {cands}: profile 'cand01', publication 'p1': reference "
            "corpus has no group for category='chem', year=2019\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_piped_candidates_name_a_repeated_publication(self, tmp_path, capsys):
        # the repeat is named in a second read, which sees the pipe's bytes again
        read_end, write_end = os.pipe()
        os.write(write_end, (CANDIDATE_HEADER + "c1,2020,phys,9,article,A,included\n"
                             + "c1,2020,phys,1,article,A,included\n").encode())
        os.close(write_end)
        try:
            argv = ["screen", "--corpus", corpus_file(tmp_path),
                    "--candidates", f"/dev/fd/{read_end}", "--quota", "0.5"]
            assert error_of(capsys, argv) == (
                f"error: /dev/fd/{read_end}: line 3: (candidate_id, id) ('A', 'c1') "
                "repeats line 2\n")
        finally:
            os.close(read_end)


    @pytest.mark.parametrize("others, score", [(0, 0.0), (10, 1.0)])
    def test_other_corpus_rows_are_in_the_ranking_population(self, tmp_path, capsys, others,
                                                             score):
        # ten uncited `other` rows grow the group from 10 to 20, so q = ceil(0.1 * N)
        # goes from 1 to 2 and the threshold from 10 citations to 9
        corpus = corpus_file(tmp_path, citations=range(1, 11))
        with open(corpus, "a", encoding="utf-8") as f:
            f.writelines(f"other{k},2020,phys,0,other\n" for k in range(others))
        cands = write(tmp_path / "candidates.csv",
                      CANDIDATE_HEADER + "p0,2020,phys,9,article,A,included\n")
        assert main(["screen", "--corpus", corpus, "--candidates", cands, "--quota", "0.5",
                     "--format", "machine"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["selected"] == [{"id": "A", "score": score}]

    def test_header_only_candidates_has_nothing_to_screen(self, tmp_path, capsys):
        cands = write(tmp_path / "candidates.csv", CANDIDATE_HEADER)
        argv = ["screen", "--corpus", corpus_file(tmp_path), "--candidates", cands,
                "--quota", "0.5"]
        assert error_of(capsys, argv) == f"error: {cands}: no candidate rows to screen\n"


class TestChooseCommand:
    def test_identical_profiles_undecided(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "id,hcp,collab\nA,3,5\nB,3,5\n")
        code = main([
            "choose", "--profiles", path, "--cue-order", "hcp,collab",
            "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["result"]["decision"] == "undecided"
        assert payload["result"]["stopping_reason"] == "cues_exhausted"
        assert len(payload["result"]["trace"]) == 2

    def test_table_report_contains_trace_lines(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "id,hcp\nA,9\nB,1\n")
        code = main(["choose", "--profiles", path, "--cue-order", "hcp"])
        captured = capsys.readouterr()
        assert code == 0
        assert "decision: choose_a" in captured.out
        assert "discriminated" in captured.out

    def test_unknown_candidate_id_rejected(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "id,hcp\nA,9\nB,1\n")
        assert "Z" in error_of(capsys, [
            "choose", "--profiles", path, "--cue-order", "hcp", "--a", "A", "--b", "Z",
        ])

    def test_choose_from_corpus_and_candidates(self, tmp_path, capsys):
        corpus = corpus_file(tmp_path)
        cands = candidates_file(tmp_path, {"alice": 3, "bob": 1})
        code = main([
            "choose", "--corpus", corpus, "--candidates", cands,
            "--cue-order", "highly_cited_papers", "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["result"]["decision"] == "choose_a"
        assert payload["result"]["trace"][0]["score_a"] == 3.0

    def test_duplicate_profile_id_names_both_lines(self, tmp_path, capsys):
        # with the last A row silently winning, A=5 beat B=3 and the answer was choose_a
        path = write(tmp_path / "p.csv", "id,hcp\nA,1\nA,5\nB,3\n")
        argv = ["choose", "--profiles", path, "--cue-order", "hcp", "--a", "A", "--b", "B"]
        assert "line 3: id 'A' repeats line 2" in error_of(capsys, argv)

    @pytest.mark.parametrize("given, missing", [("--a", "--b"), ("--b", "--a")])
    def test_half_given_pair_rejected(self, tmp_path, capsys, given, missing):
        # the pair was once completed from the two-row table, reporting alice
        # against bianca while the config line recorded a=bianca
        path = write(tmp_path / "two.csv", "id,h\nalice,1\nbianca,2\n")
        argv = ["choose", "--profiles", path, given, "bianca", "--cue-order", "h"]
        assert error_of(capsys, argv) == (
            f"error: choose takes both --a and --b, or neither; missing {missing}\n")

    @pytest.mark.parametrize("flags, unused", [
        (["--corpus", "c.csv"], "--corpus"),
        (["--candidates", "d.csv"], "--candidates"),
        (["--corpus", "c.csv", "--candidates", "d.csv"], "--corpus, --candidates"),
    ])
    def test_profiles_with_publication_files_rejected(self, tmp_path, capsys, flags, unused):
        path = write(tmp_path / "two.csv", "id,h\nalice,1\nbianca,2\n")
        argv = ["choose", "--profiles", path, "--cue-order", "h", *flags]
        assert error_of(capsys, argv) == f"error: choose --profiles does not use {unused}\n"

    def test_choose_without_any_input_rejected(self, capsys):
        assert "--profiles" in error_of(capsys, ["choose", "--cue-order", "hcp"])

    def test_pair_required_unless_the_table_has_two_rows(self, tmp_path, capsys):
        path = write(tmp_path / "p.csv", "id,hcp\nA,3\nB,2\nC,1\n")
        assert error_of(capsys, ["choose", "--profiles", path, "--cue-order", "hcp"]) == (
            "error: --a/--b are required unless the profiles table has exactly two rows "
            "(got 3)\n")

    @pytest.mark.parametrize("text", ["id\n", "id,criterion\n", "id,criterion\nA,1\nB,2\n"],
                             ids=["header-only", "criterion-only", "with-rows"])
    def test_profiles_without_value_columns_fail_on_the_header(self, tmp_path, capsys, text):
        path = write(tmp_path / "p.csv", text)
        assert error_of(capsys, ["choose", "--profiles", path, "--cue-order", "hcp"]) == (
            f"error: {path}: profiles table has no value columns\n")


class TestBenchCommand:
    def test_generated_benchmark_runs(self, capsys):
        code = main([
            "bench", "--gen", "binary", "--weights", "c1=4,c2=2,c3=1",
            "--n-objects", "16", "--reps", "5", "--strategies", "take_the_best,linear",
            "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        names = [s["name"] for s in payload["result"]["strategies"]]
        assert names == ["take_the_best", "linear_regression"]
        assert "per 1000 decisions" in captured.err

    @pytest.mark.parametrize("gen, flag", [("binary", "--weights"), ("gaussian", "--targets")])
    def test_generator_without_its_flag_rejected(self, capsys, gen, flag):
        assert error_of(capsys, ["bench", "--gen", gen]) == f"error: --gen {gen} needs {flag}\n"

    def test_gaussian_generator_end_to_end(self, tmp_path, capsys):
        args = ["bench", "--gen", "gaussian", "--targets", "a=0.9,b=0.3", "--n-objects", "12",
                "--reps", "3", "--seed", "2"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([*args, "--format", "machine", "--out", str(out1)]) == 0
        assert main([*args, "--format", "machine", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        result = json.loads(out1.read_text())["result"]
        assert result["cues"] == ["a", "b"]
        # 3 repetitions of a 6-object test split: 3 * 15 pairs
        assert [(s["name"], s["decisions"]) for s in result["strategies"]] == [
            ("take_the_best", 45), ("minimalist", 45), ("tallying", 45),
            ("linear_regression", 45)]
        assert (tmp_path / "r1.json.txt").read_text().splitlines()[4] == (
            "12 objects, cues: a, b, 3 repetitions at train fraction 0.5")

    @pytest.mark.parametrize("flags, message", [
        (["--gen", "binary"], "bench --environment does not use --gen"),
        (["--weights", "a=1"], "bench --environment does not use --weights"),
        (["--gen", "gaussian", "--targets", "a=0.5"],
         "bench --environment does not use --gen, --targets"),
    ])
    def test_environment_with_generator_flags_rejected(self, tmp_path, capsys, flags, message):
        env = environment_file(tmp_path / "env.csv")
        assert error_of(capsys, ["bench", "--environment", env, *flags]) == f"error: {message}\n"

    @pytest.mark.parametrize("extra, message", [
        (["--delta", "0.9", "--mode", "relative"], "--gen binary does not use --delta, --mode"),
        (["--delta", "0"], "--gen binary does not use --delta"),
        (["--config", "mode = relative"], "--gen binary does not use --mode"),
    ], ids=["typed", "at-default", "config"])
    def test_rule_without_take_the_best_rejected(self, tmp_path, capsys, extra, message):
        # only take-the-best reads the rule; tallying,linear once ran and echoed delta=0.9
        if extra[0] == "--config":
            extra = ["--config", write(tmp_path / "run.cfg", extra[1] + "\n")]
        out = tmp_path / "report.txt"
        argv = ["bench", "--gen", "binary", "--weights", "c1=4", "--strategies", "tallying,linear",
                *extra, "--out", str(out)]
        assert error_of(capsys, argv) == f"error: {message}\n"
        assert not out.exists()

    def test_rule_from_config_without_take_the_best_on_an_environment_rejected(self, tmp_path,
                                                                             capsys):
        env = environment_file(tmp_path / "env.csv")
        cfg = write(tmp_path / "run.cfg", "strategies = minimalist\nmode = relative\n")
        assert error_of(capsys, ["bench", "--config", cfg, "--environment", env]) == (
            "error: bench --environment does not use --mode\n")

    @pytest.mark.parametrize("strategies", ["take_the_best", "tallying, take_the_best"])
    def test_rule_with_take_the_best_accepted(self, capsys, strategies):
        code = main(["bench", "--gen", "binary", "--weights", "c1=4,c2=2", "--n-objects", "10",
                     "--reps", "2", "--strategies", strategies, "--delta", "0.5",
                     "--mode", "relative", "--format", "machine"])
        captured = capsys.readouterr()
        assert code == 0
        config = json.loads(captured.out)["config"]
        assert (config["delta"], config["mode"]) == (0.5, "relative")

    def test_rule_without_take_the_best_echoes_none(self, capsys):
        argv = ["bench", "--gen", "binary", "--weights", "a=2,b=1",
                "--strategies", "tallying,linear"]
        assert main([*argv, "--format", "machine"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["delta"], config["mode"]) == (None, None)
        # the table's config line lists only the flags the run read
        assert main(argv) == 0
        line = capsys.readouterr().out.splitlines()[3].split()
        assert line[:2] == ["#", "config:"]
        assert {pair.partition("=")[0] for pair in line[2:]}.isdisjoint({"delta", "mode"})
        assert main([*argv, "--delta", "0.5"]) == 1
        assert capsys.readouterr().err == "error: --gen binary does not use --delta\n"

    @pytest.mark.parametrize("gen, flag", [("binary", "--targets"), ("gaussian", "--weights")])
    def test_the_other_generators_flag_rejected(self, capsys, gen, flag):
        argv = ["bench", "--gen", gen, "--weights", "a=1", "--targets", "a=0.5"]
        assert error_of(capsys, argv) == f"error: --gen {gen} does not use {flag}\n"

    def test_no_environment_source_rejected(self, capsys):
        assert error_of(capsys, ["bench"]) == (
            "error: bench needs --environment FILE or --gen binary|gaussian\n")

    @pytest.mark.parametrize("value, message", [
        ("a=1,b", "weights entry 'b' must look like name=value"),
        ("a=1,b=x", "weights value for 'b' is not a number: 'x'"),
        (" , ", "weights specification is empty"),
        ("a=inf", "weight for 'a' is not finite: inf"),
    ])
    def test_malformed_weights_named(self, capsys, value, message):
        argv = ["bench", "--gen", "binary", "--weights", value]
        assert error_of(capsys, argv) == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("id,criterion\n", "environment file has no value columns"),
        ("id,criterion\no0,1\no1,2\n", "environment file has no value columns"),
        ("id,criterion,c1\no0,1,0\n", "environment needs at least 2 objects, got 1"),
    ], ids=["header-only", "no-value-columns", "one-object"])
    def test_unusable_environment_file_rejected(self, tmp_path, capsys, text, message):
        path = write(tmp_path / "env.csv", text)
        assert error_of(capsys, ["bench", "--environment", path]) == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("flag, gen", [("--weights", "binary"), ("--targets", "gaussian")])
    def test_repeated_generator_name_rejected(self, capsys, flag, gen):
        # the last value once won silently: a=1,a=2 ran with a=2
        argv = ["bench", "--gen", gen, flag, "a=0.1,a=0.2,b=0.3"]
        assert error_of(capsys, argv) == f"error: {flag[2:]} entry 'a' is given more than once\n"

    @pytest.mark.parametrize("flag, gen", [("--weights", "binary"), ("--targets", "gaussian")])
    def test_empty_generator_name_rejected(self, capsys, flag, gen):
        argv = ["bench", "--gen", gen, flag, " =0.1,b=0.3", "--n-objects", "10"]
        assert error_of(capsys, argv) == f"error: {flag[2:]} entry '=0.1' has an empty name\n"

    @pytest.mark.parametrize("value", [",", " , ", ""])
    def test_empty_strategy_list_rejected(self, capsys, value):
        argv = ["bench", "--gen", "binary", "--weights", "c1=1", "--strategies", value]
        assert error_of(capsys, argv) == f"error: strategy list is empty: {value!r}\n"

    def test_repeated_strategy_rejected(self, capsys):
        assert error_of(capsys, ["bench", "--gen", "binary", "--weights", "c1=1",
                                 "--strategies", "take_the_best,take_the_best"]) == (
            "error: strategy names must be unique, got ['take_the_best', 'take_the_best']\n")

    def test_zero_repetitions_rejected(self, capsys):
        argv = ["bench", "--gen", "binary", "--weights", "c1=1", "--reps", "0"]
        assert error_of(capsys, argv) == "error: repetitions must be >= 1, got 0\n"

    def test_one_generated_object_rejected(self, capsys):
        argv = ["bench", "--gen", "gaussian", "--targets", "a=0.5", "--n-objects", "1"]
        assert error_of(capsys, argv) == "error: need at least 2 objects, got 1\n"

    def test_unknown_strategy_rejected(self, capsys):
        assert "psychic" in error_of(capsys, [
            "bench", "--gen", "binary", "--weights", "c1=1", "--strategies", "psychic",
        ])

    @pytest.mark.parametrize("row, column, text", [
        ("o2,3,nan,1", "c1", "nan"),
        ("o2,3,inf,1", "c1", "inf"),
        ("o2,nan,1,1", "criterion", "nan"),
    ])
    def test_non_finite_environment_value_names_its_line(self, tmp_path, capfd, row, column, text):
        path = write(tmp_path / "env.csv", f"id,criterion,c1,c2\no0,1,0,1\no1,2,1,0\n{row}\no3,4,1,1\n")
        code = main(["bench", "--environment", path, "--reps", "2"])
        err = capfd.readouterr().err
        assert code == 1
        assert f"line 4: {column} '{text}' is not a finite number" in err
        assert "DLASCL" not in err

    def test_linear_falls_back_on_train_side_smaller_than_cues_plus_one(self, capsys):
        # 6 training objects cannot fix 8 weights plus an intercept
        code = main([
            "bench", "--gen", "binary", "--weights", "c1=128,c2=64,c3=32,c4=16,c5=8,c6=4,c7=2,c8=1",
            "--n-objects", "12", "--train-fraction", "0.5", "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        names = [s["name"] for s in json.loads(captured.out)["result"]["strategies"]]
        assert "linear_regression" in names

    def test_tiny_train_split_rejected(self, capsys):
        err = error_of(capsys, [
            "bench", "--gen", "binary", "--weights", "c1=4,c2=2,c3=1",
            "--n-objects", "5", "--train-fraction", "0.3",
        ])
        assert "train split has 1 objects" in err
        assert "n=5, train_fraction=0.3" in err


class TestCareerCommand:
    def test_generate_detect_round_trip(self, tmp_path, capsys):
        saved = tmp_path / "career.csv"
        code = main([
            "career", "--length", "30", "--baseline-mean", "5", "--multiplier", "10",
            "--streak-len", "10", "--seed", "4", "--save-career", str(saved),
            "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["result"]["detected_interval"] == payload["result"]["planted_interval"]
        detect_code = main(["career", "--impacts", str(saved), "--format", "machine"])
        captured = capsys.readouterr()
        assert detect_code == 0
        detected = json.loads(captured.out)
        assert detected["result"]["detected_interval"] == payload["result"]["planted_interval"]

    def test_table_report_without_a_streak(self, tmp_path, capsys):
        career = write(tmp_path / "flat.csv", "position,impact\n" + "".join(
            f"{i},2\n" for i in range(6)))
        assert main(["career", "--impacts", career]) == 0
        assert capsys.readouterr().out.splitlines()[4:] == [
            "career of 6 works",
            "no hot streak detected",
            "mean impact: overall 2.0000",
        ]

    def test_career_file_without_works_rejected(self, tmp_path, capsys):
        career = write(tmp_path / "empty.csv", "position,impact\n")
        assert error_of(capsys, ["career", "--impacts", career]) == (
            f"error: {career}: career file contains no works\n")

    @pytest.mark.parametrize("flags, unused", [
        (["--save-career", "saved.csv"], "--save-career"),
        (["--length", "30", "--baseline-mean", "5", "--multiplier", "10", "--streak-len", "4"],
         "--length, --baseline-mean, --multiplier, --streak-len"),
    ], ids=["save-career", "generator"])
    def test_impacts_with_generation_flags_rejected(self, tmp_path, monkeypatch, capsys, flags,
                                                    unused):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "c.csv", "position,impact\n" + "".join(f"{i},2\n" for i in range(6)))
        assert error_of(capsys, ["career", "--impacts", "c.csv", *flags]) == (
            f"error: career --impacts detects only and does not use {unused}\n")
        assert not (tmp_path / "saved.csv").exists()

    def test_saved_career_is_the_written_career(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([*GENERATE_CAREER, "--save-career", "c.csv", "--out", "r.txt"]) == 0
        capsys.readouterr()
        saved = (tmp_path / "c.csv").read_bytes()
        assert hashlib.sha256(saved).hexdigest() == SAVED_CAREER_SHA256
        write_career(read_career(tmp_path / "c.csv"), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == saved
        assert saved.startswith(b"position,impact\r\n0,")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "again.csv", "c.csv", "r.txt", "r.txt.json"]

    @pytest.mark.parametrize("flags, message", [
        (["--min-streak-len", "40"],
         "min_len must be between 1 and n - 1 = 29 for a career of 30 works, got 40"),
        (["--baseline-mean", "1e307"], "career result is not finite; no report written"),
    ], ids=["detection-fails", "not-finite"])
    def test_failed_run_saves_no_career(self, tmp_path, monkeypatch, capsys, flags, message):
        # the career was once saved before detection ran
        monkeypatch.chdir(tmp_path)
        code = main([*GENERATE_CAREER, *flags, "--save-career", "c.csv", "--out", "r.txt"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_impacts_with_a_configured_generation_flag_rejected(self, tmp_path, capsys):
        career = write(tmp_path / "c.csv", "position,impact\n" + "".join(
            f"{i},2\n" for i in range(6)))
        cfg = write(tmp_path / "run.cfg", "length = 30\n")
        assert error_of(capsys, ["career", "--config", cfg, "--impacts", career]) == (
            "error: career --impacts detects only and does not use --length\n")

    def test_detect_without_inputs_rejected(self, capsys):
        assert "generation needs" in error_of(capsys, ["career"])

    @pytest.mark.parametrize("value", ["abc", "3:x", "1:2:3", "", "3:"])
    def test_malformed_streak_len_names_the_flag(self, capsys, value):
        argv = ["career", "--length", "30", "--baseline-mean", "5", "--multiplier", "10",
                "--streak-len", value]
        assert error_of(capsys, argv) == (
            f"error: --streak-len {value!r} is not LO:HI or one integer\n")

    @pytest.mark.parametrize("flags,message", [
        (["--penalty-per-param", "nan"], "error: penalty_per_param must be finite, got nan\n"),
        (["--penalty-per-param", "inf"], "error: penalty_per_param must be finite, got inf\n"),
        (["--min-streak-len", "30"],
         "error: min_len must be between 1 and n - 1 = 29 for a career of 30 works, got 30\n"),
        (["--baseline-mean", "nan"], "error: baseline mean must be finite and > 0, got nan\n"),
        (["--noise-sigma", "nan"], "error: noise sigma must be finite and >= 0, got nan\n"),
        (["--multiplier", "inf"], "error: streak multiplier must be finite and >= 1, got inf\n"),
        (["--streak-len", "5:3"], "error: invalid streak length range (5, 3)\n"),
    ], ids=["penalty-nan", "penalty-inf", "min-len", "baseline-nan", "sigma-nan", "multiplier-inf",
            "streak-len-reversed"])
    def test_bad_number_fails_naming_its_parameter(self, capsys, flags, message):
        assert error_of(capsys, ["career", "--length", "30", "--baseline-mean", "5", "--multiplier",
                                 "10", "--streak-len", "8", "--seed", "4", *flags]) == message


class TestWorkloadCommand:
    def test_single_number_report(self, capsys):
        code = main([
            "workload", "--papers", "6446", "--reviews-per-paper", "2",
            "--panel-size", "20", "--working-days", "301", "--format", "machine",
        ])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["result"]["reviews_per_member_per_day"] == pytest.approx(2.14, abs=0.01)


COMMANDS = ["screen", "choose", "bench", "career", "workload"]

WORKLOAD_FLAGS = ["--papers", "100", "--reviews-per-paper", "1", "--panel-size", "10",
                  "--working-days", "10"]


RUN_OPTIONS = {"out", "format", "config"}


def subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def modes_of(command):
    return [name for name in MODES if name.split()[0] == command]


def mode_flags(command, monkeypatch, capsys):
    """Each of the command's MODES entries -> the flags of its input mode:
    those given by any entry whose run reads the same flags."""
    calls, reads = record_modes(monkeypatch), {}
    for name in modes_of(command):
        calls.clear()
        assert main(mode_argv(name)) == 0, name
        [(_, reads[name])] = calls
    capsys.readouterr()
    return {name: set().union(*(MODES[other].options for other in reads
                                if reads[other] == reads[name])) for name in reads}


class TestInputModes:
    """Each input mode of a command uses a declared set of flags; any other
    flag given, typed or configured, fails the run naming it."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_flag_belongs_to_a_mode_or_is_a_run_option(self, command):
        flags = {a.dest for a in subcommands()[command]._actions if a.dest != "help"}
        # every command takes --seed, so that a mode that draws nothing refuses it by name
        assert flags - RUN_OPTIONS == set().union(
            *(MODES[name].options for name in modes_of(command)), {"seed"})

    @pytest.mark.parametrize("given", ["typed", "config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_flag_outside_the_mode_rejected(self, mode_inputs, monkeypatch, capsys, command,
                                              given):
        flags = mode_flags(command, monkeypatch, capsys)
        values = {k: v for name in flags for k, v in MODES[name].options.items()}
        out, saved = mode_inputs / "report.txt", mode_inputs / "saved.csv"
        saved.unlink(missing_ok=True)  # as mode_flags' run saved it
        for name in flags:
            for flag in values.keys() - flags[name]:
                if given == "typed":
                    extra = as_flags({flag: values[flag]})
                else:
                    extra = ["--config",
                             write(mode_inputs / "run.cfg", f"{flag} = {values[flag]}\n")]
                code = main([*mode_argv(name), *extra, "--out", str(out)])
                err = capsys.readouterr().err
                assert code == 1, (name, flag)
                assert err.startswith("error: ") and err.count("\n") == 1, err
                # where the added flag selects another mode, that mode names the first one's
                named = set(re.findall(r"--([a-z-]+)", err.partition(" does not use ")[2]))
                first = {k.replace("_", "-") for k in MODES[name].options}
                assert named == {flag.replace("_", "-")} or named and named <= first, err
                assert not out.exists() and not saved.exists()

    def test_every_echoed_key_is_read_by_the_mode_or_none(self, mode_inputs, capsys, monkeypatch):
        # each mode runs with all its flags and with only those it needs; a
        # run's config may hold a value only under a flag its _mode call names
        calls, taken = record_modes(monkeypatch), set()

        def needs_of_run(command, options):
            calls.clear()
            assert main([command, *as_flags(options), "--format", "machine"]) == 0
            config = json.loads(capsys.readouterr().out)["config"]
            [(needs, reads)] = calls
            taken.add(needs)
            assert {k for k, v in config.items() if v is not None} <= set(reads), options
            return needs

        for name, mode in MODES.items():
            command = name.split()[0]
            needs = needs_of_run(command, mode.options)
            needs_of_run(command, {k: v for k, v in mode.options.items() if k in needs})
        # a mode added to cli without a MODES entry fails here
        assert taken == set(input_modes())


class TestHelpDefaults:
    """A default that --help states is the value a run reads when the flag is
    not given: every input mode that reads the flag echoes it, and every mode
    that does not echoes None."""

    # a default that depends on the input is no value to echo
    FORMULAS = {"penalty_per_param"}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_shows_no_none(self, command):
        assert "None" not in subcommands()[command].format_help()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_stated_default_is_the_echoed_value(self, mode_inputs, monkeypatch, capsys,
                                                      command):
        sub = subcommands()[command]
        stated = {}
        for action in sub._actions:
            text = (action.help or "") % {**vars(action), "prog": sub.prog}
            if "(default: " in text and action.dest not in self.FORMULAS:
                stated[action.dest] = re.search(r"\(default: ([^\s()]+)\)", text)[1]
        assert stated.keys() - RUN_OPTIONS, "no default stated"
        for name, flags in mode_flags(command, monkeypatch, capsys).items():
            # every flag that states a default is left out, so the run reads its default
            options = MODES[name].options
            argv = [command, *as_flags({k: v for k, v in options.items() if k not in stated})]
            # the report format is a run option, not a config key: it shows in what is printed
            assert main(argv) == 0
            printed = capsys.readouterr().out
            assert main([*argv, "--format", stated["format"]]) == 0
            assert capsys.readouterr().out == printed
            assert main([*argv, "--format", "machine"]) == 0
            payload = json.loads(capsys.readouterr().out)
            reported = {**payload["config"], "seed": payload["seed"]}
            echoed = {dest: reported[dest] for dest in stated.keys() - RUN_OPTIONS}
            assert {dest: value if value is None else str(value)
                    for dest, value in echoed.items()} == {
                dest: stated[dest] if dest in flags else None for dest in echoed}, name

    def test_min_streak_len_default_is_the_detectors(self):
        # stated in cli, so that building the parser imports no careers
        assert cli._DEFAULTS["min_streak_len"] == careers.MIN_STREAK_LEN

    @pytest.mark.parametrize("function", [indicators.count_highly_cited,
                                          indicators.is_highly_cited], ids=lambda f: f.__name__)
    def test_p_default_is_the_scorers(self, function):
        assert cli._DEFAULTS["p"] == inspect.signature(function).parameters["p"].default

    def test_rule_defaults_are_the_rules(self):
        rule = DiscriminationRule()
        assert (cli._DEFAULTS["delta"], cli._DEFAULTS["mode"]) == (rule.delta, rule.mode.value)


class TestConfigFile:
    @pytest.mark.parametrize("command", ["screen", "choose", "bench", "career", "workload"])
    @pytest.mark.parametrize("spell", [lambda key: key.replace("_", "-"), lambda key: key],
                             ids=["dashes", "underscores"])
    def test_every_option_from_config_matches_the_typed_flag(self, mode_inputs, capsys, command,
                                                             spell):
        modes = [MODES[name].options for name in modes_of(command)]
        for mode in modes:
            options = {**mode, "format": "machine"}
            typed, from_config = mode_inputs / "typed.json", mode_inputs / "config.json"
            assert main([command, *as_flags(options), "--out", str(typed)]) == 0
            lines = [f"{spell(key)} = {value}\n" for key, value in options.items()]
            cfg = write(mode_inputs / "run.cfg", "".join(lines) + f"out = {from_config}\n")
            assert main([command, "--config", cfg]) == 0
            capsys.readouterr()
            assert from_config.read_bytes() == typed.read_bytes()
            assert ((mode_inputs / "config.json.txt").read_bytes()
                    == (mode_inputs / "typed.json.txt").read_bytes())
        # the report echoes every option except the run options and the seed,
        # which it reports on its own, so none was left out
        echoed = json.loads(typed.read_text())["config"]
        assert set(echoed) == set().union(*modes) - {"seed"}

    @pytest.mark.parametrize("given", ["typed", "config"])
    @pytest.mark.parametrize("command, flag, value", [
        # the first value of each flag is its default, given all the same
        ("choose", "p", "0.1"), ("choose", "p", "0.2"),
        ("bench", "n_objects", "20"), ("bench", "n_objects", "30"),
        ("career", "noise_sigma", "0.0"), ("career", "noise_sigma", "0.1"),
    ])
    def test_unused_flag_with_a_default_rejected(self, mode_inputs, capsys, command, flag, value,
                                                 given):
        name = {"choose": "choose --profiles", "bench": "bench --environment",
                "career": "career --impacts"}[command]
        message = {"choose": "choose --profiles does not use --p",
                   "bench": "bench --environment does not use --n-objects",
                   "career": "career --impacts detects only and does not use --noise-sigma"}[command]
        if given == "typed":
            extra = [f"--{flag.replace('_', '-')}", value]
        else:
            extra = ["--config", write(mode_inputs / "run.cfg", f"{flag} = {value}\n")]
        assert error_of(capsys, [*mode_argv(name), *extra]) == f"error: {message}\n"

    @pytest.mark.parametrize("command, line, flag", [
        (["workload", "--panel-size", "10", "--working-days", "10"], "papers = x", "--papers"),
        (["bench", "--gen", "binary", "--weights", "c1=1"], "mode = sideways", "--mode"),
    ])
    def test_bad_value_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command, line, flag):
        cfg = write(tmp_path / "run.cfg", line + "\n")
        code = main([command[0], "--config", cfg, *command[1:]])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage" in err
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("value", [",", " , ", ""])
    def test_empty_cue_order_says_so(self, tmp_path, capsys, value):
        profiles = write(tmp_path / "p.csv", "id,hcp\nA,9\nB,1\n")
        cfg = write(tmp_path / "run.cfg", f"cue-order = {value}\n")
        for argv in (["choose", "--profiles", profiles, "--cue-order", value],
                     ["choose", "--config", cfg, "--profiles", profiles]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2
            assert err.splitlines()[-1].endswith("error: argument --cue-order: cue order is empty")

    @pytest.mark.parametrize("key", ["help", "config", "command"])
    def test_reserved_key_names_itself_and_its_line(self, tmp_path, capsys, key):
        cfg = write(tmp_path / "run.cfg", f"# panel\npapers = 100\n{key} = x\n")
        argv = ["workload", "--config", cfg, "--panel-size", "10", "--working-days", "10"]
        assert f"line 3: unknown configuration key '{key}'" in error_of(capsys, argv)

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        # the last value once won silently: quota 1.0 kept every candidate
        cfg = write(tmp_path / "run.cfg", "quota = 0.5\nquota = 1.0\n")
        argv = ["screen", "--config", cfg, "--corpus", corpus_file(tmp_path),
                "--candidates", candidates_file(tmp_path, {"A": 1, "B": 0})]
        assert error_of(capsys, argv) == f"error: {cfg}: line 2: key quota repeats line 1\n"

    def test_dash_and_underscore_spellings_are_one_key(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg",
                    "# panel\npanel-size = 10\npapers = 100\npanel_size = 20\n")
        assert error_of(capsys, ["workload", "--config", cfg, "--working-days", "10"]) == (
            f"error: {cfg}: line 4: key panel_size repeats line 2\n")

    def test_line_without_equals_names_its_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "papers = 100\npanel-size 10\n")
        assert error_of(capsys, ["workload", "--config", cfg, "--working-days", "10"]) == (
            f"error: {cfg}: line 2: expected key = value, got 'panel-size 10'\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfpapers = 100\npanel-size = 10\n")
        code = main(["workload", "--config", str(cfg), "--working-days", "10",
                     "--format", "machine"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["papers"] == 100

    def test_undecodable_byte_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"papers = 100\n# caf\xe9\npanel-size = 10\n")
        assert error_of(capsys, ["workload", "--config", str(cfg), "--working-days", "10"]) == (
            f"error: {cfg}: line 2: byte 0xe9 is not valid UTF-8\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_a_piped_config_names_its_undecodable_byte_too(self, capsys):
        # a pipe gives its bytes once, so they are read once
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, b"papers = 100\n# caf\xe9\npanel-size = 10\n")
            os.close(write_end)
            cfg = f"/dev/fd/{read_end}"
            assert error_of(capsys, ["workload", "--config", cfg, "--working-days", "10"]) == (
                f"error: {cfg}: line 2: byte 0xe9 is not valid UTF-8\n")
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_every_line_end_gives_the_same_flags_and_lines(self, tmp_path, capsys, end):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(end.join(["# panel", "papers = 100", "panel-size = 10", ""]).encode())
        argv = ["workload", "--config", str(cfg), "--working-days", "10"]
        assert main([*argv, "--format", "machine"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["papers"], config["panel_size"]) == (100, 10)
        cfg.write_bytes(end.join(["# panel", "papers = 100", "", "panel-size 10", ""]).encode())
        assert error_of(capsys, argv) == (
            f"error: {cfg}: line 4: expected key = value, got 'panel-size 10'\n")

    def test_value_with_leading_dash_reaches_the_rule_check(self, tmp_path, capsys):
        profiles = write(tmp_path / "p.csv", "id,hcp\n-x,9\ny,1\n")
        cfg = write(tmp_path / "run.cfg", "a = -x\nb = y\ndelta = -1\n")
        code = main(["choose", "--config", cfg, "--profiles", profiles, "--cue-order", "hcp"])
        assert code == 1
        assert "delta must be" in capsys.readouterr().err
        code = main(["choose", "--config", cfg, "--profiles", profiles, "--cue-order", "hcp",
                     "--delta", "0", "--format", "machine"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["result"]["a"] == "-x"


class TestReportPlumbing:
    def test_out_writes_both_formats(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main([
            "workload", "--papers", "100", "--reviews-per-paper", "1",
            "--panel-size", "10", "--working-days", "10", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""  # report went to files, not stdout
        assert out.exists()
        companion = tmp_path / "report.txt.json"
        assert companion.exists()
        payload = json.loads(companion.read_text())
        assert payload["result"]["reviews_per_member_per_day"] == 1.0
        assert out.read_text().startswith("# frugaleval")

    @pytest.mark.parametrize("primary, companion", [("table", "machine"), ("machine", "table")])
    def test_out_pair_is_the_printed_reports(self, tmp_path, capsys, primary, companion):
        out = tmp_path / "report"
        printed = {}
        for fmt in (primary, companion):
            assert main(["workload", *WORKLOAD_FLAGS, "--format", fmt]) == 0
            printed[fmt] = capsys.readouterr().out.encode()
        assert main(["workload", *WORKLOAD_FLAGS, "--format", primary, "--out", str(out)]) == 0
        suffix = ".json" if primary == "table" else ".txt"
        assert out.read_bytes() == printed[primary]
        assert (tmp_path / f"report{suffix}").read_bytes() == printed[companion]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report", f"report{suffix}"]

    def test_out_writes_neither_report_when_one_fails(self, tmp_path, capsys):
        # the companion's path is taken by a directory
        (tmp_path / "report.txt.json").mkdir()
        argv = ["workload", *WORKLOAD_FLAGS, "--out", str(tmp_path / "report.txt")]
        assert "error:" in error_of(capsys, argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt.json"]

    def test_out_over_a_directory_saves_no_career(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r").mkdir()
        code = main([*GENERATE_CAREER, "--save-career", "c.csv", "--out", "r"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: [Errno 21] Is a directory: 'r'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r"]

    # a name that ends in a separator names a directory, whether or not one is there
    @pytest.mark.parametrize("flag, out", [
        pytest.param(flag, out, id=f"{flag[2:]}-{out}" if flag == "--save-career" else out)
        for flag in ("--out", "--save-career") for out in ["new/", "folder", "folder/", ".",
                                                           "..", "/"]])
    def test_out_naming_a_directory_fails_before_the_command_runs(self, flag, out, tmp_path,
                                                                  monkeypatch, capsys):
        (tmp_path / "run" / "folder").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "run")
        argv = {"--out": ["workload", *WORKLOAD_FLAGS], "--save-career": GENERATE_CAREER}[flag]
        monkeypatch.setitem(cli._HANDLERS, argv[0], lambda p: pytest.fail("the command ran"))
        err = error_of(capsys, [*argv, flag, out])
        assert err == f"error: [Errno 21] Is a directory: {out!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run"]
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["folder"]
        assert list((tmp_path / "run" / "folder").iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--save-career"])
    def test_a_symlink_stays_and_its_target_gets_the_bytes(self, tmp_path, monkeypatch, capsys,
                                                           flag):
        monkeypatch.chdir(tmp_path)
        assert main([*GENERATE_CAREER, flag, "plain"]) == 0
        capsys.readouterr()
        write(tmp_path / "real", "old\n")
        os.symlink("real", tmp_path / "link")
        assert main([*GENERATE_CAREER, flag, "link"]) == 0
        capsys.readouterr()
        assert os.path.islink("link") and os.readlink("link") == "real"
        assert (tmp_path / "real").read_bytes() == (tmp_path / "plain").read_bytes()

    @pytest.mark.parametrize("flags, fifo, message", [
        (["--out", "f"], "f", "--out f"),
        (["--out", "r"], "r.json", "the companion r.json of --out r"),
        (["--save-career", "f"], "f", "--save-career f"),
    ], ids=["out", "companion", "save-career"])
    def test_a_fifo_fails_before_the_command_runs(self, tmp_path, monkeypatch, capsys, flags,
                                                  fifo, message):
        # it was once replaced with a regular file, and its reader got nothing
        monkeypatch.chdir(tmp_path)
        os.mkfifo(fifo)
        monkeypatch.setitem(cli._HANDLERS, "career", lambda p: pytest.fail("the command ran"))
        assert error_of(capsys, [*GENERATE_CAREER, *flags]) == (
            f"error: {message} is not a regular file\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir() == [fifo]

    def test_out_in_a_missing_directory_names_it(self, tmp_path, monkeypatch, capsys):
        # not the hidden temp file beside it, which the run once named
        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli._HANDLERS, "workload", lambda p: pytest.fail("the command ran"))
        assert error_of(capsys, ["workload", *WORKLOAD_FLAGS, "--out", "nodir/r.txt"]) == (
            "error: [Errno 2] No such file or directory: 'nodir/r.txt'\n")
        assert os.listdir() == []

    def test_out_hard_linked_to_an_input_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        corpus_file(tmp_path)
        candidates_file(tmp_path, {"A": 1, "B": 0})
        os.link("corpus.csv", "r.txt")
        before = (tmp_path / "corpus.csv").read_bytes()
        assert error_of(capsys, ["screen", "--corpus", "corpus.csv", "--candidates",
                                 "candidates.csv", "--quota", "0.5", "--out", "r.txt"]) == (
            "error: --out r.txt would overwrite the --corpus file corpus.csv\n")
        assert (tmp_path / "r.txt").read_bytes() == before
        assert sorted(os.listdir()) == ["candidates.csv", "corpus.csv", "r.txt"]

    # the config line would end inside the value, so the report could not replay
    @pytest.mark.parametrize("flag, value, typed", [
        ("--profiles", "my\nprof.csv", "my\nprof.csv"),
        ("--profiles", "my\rprof.csv", "my\rprof.csv"),
        ("--cue-order", "hcp, h\ncp", "hcp,h\ncp"),
    ])
    def test_a_value_with_a_line_break_fails_before_the_command_runs(self, flag, value, typed,
                                                                     tmp_path, monkeypatch,
                                                                     capsys):
        monkeypatch.chdir(tmp_path)
        flags = {"--profiles": "p.csv", "--cue-order": "hcp,collab", flag: value}
        write(tmp_path / flags["--profiles"], "id,hcp,collab\nA,1,2\nB,1,3\n")
        monkeypatch.setitem(cli._HANDLERS, "choose", lambda p: pytest.fail("the command ran"))
        err = error_of(capsys, ["choose", *itertools.chain(*flags.items()), "--out", "report.txt"])
        assert err == (f"error: {flag} {typed!r} holds a line break, "
                       f"which the report's config line cannot echo\n")
        assert [p.name for p in tmp_path.iterdir()] == [flags["--profiles"]]

    @pytest.mark.parametrize("flag, argv", [
        ("corpus", ["screen", "--corpus", "corpus.csv", "--candidates", "candidates.csv",
                        "--quota", "0.5"]),
        ("candidates", ["screen", "--corpus", "corpus.csv", "--candidates", "candidates.csv",
                        "--quota", "0.5"]),
        ("profiles", ["choose", "--profiles", "p.csv", "--cue-order", "hcp"]),
        ("environment", ["bench", "--environment", "env.csv", "--reps", "2"]),
        ("impacts", ["career", "--impacts", "career.csv"]),
        ("config", ["workload", "--config", "run.cfg"]),
        ("save-career", ["career", "--length", "30", "--baseline-mean", "5", "--multiplier", "10",
                         "--streak-len", "4", "--save-career", "saved.csv"]),
    ])
    def test_out_over_a_kept_file_rejected(self, tmp_path, monkeypatch, capsys, flag, argv):
        # screen --corpus corpus.csv --out corpus.csv once replaced the corpus with the report
        monkeypatch.chdir(tmp_path)
        corpus_file(tmp_path)
        candidates_file(tmp_path, {"A": 1, "B": 0})
        write(tmp_path / "p.csv", "id,hcp\nA,9\nB,1\n")
        environment_file(tmp_path / "env.csv")
        write(tmp_path / "career.csv", "position,impact\n" + "".join(f"{i},2\n" for i in range(6)))
        write(tmp_path / "run.cfg", "papers = 100\npanel-size = 10\nworking-days = 10\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        target = argv[argv.index(f"--{flag}") + 1]
        # spelled differently from the input, so only the file system can tell them apart
        assert error_of(capsys, [*argv, "--out", f"./{target}"]) == (
            f"error: --out ./{target} would overwrite the --{flag} file {target}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("config, typed", [
        ("length = 30\n", ["--save-career", "./run.cfg"]),
        ("length = 30\nsave-career = ./run.cfg\n", []),
    ], ids=["typed", "configured"])
    def test_save_career_over_the_config_rejected(self, tmp_path, monkeypatch, capsys, config,
                                                  typed):
        # the config file was once replaced with the generated career
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "run.cfg", config)
        assert error_of(capsys, ["career", "--config", "run.cfg", "--baseline-mean", "5",
                                 "--multiplier", "10", "--streak-len", "4", *typed]) == (
            "error: --save-career ./run.cfg would overwrite the --config file run.cfg\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]
        assert (tmp_path / "run.cfg").read_text(encoding="utf-8") == config

    def test_save_career_under_the_out_companion_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main([*GENERATE_CAREER, "--save-career", "r.json", "--out", "r"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: --out r would write its companion over the --save-career file r.json\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_companion_over_an_input_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "d.txt", "id,hcp\nA,9\nB,1\n")
        assert error_of(capsys, ["choose", "--profiles", "d.txt", "--cue-order", "hcp",
                                 "--format", "machine", "--out", "d"]) == (
            "error: --out d would write its companion over the --profiles file d.txt\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt"]

    def test_config_file_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "papers = 100\npanel-size = 10\nworking-days = 10\n")
        code = main(["workload", "--config", cfg, "--format", "machine"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["result"]["reviews_per_member_per_day"] == 2.0
        # explicit flag beats the config value
        code = main(["workload", "--config", cfg, "--working-days", "20", "--format", "machine"])
        captured = capsys.readouterr()
        assert json.loads(captured.out)["result"]["reviews_per_member_per_day"] == 1.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "papers = 100\nwat = 9\n")
        argv = ["workload", "--config", cfg, "--panel-size", "10", "--working-days", "10"]
        assert "wat" in error_of(capsys, argv)

    def test_missing_required_flags_exit_nonzero(self, capsys):
        code = main(["screen"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--corpus" in captured.err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code = main(["workload", "--no-such-flag", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "usage" in captured.err



class TestCollectorPause:
    """A command runs with the cyclic garbage collector paused, and the
    caller's setting is back when main returns, however the command ended."""

    @pytest.fixture(autouse=True)
    def keep_collector_setting(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def screen(self, tmp_path, candidates):
        return main(["screen", "--corpus", corpus_file(tmp_path), "--candidates", candidates,
                     "--quota", "0.5"])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("row, code", [("p0,2020,phys,9,article,A,included", 0),
                                           ("p0,2020,phys,x,article,A,included", 1)],
                             ids=["success", "bad-row"])
    def test_caller_setting_restored(self, tmp_path, capsys, enabled, row, code):
        (gc.enable if enabled else gc.disable)()
        candidates = write(tmp_path / "candidates.csv", CANDIDATE_HEADER + row + "\n")
        assert self.screen(tmp_path, candidates) == code
        assert capsys.readouterr().err.startswith("error:") == bool(code)
        assert gc.isenabled() is enabled

    def test_collector_paused_while_the_command_runs(self, tmp_path, capsys, monkeypatch):
        gc.enable()
        seen, read = [], cli.read_corpus

        def read_corpus(path):
            seen.append(gc.isenabled())
            return read(path)

        monkeypatch.setattr(cli, "read_corpus", read_corpus)
        assert self.screen(tmp_path, candidates_file(tmp_path, {"A": 1})) == 0
        capsys.readouterr()
        assert seen == [False]
        assert gc.isenabled()


class TestTracedNames:
    """The benchmark's tracer (bench/tracing.py) wraps nine functions on cli
    itself; every command calls them there, so a wrapper in place runs."""

    NAMES = ("read_corpus", "read_candidates", "count_highly_cited", "one_cue_select",
             "generate_binary_environment", "run_benchmark", "read_career", "detect_hot_streak",
             "streak_adjusted_summary")

    def test_each_command_calls_them_through_cli(self, tmp_path, monkeypatch, capsys):
        called = []
        for name in self.NAMES:
            def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
                called.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, spy)
        career = write(tmp_path / "career.csv", "position,impact\n" + "".join(
            f"{k},{9 if 10 <= k < 16 else 1}\n" for k in range(30)))
        for argv in (["screen", "--corpus", corpus_file(tmp_path), "--quota", "0.5",
                      "--candidates", candidates_file(tmp_path, {"A": 1, "B": 0})],
                     ["bench", "--gen", "binary", "--weights", "a=2,b=1", "--n-objects", "8",
                      "--reps", "2"],
                     ["career", "--impacts", career]):
            assert main(argv) == 0, argv
        capsys.readouterr()
        assert sorted(set(called)) == sorted(self.NAMES)


# A seed test names a case by its command and what it reads (any other case by
# its MODES key), and a mode that draws nothing refuses a seed as "<who> does
# not use --seed": MODES key -> (test id, who).
SEED_CASES = {"choose --profiles": ("choose-profiles", "choose --profiles"),
              "choose --mode relative": (None, "choose --profiles"),
              "choose --corpus": ("choose-publications", "this command"),
              "career --impacts": ("career-impacts", "career --impacts detects only and"),
              "bench": ("bench-binary", None), "bench --gen gaussian": ("bench-gaussian", None),
              "bench --environment": ("bench-environment", None),
              "career --save-career": ("career-generate", None)}


def seed_case(mode):
    return SEED_CASES.get(mode, (None, "this command"))


class TestSeedFlag:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command):
        cfg = write(tmp_path / "run.cfg", "seed = -3\n")
        for argv, seed in (([command, "--seed", "-1"], -1), ([command, "--seed=-2"], -2),
                           ([command, "--config", cfg], -3)):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.splitlines()[-1] == (
                f"frugaleval {command}: error: argument --seed: "
                f"must be a non-negative integer, got {seed}")

    def test_non_integer_seed_keeps_its_message(self, capsys):
        assert main(["workload", "--seed", "1.5"]) == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --seed: invalid int value: '1.5'")

    @pytest.mark.parametrize("given", ["typed", "config"])
    @pytest.mark.parametrize("mode", [name for name in MODES if not MODES[name].draws],
                             ids=lambda mode: seed_case(mode)[0])
    def test_a_mode_that_draws_nothing_refuses_a_seed(self, mode_inputs, capsys, mode, given):
        argv = [*mode_argv(mode), "--format", "machine"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] is None
        assert main([*argv, "--format", "table"]) == 0
        assert "# seed: None\n" in capsys.readouterr().out
        seed = ["--seed", "0"] if given == "typed" else [
            "--config", write(mode_inputs / "run.cfg", "seed = 0\n")]
        assert main([*argv, *seed]) == 1
        assert capsys.readouterr() == ("", f"error: {seed_case(mode)[1]} does not use --seed\n")

    @pytest.mark.parametrize("mode", [name for name in MODES if MODES[name].draws],
                             ids=lambda mode: seed_case(mode)[0])
    def test_a_mode_that_draws_reads_the_seed_or_0(self, mode_inputs, capsys, mode):
        options = MODES[mode].options
        seeded = [*mode_argv(mode), "--format", "machine"]
        assert main(seeded) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == int(options["seed"])
        unseeded = [mode.split()[0], *as_flags({k: v for k, v in options.items() if k != "seed"})]
        reports = []
        for argv in (unseeded, [*unseeded, "--seed", "0"]):
            assert main(argv) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert "# seed: 0\n" in reports[0]


class TestOverflow:
    """Inputs whose results overflow a float fail with a message: no numpy
    warning (the suite turns a RuntimeWarning into an error), no traceback
    and no report holding a non-JSON Infinity."""

    def test_infinite_career_mean_writes_no_report(self, tmp_path, capsys):
        career = write(tmp_path / "huge.csv", "position,impact\n" + "".join(
            f"{i},1e308\n" for i in range(10)))
        out = tmp_path / "report.json"
        code = main(["career", "--impacts", career, "--format", "machine", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: career result is not finite; no report written\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.csv"]

    def test_overflowing_binary_criterion(self, capsys):
        code = main(["bench", "--gen", "binary", "--weights", "a=1e308,b=1e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: object ")
        assert captured.err.endswith(" has non-finite criterion inf\n")

    def test_overflowing_generated_career(self, capsys):
        code = main(["career", "--length", "50", "--baseline-mean", "1e308", "--multiplier", "3",
                     "--streak-len", "5:8"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: impact at position ")
        assert captured.err.endswith(" must be finite and >= 0, got inf\n")

    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    def test_cue_difference_beyond_the_float_range_discriminates(self, tmp_path, capsys, mode):
        # 1.5e308 - -1.5e308 overflows to inf, which is above the delta in
        # either mode; every other difference is 0 or 1 (relative: 0 or 1)
        env = write(tmp_path / "far.csv", "id,criterion,a,b\n" + "".join(
            f"o{k},{k},{'' if k >= 4 else '-'}1.5e308,{k % 2}\n" for k in range(8)))

        def strategies(*rule):
            code = main(["bench", "--environment", env, "--strategies", "take_the_best",
                         "--reps", "2", "--format", "machine", *rule])
            captured = capsys.readouterr()
            assert code == 0
            assert captured.err.startswith("take_the_best: ")
            return json.loads(captured.out)["result"]["strategies"]

        assert strategies("--delta", "0.5", "--mode", mode) == strategies()

    def test_workload_rate_too_large_for_a_float(self, capsys):
        code = main(["workload", "--papers", str(10 ** 400), "--panel-size", "1",
                     "--working-days", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: reviews per member per day is too large for a float\n"


class LongRun(Exception):
    """A run that reached its fourth train/test split."""


# The values the argv property gives a flag. The flags that set a run's
# length or allocation take small or invalid values only, so no run is huge;
# --reps also takes a count past 2**63, and its run is cut at its fourth
# repetition, since a huge count is a long run and not an error.
HOSTILE = ["nan", "inf", "1e308", str(2**63), str(10**20), "", "folder", "missing.csv"]
# and the names only a flag that writes takes: a FIFO, a symlink to a regular file and a
# new directory. A read of a FIFO that no one writes would wait forever.
WRITE_ONLY = ["fifo", "link.txt", "new/"]
SIZES = ["0", "1", "2", "-1", "nan", ""]
VALUES = {"n_objects": SIZES, "length": SIZES, "streak_len": SIZES, "reps": [*SIZES, str(10**20)]}


@st.composite
def runs_near_a_mode(draw):
    """A MODES entry's command and options, with --out report.txt, after one
    edit: a value changed, a flag the command knows added, or one dropped.
    --out may also name one of the run's own inputs, and --out and
    --save-career a WRITE_ONLY name."""
    name = draw(st.sampled_from(sorted(MODES)))
    command, options = name.split()[0], {**MODES[name].options, "out": "report.txt"}
    known = {action.dest for action in subcommands()[command]._actions} - {"help"}
    edit = draw(st.sampled_from(["change", "add", "drop"]))
    flag = draw(st.sampled_from(sorted(known - options.keys() if edit == "add" else options)))
    if edit == "drop":
        del options[flag]
    else:
        inputs = [value for key, value in options.items() if key in cli._READ_FILES]
        options[flag] = draw(st.sampled_from(
            VALUES.get(flag, HOSTILE) + (inputs if flag == "out" else [])
            + (WRITE_ONLY if flag in ("out", "save_career") else [])))
    return command, options


@example(run=("bench", {**MODES["bench"].options, "out": "report.txt", "reps": str(10**20)}))
@example(run=("workload", {**MODES["workload"].options, "out": "fifo"}))
@example(run=("career", {**MODES["career --save-career"].options, "out": "report.txt",
                         "save_career": "link.txt"}))
@example(run=("career", {**MODES["career --save-career"].options, "out": "report.txt",
                         "save_career": "new/"}))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(runs_near_a_mode())
def test_main_keeps_its_exit_contract_near_every_mode(run):
    # main() returns 0, 1 or 2 and raises nothing. Exit 0 writes a report,
    # and only bench says more on stderr: its timings, printed once the
    # report is written. Exit 1 says why on one error line, exit 2 is a
    # usage error, and neither writes a file; nothing else reaches stderr.
    # The FIFO stays a FIFO and the symlink a symlink.
    command, options = run
    splits, split = itertools.count(), ecology.train_test_indices

    def split_within_budget(*args):
        if next(splits) == 3:
            raise LongRun
        return split(*args)

    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        write_mode_inputs(Path(directory))
        (Path(directory) / "folder").mkdir()
        os.mkfifo(Path(directory) / "fifo")
        (Path(directory) / "real.txt").write_text("old\n", encoding="utf-8")
        os.symlink("real.txt", Path(directory) / "link.txt")
        before = sorted(os.listdir(directory))
        patch.chdir(directory)
        patch.setattr(ecology, "train_test_indices", split_within_budget)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, *as_flags(options)])
        except LongRun:
            return
        assert stat.S_ISFIFO(os.lstat("fifo").st_mode) and os.path.islink("link.txt")
        out, err = stdout.getvalue(), stderr.getvalue().splitlines()
        while code == 0 and command == "bench" and err and re.fullmatch(
                r"\w+: [\d.]+ s per 1000 decisions", err[0]):
            del err[0]
        if code == 0 and options.get("out"):
            assert out == "" and os.path.isfile(options["out"])
            assert len(err) == 1 and err[0].startswith("report written to "), err
        elif code == 0:
            assert out.startswith("# frugaleval") and err == [], err
        else:
            assert code in (1, 2) and out == "" and sorted(os.listdir()) == before, (code, err)
            if code == 1:
                assert len(err) == 1 and err[0].startswith("error: "), err
            else:
                assert err[0].startswith("usage: frugaleval ") and ": error: " in err[-1], err
