import hashlib
import itertools
import json

import pytest

from frugaleval.careers import CareerSequence
from frugaleval.cli import WorkloadQuery, main, workload
from frugaleval.ecology import generate_binary_environment
from frugaleval.heuristics import WeightVector
from frugaleval.tables import (
    TableError,
    read_candidates,
    read_career,
    read_corpus,
    read_environment,
    read_profiles_table,
    write_career,
    write_environment,
)

CORPUS_HEADER = "id,year,category,citations,doc_type\n"
CANDIDATE_HEADER = "id,year,category,citations,doc_type,candidate_id,validated\n"


def write(path, text):
    path.write_text(text, encoding="utf-8")
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


class TestIngest:
    def test_well_formed_corpus(self, tmp_path):
        corpus = read_corpus(corpus_file(tmp_path, [4, 7, 2]))
        assert len(corpus.group("phys", 2020)) == 3

    def test_bad_citations_reports_line_number(self, tmp_path):
        path = write(
            tmp_path / "bad.csv",
            CORPUS_HEADER + "a,2020,phys,3,article\nb,2020,phys,abc,article\n",
        )
        with pytest.raises(TableError, match="line 3"):
            read_corpus(path)

    def test_header_only_candidates_is_empty(self, tmp_path):
        path = write(tmp_path / "empty.csv", CANDIDATE_HEADER)
        assert read_candidates(path) == []

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path / "nohdr.csv", "id,year,category,citations\na,2020,x,1\n")
        with pytest.raises(TableError, match="doc_type"):
            read_corpus(path)

    def test_unknown_doc_type_reports_line(self, tmp_path):
        path = write(tmp_path / "dt.csv", CORPUS_HEADER + "a,2020,phys,3,poster\n")
        with pytest.raises(TableError, match="line 2.*poster"):
            read_corpus(path)

    def test_negative_citations_reports_line(self, tmp_path):
        path = write(tmp_path / "neg.csv", CORPUS_HEADER + "a,2020,phys,-3,article\n")
        with pytest.raises(TableError, match="line 2"):
            read_corpus(path)

    def test_all_bad_rows_reported_not_just_first(self, tmp_path):
        path = write(
            tmp_path / "multi.csv",
            CORPUS_HEADER + "a,2020,phys,x,article\nb,20x0,phys,1,article\n",
        )
        with pytest.raises(TableError, match="line 2.*line 3"):
            read_corpus(path)

    def test_candidates_grouped_by_candidate_id(self, tmp_path):
        path = candidates_file(tmp_path, {"alice": 2, "bob": 0})
        profiles = read_candidates(path)
        assert [p.id for p in profiles] == ["alice", "bob"]
        assert len(profiles[0].publications) == 3

    def test_ingest_returns_corpus_and_profiles(self, tmp_path):
        corpus = read_corpus(corpus_file(tmp_path))
        profiles = read_candidates(candidates_file(tmp_path, {"alice": 1}))
        assert corpus.group_keys() == (("phys", 2020),)
        assert [p.id for p in profiles] == ["alice"]

    def test_environment_round_trip(self, tmp_path):
        from frugaleval.ecology import generate_binary_environment
        from frugaleval.heuristics import WeightVector

        env = generate_binary_environment(WeightVector({"c1": 4.0, "c2": 2.0}), 6, seed=1)
        path = tmp_path / "env.csv"
        write_environment(env, path)
        back = read_environment(path)
        assert back.objects == env.objects
        assert back.cue_names == env.cue_names

    def test_career_round_trip(self, tmp_path):
        from frugaleval.careers import CareerSequence

        seq = CareerSequence((1.5, 0.0, 12.25))
        path = tmp_path / "career.csv"
        write_career(seq, path)
        assert read_career(path).impacts == seq.impacts

    def test_profiles_table_ignores_criterion(self, tmp_path):
        path = write(
            tmp_path / "profiles.csv",
            "id,criterion,hcp,collab\nA,9.9,4,2\nB,1.1,3,7\n",
        )
        profiles = read_profiles_table(path)
        assert profiles[0].indicators == {"hcp": 4.0, "collab": 2.0}


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
        assert payload["seed"] == 0
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
        code = main([
            "screen", "--corpus", str(tmp_path / "nope.csv"),
            "--candidates", str(tmp_path / "nope2.csv"), "--quota", "0.5",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err

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
        code = main([*command, "--corpus", corpus, "--candidates", cands])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (f"error: {cands}: profile 'cand00' has pending publications: "
                                "'p0', 'p1'\n")


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
        code = main([
            "choose", "--profiles", path, "--cue-order", "hcp", "--a", "A", "--b", "Z",
        ])
        assert code == 1
        assert "Z" in capsys.readouterr().err

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
        code = main(["choose", "--profiles", path, "--cue-order", "hcp", "--a", "A", "--b", "B"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "line 3: id 'A' repeats line 2" in captured.err

    def test_choose_without_any_input_rejected(self, capsys):
        code = main(["choose", "--cue-order", "hcp"])
        assert code == 1
        assert "--profiles" in capsys.readouterr().err


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

    @pytest.mark.parametrize("value", [",", " , ", ""])
    def test_empty_strategy_list_rejected(self, capsys, value):
        code = main(["bench", "--gen", "binary", "--weights", "c1=1", "--strategies", value])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: strategy list is empty: {value!r}\n"

    def test_unknown_strategy_rejected(self, capsys):
        code = main([
            "bench", "--gen", "binary", "--weights", "c1=1", "--strategies", "psychic",
        ])
        assert code == 1
        assert "psychic" in capsys.readouterr().err

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
        code = main([
            "bench", "--gen", "binary", "--weights", "c1=4,c2=2,c3=1",
            "--n-objects", "5", "--train-fraction", "0.3",
        ])
        err = capsys.readouterr().err
        assert code == 1
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

    def test_detect_without_inputs_rejected(self, capsys):
        code = main(["career"])
        assert code == 1
        assert "generation needs" in capsys.readouterr().err


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


WORKLOAD_FLAGS = ["--papers", "100", "--reviews-per-paper", "1", "--panel-size", "10",
                  "--working-days", "10"]


def every_option(tmp_path):
    """Per command, a value other than the default for every option but the run options."""
    corpus = corpus_file(tmp_path)
    cands = candidates_file(tmp_path, {"alice": 3, "bob": 1})
    profiles = write(tmp_path / "p.csv", "id,hcp,collab\nalice,3,5\nbob,3,2\n")
    env = tmp_path / "env.csv"
    write_environment(generate_binary_environment(WeightVector({"c1": 4.0, "c2": 2.0}), 12, 1), env)
    career = tmp_path / "career.csv"
    write_career(CareerSequence((1.0, 1.5, 9.0, 9.5, 8.0, 1.0, 1.5)), career)
    return {
        "screen": {"corpus": corpus, "candidates": cands, "p": "0.2", "quota": "0.5"},
        "choose": {"profiles": profiles, "corpus": corpus, "candidates": cands, "p": "0.2",
                   "a": "bob", "b": "alice", "cue_order": "hcp,collab", "delta": "0.5",
                   "mode": "relative"},
        "bench": {"environment": str(env), "gen": "gaussian", "weights": "c1=4",
                  "targets": "c1=0.5", "n_objects": "30", "strategies": "tallying,take_the_best",
                  "train_fraction": "0.6", "reps": "3", "delta": "0.5", "mode": "relative"},
        "career": {"impacts": str(career), "length": "30", "baseline_mean": "5",
                   "multiplier": "10", "streak_len": "4:6", "noise_sigma": "0.1",
                   "min_streak_len": "2", "penalty_per_param": "1.5",
                   "save_career": str(tmp_path / "unused.csv")},
        "workload": {"papers": "100", "reviews_per_paper": "3", "panel_size": "10",
                     "working_days": "5"},
    }


class TestConfigFile:
    @pytest.mark.parametrize("command", ["screen", "choose", "bench", "career", "workload"])
    @pytest.mark.parametrize("spell", [lambda key: key.replace("_", "-"), lambda key: key],
                             ids=["dashes", "underscores"])
    def test_every_option_from_config_matches_the_typed_flag(self, tmp_path, capsys, command, spell):
        options = {**every_option(tmp_path)[command], "seed": "3", "format": "machine"}
        typed, from_config = tmp_path / "typed.json", tmp_path / "config.json"
        flags = itertools.chain.from_iterable((f"--{k.replace('_', '-')}", v) for k, v in options.items())
        assert main([command, *flags, "--out", str(typed)]) == 0
        lines = [f"{spell(key)} = {value}\n" for key, value in options.items()]
        cfg = write(tmp_path / "run.cfg", "".join(lines) + f"out = {from_config}\n")
        assert main([command, "--config", cfg]) == 0
        capsys.readouterr()
        assert from_config.read_bytes() == typed.read_bytes()
        assert (tmp_path / "config.json.txt").read_bytes() == (tmp_path / "typed.json.txt").read_bytes()
        # the report echoes every option except the run options, so none was left out
        echoed = json.loads(typed.read_text())["config"]
        assert set(echoed) == set(options) - {"seed", "format"}

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
        code = main(["workload", "--config", cfg, "--panel-size", "10", "--working-days", "10"])
        assert code == 1
        assert f"line 3: unknown configuration key '{key}'" in capsys.readouterr().err

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
        code = main(["workload", *WORKLOAD_FLAGS, "--out", str(tmp_path / "report.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error:" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt.json"]

    def test_byte_identical_bodies_across_runs(self, tmp_path, capsys):
        args = [
            "bench", "--gen", "binary", "--weights", "c1=4,c2=2,c3=1",
            "--n-objects", "14", "--reps", "4", "--seed", "9",
            "--strategies", "take_the_best,minimalist,tallying,linear",
        ]
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.txt.json").read_bytes() == (tmp_path / "r2.txt.json").read_bytes()

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
        code = main(["workload", "--config", cfg, "--panel-size", "10", "--working-days", "10"])
        assert code == 1
        assert "wat" in capsys.readouterr().err

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
