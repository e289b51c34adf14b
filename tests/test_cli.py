import json

import pytest

from rweets.cli import main


def run(args):
    return main(args)


@pytest.fixture()
def workspace(tmp_path):
    assert run(["--seed", "3", "synth", "--size", "120", "--out", str(tmp_path / "d1.jsonl")]) == 0
    assert run([
        "--seed", "4", "synth", "--size", "120", "--domain", "categorical",
        "--out", str(tmp_path / "d2.jsonl"),
    ]) == 0
    return tmp_path


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            assert run(["--seed", "9", "synth", "--size", "40", "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestPreprocess:
    def test_writes_clean_file_and_report(self, workspace, capsys):
        out = workspace / "d1.clean"
        code = run(["preprocess", "--input", str(workspace / "d1.jsonl"), "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "removed at" in stdout
        assert out.exists()

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["preprocess", "--input", str(tmp_path / "no.jsonl"),
                    "--output", str(tmp_path / "o")]) == 2

    def test_validation_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "1", "text": "x", "label": "bogus"}\n')
        assert run(["preprocess", "--input", str(bad), "--output", str(tmp_path / "o")]) == 3

    def test_rerun_identical_bytes(self, workspace):
        a, b = workspace / "a.clean", workspace / "b.clean"
        for out in (a, b):
            assert run(["preprocess", "--input", str(workspace / "d1.jsonl"),
                        "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFeaturize:
    def test_combo_10_and_cache_hit(self, workspace, capsys):
        clean = workspace / "d1.clean"
        run(["preprocess", "--input", str(workspace / "d1.jsonl"), "--output", str(clean)])
        matrix = workspace / "d1.m10"
        args = ["featurize", "--clean", str(clean), "--out", str(matrix),
                "--combo", "10", "--raw", str(workspace / "d1.jsonl")]
        assert run(args) == 0
        capsys.readouterr()
        assert run(args) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_combo_out_of_range_exit_1(self, workspace):
        clean = workspace / "d1.clean"
        run(["preprocess", "--input", str(workspace / "d1.jsonl"), "--output", str(clean)])
        assert run(["featurize", "--clean", str(clean), "--out", str(workspace / "x"),
                    "--combo", "25"]) == 1

    def test_stale_clean_cache_exit_4(self, workspace):
        clean = workspace / "d1.clean"
        run(["preprocess", "--input", str(workspace / "d1.jsonl"), "--output", str(clean),
             "--threshold", "0.3"])
        # featurize under the default pipeline flags: digests disagree
        assert run(["featurize", "--clean", str(clean), "--out", str(workspace / "x"),
                    "--combo", "1"]) == 4

    def test_rules_without_raw_exit_1(self, workspace):
        clean = workspace / "d1.clean"
        run(["preprocess", "--input", str(workspace / "d1.jsonl"), "--output", str(clean)])
        assert run(["featurize", "--clean", str(clean), "--out", str(workspace / "x"),
                    "--combo", "7"]) == 1

    def test_changed_input_invalidates_matrix(self, workspace, capsys):
        clean = workspace / "d1.clean"
        matrix = workspace / "m1"
        run(["preprocess", "--input", str(workspace / "d1.jsonl"), "--output", str(clean)])
        assert run(["featurize", "--clean", str(clean), "--out", str(matrix), "--combo", "1"]) == 0
        # same configs, different input content: must rebuild, not cache-hit
        run(["--seed", "8", "synth", "--size", "100", "--out", str(workspace / "d8.jsonl")])
        run(["preprocess", "--input", str(workspace / "d8.jsonl"), "--output", str(clean)])
        capsys.readouterr()
        assert run(["featurize", "--clean", str(clean), "--out", str(matrix), "--combo", "1"]) == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out and "wrote" in out


class TestRules:
    def test_classify_adds_fields(self, tmp_path):
        source = tmp_path / "in.jsonl"
        source.write_text(
            json.dumps({"id": "1", "text": "Where can I donate clothes"}) + "\n"
            + json.dumps({"id": "2", "text": "calm morning by the bay"}) + "\n"
        )
        out = tmp_path / "out.jsonl"
        assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert records[0]["rule_label"] == "rweet"
        assert records[1]["rule_label"] == "not_rweet"
        assert len(records[0]["rule_bits"]) == 18
        assert records[0]["rule_bits"][7] == 1

    def test_each_text_costs_one_rule_pass(self, tmp_path, monkeypatch):
        import re

        from rweets.corpus import BINARY, synth_corpus
        from rweets.rules import PATTERN_SOURCES, RulePattern

        evals = []
        matches = RulePattern.matches

        def counted(self, text):
            evals.append(self.id)
            return matches(self, text)

        monkeypatch.setattr(RulePattern, "matches", counted)
        oracle = [re.compile(source, re.IGNORECASE) for source in PATTERN_SOURCES]
        texts = ["calm morning by the bay", "Where can I donate clothes"]
        texts += [tw.text for tw in synth_corpus(17, 40, BINARY)]
        labels = []
        for n, text in enumerate(texts):
            source, out = tmp_path / f"in{n}.jsonl", tmp_path / f"out{n}.jsonl"
            source.write_text(json.dumps({"id": str(n), "text": text}) + "\n")
            evals.clear()
            assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
            record = json.loads(out.read_text())
            bits = record["rule_bits"]
            assert bits == [int(p.search(text) is not None) for p in oracle]
            # one pass of the 18 patterns gives both the bits and the label
            assert evals == list(range(1, 19))
            assert record["rule_label"] == ("rweet" if any(bits) else "not_rweet")
            labels.append(any(bits))
        assert labels[:2] == [False, True]
        assert True in labels[2:] and False in labels[2:]  # synth covers both kinds

    def test_action_defaults_to_classify(self, tmp_path):
        source = tmp_path / "in.jsonl"
        source.write_text(json.dumps({"id": "1", "text": "need shelter?"}) + "\n")
        out = tmp_path / "out.jsonl"
        assert run(["rules", "--input", str(source), "--output", str(out)]) == 0


class TestEvaluate:
    def test_deterministic_reports(self, workspace, capsys):
        reports = []
        for name in ("r1.json", "r2.json"):
            code = run(["--seed", "1", "evaluate", "--input", str(workspace / "d1.jsonl"),
                        "--folds", "3", "--combo", "10", "--out", str(workspace / name)])
            assert code == 0
            reports.append((workspace / name).read_bytes())
        assert reports[0] == reports[1]
        assert "accuracy" in capsys.readouterr().out

    def test_unlabeled_input_rejected(self, tmp_path):
        path = tmp_path / "u.jsonl"
        path.write_text(json.dumps({"id": "1", "text": "need food"}) + "\n"
                        + json.dumps({"id": "2", "text": "ok day"}) + "\n")
        assert run(["evaluate", "--input", str(path), "--combo", "1"]) == 3


class TestSeries:
    def test_end_to_end_with_cache(self, workspace, capsys):
        staged = workspace / "staged"
        assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "10", "--out", str(staged)]) == 0
        out1, out2 = workspace / "o1.jsonl", workspace / "o2.jsonl"
        base = ["--cache-dir", str(workspace / "cache"), "--verbose", "series",
                "--model", str(staged), "--input", str(workspace / "d1.jsonl")]
        assert run(base + ["--output", str(out1)]) == 0
        first = capsys.readouterr().out
        assert "0 hits" in first
        assert run(base + ["--output", str(out2)]) == 0
        second = capsys.readouterr().out
        assert "0 built" in second
        assert out1.read_bytes() == out2.read_bytes()
        records = [json.loads(l) for l in out1.read_text().splitlines()]
        assert all(("stage2" in r) == (r["stage1"] == "rweet") for r in records)

    def test_series_without_model_or_training_data_exit_1(self, tmp_path):
        assert run(["series", "--output", str(tmp_path / "o.jsonl")]) == 1

    def test_series_accepts_any_labeled_input(self, workspace):
        staged = workspace / "staged2"
        assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "4", "--out", str(staged)]) == 0
        # input labels (categorical here) are ignored by the series
        out = workspace / "cat_series.jsonl"
        assert run(["series", "--model", str(staged),
                    "--input", str(workspace / "d2.jsonl"),
                    "--output", str(out)]) == 0
        assert out.exists()

    def test_series_rejects_duplicate_input_ids(self, workspace, tmp_path):
        staged = workspace / "staged3"
        run(["train", "--binary", str(workspace / "d1.jsonl"),
             "--categories", str(workspace / "d2.jsonl"),
             "--combo", "4", "--out", str(staged)])
        dup = tmp_path / "dup.jsonl"
        dup.write_text(json.dumps({"id": "x", "text": "need food at camp"}) + "\n"
                       + json.dumps({"id": "x", "text": "need water at camp"}) + "\n")
        assert run(["series", "--model", str(staged), "--input", str(dup),
                    "--output", str(tmp_path / "o.jsonl")]) == 3

    def test_resubstitution(self, workspace):
        out = workspace / "resub.jsonl"
        assert run(["series",
                    "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "4", "--resubstitution",
                    "--output", str(out)]) == 0
        assert out.exists()


class TestTrain:
    def train(self, workspace, *flags, verbose=False):
        return run([*(["--verbose"] if verbose else []), "train",
                    "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "10", "--out", str(workspace / "staged"), *flags])

    def test_verbose_says_why_each_fit_stopped(self, workspace, capsys):
        assert self.train(workspace) == 0
        quiet_out, quiet_err = capsys.readouterr()
        assert quiet_err == ""
        assert quiet_out.splitlines()[-1] == f"staged model written to {workspace / 'staged'}"
        assert self.train(workspace, verbose=True) == 0
        out, err = capsys.readouterr()
        assert out == quiet_out
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == ["identifier", "categorizer"]
        for line in lines:
            assert " iterations, loss " in line and ", max |grad| " in line
            assert line.endswith(", converged")

    def test_learning_rate_flag_removed(self, workspace):
        assert self.train(workspace, "--learning-rate", "0.1") == 1
        assert self.train(workspace, "--max-epochs", "3", "--tol", "1e-3") == 0

    def test_old_model_version_exit_3(self, workspace, tmp_path, capsys):
        assert self.train(workspace) == 0
        model = workspace / "staged" / "identifier.model"
        model.write_text(model.read_text().replace("MODEL v2", "MODEL v1", 1))
        assert run(["series", "--model", str(workspace / "staged"),
                    "--input", str(workspace / "d1.jsonl"),
                    "--output", str(tmp_path / "o.jsonl")]) == 3
        assert "MODEL v1" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self):
        assert run([]) == 1

    def test_unknown_flag(self):
        assert run(["synth", "--bogus"]) == 1

    def test_config_file_presets_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\nsize bogus ignored? no:\n".replace(
            "size bogus ignored? no:", "# comment line"))
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "synth", "--size", "30", "--out", str(out)]) == 0
        direct = tmp_path / "direct.jsonl"
        assert run(["--seed", "5", "synth", "--size", "30", "--out", str(direct)]) == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\n")
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "--seed", "6", "synth",
                    "--size", "30", "--out", str(out)]) == 0
        direct = tmp_path / "direct.jsonl"
        assert run(["--seed", "6", "synth", "--size", "30", "--out", str(direct)]) == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        # a config written for an older version: the learning_rate knob is gone
        config = tmp_path / "old.cfg"
        config.write_text("seed=5\nlearning_rate=0.1\n")
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "synth", "--size", "30", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "old.cfg" in err and "line 2" in err and "learning_rate" in err
        assert not out.exists()

    def test_config_keys_of_other_subcommands_allowed(self, tmp_path):
        # one preset file serves every subcommand; synth has no --folds or --combo
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\nfolds=3\ncombo=10\nmin-tokens=2\n")
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "synth", "--size", "30", "--out", str(out)]) == 0
