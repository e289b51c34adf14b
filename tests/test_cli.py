import json
import random

import pytest

from oracles import save_version_1_matrix, with_header
from rweets import artifact
from rweets.cli import main
from rweets.errors import FormatError
from rweets.pipeline import STAGED_FILE, load_staged
from rweets.preprocess import DEFAULT_OPS


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

    # sha256 of `synth --size 300` per domain and seed 1..5: the bench inputs
    # and every figure measured on them rest on these bytes
    DIGESTS = {
        "binary": (
            "a3b822de3c38cac268ce858ac7b43968e28996d343a95c1d19fbd1b4b0ae3193",
            "4fe7ea0f4b47392e58f367397120fa850979a28c60e109d8baef06ec2824ac65",
            "3cbd51a4924c9ef949325c3f2d6388b6d20c57b4e1b7ab016e1b1f4bcf984e89",
            "1c6336e0988098aefc75fa69666993a2f0b00b40b04e5a6d667394f19feeadb8",
            "f386462a646f175cd59b3874bec8a048ae3b401b6e45977b0d88d6edbafb6eec",
        ),
        "categorical": (
            "1d33e4192b484e5b2cd9244be72f2df1ef71a842269b565a9e7fd7815275bcc3",
            "fe2a08a0793777aa52668115149d45a4131b20b094ca7aa7836b16fea1477296",
            "6035c8ce04e29cda8ee7a9d33b52d245dcf6cf03bc02e3621017aacebeba1466",
            "d53cf6bf5e8696ac802d44504b62b605f2a833efe3521e3910f7cb31022067a6",
            "b63715eeef83860b0cfd02c8ed576ff02c6fc5ae32b710ee31d1cfadebeeb353",
        ),
    }

    @pytest.mark.parametrize("domain", sorted(DIGESTS))
    def test_pinned_bytes(self, tmp_path, domain):
        import hashlib

        out = tmp_path / "d.jsonl"
        for seed, digest in enumerate(self.DIGESTS[domain], start=1):
            assert run(["--seed", str(seed), "synth", "--size", "300", "--domain", domain,
                        "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, seed


class TestStartup:
    """A command imports only the modules it uses; numpy only where it computes."""

    def test_rules_and_synth_import_no_numpy(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import rweets

        source = tmp_path / "in.jsonl"
        source.write_text('{"id": "1", "text": "where can I donate?"}\n')
        code = (
            "import sys\n"
            "from rweets.cli import main\n"
            f"assert main(['rules', 'classify', '--input', {str(source)!r},"
            f" '--output', {str(tmp_path / 'out.jsonl')!r}]) == 0\n"
            f"assert main(['synth', '--size', '30', '--out', {str(tmp_path / 's.jsonl')!r}]) == 0\n"
            "import rweets\n"
            "rweets.BINARY, rweets.rule_classify, rweets.RweetsError\n"
            "import json\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] in ('numpy', 'rweets')]))\n"
        )
        src = str(Path(rweets.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert "numpy" not in loaded
        assert {"rweets.cli", "rweets.corpus", "rweets.jsonl", "rweets.rules"} <= set(loaded)
        assert not {"rweets.features", "rweets.models", "rweets.preprocess"} & set(loaded)
        assert json.loads((tmp_path / "out.jsonl").read_text())["rule_label"] == "rweet"

    # every name `rweets` re-exports, by its defining module
    EXPORTS = {
        "corpus": ("BINARY", "CATEGORICAL", "Dataset", "LabelDomain", "RawTweet",
                   "load_dataset", "save_dataset", "synth_corpus"),
        "errors": ("FormatError", "NotFittedError", "RweetsError", "StaleCacheError",
                   "TrainingDivergedError", "ValidationError"),
        "features": ("FeatureConfig", "FeatureMatrix", "Vocabulary", "combo",
                     "enumerate_combos"),
        "metrics": ("MetricsReport", "compute_report"),
        "models": ("LogisticRegression", "MultinomialNaiveBayes", "cross_validate",
                   "stratified_kfold"),
        "pipeline": ("FeatureCache", "StagedClassifier", "run_series", "train_staged"),
        "preprocess": ("CleanCorpus", "PipelineConfig", "run_pipeline"),
        "rules": ("compile_patterns", "match_tweet", "rule_classify", "rule_features"),
        "sparse": ("SparseMatrix",),
    }

    def test_package_names_are_their_modules_objects(self):
        import importlib

        import rweets

        listed = dir(rweets)
        for module, names in self.EXPORTS.items():
            defining = importlib.import_module(f"rweets.{module}")
            for name in names:
                assert getattr(rweets, name) is getattr(defining, name), name
                assert name in listed, name
        exec("from rweets import synth_corpus, SparseMatrix, __version__", {})
        for missing in ("rule_bits", "not_a_name", "__all__"):
            with pytest.raises(AttributeError, match=f"'rweets' has no attribute '{missing}'"):
                getattr(rweets, missing)

    def test_cli_names_resolve_to_their_modules(self):
        from rweets import cli, features, rules

        assert cli.save_matrix is features.save_matrix
        assert cli.rule_classify is rules.rule_classify
        with pytest.raises(AttributeError, match="'rweets.cli' has no attribute 'np'"):
            cli.np


class TestPreprocess:
    """The input of the cleaning stage, as the commands that clean read it."""

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["evaluate", "--input", str(tmp_path / "no.jsonl"), "--combo", "1"]) == 2

    def test_validation_error_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "1", "text": "x", "label": "bogus"}\n')
        assert run(["evaluate", "--input", str(bad), "--combo", "1"]) == 3
        assert "bad.jsonl: line 1: " in capsys.readouterr().err


class TestFeaturize:
    """The feature flags, as the commands that featurize read them."""

    def test_combo_out_of_range_exit_1(self, workspace, capsys):
        for combo in ("0", "25"):
            assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                        "--categories", str(workspace / "d2.jsonl"), "--combo", combo,
                        "--out", str(workspace / "m")]) == 1
            assert f"--combo must be in 1..24, got {combo}" in capsys.readouterr().err
        assert not (workspace / "m").exists()


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

    def test_each_text_costs_one_rule_pass(self, tmp_path, rule_walks):
        import re

        from rweets.corpus import BINARY, synth_corpus
        from rweets.rules import PATTERN_SOURCES

        oracle = [re.compile(source, re.IGNORECASE) for source in PATTERN_SOURCES]
        texts = ["calm morning by the bay", "Where can I donate clothes"]
        texts += [tw.text for tw in synth_corpus(17, 40, BINARY)]
        labels = []
        for n, text in enumerate(texts):
            source, out = tmp_path / f"in{n}.jsonl", tmp_path / f"out{n}.jsonl"
            source.write_text(json.dumps({"id": str(n), "text": text}) + "\n")
            rule_walks.clear()
            assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
            record = json.loads(out.read_text())
            bits = record["rule_bits"]
            assert bits == [int(p.search(text) is not None) for p in oracle]
            # one walk of the stage tree gives both the bits and the label
            assert rule_walks == [text]
            assert record["rule_label"] == ("rweet" if any(bits) else "not_rweet")
            labels.append(any(bits))
        assert labels[:2] == [False, True]
        assert True in labels[2:] and False in labels[2:]  # synth covers both kinds

    def test_repeated_texts_under_other_ids(self, tmp_path, rule_walks):
        import random
        import re

        from rweets.corpus import BINARY, synth_corpus
        from rweets.rules import PATTERN_SOURCES

        texts = [tw.text for tw in synth_corpus(18, 60, BINARY)]
        texts += ["I am\nbringing food", "I am\rbringing food", "need shelter?\nnow", ""]
        records = [{"id": f"{copy}{n}", "text": text}
                   for copy in ("a", "b", "c") for n, text in enumerate(texts)]
        random.Random(5).shuffle(records)
        source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records))
        distinct = list(dict.fromkeys(r["text"] for r in records))
        assert len(distinct) == len(set(texts)) < len(records) // 2
        for _ in range(2):  # the memo lasts one call
            rule_walks.clear()
            assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
            assert rule_walks == distinct
            rows = [json.loads(line) for line in out.read_text().splitlines()]
            assert [(r["id"], r["text"]) for r in rows] == [(r["id"], r["text"]) for r in records]
            labels = set()
            for row in rows:
                bits = [int(re.search(s, row["text"], re.IGNORECASE) is not None)
                        for s in PATTERN_SOURCES]
                assert row["rule_bits"] == bits, row["id"]
                assert row["rule_label"] == ("rweet" if any(bits) else "not_rweet"), row["id"]
                labels.add(row["rule_label"])
            assert labels == {"rweet", "not_rweet"}

    def test_each_chunk_matches_its_distinct_texts_once(self, tmp_path, rule_walks,
                                                          monkeypatch):
        import re

        from rweets import jsonl
        from rweets.rules import PATTERN_SOURCES

        monkeypatch.setattr(jsonl, "_CHUNK", 3)
        a, b, c = "need shelter?", "quiet night here", "I am bringing food"
        texts = [a, b, a, c, b, a, c]
        source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text("".join(json.dumps({"id": str(n), "text": t}) + "\n"
                                  for n, t in enumerate(texts)))
        assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
        # chunks [a, b, a], [c, b, a], [c]: each walks its distinct texts in
        # first-appearance order, and a text of an earlier chunk is walked again
        assert rule_walks == [a, b, c, b, a, c]
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["text"] for row in rows] == texts
        for row in rows:
            bits = [int(re.search(s, row["text"], re.IGNORECASE) is not None)
                    for s in PATTERN_SOURCES]
            assert row["rule_bits"] == bits
            assert row["rule_label"] == ("rweet" if any(bits) else "not_rweet")

    def test_bad_line_after_a_written_chunk_leaves_no_file(self, tmp_path, capsys):
        from rweets import jsonl

        good = jsonl._CHUNK + 5  # one chunk is written before the bad line is read
        source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text("".join(json.dumps({"id": str(n), "text": "need shelter?"}) + "\n"
                                  for n in range(good)) + '{"id": "bad",\n')
        for before in (None, "old output\n"):
            if before is not None:
                out.write_text(before)
            assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 3
            assert f"in.jsonl: line {good + 1}: malformed JSON" in capsys.readouterr().err
            # no temp file is left, and an earlier output is kept whole
            assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
                ["in.jsonl"] + (["out.jsonl"] if before else []))
            assert before is None or out.read_text() == before

    # hand-written input lines: ids that are not strings, null or missing,
    # text first, rule_label/rule_bits already present (each keeps its place),
    # nested values, Infinity and NaN, and strings the output must escape or
    # keep: quotes, backslashes, control characters, DEL, U+2028/U+2029 and
    # non-BMP characters
    ODD_LINES = (
        '{"id": 7, "text": "we need water"}',
        '{"id": null, "text": "calm night"}',
        '{"id": 2.5e3, "text": "where can I donate?", "label": "rweet"}',
        '{"id": ["a", 1], "text": "I am bringing food"}',
        '{"text": "no id here, please help"}',
        '{"text": "text first", "id": "t1", "zz": {"nested": [1, {"x": null}]}}',
        '{"rule_label": "stale", "id": "r1", "text": "need shelter?"}',
        '{"id": "r2", "rule_bits": [9], "text": "quiet day", "after": true}',
        '{"rule_bits": null, "text": "we need food", "rule_label": 0}',
        '{"id": "inf", "text": "need help", "score": Infinity, "low": -Infinity, "nan": NaN}',
        '{"id": "big", "text": "x", "n": 123456789012345678901234567890, "f": -0.0}',
        '{"id": "esc\\"q\\\\b", "text": "say \\"help\\" C:\\\\relief\\u0000\\u001f\\t\\r\\n\\u007f"}',
        '{"id": "ls", "text": "donate money\\u2028to the fund\\u2029please help"}',
        '{"id": "astral", "text": "\U0001f6a8 we need medical supplies \\ud83c\\udfe5 help"}',
        '{"id": "caf\u00e9", "text": "caf\u00e9 owners need volunteers \u9700\u8981", "k": "\u00e9"}',
        '{"id": "empty", "text": ""}',
        '{"id": 7, "text": "we need water"}',
    )

    @staticmethod
    def _expected_lines(lines):
        import re

        from rweets.rules import PATTERN_SOURCES

        out = []
        for line in lines:
            record = json.loads(line)
            bits = [int(re.search(s, record["text"], re.IGNORECASE) is not None)
                    for s in PATTERN_SOURCES]
            label = "rweet" if any(bits) else "not_rweet"
            out.append(json.dumps({**record, "rule_label": label, "rule_bits": bits},
                                  ensure_ascii=False))
        return out

    def test_output_lines_are_json_dumps_of_the_records(self, tmp_path):
        from rweets.corpus import BINARY, synth_corpus

        lines = [json.dumps({"id": tw.id, "text": tw.text}) for tw in synth_corpus(19, 80, BINARY)]
        lines[3:3] = self.ODD_LINES
        lines += self.ODD_LINES[::-1]
        source, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
        got = out.read_bytes().decode("utf-8").split("\n")  # U+2028 ends no line
        assert got.pop() == ""
        assert got == self._expected_lines(lines)
        # a key already present keeps its place
        assert got[3 + 6].startswith('{"rule_label": "rweet", "id": "r1", "text": ')
        assert got[3 + 7].startswith('{"id": "r2", "rule_bits": [0, ')
        assert got[3 + 8].startswith('{"rule_bits": [0, ')
        assert '"text": "we need food", "rule_label": "not_rweet"}' in got[3 + 8]
        assert {"rweet", "not_rweet"} <= {json.loads(line)["rule_label"] for line in got}

    def test_chunk_size_does_not_change_the_bytes(self, tmp_path, monkeypatch):
        """Each chunk encodes each of its bit rows' tails at most once; the
        output bytes do not depend on the chunk size."""
        from rweets import cli, jsonl, rules

        tails = []  # per chunk, the bit row of each tail encode_line is asked for
        encode, bit_rows = cli.encode_line, rules.rule_bits

        def counted(record, tail=""):
            if "text" not in record:
                tails[-1].append(tuple(record["rule_bits"]))
            return encode(record, tail)

        def chunk_start(texts):  # one call per chunk, for its distinct texts
            tails.append([])
            return bit_rows(texts)

        monkeypatch.setattr(cli, "encode_line", counted)
        monkeypatch.setattr(rules, "rule_bits", chunk_start)
        texts = ["need shelter?", "quiet night here", "I am bringing food", "need shelter?"]
        lines = [json.dumps({"id": str(n), "text": t}) for n, t in enumerate(texts)]
        lines += self.ODD_LINES
        # plain records, {"id": str, "text": str}, mixed at random with
        # text-first, non-string id and extra-key records: chunks of 1, 2 and
        # 3 start and end on each kind
        rng = random.Random(29)
        for n in range(60):
            text = rng.choice(texts)
            lines.append(json.dumps(rng.choice([
                {"id": f"p{n}", "text": text}, {"id": f"p{n}", "text": text},
                {"text": text, "id": f"f{n}"}, {"id": n, "text": text},
                {"id": f"k{n}", "text": text, "k": [n]}])))
        source = tmp_path / "in.jsonl"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        outputs = []
        for size in (1, 2, 3, 1024):
            monkeypatch.setattr(jsonl, "_CHUNK", size)
            tails.clear()
            out = tmp_path / f"out{size}.jsonl"
            assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
            assert len(tails) == -(-len(lines) // size)
            for encoded in tails:
                assert len(encoded) == len(set(encoded)), (size, encoded)
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]
        got = outputs[0].decode("utf-8").split("\n")
        assert got[:-1] == self._expected_lines(lines)

    @pytest.mark.parametrize("content", [None, '{"id": "1", "text": "need shelter?"}\n{"id":\n'],
                             ids=["missing input", "bad line 2"])
    def test_failing_first_chunk_leaves_no_directory(self, tmp_path, capsys, content):
        """A missing input (exit 2) or a bad line in the first chunk (exit 3)
        fails before the output or its new directory is made."""
        source = tmp_path / "in.jsonl"
        if content is not None:
            source.write_text(content)
        out = tmp_path / "new" / "sub" / "out.jsonl"
        code = run(["rules", "classify", "--input", str(source), "--output", str(out)])
        assert code == (2 if content is None else 3)
        assert ("in.jsonl: line 2: malformed JSON" in capsys.readouterr().err) == (code == 3)
        assert not (tmp_path / "new").exists()

    def test_empty_input_writes_an_empty_file(self, tmp_path, capsys):
        source, out = tmp_path / "in.jsonl", tmp_path / "new" / "out.jsonl"
        source.write_text("")
        assert run(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
        assert out.read_bytes() == b""
        assert "classified 0 tweets" in capsys.readouterr().out

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

    @pytest.mark.parametrize("flag, clf, message", [
        ("--alpha", "nb", "alpha must be positive"),
        ("--l2-penalty", "logreg", "l2_penalty must be nonnegative"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_hyperparameter_is_a_validation_error(self, workspace, capsys, flag,
                                                             clf, message, value):
        """A NaN fails every comparison, so a bound check alone lets it
        through: NB would predict one class for every tweet, and logreg
        would fail with a loss that is not finite."""
        assert run(["evaluate", "--input", str(workspace / "d1.jsonl"), "--folds", "2",
                    "--combo", "1", "--clf", clf, flag, value]) == 3
        assert message in capsys.readouterr().err


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

    def test_cache_round_trips_odd_ids(self, workspace, capsys):
        staged = workspace / "staged"
        assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "10", "--out", str(staged)]) == 0
        odd = ("x\ny{}", "tab\t{}", "nul{}\x00", "\U0001f6a8{}")
        records = [json.loads(l) for l in (workspace / "d1.jsonl").read_text().splitlines()]
        source = workspace / "odd.jsonl"
        source.write_text("".join(
            json.dumps({"id": odd[i % 4].format(i), "text": r["text"]}) + "\n"
            for i, r in enumerate(records)))
        base = ["--cache-dir", str(workspace / "cache"), "--verbose", "series",
                "--model", str(staged), "--input", str(source)]
        cold, warm = workspace / "cold.jsonl", workspace / "warm.jsonl"
        assert run(base + ["--output", str(cold)]) == 0
        assert "0 hits, 2 misses, 2 built" in capsys.readouterr().out
        assert run(base + ["--output", str(warm)]) == 0
        assert "cache: 2 hits, 0 misses, 0 built" in capsys.readouterr().out
        assert cold.read_bytes() == warm.read_bytes()
        ids = {json.loads(l)["id"] for l in cold.read_text().splitlines()}
        assert all(any(c in i for i in ids) for c in ("\n", "\t", "\x00", "\U0001f6a8"))

    def test_cached_row_ids_outside_the_input_exit_3(self, workspace, capsys):
        staged = workspace / "staged"
        assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "10", "--out", str(staged)]) == 0
        base = ["--cache-dir", str(workspace / "cache"), "series", "--model", str(staged),
                "--input", str(workspace / "d1.jsonl"), "--output", str(workspace / "o.jsonl")]
        assert run(base) == 0
        # only stage 1's entry stores the positions of its rows; its last row
        # moved past the last input row
        (path,) = (p for p in (workspace / "cache").iterdir()
                   if "positions" in artifact.load(p, "cache")[1])
        header, arrays = artifact.load(path, "cache")
        n_inputs = len((workspace / "d1.jsonl").read_text().splitlines())
        positions = arrays["positions"].astype("<i8")
        positions[-1] = n_inputs
        artifact.save(path, "cache", header["digest"], header["meta"],
                      **{**arrays, "positions": positions})
        capsys.readouterr()
        assert run(base) == 3
        assert f"{path.name}: damaged cache entry (positions" in capsys.readouterr().err

    def test_cached_positions_of_the_wrong_type_exit_3(self, workspace, capsys):
        staged = workspace / "staged"
        assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "10", "--out", str(staged)]) == 0
        base = ["--cache-dir", str(workspace / "cache"), "series", "--model", str(staged),
                "--input", str(workspace / "d1.jsonl"), "--output", str(workspace / "o.jsonl")]
        assert run(base) == 0
        (path,) = (p for p in (workspace / "cache").iterdir()
                   if "positions" in artifact.load(p, "cache")[1])
        header, arrays = artifact.load(path, "cache")
        arrays["positions"] = tuple(map(str, arrays["positions"].tolist()))
        artifact.save(path, "cache", header["digest"], header["meta"], **arrays)
        capsys.readouterr()
        assert run(base) == 3
        assert f"{path.name}: damaged cache entry (positions must be" in (
            capsys.readouterr().err)

    # a cache directory holds one file per stage of each staged model it
    # serves, whatever inputs went through it; files of earlier layouts
    # stay as they were
    def test_a_cache_dir_holds_two_files_per_staged_model(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import rweets
        from rweets.corpus import BINARY, CATEGORICAL, save_dataset, synth_corpus
        from rweets.features import combo, featurize_tokens, save_matrix
        from rweets.models import CLASSIFIERS
        from rweets.pipeline import save_staged, train_staged

        def series(*args):  # the CLI in a process of its own, as a user runs it
            src = str(Path(rweets.__file__).parents[1])
            subprocess.run([sys.executable, "-m", "rweets.cli", *args], cwd=tmp_path, check=True,
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True)

        d1, d2 = synth_corpus(41, 200, BINARY), synth_corpus(42, 200, CATEGORICAL)
        for kind in ("logreg", "nb"):
            save_staged(train_staged(d1, d2, combo(10), make_clf=CLASSIFIERS[kind])[0],
                        tmp_path / kind)
        inputs = ("a", "b", "c")
        for seed, name in enumerate(inputs, 46):
            save_dataset(synth_corpus(seed, 150, BINARY), tmp_path / f"{name}.jsonl")
        for name, kind in [*((name, "logreg") for name in inputs), ("a", "nb")]:
            assert run(["series", "--model", str(tmp_path / kind), "--input",
                        str(tmp_path / f"{name}.jsonl"),
                        "--output", str(tmp_path / f"{name}_{kind}_none.jsonl")]) == 0
        (tmp_path / "cache").mkdir()
        fm = featurize_tokens([["need", "food"], ["calm", "night"]], ["x", "y"], combo(1))
        old = {tmp_path / "cache" / f"{n:016x}.matrix": save for n, save in
               enumerate((save_version_1_matrix, save_matrix))}
        for path, save in old.items():
            save(fm, path, path.stem)
        before = {path: path.read_bytes() for path in old}
        for name in inputs:
            series("--cache-dir", "cache", "series", "--model", "logreg", "--input",
                   f"{name}.jsonl", "--output", f"{name}_cached.jsonl")
            assert ((tmp_path / f"{name}_cached.jsonl").read_bytes()
                    == (tmp_path / f"{name}_logreg_none.jsonl").read_bytes())
            new = set((tmp_path / "cache").iterdir()) - set(old)
            assert len(new) == 2 and all(path.suffix == ".cache" for path in new)
        assert {path: path.read_bytes() for path in old} == before
        for kind in ("logreg", "nb"):
            series("--cache-dir", "shared", "series", "--model", kind, "--input", "a.jsonl",
                   "--output", f"shared_{kind}.jsonl")
            assert ((tmp_path / f"shared_{kind}.jsonl").read_bytes()
                    == (tmp_path / f"a_{kind}_none.jsonl").read_bytes())
        assert len(list((tmp_path / "shared").iterdir())) == 4

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

    def test_classifier_from_flags(self):
        from rweets import cli
        from rweets.models import LogisticRegression, MultinomialNaiveBayes

        args = cli._parser().parse_args(["train", "--binary", "b", "--categories", "c",
                                         "--out", "m", "--max-epochs", "7", "--alpha", "2"])
        clf = cli._classifier(args)()
        assert type(clf) is LogisticRegression
        assert (clf.l2_penalty, clf.max_epochs, clf.tol) == (1e-4, 7, 1e-6)
        args.clf = "nb"  # the logreg flags are not NB's: it takes only --alpha
        make_nb = cli._classifier(args)
        nb = make_nb()
        assert type(nb) is MultinomialNaiveBayes and nb.alpha == 2.0
        assert make_nb() is not nb  # each call gives a fresh classifier

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_tol_outside_its_range_is_a_validation_error(self, workspace, capsys, value):
        """No gradient norm is <= NaN and none is <= a negative bound, so
        such a tol would run every fit until no_progress; an infinite one
        would stop each fit at its start."""
        assert self.train(workspace, "--tol", value) == 3
        assert "tol must be nonnegative and finite" in capsys.readouterr().err
        assert not (workspace / "staged").exists()

    def test_learning_rate_flag_removed(self, workspace):
        assert self.train(workspace, "--learning-rate", "0.1") == 1
        assert self.train(workspace, "--max-epochs", "3", "--tol", "1e-3") == 0

    def series(self, workspace, tmp_path):
        return run(["series", "--model", str(workspace / "staged"),
                    "--input", str(workspace / "d1.jsonl"), "--output", str(tmp_path / "o.jsonl")])

    def test_old_model_version_exit_3(self, workspace, tmp_path, capsys):
        assert self.train(workspace) == 0
        model = workspace / "staged" / STAGED_FILE
        model.write_bytes(model.read_bytes().replace(b'"version":1}', b'"version":0}', 1))
        assert self.series(workspace, tmp_path) == 3
        assert "artifact version 0" in capsys.readouterr().err

    def test_five_file_directory_exit_2(self, workspace, tmp_path, capsys):
        # the layout train wrote before one file held the staged model: a
        # .model and a .vocab file per stage and a JSON manifest
        staged = workspace / "staged"
        for stage in ("identifier", "categorizer"):
            artifact.save(staged / f"{stage}.model", "model", "", {"model": "logreg"},
                          classes_=("not_rweet", "rweet"))
            artifact.save(staged / f"{stage}.vocab", "vocab", "0" * 16, {"n_docs": 1},
                          terms=("food",))
        (staged / "staged.json").write_text("{broken")
        assert self.series(workspace, tmp_path) == 2
        assert f"i/o error: [Errno 2] No such file or directory: '{staged / STAGED_FILE}'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("change", [
        lambda header: header["meta"]["feature_config"].update(min_df=2),
        lambda header: header.update(digest="0" * 16),
    ], ids=["config-edited", "digest-rewritten"])
    def test_rewritten_config_digest_exit_4(self, workspace, tmp_path, capsys, change):
        assert self.train(workspace) == 0
        model = workspace / "staged" / STAGED_FILE
        model.write_bytes(with_header(model.read_bytes(), change))
        assert self.series(workspace, tmp_path) == 4
        assert "config digest mismatch" in capsys.readouterr().err

    def test_staged_model_of_another_order_exit_3(self, workspace, tmp_path, capsys):
        # the default order without dedupe, which earlier versions accepted
        assert self.train(workspace) == 0
        model = workspace / "staged" / STAGED_FILE
        ops = [op for op in DEFAULT_OPS if op != "dedupe"]
        model.write_bytes(with_header(
            model.read_bytes(), lambda header: header["meta"]["pipeline_config"].update(ops=ops)))
        with pytest.raises(FormatError, match="DEFAULT_OPS or PUNCT_FIRST_OPS"):
            load_staged(workspace / "staged")
        assert self.series(workspace, tmp_path) == 3
        assert "damaged staged model" in capsys.readouterr().err

    def test_stage_classes_must_be_its_domain_labels(self, workspace, tmp_path, capsys):
        assert self.train(workspace) == 0
        assert self.series(workspace, tmp_path) == 0
        model = workspace / "staged" / STAGED_FILE
        data = model.read_bytes()
        assert data.count(b"not_rweetrweet") == 1  # the identifier's classes
        model.write_bytes(data.replace(b"not_rweetrweet", b"not_rweetrweEt"))
        assert self.series(workspace, tmp_path) == 3
        assert "identifier classes ['not_rweet', 'rweEt'] are not the binary labels" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_files_take_the_umask(self, workspace, tmp_path, umask, mode):
        import os
        import stat

        old = os.umask(umask)
        try:
            assert self.train(workspace) == 0
            assert self.series(workspace, tmp_path) == 0
        finally:
            os.umask(old)
        for path in (workspace / "staged" / STAGED_FILE, tmp_path / "o.jsonl"):
            assert stat.S_IMODE(path.stat().st_mode) == mode, path
        assert sorted(p.name for p in (workspace / "staged").iterdir()) == [STAGED_FILE]


class TestLoneSurrogate:
    """A JSON escape of half a surrogate pair decodes to text no UTF-8 output
    can hold; every reader refuses it with the file and line (exit 3)."""

    LINE = '{"id": "b", "text": "help \\ud800 need food at the camp"}\n'

    def write(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "text": "need water now"}) + "\n" + self.LINE)
        return path

    def test_rules_classify(self, tmp_path, capsys):
        assert run(["rules", "classify", "--input", str(self.write(tmp_path)),
                    "--output", str(tmp_path / "o.jsonl")]) == 3
        assert "bad.jsonl: line 2: lone surrogate" in capsys.readouterr().err
        # an escaped surrogate pair is one valid character
        pair = tmp_path / "pair.jsonl"
        pair.write_text('{"id": "a", "text": "help \\ud83d\\udea8 now"}\n')
        assert run(["rules", "classify", "--input", str(pair),
                    "--output", str(tmp_path / "o.jsonl")]) == 0
        assert json.loads((tmp_path / "o.jsonl").read_text())["text"] == "help \U0001f6a8 now"

    def test_series(self, workspace, tmp_path, capsys):
        staged = workspace / "staged"
        assert run(["train", "--binary", str(workspace / "d1.jsonl"),
                    "--categories", str(workspace / "d2.jsonl"),
                    "--combo", "10", "--out", str(staged)]) == 0
        assert run(["series", "--model", str(staged), "--input", str(self.write(tmp_path)),
                    "--output", str(tmp_path / "o.jsonl")]) == 3
        assert "bad.jsonl: line 2: lone surrogate" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_evaluate(self, workspace, capsys):
        source = workspace / "bad.jsonl"
        source.write_text((workspace / "d1.jsonl").read_text()
                          + self.LINE.replace('"id": "b"', '"id": "b", "label": "rweet"'))
        assert run(["evaluate", "--input", str(source), "--combo", "1"]) == 3
        assert "bad.jsonl: line 121: lone surrogate" in capsys.readouterr().err


class TestNotUtf8:
    """A line holding bytes that are not UTF-8 is a validation error (exit 3)
    naming the file and line, in a JSONL input and in a config file."""

    def test_rules_classify(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"id": "a", "text": "need water now"}\n'
                         b'{"id": "b", "text": "help \xff now"}\n')
        assert run(["rules", "classify", "--input", str(path),
                    "--output", str(tmp_path / "o.jsonl")]) == 3
        assert "bad.jsonl: line 2: bytes that are not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "preset.cfg"
        config.write_bytes(b"# presets\nthreshold=\xff\n")
        assert run(["--config", str(config), "synth", "--size", "5",
                    "--out", str(tmp_path / "d.jsonl")]) == 3
        assert "preset.cfg: line 2: bytes that are not UTF-8" in capsys.readouterr().err


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
        # a config written for an older version (the learning_rate knob is
        # gone), and flags that a file cannot preset
        config = tmp_path / "old.cfg"
        out = tmp_path / "s.jsonl"
        for line in ("learning_rate=0.1", "version=true", "help=1", "config=other.cfg"):
            config.write_text(f"seed=5\n{line}\n")
            assert run(["--config", str(config), "synth", "--size", "30",
                        "--out", str(out)]) == 1, line
            err = capsys.readouterr().err
            key = line.partition("=")[0]
            assert f"old.cfg: line 2: unknown key {key!r}" in err, line
            assert not out.exists()

    def test_config_file_order(self, workspace, capsys):
        # the pipeline config is in the staged model's bytes
        config = workspace / "run.cfg"
        train = ["train", "--binary", str(workspace / "d1.jsonl"),
                 "--categories", str(workspace / "d2.jsonl"), "--combo", "1", "--out"]
        config.write_text("order=punct-first\nthreshold=0.6\n")
        assert run(["--config", str(config), *train, str(workspace / "cfg")]) == 0
        assert run([*train, str(workspace / "flags"), "--order", "punct-first",
                    "--threshold", "0.6"]) == 0
        assert run([*train, str(workspace / "default")]) == 0
        models = {name: (workspace / name / STAGED_FILE).read_bytes()
                  for name in ("cfg", "flags", "default")}
        assert models["cfg"] == models["flags"] != models["default"]
        config.write_text("order=alphabetical\n")
        capsys.readouterr()
        assert run(["--config", str(config), *train, str(workspace / "bad")]) == 1
        assert ("run.cfg: line 1: order must be one of 'default', 'punct-first', "
                "got 'alphabetical'") in capsys.readouterr().err
        assert not (workspace / "bad").exists()

    # each value outside its flag's choices is a usage error naming the file,
    # the line and the key, whichever subcommand the key belongs to
    @pytest.mark.parametrize("line", ["clf=svm", "vectorizer=x", "order=", "domain="])
    def test_config_value_outside_choices(self, tmp_path, capsys, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed=5\n{line}\n")
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "synth", "--size", "30", "--out", str(out)]) == 1
        key = line.partition("=")[0]
        assert f"run.cfg: line 2: {key} must be one of " in capsys.readouterr().err
        assert not out.exists()

    def test_config_switches(self, workspace, capsys):
        # rules=true in a config file trains the model --rules trains, and
        # verbose=true prints each stage's fit
        config = workspace / "run.cfg"
        train = ["train", "--binary", str(workspace / "d1.jsonl"),
                 "--categories", str(workspace / "d2.jsonl"), "--ngrams", "1,2", "--out"]
        config.write_text("rules=true\nverbose=false\n")
        assert run(["--config", str(config), *train, str(workspace / "cfg")]) == 0
        assert run([*train, str(workspace / "flag"), "--rules"]) == 0
        assert run([*train, str(workspace / "plain")]) == 0
        models = {name: (workspace / name / STAGED_FILE).read_bytes()
                  for name in ("cfg", "flag", "plain")}
        assert models["cfg"] == models["flag"] != models["plain"]
        config.write_text("verbose=true\n")
        capsys.readouterr()
        assert run(["--config", str(config), *train, str(workspace / "verbose")]) == 0
        err = capsys.readouterr().err
        assert [line.split(":")[0] for line in err.splitlines()] == ["identifier", "categorizer"]
        config.write_text("# a switch reads true or false\nrules=yes\n")
        assert run(["--config", str(config), *train, str(workspace / "bad")]) == 3
        assert "run.cfg: line 2: bad value for rules" in capsys.readouterr().err
        assert not (workspace / "bad").exists()

    def test_combo_with_feature_flags(self, workspace, capsys):
        config = workspace / "run.cfg"
        config.write_text("combo=1\n")
        train = ["train", "--binary", str(workspace / "d1.jsonl"),
                 "--categories", str(workspace / "d2.jsonl"), "--out", str(workspace / "m")]
        for preset, flags, named in (
                (True, ["--vectorizer", "tf-idf", "--ngrams", "1,2", "--rules"], "--vectorizer"),
                (False, ["--combo", "10", "--rules"], "--rules")):
            capsys.readouterr()
            assert run([*(["--config", str(config)] if preset else []), *train, *flags]) == 1
            assert f"--combo and {named} cannot be given together" in capsys.readouterr().err
            assert not (workspace / "m").exists()

    def test_calls_share_no_parsed_values(self, tmp_path, monkeypatch):
        from rweets import cli

        seen = []
        for command in ("evaluate", "train"):
            monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(args) or 0)
        config = tmp_path / "run.cfg"
        config.write_text("combo=7\nthreshold=0.3\nclf=nb\nfolds=3\n")
        assert run(["--config", str(config), "--verbose", "--seed", "2", "evaluate",
                    "--input", "a.jsonl", "--rules"]) == 0
        assert run(["train", "--binary", "b.jsonl", "--categories", "c.jsonl",
                    "--out", "m", "--ngrams", "1,2"]) == 0
        assert run(["evaluate", "--input", "d.jsonl", "--domain", "categorical"]) == 0
        first, second, third = (vars(args) for args in seen)
        assert (first["combo"], first["threshold"], first["clf"], first["folds"]) == (
            7, 0.3, "nb", 3)
        assert first["verbose"] and first["seed"] == 2 and first["rules"]
        assert second["command"] == "train" and "input" not in second and "folds" not in second
        assert second["ngrams"] == "1,2" and second["binary"] == "b.jsonl"
        for args in (second, third):
            assert args["config"] is None and args["seed"] is None and not args["verbose"]
            assert args["combo"] is None and args["threshold"] is None and args["clf"] is None
            assert not args["rules"]
        assert third["folds"] is None and third["domain"] == "categorical"
        assert third["input"] == "d.jsonl" and third["ngrams"] is None
        assert cli._parser() is cli._parser()

    def test_config_keys_of_other_subcommands_allowed(self, tmp_path):
        # one preset file serves every subcommand; synth has no --folds or --combo
        config = tmp_path / "run.cfg"
        config.write_text("seed=5\nfolds=3\ncombo=10\nmin-tokens=2\n")
        out = tmp_path / "s.jsonl"
        assert run(["--config", str(config), "synth", "--size", "30", "--out", str(out)]) == 0
