"""The featurize matrix cache and the series feature cache, run as separate
processes, `python -m rweets.cli`, in a temporary directory: a clean file
rewritten to the same content is a hit, a version-1 matrix is rebuilt and
then a hit, rows that a separator-joined digest would read alike build
their own matrices, and a series call with a cold and then a warm cache
writes the bytes of a call with none, building nothing when warm. Series
inputs holding strings JSON escapes, CRLF line ends or a malformed line are
written as `json.dumps` lines, read as their LF original, or refused (exit
3); the chunk kinds of the reader are checked in process."""

import json
import random
from pathlib import Path

import pytest

from oracles import save_version_1_matrix
from rweets import artifact, cli, jsonl
from rweets.features import FeatureConfig, load_matrix
from test_rules_cli import crlf_copy, mixed_kind_lines, rweets_cli, rweets_run


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """d1.jsonl (600 binary synth tweets, seed 1), d2.jsonl (600 categorical,
    seed 2), in.jsonl (2,000 binary, seed 3), and the combo-10 staged model
    trained on d1 and d2 in model/."""
    directory = tmp_path_factory.mktemp("cache_cli")
    rweets_cli("--seed", "1", "synth", "--size", "600", "--out", "d1.jsonl", cwd=directory)
    rweets_cli("--seed", "2", "synth", "--size", "600", "--domain", "categorical",
               "--out", "d2.jsonl", cwd=directory)
    rweets_cli("--seed", "3", "synth", "--size", "2000", "--out", "in.jsonl", cwd=directory)
    rweets_cli("train", "--binary", "d1.jsonl", "--categories", "d2.jsonl", "--combo", "10",
               "--out", "model", cwd=directory)
    return directory


FEATURIZE = ("featurize", "--clean", "d1.clean", "--raw", "d1.jsonl", "--ngrams", "1,2")


def rules_matrix(work, name) -> Path:
    """Build d1.clean, then the --rules matrix of FEATURIZE into `name`."""
    rweets_cli("preprocess", "--input", "d1.jsonl", "--output", "d1.clean", cwd=work)
    rweets_cli(*FEATURIZE, "--rules", "--out", name, cwd=work)
    return work / name


def test_clean_file_rewritten_to_the_same_content_is_a_matrix_hit(work):
    # preprocess writes the same bytes twice, and a clean file rewritten by
    # a third run reads back to the same content digest, which keys
    # featurize: the matrix built before is a cache hit
    rules_matrix(work, "hit.matrix")
    rweets_cli("preprocess", "--input", "d1.jsonl", "--output", "d1.again.clean", cwd=work)
    assert (work / "d1.clean").read_bytes() == (work / "d1.again.clean").read_bytes()
    rweets_cli("preprocess", "--input", "d1.jsonl", "--output", "d1.clean", cwd=work)
    log = rweets_cli(*FEATURIZE, "--rules", "--out", "hit.matrix", cwd=work)
    assert log.startswith("cache hit")


def test_version_1_matrix_is_rebuilt_to_the_same_bytes_then_a_hit(work):
    # rules=true in a config file presets the matrix --rules builds; the
    # same matrix rewritten in the version-1 layout (int64 indptr and
    # indices, float64 data) is rebuilt to those bytes, then a hit
    (work / "rules.cfg").write_text("rules=true\n", encoding="utf-8")
    rweets_cli("preprocess", "--input", "d1.jsonl", "--output", "d1.clean", cwd=work)
    rweets_cli("--config", "rules.cfg", *FEATURIZE, "--out", "preset.matrix", cwd=work)
    path = rules_matrix(work, "flag.matrix")
    preset = (work / "preset.matrix").read_bytes()
    assert path.read_bytes() == preset
    digest = artifact.load(path, "matrix")[0]["digest"]
    fm = load_matrix(path, FeatureConfig(ngram_range=(1, 2), append_rules=True), digest)
    save_version_1_matrix(fm, path, digest)
    assert path.read_bytes() != preset
    log = rweets_cli(*FEATURIZE, "--rules", "--out", "flag.matrix", cwd=work)
    assert log.startswith("wrote ")
    assert path.read_bytes() == preset
    log = rweets_cli(*FEATURIZE, "--rules", "--out", "flag.matrix", cwd=work)
    assert log.startswith("cache hit")


def test_rows_that_a_joined_digest_reads_alike_build_twice(work):
    # the content digest length-prefixes each field: one row whose id holds
    # "\x1f" and "\x1e", then the two rows that a separator-joined digest
    # read it as, featurized into one --out, must build twice
    (work / "join1.jsonl").write_text(
        '{"id": "a\\u001fneed food\\u001f\\u001eb", "text": "help shelter"}\n', encoding="utf-8")
    (work / "join2.jsonl").write_text(
        '{"id": "a", "text": "need food"}\n{"id": "b", "text": "help shelter"}\n',
        encoding="utf-8")
    logs = []
    for n in (1, 2):
        rweets_cli("preprocess", "--input", f"join{n}.jsonl", "--output", f"join{n}.clean",
                   cwd=work)
        logs.append(rweets_cli("featurize", "--clean", f"join{n}.clean", "--combo", "1",
                               "--out", "join.matrix", cwd=work))
    assert logs[0].startswith("wrote 1x")
    assert logs[1].startswith("wrote 2x")


def test_series_with_a_cold_and_a_warm_cache_writes_the_bytes_of_none(work):
    series = ("series", "--model", "model", "--input", "in.jsonl")
    rweets_cli(*series, "--output", "none.jsonl", cwd=work)
    logs = {run: rweets_cli("--cache-dir", "cache", "--verbose", *series,
                            "--output", f"{run}.jsonl", cwd=work).splitlines()
            for run in ("cold", "warm")}
    assert "cache: 0 hits, 2 misses, 2 built" in logs["cold"]
    assert "cache: 2 hits, 0 misses, 0 built" in logs["warm"]
    # the summary line counts the output's lines and their rweets
    for run, log in logs.items():
        lines = (work / f"{run}.jsonl").read_bytes().split(b"\n")
        assert lines.pop() == b""
        rweets = sum(b'"stage1": "rweet"' in line for line in lines)
        assert log[0] == f"{len(lines)} tweets classified; {rweets} rweets categorized"
        assert (work / f"{run}.jsonl").read_bytes() == (work / "none.jsonl").read_bytes()


# hand-written lines whose strings the output must escape or keep: quotes,
# backslashes, control characters, DEL, U+2028/U+2029, non-BMP and non-ASCII
# characters
ODD_LINES = r"""
{"id": "odd-\"quote\"", "text": "we urgently need \"clean water\" and food for families, please help"}
{"id": "odd-back\\slash", "text": "volunteers needed at the shelter C:\\relief\\camp tonight, please help"}
{"id": "odd-ctrl\u0001", "text": "we need\tblankets\u0000 and\u001f clothes\u007f for the children\r\nplease donate"}
{"id": "odd-\u2028", "text": "donate money\u2028to the flood relief fund\u2029please help the victims"}
{"id": "odd-\ud83d\udea8", "text": "🚨 we need medical supplies and doctors at the hospital \ud83c\udfe5 please help"}
{"id": "odd-caf\u00e9", "text": "café owners bring food and water to the shelter, we need volunteers 需要"}
""".strip("\n").split("\n")


def test_odd_lines_are_json_dumps_with_and_without_the_cache(work):
    """Each output line is the json.dumps of its record, and the same bytes
    with no cache, a cold one and a warm one. The cache is first filled by
    another input, whose entries the odd input overwrites in their slots."""
    series = ("series", "--model", "model", "--input", "in.jsonl")
    rweets_cli("--cache-dir", "odd_cache", *series, "--output", "odd_fill.jsonl", cwd=work)
    (work / "odd.jsonl").write_text((work / "in.jsonl").read_text(encoding="utf-8")
                                    + "".join(line + "\n" for line in ODD_LINES), encoding="utf-8")
    odd = ("series", "--model", "model", "--input", "odd.jsonl")
    rweets_cli(*odd, "--output", "odd_none.jsonl", cwd=work)
    rweets_cli("--cache-dir", "odd_cache", *odd, "--output", "odd_cold.jsonl", cwd=work)
    log = rweets_cli("--cache-dir", "odd_cache", "--verbose", *odd, "--output", "odd_warm.jsonl",
                     cwd=work)
    assert "cache: 2 hits, 0 misses, 0 built" in log.splitlines()
    none = (work / "odd_none.jsonl").read_bytes()
    assert (work / "odd_cold.jsonl").read_bytes() == none
    assert (work / "odd_warm.jsonl").read_bytes() == none
    assert len(list((work / "odd_cache").iterdir())) == 2
    lines = none.decode("utf-8").split("\n")  # U+2028 ends no line
    assert lines.pop() == ""
    for line in lines:
        assert line == json.dumps(json.loads(line), ensure_ascii=False), line
    odd_ids = [json.loads(line)["id"] for line in lines if line.startswith('{"id": "odd-')]
    assert len(odd_ids) == 6, odd_ids


def test_crlf_input_writes_the_series_of_the_lf_original(work):
    """CRLF line ends with blank and whitespace-only lines mixed in read as
    the LF original does."""
    crlf_copy(work / "in.jsonl", work / "crlf.jsonl")
    for name in ("in", "crlf"):
        rweets_cli("series", "--model", "model", "--input", f"{name}.jsonl",
                   "--output", f"{name}_series.jsonl", cwd=work)
    assert (work / "crlf_series.jsonl").read_bytes() == (work / "in_series.jsonl").read_bytes()


def test_malformed_line_3_exits_3_naming_the_line(work):
    first, second, rest = (work / "in.jsonl").read_text(encoding="utf-8").split("\n", 2)
    (work / "bad.jsonl").write_text(f'{first}\n{second}\n{{"id": "bad",\n{rest}',
                                    encoding="utf-8")
    proc = rweets_run("series", "--model", "model", "--input", "bad.jsonl",
                      "--output", "bad_out.jsonl", cwd=work)
    assert proc.returncode == 3, proc.stderr
    assert "bad.jsonl: line 3: malformed JSON" in proc.stderr


# series input records that are not exactly {"id": str, "text": str}
SERIES_LAYOUTS = (lambda i, t: {"text": t, "id": i},
                  lambda i, t: {"id": i, "text": t, "label": "rweet"},
                  lambda i, t: {"id": i, "n": [1, {"k": None}], "text": t})


def test_series_chunks_of_every_kind_are_json_dumps(work, tmp_path, monkeypatch):
    """Chunks written raw with no backslash, with ensure_ascii, with strings
    JSON escapes and with other record layouts interleave; with no cache, a
    cold and a warm one, every output line is the json.dumps of its input's
    id and text with the stage fields."""
    monkeypatch.setattr(jsonl, "_CHUNK", 4)
    with open(work / "in.jsonl", encoding="utf-8") as fh:
        starts = [json.loads(line)["text"] for line in fh][:300]
    source = tmp_path / "kinds.jsonl"
    source.write_text("".join(mixed_kind_lines(random.Random(6), starts, 150, SERIES_LAYOUTS)),
                      encoding="utf-8")
    assert {escape_free for *_, escape_free in jsonl.read_chunks(source)} == {False, True}
    records = list(jsonl.read_records(source))
    series = ["series", "--model", str(work / "model"), "--input", str(source)]
    outputs = []
    cache = ["--cache-dir", str(tmp_path / "cache")]
    for flags in ([], cache, cache):  # no cache, cold, warm
        out = tmp_path / "out.jsonl"
        assert cli.main([*flags, *series, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    lines = outputs[0].decode("utf-8").split("\n")  # U+2028 ends no line
    assert lines.pop() == ""
    texts = {record["id"]: record["text"] for record in records}
    rows = [json.loads(line) for line in lines]
    # the rows cleaning keeps, in input order
    assert [row["id"] for row in rows] == [i for i in texts if i in {row["id"] for row in rows}]
    assert len(rows) > 200
    for row, line in zip(rows, lines):
        stages = {k: v for k, v in row.items() if k in ("stage1", "stage2")}
        expected = {"id": row["id"], "text": texts[row["id"]], **stages}
        assert line == json.dumps(expected, ensure_ascii=False), line
    assert {row["stage1"] for row in rows} == {"rweet", "not_rweet"}
