"""The staged model and the series feature cache, run as separate
processes, `python -m rweets.cli`, in a temporary directory: a trained model
is one file, written to the same bytes by every run and by a config file
that presets its flags, and a series call with a cold and then a warm cache
writes the bytes of a call with none, building nothing when warm. Series
inputs holding strings JSON escapes, CRLF line ends or a malformed line are
written as `json.dumps` lines, read as their LF original, or refused (exit
3); the chunk kinds of the reader are checked in process."""

import json
import random

import pytest

from rweets import artifact, cli, jsonl
from rweets.pipeline import STAGED_FILE
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


def test_a_model_is_one_file_and_training_twice_writes_the_same_bytes(work):
    rweets_cli("train", "--binary", "d1.jsonl", "--categories", "d2.jsonl", "--combo", "10",
               "--out", "model2", cwd=work)
    assert [p.name for p in (work / "model").iterdir()] == [STAGED_FILE]
    model = (work / "model" / STAGED_FILE).read_bytes()
    assert (work / "model2" / STAGED_FILE).read_bytes() == model


def test_a_config_file_presets_the_model_of_the_flags_and_prints_each_fit(work):
    (work / "train.cfg").write_text("combo=10\nclf=logreg\nmax_epochs=500\nverbose=true\n",
                                    encoding="utf-8")
    proc = rweets_run("--config", "train.cfg", "train", "--binary", "d1.jsonl",
                      "--categories", "d2.jsonl", "--out", "model3", cwd=work)
    assert proc.returncode == 0
    model = (work / "model" / STAGED_FILE).read_bytes()
    assert (work / "model3" / STAGED_FILE).read_bytes() == model
    lines = proc.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == ["identifier", "categorizer"]
    assert all(" iterations, loss " in line for line in lines)


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


def test_nb_and_logreg_models_share_a_cache_dir(work):
    # an NB model trained on the same data has the same vocabularies but is
    # fed raw counts: after the logreg model fills a shared cache, the NB
    # output must still equal its no-cache output, and each stage of each
    # model has its own file
    rweets_cli("train", "--binary", "d1.jsonl", "--categories", "d2.jsonl", "--combo", "10",
               "--clf", "nb", "--out", "nb", cwd=work)
    nb = ("series", "--model", "nb", "--input", "in.jsonl")
    rweets_cli(*nb, "--output", "nb_none.jsonl", cwd=work)
    rweets_cli("--cache-dir", "shared", "series", "--model", "model", "--input", "in.jsonl",
               "--output", "shared_logreg.jsonl", cwd=work)
    rweets_cli("--cache-dir", "shared", *nb, "--output", "shared_nb.jsonl", cwd=work)
    assert (work / "shared_nb.jsonl").read_bytes() == (work / "nb_none.jsonl").read_bytes()
    assert len(list((work / "shared").iterdir())) == 4


@pytest.fixture()
def canonical(work, tmp_path):
    """The records of in.jsonl (without their labels) and of ODD_LINES, in
    tmp_path/canonical.jsonl as canonical JSONL: each the `json.dumps` line,
    ensure_ascii off, of {"id": id, "text": text}; returns the records."""
    with open(work / "in.jsonl", encoding="utf-8") as fh:
        records = [{"id": r["id"], "text": r["text"]} for r in map(json.loads, fh)]
    records += [json.loads(line) for line in ODD_LINES]
    (tmp_path / "canonical.jsonl").write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")
    return records


def run_series_cli(work, tmp_path, name, *flags, capsys) -> tuple[int, str, str]:
    """cli.main's series on `name`.jsonl in tmp_path with the model of
    `work`: its exit code, stdout and stderr."""
    capsys.readouterr()
    code = cli.main([*flags, "series", "--model", str(work / "model"),
                     "--input", str(tmp_path / f"{name}.jsonl"),
                     "--output", str(tmp_path / f"{name}.out")])
    return (code, *capsys.readouterr())


def cache_flags(tmp_path):
    return "--cache-dir", str(tmp_path / "cache"), "--verbose"


def test_a_warm_call_on_canonical_bytes_decodes_no_json(work, tmp_path, canonical, capsys,
                                                        monkeypatch):
    """Strings that JSON escapes, written by json.dumps: the warm call hits
    both stages under the file's bytes, never reads it as JSON lines, and
    writes the bytes of a call with no cache."""
    assert run_series_cli(work, tmp_path, "canonical", capsys=capsys)[0] == 0
    none = (tmp_path / "canonical.out").read_bytes()
    code, out, _ = run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                                  capsys=capsys)
    assert code == 0 and "cache: 0 hits, 2 misses, 2 built" in out.splitlines()
    assert (tmp_path / "canonical.out").read_bytes() == none

    def refused(*args, **kwargs):
        raise AssertionError("the input was decoded")

    monkeypatch.setattr(jsonl, "read_chunks", refused)
    monkeypatch.setattr(cli, "read_chunks", refused)
    (tmp_path / "canonical.out").unlink()
    code, out, _ = run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                                  capsys=capsys)
    assert code == 0 and "cache: 2 hits, 0 misses, 0 built" in out.splitlines()
    assert (tmp_path / "canonical.out").read_bytes() == none
    odd = [line for line in none.decode("utf-8").split("\n") if line.startswith('{"id": "odd-')]
    assert len(odd) == 6 and any("\\" in line for line in odd)


# the records of a canonical file in other layouts, each one change away
OTHER_LAYOUTS = {
    "crlf": lambda records: "".join(json.dumps(r, ensure_ascii=False) + "\r\n" for r in records),
    "blank lines": lambda records: "\n \t\n".join(json.dumps(r, ensure_ascii=False)
                                                   for r in records) + "\n\n",
    "label": lambda records: "".join(json.dumps({**r, "label": "rweet"}, ensure_ascii=False) + "\n"
                                     for r in records),
    "ensure_ascii": lambda records: "".join(json.dumps(r) + "\n" for r in records),
    "text first": lambda records: "".join(json.dumps({"text": r["text"], "id": r["id"]},
                                                     ensure_ascii=False) + "\n" for r in records),
    "no final newline": lambda records: "\n".join(json.dumps(r, ensure_ascii=False)
                                                  for r in records),
}


def test_other_layouts_of_the_records_hit_through_the_decoding_read(work, tmp_path, canonical,
                                                                   capsys):
    assert run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                          capsys=capsys)[0] == 0
    expected = (tmp_path / "canonical.out").read_bytes()
    for name, layout in OTHER_LAYOUTS.items():
        (tmp_path / "other.jsonl").write_text(layout(canonical), encoding="utf-8")
        assert (tmp_path / "other.jsonl").read_bytes() != (tmp_path / "canonical.jsonl").read_bytes()
        code, out, _ = run_series_cli(work, tmp_path, "other", *cache_flags(tmp_path),
                                      capsys=capsys)
        assert code == 0 and "cache: 2 hits, 0 misses, 0 built" in out.splitlines(), name
        assert (tmp_path / "other.out").read_bytes() == expected, name


def test_a_stage_2_miss_after_a_stage_1_hit_under_the_bytes(work, tmp_path, canonical, capsys):
    assert run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                          capsys=capsys)[0] == 0
    expected = (tmp_path / "canonical.out").read_bytes()
    stage2 = [path for path in (tmp_path / "cache").iterdir()
              if "positions" not in artifact.load(path, "cache")[1]]
    assert len(stage2) == 1
    stage2[0].unlink()
    code, out, _ = run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                                  capsys=capsys)
    assert code == 0 and "cache: 1 hits, 1 misses, 1 built" in out.splitlines()
    assert (tmp_path / "canonical.out").read_bytes() == expected
    assert stage2[0].exists()
    code, out, _ = run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                                  capsys=capsys)
    assert code == 0 and "cache: 2 hits, 0 misses, 0 built" in out.splitlines()


def test_a_labelled_input_is_not_hashed_as_bytes(work, tmp_path, canonical, capsys,
                                                monkeypatch):
    """A first line that is not {"id", "text"} as json.dumps writes it skips
    the bytes probe before the file is hashed; the call hits through the
    decoding read."""
    from rweets import pipeline
    assert run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                          capsys=capsys)[0] == 0
    expected = (tmp_path / "canonical.out").read_bytes()
    (tmp_path / "label.jsonl").write_text(OTHER_LAYOUTS["label"](canonical), encoding="utf-8")

    sha256 = pipeline.hashlib.sha256

    def refused(data=b""):
        assert not data.startswith(b'{"id": '), "the file was hashed"
        return sha256(data)

    monkeypatch.setattr(pipeline.hashlib, "sha256", refused)
    code, out, _ = run_series_cli(work, tmp_path, "label", *cache_flags(tmp_path), capsys=capsys)
    assert code == 0 and "cache: 2 hits, 0 misses, 0 built" in out.splitlines()
    assert (tmp_path / "label.out").read_bytes() == expected


def test_a_miss_under_the_bytes_writes_and_counts_nothing(work, tmp_path, canonical, capsys):
    """A canonical input one line short of the one the slot holds: the probe
    returns None with no output written and nothing counted, and the call
    then misses, builds and writes through the decoding read."""
    from rweets.pipeline import FeatureCache, _series_from_bytes, load_staged
    assert run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                          capsys=capsys)[0] == 0
    shorter = (tmp_path / "canonical.jsonl").read_bytes().split(b"\n")[1:]
    (tmp_path / "shorter.jsonl").write_bytes(b"\n".join(shorter))
    cache = FeatureCache(tmp_path / "cache")
    assert _series_from_bytes(tmp_path / "shorter.jsonl", load_staged(work / "model"), cache,
                              tmp_path / "shorter.out") is None
    assert (cache.hits, cache.misses, cache.built) == (0, 0, 0)
    assert not (tmp_path / "shorter.out").exists()
    code, out, _ = run_series_cli(work, tmp_path, "shorter", *cache_flags(tmp_path),
                                  capsys=capsys)
    assert code == 0 and "cache: 0 hits, 2 misses, 2 built" in out.splitlines()


def test_positions_past_the_lines_of_canonical_bytes_exit_3(work, tmp_path, canonical, capsys):
    assert run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                          capsys=capsys)[0] == 0
    (stage1,) = [path for path in (tmp_path / "cache").iterdir()
                 if "positions" in artifact.load(path, "cache")[1]]
    header, arrays = artifact.load(stage1, "cache")
    positions = arrays["positions"].astype("<i8")
    positions[-1] = len(canonical)  # one past the last line
    artifact.save(stage1, "cache", header["digest"], header["meta"],
                  **{**arrays, "positions": artifact.narrow(positions)})
    code, _, err = run_series_cli(work, tmp_path, "canonical", *cache_flags(tmp_path),
                                  capsys=capsys)
    assert code == 3
    assert f"{stage1.name}: damaged cache entry (positions do not rise strictly inside the " \
           f"{len(canonical)} rows)" in err


def test_an_input_with_an_empty_id_never_hits_under_file_bytes(work, tmp_path, capsys):
    # a library call may key an input that holds an empty id; the canonical
    # file of that input is refused by the reader, cache or not
    from rweets.pipeline import FeatureCache, load_staged, run_series
    texts = {"": "we need water and food at the shelter please help",
             "b": "volunteers needed at the camp tonight, please help"}
    run_series(texts, load_staged(work / "model"), FeatureCache(tmp_path / "cache"))
    (tmp_path / "empty.jsonl").write_text(
        "".join(json.dumps({"id": i, "text": t}, ensure_ascii=False) + "\n"
                for i, t in texts.items()), encoding="utf-8")
    code, _, err = run_series_cli(work, tmp_path, "empty", *cache_flags(tmp_path), capsys=capsys)
    assert code == 3 and "empty.jsonl: line 1: 'id' must be a nonempty string" in err
