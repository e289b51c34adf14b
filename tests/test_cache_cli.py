"""The featurize matrix cache and the series feature cache, run as separate
processes, `python -m rweets.cli`, in a temporary directory: a clean file
rewritten to the same content is a hit, a version-1 matrix is rebuilt and
then a hit, rows that a separator-joined digest would read alike build
their own matrices, and a series call with a cold and then a warm cache
writes the bytes of a call with none, building nothing when warm."""

from pathlib import Path

import pytest

from oracles import save_version_1_matrix
from rweets import artifact
from rweets.features import FeatureConfig, load_matrix
from test_rules_cli import rweets_cli


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
