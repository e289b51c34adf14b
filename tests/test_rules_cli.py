"""`rules classify` run as a separate process, `python -m rweets.cli`, on
2,000 synth tweets and on hand-written lines around them: every output row
holds the bits `re` gives its text, and every output line is the
`json.dumps` of its input record with the two rule fields set. CRLF input
classifies as its LF original, a missing input exits 2 and an empty one
writes an empty output; `synth` writes `json.dumps` lines. The chunk kinds
of the reader are checked in process."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rweets
from rweets import cli, jsonl
from rweets.corpus import CATEGORICAL, synth_corpus
from rweets.rules import PATTERN_SOURCES
from test_jsonl import ESCAPED, KEPT

SRC = str(Path(rweets.__file__).resolve().parents[1])


def rweets_run(*args, cwd) -> subprocess.CompletedProcess:
    """Run `python -m rweets.cli` with `args` in `cwd`, whatever its exit code."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "rweets.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def rweets_cli(*args, cwd) -> str:
    """Run `python -m rweets.cli` with `args` in `cwd`; return its stdout."""
    proc = rweets_run(*args, cwd=cwd)
    proc.check_returncode()
    return proc.stdout


def crlf_copy(source, target) -> None:
    """Write `source`'s lines to `target` with CRLF line ends, and a blank and
    a whitespace-only line after every seventh."""
    lines = source.read_bytes().split(b"\n")
    assert lines.pop() == b""
    target.write_bytes(b"".join(line + b"\r\n" + (b"\r\n  \r\n" if n % 7 == 0 else b"")
                                for n, line in enumerate(lines, 1)))


def re_bits(text):
    return [int(re.search(s, text, re.IGNORECASE) is not None) for s in PATTERN_SOURCES]


def classify(directory, name):
    """Run `rules classify` on `name`.jsonl; return its output lines."""
    rweets_cli("rules", "classify", "--input", f"{name}.jsonl", "--output", f"{name}_out.jsonl",
               cwd=directory)
    with open(directory / f"{name}_out.jsonl", "rb") as fh:
        lines = fh.read().decode("utf-8").split("\n")  # U+2028 ends no line
    assert lines.pop() == ""
    return lines


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory holding in.jsonl: 2,000 binary synth tweets, seed 3."""
    directory = tmp_path_factory.mktemp("rules_cli")
    rweets_cli("--seed", "3", "synth", "--size", "2000", "--out", "in.jsonl", cwd=directory)
    return directory


# lines that hold the characters IGNORECASE folds to ASCII letters (İ, ı, ſ,
# the Kelvin sign), "\r", stages split across "\n", and "?" after non-ASCII
# word characters; every pattern fires on at least one of them
FOLD_LINES = r"""
{"id": "fold-1", "text": "\u0130 am br\u0131ng\u0131ng blankets, we w\u0131ll help"}
{"id": "fold-2", "text": "we're ra\u0131\u017f\u0131ng funds\rwhere can \u0130 donate"}
{"id": "fold-3", "text": "I would li\u212ae to wor\u212a at the shelter"}
{"id": "fold-4", "text": "\u017fhould you bring water\r\u00bfcaf\u00e9? \u6771\u4eac? \u0391\u03b8\u03ae\u03bd\u03b1?"}
{"id": "fold-5", "text": "stra\u00dfe?\r\u0131? \u212a? \u017f? \u0130?"}
{"id": "fold-6", "text": "\u0130\u0130 am \u0131ng br\u0131ng\u0131ng? x\u0131 w\u0131ll be g\u0131ven"}
{"id": "fold-7", "text": "\u0130'M DONAT\u0131NG FOOD\rWE'LL BR\u0130NG WATER"}
{"id": "fold-8", "text": "we are ready\rto ra\u0131\u017fe money"}
{"id": "fold-9", "text": "where can we a\u017f\u017f\u0131\u017ft\rhow can \u0131 help"}
{"id": "fold-10", "text": "we want to g\u0131ve, \u0131 li\u212ae to wor\u212a"}
{"id": "fold-11", "text": "how can we volunteer\rtoday, u \u017fhould come"}
{"id": "fold-12", "text": "how can we\nvolunteer? \u0131 am\nbr\u0131ng\u0131ng food\nwhere can \u0131\ndonate"}
""".strip("\n").split("\n")

# lines of the kinds the output must copy exactly: ids that are not strings,
# null or missing, text first, rule_label/rule_bits already present (each
# keeps its place), nested values, Infinity and NaN, and strings with
# quotes, backslashes, control characters, DEL, U+2028/U+2029 and non-BMP
# characters
ODD_LINES = r"""
{"id": 7, "text": "we need water"}
{"id": null, "text": "calm night"}
{"id": 2.5e3, "text": "where can I donate?", "label": "rweet"}
{"id": ["a", 1], "text": "I am bringing food"}
{"text": "no id here, please help"}
{"text": "text first", "id": "t1", "zz": {"nested": [1, {"x": null}]}}
{"rule_label": "stale", "id": "r1", "text": "need shelter?"}
{"id": "r2", "rule_bits": [9], "text": "quiet day", "after": true}
{"rule_bits": null, "text": "we need food", "rule_label": 0}
{"id": "inf", "text": "need help", "score": Infinity, "low": -Infinity, "nan": NaN}
{"id": "big", "text": "x", "n": 123456789012345678901234567890, "f": -0.0}
{"id": "esc\"q\\b", "text": "say \"help\" C:\\relief\u0000\u001f\t\r\n\u007f"}
{"id": "ls", "text": "donate money\u2028to the fund\u2029please help\u007f"}
{"id": "astral", "text": "🚨 we need medical supplies \ud83c\udfe5 help"}
{"id": "café", "text": "café owners need volunteers 需要", "k": "\u00e9"}
{"id": "empty", "text": ""}
""".strip("\n").split("\n")


def assert_json_dumps_lines(source, lines, count):
    """Each output line is the json.dumps of its input record with the two
    rule fields set, and the bits are re's."""
    with open(source, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert len(lines) == len(records) == count, len(lines)
    for record, line in zip(records, lines):
        bits = re_bits(record["text"])
        label = "rweet" if any(bits) else "not_rweet"
        expected = {**record, "rule_label": label, "rule_bits": bits}
        assert line == json.dumps(expected, ensure_ascii=False), line


def test_folds_every_text_twice_holds_re_bits(work):
    """Every text again under another id: each distinct text of a chunk is
    matched once, and every row must still hold re's bits."""
    original = (work / "in.jsonl").read_text(encoding="utf-8")
    copies = re.sub(r'(?m)^\{"id": "', '{"id": "copy-', original)
    (work / "twice.jsonl").write_text(
        original + copies + "".join(line + "\n" for line in FOLD_LINES), encoding="utf-8")
    rows = [json.loads(line) for line in classify(work, "twice")]
    assert len(rows) == 4012 and sum(r["id"].startswith("copy-") for r in rows) == 2000
    folds = [r for r in rows if r["id"].startswith("fold-")]
    assert len(folds) == 12
    for row in rows:
        bits = re_bits(row["text"])
        assert row["rule_bits"] == bits, row["id"]
        assert row["rule_label"] == ("rweet" if any(bits) else "not_rweet"), row["id"]
    fired = [any(r["rule_bits"][i] for r in folds) for i in range(len(PATTERN_SOURCES))]
    assert all(fired), fired


def test_rules_odd_lines_are_json_dumps(work):
    source = work / "rules_odd.jsonl"
    source.write_text((work / "in.jsonl").read_text(encoding="utf-8")
                      + "".join(line + "\n" for line in ODD_LINES), encoding="utf-8")
    assert_json_dumps_lines(source, classify(work, "rules_odd"), 2016)


def test_rules_mixed_chunks_are_json_dumps(work):
    """Records that are exactly {"id": str, "text": str} take the fixed-key
    encoder, the rest encode_line: the first 1,100 records are text-first or
    hold an extra key, so the first chunk of 1,024 lines takes encode_line
    whole and the second starts with 76 of them; in the third, only its last
    record, line 3,072, is one."""
    with open(work / "in.jsonl", encoding="utf-8") as fh:
        texts = [json.loads(line)["text"] for line in fh]
    source = work / "rules_mixed.jsonl"
    with open(source, "w", encoding="utf-8") as fh:
        for n in range(3100):
            text, key = texts[n % len(texts)], f"m{n}"
            if n < 1100 or n == 3071:
                record = {"text": text, "id": key} if n % 2 else {"id": key, "text": text, "n": n}
            else:
                record = {"id": key, "text": text}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    assert_json_dumps_lines(source, classify(work, "rules_mixed"), 3100)


def test_crlf_lines_classify_as_the_lf_original(work):
    """CRLF line ends with blank and whitespace-only lines mixed in read as
    the LF original does."""
    crlf_copy(work / "in.jsonl", work / "crlf.jsonl")
    assert classify(work, "crlf") == classify(work, "in")


def test_missing_input_exits_2_and_makes_no_directory(work):
    proc = rweets_run("rules", "classify", "--input", "missing.jsonl",
                      "--output", "new/sub/out.jsonl", cwd=work)
    assert proc.returncode == 2, proc.stderr
    assert not (work / "new").exists()


def test_zero_byte_input_writes_a_zero_byte_output(work):
    (work / "empty.jsonl").write_bytes(b"")
    assert classify(work, "empty") == [] and (work / "empty_out.jsonl").read_bytes() == b""


def test_synth_lines_are_json_dumps_of_its_records(work):
    """synth writes 3,000 records as three chunks of lines; each line is the
    json.dumps of its record, in the order synth_corpus makes them."""
    rweets_cli("--seed", "4", "synth", "--size", "3000", "--domain", "categorical",
               "--out", "synth.jsonl", cwd=work)
    lines = (work / "synth.jsonl").read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == 3000, len(lines)
    records = [{"id": t.id, "text": t.text, "label": t.label}
               for t in synth_corpus(4, 3000, CATEGORICAL)]
    for record, line in zip(records, lines, strict=True):
        assert line == json.dumps(record, ensure_ascii=False), line


def mixed_kind_lines(rng, texts, n_groups, layouts):
    """Groups of four lines (one reader chunk each, with `_CHUNK` 4), each of
    one kind: {"id", "text"} records of plain strings written raw, with no
    backslash; the same written with ensure_ascii; records whose strings
    hold characters JSON escapes; and three such records with one of
    `layouts` (each a function of id and text, taken in turn) among them. A
    group of the last two kinds is written one way or the other. Every text
    begins with one of `texts`."""
    lines, layouts = [], itertools.cycle(layouts)
    for g in range(n_groups):
        kind = rng.choice(("raw", "ascii", "escaped", "layouts"))
        pieces = KEPT + (" ", "?") + (ESCAPED if kind == "escaped" else ())
        ascii_ = kind == "ascii" or (kind != "raw" and rng.random() < 0.5)
        odd = rng.randrange(4) if kind == "layouts" else None
        for k in range(4):
            i = f"g{g}.{k}" + "".join(rng.choices(pieces, k=rng.randrange(3)))
            text = rng.choice(texts) + "".join(rng.choices(pieces, k=rng.randrange(4)))
            record = next(layouts)(i, text) if k == odd else {"id": i, "text": text}
            lines.append(json.dumps(record, ensure_ascii=ascii_) + "\n")
    return lines


# records that are not exactly {"id": str, "text": str}, in that order
LAYOUTS = (lambda i, t: {"text": t, "id": i}, lambda i, t: {"id": i, "text": t, "n": [1, None]},
           lambda i, t: {"id": 7, "text": t}, lambda i, t: {"text": t},
           lambda i, t: {"rule_bits": i, "id": i, "text": t}, lambda i, t: {"id": None, "text": t})


def test_rules_chunks_of_every_kind_are_json_dumps(work, tmp_path, monkeypatch):
    """Chunks written raw with no backslash, with ensure_ascii, with strings
    JSON escapes and with mixed record layouts interleave; every output
    line is the json.dumps of its input record with the rule fields set."""
    monkeypatch.setattr(jsonl, "_CHUNK", 4)
    with open(work / "in.jsonl", encoding="utf-8") as fh:
        texts = [json.loads(line)["text"] for line in fh][:300]
    lines = mixed_kind_lines(random.Random(5), texts, 150, LAYOUTS)
    source, out = tmp_path / "kinds.jsonl", tmp_path / "kinds_out.jsonl"
    source.write_text("".join(lines), encoding="utf-8")
    # chunks of plain and mixed layouts, each escape-free and not
    kinds = {(all(tuple(r) == ("id", "text") and type(r["id"]) is str for r in chunk), escape_free)
             for chunk, _, escape_free in jsonl.read_chunks(source, ("text",))}
    assert len(kinds) == 4
    assert cli.main(["rules", "classify", "--input", str(source), "--output", str(out)]) == 0
    with open(out, "rb") as fh:
        written = fh.read().decode("utf-8").split("\n")  # U+2028 ends no line
    assert written.pop() == ""
    assert_json_dumps_lines(source, written, 600)
