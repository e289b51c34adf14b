import json
import random

import pytest

from oracles import reference_read_records
from rweets.corpus import BINARY
from rweets.errors import ValidationError
from rweets import jsonl
from rweets.jsonl import read_records, write_records

# texts that stress the one-decode reader: quotes, backslashes, the item
# boundary "}, {" (and "], ["), raw U+2028 / U+0085 (line
# breaks to str.splitlines, not to JSON or to the reader), tabs, non-ASCII
# and astral characters (surrogate-pair escapes under ensure_ascii)
TEXTS = ("need food", 'say "help"', "back\\slash", "see [1], [2]", "a}, {b",
         "para\u2028graph", "next\x85line", "tab\there", "caf\u00e9", "sos \U0001f6a8", "")
IDS = ("a", "b", "c", "d", "e", "f", "g", "h")


def _record(rng):
    record = {"id": rng.choice(IDS), "text": rng.choice(TEXTS)}
    roll = rng.random()
    if roll < 0.3:
        record["label"] = rng.choice(BINARY.labels)
    elif roll < 0.35:
        record["label"] = None
    elif roll < 0.4:
        record["extra"] = [[1, {"k": "v"}], "x"]
    if rng.random() < 0.3:  # keys in another order
        record = dict(reversed(list(record.items())))
    return record


def _dumps(record, rng):
    return json.dumps(record, ensure_ascii=rng.random() < 0.5)


def _bad_lines(rng):
    """One damaged stretch of a file: a list of lines."""
    a, b = _dumps(_record(rng), rng), _dumps(_record(rng), rng)
    cut = rng.randrange(1, len(a))
    return rng.choice([
        [a[:cut], a[cut:]],                            # a record split over two lines
        ['{"id": "s", "text": "t", "x": [1', '2]}'],    # ... between list items
        [a + b], [a + ",  " + b], [a + "],[" + b],     # two records on one line
        [a + "\u2028" + b], [a + "\x85" + b],          # joined by str.splitlines breaks
        ["1],[2"], ["[1]"], ['"text"'], ["5"], ["null"], ["{"],
        ['{"text": "no id"}'], ['{"id": 5, "text": "x"}'], ['{"id": "", "text": "x"}'],
        ['{"id": [1], "text": "x", "label": [2]}'],
        ['{"id": "x", "text": null}'], ['{"id": "x", "text": "t", "label": 7}'],
        ['{"id": "x", "text": "t", "label": "foood"}'],
        ['{"id": "x", "text": "lone \\ud800 half"}'], ['{"id": "x", "text": "\\udc00"}'],
        ['{"id": "x", "text": "pair \\ud83d\\udea8 ok"}'],
        ["\ufeff" + a],                                # a byte-order mark inside the file
        # bytes that are not UTF-8 (written through surrogateescape)
        [a[:cut] + "\udcff" + a[cut:]], [a[:cut] + "\udce2" + a[cut:]], ["\udcc3"],
        # one line opens a list the next closes, one line holds two items:
        # one decode of the lines as one list's items gets the right count
        ['{"id": "m", "text": "t", "x": [{"y": 1}', '{"z": 2}]}',
         '{"id": "n", "text": "t"}, {"id": "o", "text": "t"}'],
        ['{"id": "m", "text": "t", "x": [[{"y": 1}', '{"z": 2}]]}',
         '{"id": "n", "text": "t"}],[{"id": "o", "text": "t"}'],
    ])


def _fuzz_file(rng) -> str:
    lines = []
    for _ in range(rng.randrange(0, 8)):
        roll = rng.random()
        if roll < 0.08:
            lines += _bad_lines(rng)
        elif roll < 0.2:
            lines.append(rng.choice(["", "   ", "\t", " \u2028 ", "\x85"]))
        else:
            lines.append(_dumps(_record(rng), rng))
    ends = [rng.choice(["\n", "\n", "\r\n", "\r"]) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no line end after the last line
    if rng.random() < 0.03:
        text = "\ufeff" + text
    return text


def _outcome(reader, path, fields, domain):
    try:
        return "records", list(reader(path, fields, domain))
    except ValidationError as exc:
        return "error", str(exc)


MODES = [(("id", "text"), None), (("id", "text"), BINARY), (("text",), None)]


@pytest.mark.parametrize("seed", range(4))
def test_one_decode_matches_the_line_reader(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    if seed % 2:  # chunks of a few lines: ids and line numbers carry across
        monkeypatch.setattr(jsonl, "_CHUNK", 3)
    path = tmp_path / "fuzz.jsonl"
    kinds = {"records": 0, "error": 0}
    for _ in range(150):
        path.write_text(_fuzz_file(rng), encoding="utf-8", errors="surrogateescape", newline="")
        for fields, domain in MODES:
            got = _outcome(read_records, path, fields, domain)
            assert got == _outcome(reference_read_records, path, fields, domain), path.read_bytes()
            kinds[got[0]] += 1
    assert min(kinds.values()) > 50, kinds  # both outcomes are exercised


@pytest.mark.parametrize("text, outcome", [
    ('{"id": "a", "text": "x"}\r\n\r\n  \n{"id": "b", "text": "y"}\r', ["a", "b"]),
    ('{"id": "a", "text": "x"}\r{"id": "b", "text": "see [1], [2]"}', ["a", "b"]),
    ('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n1],[2\n', "line 2: duplicate"),
    ('{"id": "a", "text": "x"}\n\n1],[2\n', "line 3: malformed JSON"),
    ('{"id": "a", "text": "x", "list": [1\n2]}\n', "line 1: malformed JSON"),
    ('{"id": "m", "text": "t", "x": [{"y": 1}\n{"z": 2}]}\n'
     '{"id": "n", "text": "t"}, {"id": "o", "text": "t"}\n', "line 1: malformed JSON"),
    ('{"id": "a", "text": "x"}\n{"id": "b", "text": "{1}, {2}"}\n', ["a", "b"]),
    ('\ufeff{"id": "a", "text": "x"}\n', "line 1: malformed JSON (Unexpected UTF-8 BOM"),
    ('{"id": "a", "text": "x"}\n{"id": "b", "text": "\\ud800"}\n', "line 2: lone surrogate"),
    ('{"id": "a", "text": "\\ud83d\\udea8"}\n', ["a"]),
    ('{"id": "a", "text": "x"}\r{"id": "b", "text": "caf\udce9"}\n', "line 2: bytes that are not UTF-8"),
    ('{"id": "a", "text": "x"\n{"id": "b", "text": "\udcff"}\n', "line 1: malformed JSON"),
])
def test_named_inputs(tmp_path, text, outcome):
    path = tmp_path / "d.jsonl"
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")
    kind, got = _outcome(read_records, path, ("id", "text"), None)
    assert (kind, got) == _outcome(reference_read_records, path, ("id", "text"), None)
    if kind == "records":
        assert [record["id"] for record in got] == outcome
    else:
        assert got.startswith(f"{path}: {outcome}")


@pytest.mark.parametrize("chunk", [3, 1024])
def test_bytes_that_are_not_utf8_after_the_first_chunks(tmp_path, monkeypatch, chunk):
    """The text decoder reads ahead of the chunk being split, so the error can
    come while earlier lines are unchecked: the first bad line is named."""
    monkeypatch.setattr(jsonl, "_CHUNK", chunk)
    lines = [json.dumps({"id": f"t{i}", "text": "need food and water now"}).encode()
             for i in range(2000)]
    lines[1499] = lines[1499].replace(b"food", b"f\xffd")
    path = tmp_path / "d.jsonl"
    for bad_line in (1500, 1200):
        path.write_bytes(b"\n".join(lines) + b"\n")
        kind, got = _outcome(read_records, path, ("id", "text"), None)
        assert (kind, got) == _outcome(reference_read_records, path, ("id", "text"), None)
        assert got.startswith(f"{path}: line {bad_line}: ")
        lines[1199] = b"{"  # an earlier bad line is named first


@pytest.mark.parametrize("seed", range(3))
def test_writer_bytes_are_json_dumps_lines(tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "out.jsonl"
    for n in range(40):
        records = [_record(rng) for _ in range(n % 7)]
        if n % 5 == 0:
            records.append({"id": "n", "list": [{"a": 1}, {"b": 2}], "x": None})
        assert write_records(path, iter(records) if n % 2 else records) == len(records)
        expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        assert path.read_bytes() == expected.encode("utf-8")
