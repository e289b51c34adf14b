import itertools
import json
import random
import sys
import tracemalloc

import pytest

from oracles import reference_read_records
from rweets.corpus import BINARY
from rweets.errors import ValidationError
from rweets import jsonl
from rweets.jsonl import encode_line, read_records, write_lines, write_records

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
    return rng.choice(_bad_kinds(rng))


def _bad_kinds(rng):
    """Every kind of damaged stretch, each a list of lines."""
    a, b = _dumps(_record(rng), rng), _dumps(_record(rng), rng)
    cut = rng.randrange(1, len(a))
    return ([
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


def _chunk_columns(path, fields, domain):
    """The records of `read_chunks`, whose columns must be their fields, and
    whose id table must map each id read to its text."""
    records, ids = [], {}
    for chunk, columns, _ in jsonl.read_chunks(path, fields, domain, ids):
        assert columns == {field: [record[field] for record in chunk] for field in fields}
        records += chunk
    assert ids == ({r["id"]: r["text"] for r in records} if "id" in fields else {})
    return records


def _line_by_line(path, fields, domain):
    """The whole file through the reader's line-by-line path."""
    lines = jsonl.text_lines(path)
    records, columns, escape_free = jsonl._read_line_by_line(path, lines, 1, {}, fields, domain)
    assert columns == {field: [record[field] for record in records] for field in fields}
    assert escape_free is False
    return records


# the three paths of the reader, each judged by the oracle
READERS = (read_records, _chunk_columns, _line_by_line)


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
            expected = _outcome(reference_read_records, path, fields, domain)
            for reader in READERS:
                assert _outcome(reader, path, fields, domain) == expected, (reader,
                                                                            path.read_bytes())
            kinds[expected[0]] += 1
    assert min(kinds.values()) > 50, kinds  # both outcomes are exercised


@pytest.mark.parametrize("chunk", [4, 1024])
def test_every_bad_kind_reads_alike_on_every_path(tmp_path, monkeypatch, chunk):
    """Each damaged stretch follows two good lines in its chunk, and one
    good line follows it: every path names the same line with the same
    text, or reads the same records."""
    monkeypatch.setattr(jsonl, "_CHUNK", chunk)
    path = tmp_path / "d.jsonl"
    good = ['{"id": "g1", "text": "need food"}', '{"id": "g2", "text": "calm"}']
    kinds = _bad_kinds(random.Random(chunk))
    errors = 0
    for bad in kinds:
        lines = good + bad + ['{"id": "g3", "text": "after"}']
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape",
                        newline="")
        for fields, domain in MODES:
            expected = _outcome(reference_read_records, path, fields, domain)
            for reader in READERS:
                assert _outcome(reader, path, fields, domain) == expected, (reader, bad)
            if expected[0] == "error":
                errors += 1
                assert expected[1].startswith(f"{path}: line {len(good) + 1}") or len(bad) > 1
    assert errors > 2 * len(kinds), errors  # most kinds are errors in every mode


@pytest.mark.parametrize("chunk", [4, 1024])
@pytest.mark.parametrize("bad, error", [
    ('{"id": "t7", "text": "again"}', "line 1027: duplicate tweet id 't7'"),
    ('{"id": "", "text": "x"}', "line 1027: 'id' must be a nonempty string"),
    ('{"id": "n", "label": "rweet"}', "line 1027: 'text' must be a string"),
    ('{"text": "no id"}', "line 1027: 'id' must be a nonempty string"),
])
def test_a_chunk_that_fails_leaves_the_ids_as_it_found_them(tmp_path, monkeypatch, chunk, bad,
                                                             error):
    """1,026 good lines, then a bad one third in its chunk, after two new
    ids and before a line that repeats one of them: a chunk that fails must
    not keep its ids, or the line reader would name the second line of the
    chunk, or the fourth, in place of the bad third."""
    monkeypatch.setattr(jsonl, "_CHUNK", chunk)
    lines = [json.dumps({"id": f"t{i}", "text": "need food"}) for i in range(1026)]
    lines += [bad, json.dumps({"id": "t1025", "text": "repeated"})]
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    for fields, domain in MODES:
        expected = _outcome(_line_by_line, path, fields, domain)
        assert expected == _outcome(reference_read_records, path, fields, domain)
        for reader in (read_records, _chunk_columns):
            assert _outcome(reader, path, fields, domain) == expected, (reader, fields)
        if "id" in fields:
            assert expected == ("error", f"{path}: {error}")


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


# every character str.isspace holds but the two that end a line in text mode
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"]


@pytest.mark.parametrize("chunk", [3, 1024])
def test_whitespace_only_lines_are_skipped_and_counted(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(jsonl, "_CHUNK", chunk)
    assert len(SPACES) == 27
    blank = [space * n for space in SPACES for n in (1, 3)] + ["".join(SPACES)]
    lines = ['{"id": "a", "text": "x"}', *blank, '{"id": "b", "text": "y"}']
    path = tmp_path / "d.jsonl"
    for tail, outcome in (([], ["a", "b"]), (["{"], f"line {len(lines) + 1}: malformed JSON")):
        path.write_text("\n".join(lines + tail) + "\n", encoding="utf-8", newline="")
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


def _numbered(n: int) -> list[dict]:
    return [{"id": f"t{i}", "text": f"we need water and food at shelter {i}"} for i in range(n)]


@pytest.mark.parametrize("bad, error", [
    ({"id": "x", "text": {1, 2}}, TypeError),  # no JSON form
    ({"id": "x", "text": "\ud800"}, UnicodeEncodeError),  # a lone surrogate: no UTF-8 form
])
def test_writer_leaves_no_file_when_a_record_fails(tmp_path, bad, error):
    """The bad record comes after two whole chunks have been written."""
    records = _numbered(3000)
    records[2500] = bad
    path = tmp_path / "out.jsonl"
    with pytest.raises(error):
        write_records(path, records)
    assert list(tmp_path.iterdir()) == []
    assert write_records(path, records[:2500]) == 2500
    before = path.read_bytes()
    with pytest.raises(error):
        write_records(path, iter(records))
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before



def test_writer_writes_an_empty_file_for_no_lines(tmp_path):
    path = tmp_path / "new" / "out.jsonl"
    assert write_lines(path, iter(())) == 0
    assert path.read_bytes() == b""
    assert write_records(path, []) == 0
    assert path.read_bytes() == b"" and list(path.parent.iterdir()) == [path]


def test_source_failing_in_its_first_chunk_leaves_no_directory(tmp_path):
    """The first chunk is taken before the output, or its directory, is made."""
    def lines():
        yield "{}\n"
        raise ValueError("source failed")

    path = tmp_path / "new" / "sub" / "out.jsonl"
    with pytest.raises(ValueError):
        write_lines(path, lines())
    assert list(tmp_path.iterdir()) == []


def test_unencodable_first_chunk_leaves_no_directory(tmp_path):
    """A line with no UTF-8 form fails before the output's directory is made."""
    with pytest.raises(UnicodeEncodeError):
        write_records(tmp_path / "new" / "out.jsonl", [{"id": "\ud800"}])
    assert list(tmp_path.iterdir()) == []


def test_writer_holds_one_chunk_of_lines(tmp_path):
    """Peak memory stays near one chunk's lines, not the whole file's (which
    holding every line, their join and its UTF-8 bytes would take)."""
    records = _numbered(10_000)
    path = tmp_path / "out.jsonl"
    tracemalloc.start()
    try:
        assert write_records(path, records) == len(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
    assert path.read_bytes() == expected
    assert peak < len(expected) / 2, (peak, len(expected))


class _Str(str):
    """A str subclass: json encodes it as the string it holds."""

    def __repr__(self):
        return "_Str(...)"


# strings the line encoder must escape or keep: quotes, backslashes, control
# characters, DEL, U+2028/U+2029, non-ASCII and non-BMP characters
ODD_STRINGS = ("", "plain", 'say "help"', "back\\slash", "nul\x00 bell\x07 esc\x1b us\x1f",
               "tab\tcr\rlf\n", "del\x7f", "line\u2028para\u2029", "next\x85line",
               "caf\u00e9 \u6771\u4eac", "sos \U0001f6a8", "\U0001f600 \U00010348")
ODD_NUMBERS = (0, -1, 10**300, -(2**1000), 0.0, -0.0, 1e300, -1e-300, 2.5,
               float("nan"), float("inf"), float("-inf"), True, False, None)
ODD_KEYS = (1, -7, 2**70, 1.5, -0.0, float("inf"), True, False, None)


def _value(rng, depth=0):
    roll = rng.random()
    if roll < 0.35:
        text = rng.choice(ODD_STRINGS)
        return _Str(text) if rng.random() < 0.2 else text
    if roll < 0.7 or depth > 2:
        return rng.choice(ODD_NUMBERS)
    if roll < 0.85:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return _object(rng, depth + 1)


def _key(rng):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(ODD_KEYS)
    text = rng.choice(ODD_STRINGS + ("id", "text", "label"))
    return _Str(text) if roll < 0.15 else text


def _object(rng, depth=0):
    return {_key(rng): _value(rng, depth) for _ in range(rng.randrange(5))}


@pytest.mark.parametrize("seed", range(3))
def test_line_encoder_is_json_dumps(tmp_path, seed):
    """encode_line(record, tail) and write_records' lines are the
    json.dumps(..., ensure_ascii=False) of the record with the tail's members."""
    rng = random.Random(seed)
    kinds = {"str only": 0, "str keys": 0, "other keys": 0, "empty": 0, "tail": 0}
    records = []
    for _ in range(400):
        record = _object(rng)
        extra = {f"tail {key}": value for key, value in _object(rng).items()}
        tail = ", " + json.dumps(extra, ensure_ascii=False)[1:-1] if extra else ""
        expected = json.dumps({**record, **extra}, ensure_ascii=False)
        assert encode_line(record, tail) == expected, (record, tail)
        assert encode_line(record) == json.dumps(record, ensure_ascii=False), record
        records.append(record)
        kinds["empty"] += not record
        kinds["str only"] += bool(record) and all(isinstance(item, str)
                                                  for item in itertools.chain(*record.items()))
        kinds["str keys"] += bool(record) and all(isinstance(key, str) for key in record)
        kinds["other keys"] += not all(isinstance(key, str) for key in record)
        kinds["tail"] += bool(tail)
    assert min(kinds.values()) > 20, kinds
    path = tmp_path / "out.jsonl"
    assert write_records(path, iter(records)) == len(records)
    expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("seed", range(3))
def test_id_text_encoder_is_json_dumps(monkeypatch, seed):
    """encode_id_text_lines(ids, texts, tails) gives, per row, the
    json.dumps(..., ensure_ascii=False) of {"id": id, "text": text} with the
    tail's members, and encode_line's line, across chunks of rows."""
    monkeypatch.setattr(jsonl, "_CHUNK", 7)
    rng = random.Random(seed)
    # ODD_STRINGS, a surrogate pair as json.loads decodes it, and lone
    # quotes, backslashes, DEL and U+2028/U+2029; picks of none are empty
    pieces = ODD_STRINGS + (json.loads('"\\ud83c\\udfe5"'), '"', "\\", "\x7f", "\u2028", "\u2029")
    extras = ({}, {"stage1": "not_rweet"}, {"rule_label": "rweet", "rule_bits": [0, 1, 0]})
    rows, expected = [], []
    for _ in range(300):
        i, text = ("".join(rng.choices(pieces, k=rng.randrange(4))) for _ in range(2))
        extra = rng.choice(extras + ({"stage1": "rweet", "stage2": rng.choice(pieces)},))
        tail = ", " + json.dumps(extra, ensure_ascii=False)[1:-1] if extra else ""
        rows.append((i, text, tail))
        expected.append(json.dumps({"id": i, "text": text, **extra}, ensure_ascii=False) + "\n")
        assert expected[-1] == encode_line({"id": i, "text": text}, tail) + "\n"
    assert sum(not i for i, _, _ in rows) > 20 and sum(not tail for *_, tail in rows) > 50
    assert list(jsonl.encode_id_text_lines(*zip(*rows))) == expected
    with pytest.raises(ValueError):  # columns of unequal length
        list(jsonl.encode_id_text_lines(["a", "b"], ["x", "y"], [""]))


# every character JSON escapes: '"', the backslash and U+0000-U+001F
ESCAPED = ('"', "\\", *map(chr, range(0x20)))
# characters written as they are, raw, but as \\u escapes by ensure_ascii
KEPT = ("\x7f", "\u2028", "\u2029", "caf\u00e9", "\u6771", "\U0001f6a8", "\U00010348")


def _escape_test_file(path, rng, n_groups):
    """Groups of three records (one reader chunk each, with `_CHUNK` 3), each
    group of one kind: plain strings written raw, with no backslash; the same
    written with ensure_ascii; and strings holding characters JSON escapes,
    written either way. Returns the records and each chunk's lines."""
    records, chunks = [], []
    for g in range(n_groups):
        kind = rng.choice(("raw", "ascii", "escaped"))
        pieces = KEPT + ("a", "b c") + (ESCAPED if kind == "escaped" else ())
        group = [{"id": f"g{g}.{k}" + "".join(rng.choices(pieces, k=rng.randrange(3))),
                  "text": "".join(rng.choices(pieces, k=rng.randrange(5)))} for k in range(3)]
        lines = [json.dumps(r, ensure_ascii=kind == "ascii" or (kind == "escaped"
                                                                and rng.random() < 0.5))
                 for r in group]
        records += group
        chunks.append(lines)
    path.write_text("".join(line + "\n" for lines in chunks for line in lines),
                    encoding="utf-8")
    return records, chunks


@pytest.mark.parametrize("seed", range(3))
def test_escape_free_chunks_are_written_verbatim(tmp_path, monkeypatch, seed):
    """The reader reports a chunk escape-free exactly when its lines hold no
    backslash, and the id and text encoder given that report writes each
    chunk's lines as json.dumps(..., ensure_ascii=False) does, whichever way
    its records were written."""
    monkeypatch.setattr(jsonl, "_CHUNK", 3)
    rng = random.Random(seed)
    path = tmp_path / "d.jsonl"
    records, chunk_lines = _escape_test_file(path, rng, 60)
    chunks = list(jsonl.read_chunks(path))
    assert [chunk for chunk, *_ in chunks] == [records[k:k + 3] for k in range(0, 180, 3)]
    reports = [escape_free for *_, escape_free in chunks]
    assert reports == ["\\" not in "".join(lines) for lines in chunk_lines]
    assert 10 < sum(reports) < 50, reports
    tails = ["", ', "stage1": "not_rweet"', ', "rule_label": "rweet", "rule_bits": [1]']
    for chunk, columns, escape_free in chunks:
        rows = [(r["id"], r["text"], rng.choice(tails)) for r in chunk]
        expected = [json.dumps({"id": i, "text": t}, ensure_ascii=False)[:-1] + tail + "}\n"
                    for i, t, tail in rows]
        got = jsonl.encode_id_text_lines(columns["id"], columns["text"],
                                         [tail for *_, tail in rows], escape_free)
        assert list(got) == expected, chunk


@pytest.mark.parametrize("record", [
    {}, {"a": 1}, {1: "a"}, {None: None, "x": [{}]}, {"k": {2: [float("nan")]}},
    {_Str("k\u2028"): _Str("v\x7f")}, {"\U0001f6a8": "\U0001f6a8"},
])
@pytest.mark.parametrize("extra", [{}, {"rule_label": "rweet", "rule_bits": [0, 1]}])
def test_line_encoder_named_records(record, extra):
    tail = ", " + json.dumps(extra)[1:-1] if extra else ""
    assert encode_line(record, tail) == json.dumps({**record, **extra}, ensure_ascii=False)


@pytest.mark.parametrize("record, encodes", [
    ({}, 0), ({"id": "1", "text": "a"}, 0), ({"id": 1, "text": "a"}, 1),
    ({"text": "a", "n": 2, "ok": True, "user": {"id": 3}, "tags": ["x"], 4: None}, 1),
])
def test_line_encoder_builds_at_most_one_encoder(monkeypatch, record, encodes):
    """A record of string keys and values goes through the string encoder
    alone; any other record through one encoder call, however many of its
    members are not strings."""
    calls = []

    class Counted:
        def encode(self, o):
            calls.append(o)
            return json.dumps(o, ensure_ascii=False)

    monkeypatch.setattr(jsonl, "_ENCODER", Counted())
    assert encode_line(record, ', "x": 1') == json.dumps({**record, "x": 1}, ensure_ascii=False)
    assert len(calls) == encodes


@pytest.mark.parametrize("record, error", [
    ({"a": {1, 2}}, TypeError), ({(1, 2): "a"}, TypeError), ({"a": object()}, TypeError),
])
def test_line_encoder_fails_as_json_dumps(record, error):
    with pytest.raises(error) as expected:
        json.dumps(record, ensure_ascii=False)
    with pytest.raises(error) as got:
        encode_line(record, ', "x": 1')
    assert str(got.value) == str(expected.value)
