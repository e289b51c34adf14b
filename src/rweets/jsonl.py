"""JSON Lines files, one object per line: the package's one reader, its two
line encoders (`encode_line` for any record, `encode_id_text_lines` for a
string id and text followed by encoded members) and its writer. Files are
read in text mode (CRLF and lone CR end lines too) and split on "\n" only;
blank and whitespace-only lines are skipped but counted. Bytes that are not
UTF-8 make their line a bad line. The reader, `read_chunks`, yields each
chunk of lines as its records, a column per checked field and whether it
held no backslash; `read_records` flattens it, and `_read_line_by_line` is
the reference for every error. Strict decoding refuses raw control
characters, so with no backslash no string holds what JSON escapes, and
`encode_id_text_lines` copies such strings. Every JSONL file the package
writes goes through `write_lines`, one chunk of lines at a time.
"""

import itertools
import json
import re
from json.encoder import encode_basestring
from operator import itemgetter

from .digest import atomic_open
from .errors import ValidationError

# the JSON escape of a UTF-16 surrogate: unless it is half of a pair, it
# decodes to a lone surrogate, which no UTF-8 output can hold
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile("[\ud800-\udfff]")
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")  # what surrogateescape reads a bad byte as
_ITEM_BOUNDARY = re.compile(r"\}[ \t]*,[ \t]*\{")
_ENCODER = json.JSONEncoder(ensure_ascii=False)  # as json.dumps(..., ensure_ascii=False)
_CHUNK = 1024  # lines per decode or write: a consumer that streams holds one chunk's records


def read_chunks(path, fields=("id", "text"), domain=None, ids=None):
    """Yield each chunk of a JSONL file's lines as (records, columns,
    escape_free): the chunk's objects, for each of `fields` the list of their
    values, and whether its JSON text held no backslash. Each object holds a
    string in every one of `fields` (an "id" nonempty and unique, "text" with
    it) and, given a `domain`, no other label, or a ValidationError names the
    file and first bad line. `ids` (a dict) gets each checked chunk's id:
    text pairs. A chunk of lines decodes as one list's items, the lines'
    objects unless a line holds an item boundary (`}`, comma, `{`); such
    chunks are read line by line, and are never escape_free."""
    ids = {} if ids is None else ids
    with open(path, encoding="utf-8") as fh:
        for start in itertools.count(1, _CHUNK):
            try:
                lines = list(itertools.islice(fh, _CHUNK))
            except UnicodeDecodeError:  # the rest, checked line by line up to the bad one
                yield _read_line_by_line(path, text_lines(path, start), start, ids, fields, domain)
                return
            if not lines:
                return
            yield (_decode_chunk(lines, ids, fields, domain)
                   or _read_line_by_line(path, lines, start, ids, fields, domain))


def read_records(path, fields=("id", "text"), domain=None):
    """Yield the objects of a JSONL file, read and checked as `read_chunks`."""
    for records, *_ in read_chunks(path, fields, domain):
        yield from records


def text_lines(path, start: int = 1):
    """Yield the lines of a UTF-8 text file from line `start` on, split as
    `read_records` splits them; a line holding bytes that are not UTF-8 is a
    ValidationError naming the file and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if _ESCAPED_BYTE.search(line):
                raise ValidationError(f"{path}: line {lineno}: bytes that are not UTF-8")
            if lineno >= start:
                yield line


def _decode_chunk(lines: list, ids: dict, fields, domain) -> tuple[list, dict, bool] | None:
    """(records, columns, escape_free) from one decode, or None if any check fails."""
    kept = [line for line in lines if not line.isspace()]
    text = "[" + ",".join(kept) + "]"  # each line but the file's last ends in "\n"
    try:
        records = json.loads(text)
    except json.JSONDecodeError:
        return None
    if _ITEM_BOUNDARY.search(text) or len(records) != len(kept) or set(map(type, records)) - {dict}:
        return None
    try:  # a KeyError is a missing field, and join's TypeError a value that is not a str
        columns = {field: list(map(itemgetter(field), records)) for field in fields}
        "".join(itertools.chain.from_iterable(columns.values()))
    except (KeyError, TypeError):
        return None
    chunk_ids = dict(zip(id_column := columns.get("id", ()), columns.get("text", ())))
    if "" in chunk_ids or len(chunk_ids) != len(id_column) or not ids.keys().isdisjoint(chunk_ids):
        return None
    if domain is not None and not all(record.get("label") in (None, *domain.labels)
                                      for record in records):
        return None
    escape_free = "\\" not in text
    if not escape_free and _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(
            _ENCODER.encode(records)):
        return None
    ids.update(chunk_ids)
    return records, columns, escape_free


def _read_line_by_line(path, lines, start: int, ids: dict, fields, domain) -> tuple:
    """(records, columns, False) of the chunk, decoded line by line and checked in order."""
    records = []
    for lineno, line in enumerate(lines, start):
        if line.isspace():
            continue
        where = f"{path}: line {lineno}"
        try:
            record = json.loads(line.rstrip("\n"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{where}: malformed JSON ({exc.msg})") from None
        if not isinstance(record, dict):
            raise ValidationError(f"{where}: record is not an object")
        if _SURROGATE_ESCAPE.search(line) and _SURROGATE.search(_ENCODER.encode(record)):
            raise ValidationError(f"{where}: lone surrogate escape (not valid Unicode)")
        for field in fields:
            if not isinstance(record.get(field), str) or (field == "id" and not record[field]):
                kind = "a nonempty string" if field == "id" else "a string"
                raise ValidationError(f"{where}: {field!r} must be {kind}")
        label = record.get("label")
        if domain is not None and label is not None and label not in domain.labels:
            raise ValidationError(f"{where}: unknown label {label!r} for domain {domain.name!r}")
        if "id" in fields:
            if record["id"] in ids:
                raise ValidationError(f"{where}: duplicate tweet id {record['id']!r}")
            ids[record["id"]] = record["text"]
        records.append(record)
    return records, {field: [record[field] for record in records] for field in fields}, False


def encode_line(record: dict, tail: str = "") -> str:
    """`json.dumps(record, ensure_ascii=False)` with `tail`, members encoded as
    `, "key": value` each, before its closing brace."""
    try:  # encode_basestring, that call's string encoder, raises on anything not a str
        body = ", ".join([f"{encode_basestring(key)}: {encode_basestring(value)}"
                          for key, value in record.items()])
    except TypeError:  # a key or value that is not a str: one encoder for the whole record
        body = _ENCODER.encode(record)[1:-1]
    return "{" + (body + tail if body else tail[2:]) + "}"


def encode_id_text_lines(ids, texts, tails, escape_free=False):
    """An iterator of `encode_line({"id": id, "text": text}, tail) + "\n"`
    for each id, text and tail of three iterables of equal length: id and
    text are strs, and tail is pre-encoded as `encode_line`'s. The keys are
    encoded once, here; each chunk of lines is encoded by one comprehension,
    when the lines before it have been taken; `escape_free` ids and texts
    (see above) are copied as they are."""
    rows, quote = zip(ids, texts, tails, strict=True), encode_basestring
    chunks = iter((lambda: [f'{{"id": "{i}", "text": "{text}"{tail}}}\n'
                            for i, text, tail in itertools.islice(rows, _CHUNK)]) if escape_free
                  else lambda: [f'{{"id": {quote(i)}, "text": {quote(text)}{tail}}}\n'
                                for i, text, tail in itertools.islice(rows, _CHUNK)], [])
    return itertools.chain.from_iterable(chunks)  # chunks end at the first empty one


def write_lines(path, lines) -> int:
    """Write an iterable of lines (strs, or UTF-8 bytes), each ending in "\n",
    one chunk at a time, replacing `path` atomically; returns the number of
    lines. A source that fails leaves no file; the first chunk is taken and
    encoded before `path` is opened, so one that fails in it leaves no new
    directory either."""
    lines, count = iter(lines), 0
    size, data = _next_chunk(lines)
    with atomic_open(path) as fh:
        while size:
            fh.write(data)
            count += size
            del data  # one chunk's bytes at a time
            size, data = _next_chunk(lines)
    return count


def _next_chunk(lines) -> tuple[int, bytes]:
    """The number of lines in the next chunk of `lines`, and their UTF-8 bytes."""
    chunk = list(itertools.islice(lines, _CHUNK))
    if chunk and type(chunk[0]) is bytes:
        return len(chunk), b"".join(chunk)
    return len(chunk), "".join(chunk).encode("utf-8")


def write_records(path, records) -> int:
    """Write each record of an iterable as the line `encode_line(record)`
    through `write_lines`; returns the number of records."""
    return write_lines(path, (encode_line(record) + "\n" for record in records))
