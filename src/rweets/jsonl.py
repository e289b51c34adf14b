"""JSON Lines files, one object per line: the package's one reader, line
encoder and record writer. Files are read in text mode (CRLF and lone CR end
lines too) and split on "\n" only; blank and whitespace-only lines are skipped
but counted. Bytes that are not UTF-8 make their line a bad line.
"""

import itertools
import json
import re
from json.encoder import encode_basestring

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


def read_records(path, fields=("id", "text"), domain=None):
    """Yield the objects of a JSONL file. Each holds a string in every one of
    `fields` (an "id" nonempty and unique) and, given a `domain`, no other
    label, or a ValidationError names the file and first bad line. A chunk of
    lines decodes as one list's items, the lines' objects unless a line holds
    an item boundary (`}`, comma, `{`); such chunks are read line by line."""
    ids: set = set()
    with open(path, encoding="utf-8") as fh:
        for start in itertools.count(1, _CHUNK):
            try:
                lines = list(itertools.islice(fh, _CHUNK))
            except UnicodeDecodeError:  # the rest, checked line by line up to the bad one
                yield from _read_line_by_line(path, text_lines(path, start), start, ids, fields,
                                              domain)
                return
            if not lines:
                return
            yield from (_decode_chunk(lines, ids, fields, domain)
                        or _read_line_by_line(path, lines, start, ids, fields, domain))


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


def _decode_chunk(lines: list, ids: set, fields, domain) -> list[dict] | None:
    """The chunk's records from one decode, or None if any check fails."""
    kept = [line for line in lines if line.strip()]
    text = "[" + ",".join(kept) + "]"  # each line but the file's last ends in "\n"
    try:
        records = json.loads(text)
    except json.JSONDecodeError:
        return None
    if _ITEM_BOUNDARY.search(text) or len(records) != len(kept) or set(map(type, records)) - {dict}:
        return None
    columns = {field: [record.get(field) for record in records] for field in fields}
    chunk_ids = columns.get("id", ())
    if (any(set(map(type, column)) - {str} for column in columns.values()) or "" in chunk_ids
            or len(set(chunk_ids)) != len(chunk_ids) or not ids.isdisjoint(chunk_ids)):
        return None
    if domain is not None and not all(record.get("label") in (None, *domain.labels)
                                      for record in records):
        return None
    if _SURROGATE_ESCAPE.search(text) and _SURROGATE.search(_ENCODER.encode(records)):
        return None
    ids.update(chunk_ids)
    return records


def _read_line_by_line(path, lines, start: int, ids: set, fields, domain) -> list[dict]:
    """The chunk's records decoded one line at a time, checked in order."""
    records = []
    for lineno, line in enumerate(lines, start):
        if not line.strip():
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
            ids.add(record["id"])
        records.append(record)
    return records


def encode_line(record: dict, tail: str = "") -> str:
    """`json.dumps(record, ensure_ascii=False)` with `tail`, members encoded as
    `, "key": value` each, before its closing brace."""
    try:  # encode_basestring, that call's string encoder, raises on anything not a str
        body = ", ".join([f"{encode_basestring(key)}: {encode_basestring(value)}"
                          for key, value in record.items()])
    except TypeError:  # a key or value that is not a str: one encoder for the whole record
        body = _ENCODER.encode(record)[1:-1]
    return "{" + (body + tail if body else tail[2:]) + "}"


def write_records(path, records) -> int:
    """Write each record of an iterable as the line `encode_line(record)`,
    one chunk of lines at a time, replacing `path` atomically; returns the
    number of records. A record that cannot be encoded leaves no file."""
    records, count = iter(records), 0
    with atomic_open(path) as fh:
        while chunk := list(itertools.islice(records, _CHUNK)):
            fh.write("".join([encode_line(record) + "\n" for record in chunk]).encode("utf-8"))
            count += len(chunk)
    return count
