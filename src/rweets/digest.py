"""Content digests and atomic file writes for cached artifacts.

Every persisted artifact carries a 16-hex-char digest of the configuration
that produced it, so downstream stages can detect stale inputs. The series
cache keys an input by its canonical JSONL (`pipeline.input_digest`), and a
`featurize` matrix its raw texts by their fields (`digest_records`).
"""

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

DIGEST_LEN = 16
_FIELDS_PER_UPDATE = 2048  # fields hashed per update: memory stays flat


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_LEN]


def digest_text(text: str) -> str:
    return digest_bytes(text.encode("utf-8"))


def digest_json(obj) -> str:
    """Digest of a JSON-serializable object, independent of dict ordering."""
    return digest_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def combine_digests(*digests: str) -> str:
    return digest_text("|".join(digests))


def digest_records(records) -> str:
    """Digest of a sequence of string tuples, streamed in batches of 2,048
    fields: a batch's field count and each field's length in characters (8
    bytes each, little-endian), then its fields' UTF-8 bytes. UTF-8 delimits
    characters, so equal-width tuple sequences share a digest only if equal."""
    h = hashlib.sha256()
    fields = chain.from_iterable(records)
    while batch := list(islice(fields, _FIELDS_PER_UPDATE)):
        h.update(struct.pack(f"<{len(batch) + 1}Q", len(batch), *map(len, batch)))
        h.update("".join(batch).encode())
    return h.hexdigest()[:DIGEST_LEN]


@contextmanager
def atomic_open(path):
    """A binary file that replaces `path` only when the block completes, so
    concurrent readers never see a partial file. It gets the mode `open`
    gives a new file, 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh random name, created exclusively: no other writer's file
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text with LF line endings through `atomic_open`."""
    with atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))
