"""Content digests and atomic file writes for cached artifacts.

Every persisted artifact carries a 16-hex-char digest of the configuration
that produced it, so downstream stages can detect stale inputs.
"""

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

DIGEST_LEN = 16
_LENGTH = struct.Struct("<Q").pack  # a field's byte length, 8 bytes little-endian
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
    """Digest of a sequence of string tuples, hashed as they stream past.
    Each field goes in as its UTF-8 byte length (8 bytes, little-endian)
    and then its bytes, so two sequences of equal-width tuples share a
    digest only if they are equal."""
    h = hashlib.sha256()
    fields = chain.from_iterable(records)
    while data := list(map(str.encode, islice(fields, _FIELDS_PER_UPDATE))):
        stream = data * 2  # each field's length, then its bytes
        stream[::2], stream[1::2] = map(_LENGTH, map(len, data)), data
        h.update(b"".join(stream))
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
