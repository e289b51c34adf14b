"""One binary container for every persisted artifact, of four kinds:
`clean` (a cleaned corpus), `matrix` (a feature matrix with its vocabulary),
`staged` (both classifiers of a staged model with their vocabularies and
configurations) and `cache` (a series cache entry, `pipeline.FeatureCache`).

Layout: a 4-byte little-endian header length, a sorted-key JSON header
(magic, kind, version, digest, `meta`, and each array's [name, dtype,
shape]), then each array's raw little-endian bytes in C order, in header
order, with no framing of their own. A string list is declared [name,
"utf-8", [count, nbytes]] and stored as `int64` character offsets (count + 1
of them) followed by the `nbytes` of its items' UTF-8 concatenation (numpy
`<U` arrays would drop trailing "\\x00").

Equal content gives equal bytes (one stream, no zip timestamps). Nothing is
pickled or evaluated: only uint8, uint16, uint32, int64 and float64 arrays
are written or read, each taken by `np.frombuffer` at its declared dtype and
shape, and `field` checks that an array has the type its reader expects.
Readers raise `FormatError` for a bad magic, version or kind (an earlier
text-format file is named by its version; `clean` and `matrix` files
are at version 2 and other kinds at 1), an undeclared dtype, a truncated
file, trailing bytes, or string offsets that disagree with their text, and
`StaleCacheError` for an unexpected digest.
"""

import io
import json
import math
from pathlib import Path

import numpy as np

from .digest import atomic_open
from .errors import FormatError, StaleCacheError

MAGIC = "RWEETS-ARTIFACT"
VERSION = 1
# kinds whose layout changed since VERSION; each reads only its own version:
# clean 2 has a token table and codes, matrix 2 narrow integers and coded values
KIND_VERSIONS = {"clean": 2, "matrix": 2}
_STRINGS = "utf-8"
INTEGERS = ("|u1", "<u2", "<u4", "<i8")  # narrowest first
_DTYPES = (*INTEGERS, "<f8")
_TEXT_ERA = (b"SPMA", b"VOCA", b"MODE", b"CLEA")  # SPMAT, VOCAB, MODEL, CLEAN


def save(path, kind: str, digest: str, meta: dict, **arrays) -> None:
    """Write one artifact atomically; each keyword is a numpy array or a
    sequence of strings."""
    records, declared = [], []
    for name, value in arrays.items():
        if isinstance(value, np.ndarray):
            records.append(value)
            declared.append([name, value.dtype.str, list(value.shape)])
        else:
            blob = "".join(value).encode("utf-8")
            records.append(np.cumsum([0, *map(len, value)], dtype=np.int64))
            records.append(np.frombuffer(blob, dtype=np.uint8))
            declared.append([name, _STRINGS, [len(value), len(blob)]])
    if any(r.dtype.str not in _DTYPES for r in records):
        raise TypeError(f"artifact arrays must have one of the dtypes {_DTYPES}")
    header = {"arrays": declared, "digest": digest, "kind": kind, "magic": MAGIC,
              "meta": meta, "version": KIND_VERSIONS.get(kind, VERSION)}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    with atomic_open(path) as fh:
        fh.write(len(raw).to_bytes(4, "little") + raw)
        for record in records:
            fh.write(record.tobytes(order="C"))


def load(path, kind: str, expected_digest: str | None = None) -> tuple[dict, dict]:
    """(header, arrays) of an artifact of the given kind; string lists come
    back as tuples. With `expected_digest`, any other digest is stale."""
    name = Path(path).name
    stream = io.BytesIO(Path(path).read_bytes())
    header = _read_header(stream, name)
    if header["kind"] != kind:
        raise FormatError(f"{name}: holds a {header['kind']!r} artifact, expected {kind!r}")
    version = KIND_VERSIONS.get(kind, VERSION)
    if header.get("version") != version:
        raise FormatError(f"{name}: {kind} artifact version {header.get('version')!r} is not "
                          f"readable; this version reads {version}; rebuild the file")
    if expected_digest is not None and header["digest"] != expected_digest:
        raise StaleCacheError(
            f"{name}: {kind} was built under digest {header['digest']}, expected {expected_digest}"
        )
    arrays = {}
    try:
        for field, dtype, shape in header["arrays"]:
            if dtype == _STRINGS:
                count, nbytes = shape
                offsets = _read_array(stream, "<i8", [count + 1])
                text = _read_array(stream, "|u1", [nbytes]).tobytes().decode("utf-8")
                arrays[field] = split_at(text, offsets)
            else:
                arrays[field] = _read_array(stream, dtype, shape)
        if stream.read(1):
            raise FormatError("trailing bytes after the last array")
    except (ValueError, TypeError, IndexError, OverflowError) as exc:  # FormatError too
        raise FormatError(f"{name}: {exc}") from None
    return header, arrays


def _read_header(fh, name: str) -> dict:
    prefix = fh.read(4)
    if prefix in _TEXT_ERA:
        version = " ".join((prefix + fh.readline(80)).decode("latin-1").split()[:2])
        raise FormatError(f"{name}: {version} is a text-era format that is no longer read; "
                          "rebuild the file")
    size = int.from_bytes(prefix, "little")
    raw = fh.read(size)
    if len(prefix) < 4 or len(raw) < size:
        raise FormatError(f"{name}: header length {size} runs past the end of the file")
    try:
        header = json.loads(raw)
        ok = header["magic"] == MAGIC and {"kind", "digest", "meta", "arrays"} <= header.keys()
    except (ValueError, KeyError, TypeError, AttributeError):
        ok = False
    if not ok:
        raise FormatError(f"{name}: not a rweets artifact")
    return header


def _read_array(stream, dtype: str, shape: list) -> np.ndarray:
    """The next array's bytes, taken at the declared dtype and shape."""
    if dtype not in _DTYPES or any(type(n) is not int or n < 0 for n in shape):
        raise FormatError(f"cannot read an array declared {dtype} {shape}")
    size = math.prod(shape) * np.dtype(dtype).itemsize
    data = stream.read(size)
    if len(data) < size:
        raise FormatError(f"array declared {dtype} {shape} is truncated")
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


def field(arrays: dict, name: str, dtypes=None):
    """`arrays[name]`: a string list when `dtypes` is None, else a 1-D array
    of one of `dtypes`, or a FormatError names the array."""
    value = arrays[name]
    if dtypes is None and type(value) is not tuple:
        raise FormatError(f"{name} must be a string list")
    if dtypes and (type(value) is tuple or value.ndim != 1 or value.dtype.str not in dtypes):
        raise FormatError(f"{name} must be a 1-D array of {'/'.join(dtypes)}")
    return value


def narrow(values) -> np.ndarray:
    """Non-negative integers at the narrowest of `INTEGERS` that holds them."""
    values = np.asarray(values)
    top = values.max(initial=0)
    return values.astype(next(dtype for dtype in INTEGERS if top <= np.iinfo(dtype).max))


def split_at(items, offsets) -> tuple:
    """`items` cut into len(offsets) - 1 pieces; the offsets must rise from
    0 to len(items)."""
    offsets = np.asarray(offsets)
    bounds = offsets.tolist()
    if offsets.ndim != 1 or bounds[:1] != [0] or bounds[-1] != len(items) or np.any(
        np.diff(offsets) < 0
    ):
        raise FormatError("offsets disagree with the items they split")
    return tuple(items[a:b] for a, b in zip(bounds, bounds[1:]))
