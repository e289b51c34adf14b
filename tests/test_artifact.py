import json
import random

import numpy as np
import pytest

from oracles import with_header
from rweets import artifact
from rweets.cli import main as run
from rweets.errors import FormatError, StaleCacheError
from rweets.features import FeatureConfig, load_matrix
from rweets.pipeline import STAGED_FILE

ODD = ("", "need\x00", "a\nb", "tab\there", "café", "\U0001f6a8 help")


def small(path):
    artifact.save(path, "test", "d" * 16, {"n": 3, "label": "x"},
                  counts=np.arange(3, dtype=np.int64),
                  weights=np.linspace(0.0, 1.0, 4).reshape(2, 2),
                  words=ODD)


def raw_artifact(declared, *records, kind="test"):
    """Artifact bytes with a hand-made header and records."""
    header = json.dumps({"arrays": declared, "digest": "", "kind": kind,
                         "magic": artifact.MAGIC, "meta": {},
                         "version": artifact.VERSION}).encode()
    return len(header).to_bytes(4, "little") + header + b"".join(records)


def drop_categorizer_key(header):
    del header["meta"]["categorizer"]["model"]


def edit_a_term(data: bytes) -> bytes:
    """The staged file with the identifier's first term upper-cased in place."""
    size = int.from_bytes(data[:4], "little")
    offset = 4 + size
    for name, dtype, shape in json.loads(data[4:offset])["arrays"]:
        if dtype != "utf-8":
            offset += np.dtype(dtype).itemsize * int(np.prod(shape))
            continue
        count, nbytes = shape
        ends = np.frombuffer(data[offset:offset + 8 * (count + 1)], dtype="<i8")
        offset += 8 * (count + 1)
        if name == "identifier.terms":
            first = data[offset:offset + int(ends[1])]
            assert first.isascii() and first.upper() != first
            return data[:offset] + first.upper() + data[offset + len(first):]
        offset += nbytes
    raise AssertionError("no identifier terms")


class TestRoundTrip:
    def test_arrays_strings_and_meta(self, tmp_path):
        small(tmp_path / "a")
        header, arrays = artifact.load(tmp_path / "a", "test", "d" * 16)
        assert header["meta"] == {"n": 3, "label": "x"}
        np.testing.assert_array_equal(arrays["counts"], [0, 1, 2])
        assert arrays["weights"].shape == (2, 2)
        assert arrays["words"] == ODD

    def test_ascii_strings_and_empty_list(self, tmp_path):
        artifact.save(tmp_path / "a", "test", "", {}, ids=("t1", "t22", ""), none=())
        _, arrays = artifact.load(tmp_path / "a", "test")
        assert arrays == {"ids": ("t1", "t22", ""), "none": ()}

    def test_two_saves_write_identical_bytes(self, tmp_path):
        small(tmp_path / "a")
        small(tmp_path / "b")
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


class TestRejection:
    def test_every_truncation_is_a_format_error(self, tmp_path):
        small(tmp_path / "a")
        data = (tmp_path / "a").read_bytes()
        cut = tmp_path / "cut"
        for end in range(len(data)):
            cut.write_bytes(data[:end])
            with pytest.raises(FormatError):
                artifact.load(cut, "test")

    def test_flipped_bytes_never_leak_another_error(self, tmp_path):
        small(tmp_path / "a")
        data = (tmp_path / "a").read_bytes()
        rng = random.Random(0)
        for _ in range(3000):
            flipped = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                flipped[rng.randrange(len(data))] = rng.randrange(256)
            (tmp_path / "b").write_bytes(bytes(flipped))
            try:
                artifact.load(tmp_path / "b", "test", "d" * 16)
            except (FormatError, StaleCacheError):
                pass

    def test_trailing_bytes(self, tmp_path):
        small(tmp_path / "a")
        (tmp_path / "a").write_bytes((tmp_path / "a").read_bytes() + b"\0")
        with pytest.raises(FormatError, match="trailing"):
            artifact.load(tmp_path / "a", "test")

    def test_header_length_past_end_of_file(self, tmp_path):
        small(tmp_path / "a")
        data = (tmp_path / "a").read_bytes()
        (tmp_path / "a").write_bytes((len(data) + 1).to_bytes(4, "little") + data[4:])
        with pytest.raises(FormatError, match="past the end"):
            artifact.load(tmp_path / "a", "test")

    def test_wrong_kind(self, tmp_path):
        small(tmp_path / "a")
        with pytest.raises(FormatError, match="'test'"):
            artifact.load(tmp_path / "a", "model")

    def test_digest_mismatch_is_stale(self, tmp_path):
        small(tmp_path / "a")
        with pytest.raises(StaleCacheError):
            artifact.load(tmp_path / "a", "test", "e" * 16)

    def test_object_dtype(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(raw_artifact([["x", "|O", [2]]], bytes(16)))
        with pytest.raises(FormatError, match="declared [|]O"):
            artifact.load(path, "test")
        with pytest.raises(TypeError):
            artifact.save(path, "test", "", {}, x=np.array([1, "a"], dtype=object))

    def test_shape_disagreeing_with_header(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(raw_artifact([["x", "<i8", [3]]], np.arange(2, dtype=np.int64).tobytes()))
        with pytest.raises(FormatError, match="declared <i8 \\[3\\]"):
            artifact.load(path, "test")

    def test_string_offsets_that_fall(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(raw_artifact([["s", "utf-8", [2, 2]]],
                                      np.array([0, 3, 2], dtype=np.int64).tobytes(), b"ab"))
        with pytest.raises(FormatError, match="offsets"):
            artifact.load(path, "test")

    def test_string_offsets_past_the_text(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(raw_artifact([["s", "utf-8", [1, 2]]],
                                      np.array([0, 3], dtype=np.int64).tobytes(), b"ab"))
        with pytest.raises(FormatError, match="offsets"):
            artifact.load(path, "test")

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "a"
        path.write_bytes(raw_artifact([["s", "utf-8", [1, 1]]],
                                      np.array([0, 1], dtype=np.int64).tobytes(), b"\xff"))
        with pytest.raises(FormatError):
            artifact.load(path, "test")

    def test_fortran_order_array_is_written_in_c_order(self, tmp_path):
        path = tmp_path / "a"
        weights = np.arange(6, dtype=np.float64).reshape(2, 3)
        artifact.save(path, "test", "", {}, x=np.asfortranarray(weights))
        np.testing.assert_array_equal(artifact.load(path, "test")[1]["x"], weights)

    def test_bad_magic(self, tmp_path):
        small(tmp_path / "a")
        data = (tmp_path / "a").read_bytes().replace(artifact.MAGIC.encode(), b"X" * 15, 1)
        (tmp_path / "a").write_bytes(data)
        with pytest.raises(FormatError, match="not a rweets artifact"):
            artifact.load(tmp_path / "a", "test")


class TestTextEraFiles:
    def test_text_matrix(self, tmp_path):
        path = tmp_path / "m.spmat"
        path.write_text("SPMAT v1 1 1 1 0123456789abcdef\n0 0 1.0\n")
        with pytest.raises(FormatError, match="SPMAT v1"):
            load_matrix(path, FeatureConfig())

    @pytest.fixture()
    def staged(self, tmp_path):
        for seed, domain, name in ((3, "binary", "d1"), (4, "categorical", "d2")):
            assert run(["--seed", str(seed), "synth", "--size", "120", "--domain", domain,
                        "--out", str(tmp_path / f"{name}.jsonl")]) == 0
        assert run(["train", "--binary", str(tmp_path / "d1.jsonl"),
                    "--categories", str(tmp_path / "d2.jsonl"),
                    "--combo", "10", "--out", str(tmp_path / "staged")]) == 0
        return tmp_path

    @pytest.mark.parametrize("name,text,version", [
        # a directory of the text era: one file of the five-file layout
        ("identifier.model", "MODEL v2 logreg 2 3\nclasses\tnot_rweet\trweet\n", "MODEL v2"),
        ("identifier.model", "MODEL v1 logreg 2 3\nclasses\tnot_rweet\trweet\n", "MODEL v1"),
        ("categorizer.vocab", "VOCAB v1 1 4 1 1\n0\tfood\t2\n", "VOCAB v1"),
        # the staged file, damaged
        pytest.param(STAGED_FILE, lambda data: data[:-5], "truncated", id="truncated"),
        pytest.param(STAGED_FILE, lambda data: with_header(data, drop_categorizer_key),
                     "damaged staged model ('model')", id="meta-without-a-stage-key"),
        pytest.param(STAGED_FILE, edit_a_term, "vocabulary disagrees with its digest",
                     id="vocab-term-edited"),
    ])
    def test_series_model_exit_3(self, staged, capsys, name, text, version):
        path = staged / "staged" / STAGED_FILE
        if callable(text):
            path.write_bytes(text(path.read_bytes()))
        else:
            path.unlink()
            (staged / "staged" / name).write_text(text)
        capsys.readouterr()
        assert run(["series", "--model", str(staged / "staged"),
                    "--input", str(staged / "d1.jsonl"),
                    "--output", str(staged / "o.jsonl")]) == 3
        assert version in capsys.readouterr().err

    def test_featurize_clean_exit_3(self, tmp_path, capsys):
        clean = tmp_path / "d.clean"
        clean.write_text('CLEAN v1 0123456789abcdef 1\n{"id": "a", "tokens": ["x", "y"]}\n')
        assert run(["featurize", "--clean", str(clean), "--out", str(tmp_path / "m"),
                    "--combo", "1"]) == 3
        assert "CLEAN v1" in capsys.readouterr().err


def test_cold_series_caches_are_byte_identical(tmp_path):
    for seed, domain, name in ((3, "binary", "d1"), (4, "categorical", "d2")):
        assert run(["--seed", str(seed), "synth", "--size", "120", "--domain", domain,
                    "--out", str(tmp_path / f"{name}.jsonl")]) == 0
    train = ["--binary", str(tmp_path / "d1.jsonl"), "--categories",
             str(tmp_path / "d2.jsonl"), "--combo", "10"]
    for name in ("a", "b"):
        assert run(["--cache-dir", str(tmp_path / name), "series", *train,
                    "--input", str(tmp_path / "d1.jsonl"),
                    "--output", str(tmp_path / f"{name}.jsonl")]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(files) == 2 and all(name.endswith(".cache") for name in files)
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def batched_stream(records) -> bytes:
    """The bytes `digest_records` hashes, built field by field: per batch of
    2,048 fields, the field count, each field's length in characters
    (8 bytes each, little-endian), then each field's UTF-8 bytes."""
    fields = [field for record in records for field in record]
    stream = b""
    for start in range(0, len(fields), 2048):
        batch = fields[start:start + 2048]
        stream += len(batch).to_bytes(8, "little")
        for field in batch:
            stream += len(field).to_bytes(8, "little")
        for field in batch:
            stream += field.encode("utf-8")
    return stream


class TestDigestRecords:
    def test_length_prefixed_utf8_stream(self):
        import hashlib

        from rweets.digest import digest_records

        records = [("t1", "café"), ("", "\U0001f6a8 help\n")]
        stream = batched_stream(records)
        assert stream[:8] == (4).to_bytes(8, "little")
        assert digest_records(iter(records)) == hashlib.sha256(stream).hexdigest()[:16]
        assert digest_records([]) == hashlib.sha256(b"").hexdigest()[:16]
        # moving a boundary or a separator-like character changes the digest
        variants = [[("ab", "c")], [("a", "bc")], [("a\x1fb", "c")], [("a", "b\x1ec")]]
        assert len({digest_records(v) for v in variants}) == len(variants)

    def test_character_and_byte_lengths_differ(self):
        import hashlib

        from rweets.digest import digest_records

        # each field's length is counted in characters, not bytes: "é" is 2
        # bytes, "需" 3 and a non-BMP character 4 (2 UTF-16 units), and moving
        # one across a field boundary changes the digest
        records = [("é", "需"), ("\U0001f6a8", "x\U00010348y")]
        stream = batched_stream(records)
        lengths = [int.from_bytes(stream[i:i + 8], "little") for i in range(8, 40, 8)]
        assert lengths == [1, 1, 1, 3]
        assert digest_records(records) == hashlib.sha256(stream).hexdigest()[:16]
        variants = [[("é需", "")], [("é", "需")], [("", "é需")], [("\U0001f6a8", "")],
                    [("\U0001f6a8a", "")], [("\U0001f6a8", "a")], [("a", "\U0001f6a8")]]
        assert len({digest_records(v) for v in variants}) == len(variants)

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4096, 4097])
    def test_fields_split_across_the_batch_boundary(self, n):
        import hashlib

        from rweets.digest import digest_records

        # single fields around a batch of 2,048, and pairs whose last pair
        # straddles it; moving the boundary field's text to its neighbour
        # changes the digest
        rng = random.Random(n)
        fields = ["".join(rng.choices(["a", "é", "需", "\U0001f6a8"], k=rng.randint(0, 3)))
                  for _ in range(n)]
        for width in (1, 2):
            records = [tuple(fields[i:i + width]) for i in range(0, n - n % width, width)]
            expected = hashlib.sha256(batched_stream(records)).hexdigest()[:16]
            assert digest_records(iter(records)) == digest_records(records) == expected
        if n > 2048 and fields[2047]:
            moved = fields[:2047] + ["", fields[2047] + fields[2048]] + fields[2049:]
            assert digest_records((f,) for f in moved) != digest_records((f,) for f in fields)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_fuzz_against_the_byte_stream(self, width):
        import hashlib

        from rweets.digest import digest_records

        # empty, one- to four-byte UTF-8 and non-BMP fields; the record counts
        # put the 2,048-field update boundaries inside and between records
        rng = random.Random(width)
        alphabet = ["", "a", "\x00", "\n", "é", "ß", "需", "\u2028", "\U0001f6a8", "\U00010348"]
        for n in (0, 1, 682, 683, 1024, 1025, 2048, 3001):
            records = [tuple("".join(rng.choices(alphabet, k=rng.randint(0, 6)))
                             for _ in range(width)) for _ in range(n)]
            expected = hashlib.sha256(batched_stream(records)).hexdigest()[:16]
            assert digest_records(iter(records)) == digest_records(records) == expected, n
