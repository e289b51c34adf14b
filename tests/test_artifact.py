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

    def test_a_stale_file_is_read_no_further_than_its_header(self, tmp_path, monkeypatch):
        # arrays that would not parse are never read: the digest is checked first
        small(tmp_path / "a")
        data = (tmp_path / "a").read_bytes()
        header_end = 4 + int.from_bytes(data[:4], "little")
        (tmp_path / "a").write_bytes(data[:header_end] + b"\xff" * 7)
        read = []

        def counted_open(*args):
            fh = open(*args)
            fh_read = fh.read
            fh.read = lambda *n: read.append(fh_read(*n)) or read[-1]
            return fh

        monkeypatch.setattr(artifact, "open", counted_open, raising=False)
        with pytest.raises(StaleCacheError, match="built under digest d{16}, expected e{16}"):
            artifact.load(tmp_path / "a", "test", "e" * 16)
        assert b"".join(read) == data[:header_end]
        with pytest.raises(FormatError, match="truncated"):
            artifact.load(tmp_path / "a", "test", "d" * 16)

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
        # its first four bytes, read as the header length, run past its end
        size = int.from_bytes(b"SPMA", "little")
        with pytest.raises(FormatError, match=f"m.spmat: header length {size} runs past"):
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

    # a directory of the text era holds files of the five-file layout and no
    # staged.model: the model is missing
    @pytest.mark.parametrize("name,text", [
        pytest.param("identifier.model", "MODEL v2 logreg 2 3\nclasses\tnot_rweet\trweet\n",
                     id="model-v2"),
        pytest.param("identifier.model", "MODEL v1 logreg 2 3\nclasses\tnot_rweet\trweet\n",
                     id="model-v1"),
        pytest.param("categorizer.vocab", "VOCAB v1 1 4 1 1\n0\tfood\t2\n", id="vocab-v1"),
    ])
    def test_text_era_model_directory_exit_2(self, staged, capsys, name, text):
        (staged / "staged" / STAGED_FILE).unlink()
        (staged / "staged" / name).write_text(text)
        capsys.readouterr()
        assert run(["series", "--model", str(staged / "staged"),
                    "--input", str(staged / "d1.jsonl"),
                    "--output", str(staged / "o.jsonl")]) == 2
        assert f"No such file or directory: '{staged / 'staged' / STAGED_FILE}'" in (
            capsys.readouterr().err)

    # the staged file, damaged
    @pytest.mark.parametrize("text,version", [
        pytest.param(lambda data: data[:-5], "truncated", id="truncated"),
        pytest.param(lambda data: with_header(data, drop_categorizer_key),
                     "damaged staged model ('model')", id="meta-without-a-stage-key"),
        pytest.param(edit_a_term, "vocabulary disagrees with its digest", id="vocab-term-edited"),
    ])
    def test_series_model_exit_3(self, staged, capsys, text, version):
        path = staged / "staged" / STAGED_FILE
        path.write_bytes(text(path.read_bytes()))
        capsys.readouterr()
        assert run(["series", "--model", str(staged / "staged"),
                    "--input", str(staged / "d1.jsonl"),
                    "--output", str(staged / "o.jsonl")]) == 3
        assert version in capsys.readouterr().err


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
