import json
import re

import pytest

from rweets import corpus
from oracles import dataset_stats
from rweets.corpus import (
    BINARY,
    CATEGORICAL,
    Dataset,
    LabelDomain,
    RawTweet,
    load_dataset,
    save_dataset,
    synth_corpus,
)
from rweets.errors import ValidationError


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestDomains:
    def test_binary_domain_order(self):
        assert BINARY.labels == ("not_rweet", "rweet")
        assert BINARY.labels[0] == "not_rweet"

    def test_categorical_domain_order(self):
        assert CATEGORICAL.labels == ("money", "volunteer", "cloth", "shelter", "medical", "food")

    def test_domain_needs_two_labels(self):
        with pytest.raises(ValidationError):
            LabelDomain("tiny", ("only",))

    def test_domain_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            LabelDomain("dup", ("a", "a"))


class TestLoad:
    def test_identity_load(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "text": "need food", "label": "rweet"},
            {"id": "2", "text": "nice day"},
        ])
        d = load_dataset(path, BINARY)
        assert len(d) == 2
        assert d.tweets[0] == RawTweet("1", "need food", "rweet")
        assert d.tweets[1].label is None

    def test_unknown_label_names_label(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [{"id": "1", "text": "x", "label": "foood"}])
        with pytest.raises(ValidationError, match="foood"):
            load_dataset(path, CATEGORICAL)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id": "1", "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(path, BINARY)

    def test_duplicate_id_is_error(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(path, [
            {"id": "1", "text": "a"},
            {"id": "1", "text": "b"},
        ])
        with pytest.raises(ValidationError, match="duplicate"):
            load_dataset(path, BINARY)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope.jsonl", BINARY)

    def test_round_trip(self, tmp_path):
        d = synth_corpus(5, 40, BINARY)
        path = tmp_path / "round.jsonl"
        save_dataset(d, path)
        again = load_dataset(path, BINARY)
        assert again == d

    def test_rebuilt_dataset_scale_counts(self, tmp_path):
        # the original corpus is not redistributable; synthesize a file with
        # the documented 1644/1296 split and check the loader reports it
        path = tmp_path / "big.jsonl"
        records = [
            {"id": f"r{i}", "text": "we need water", "label": "rweet"} for i in range(1644)
        ] + [
            {"id": f"n{i}", "text": "calm morning", "label": "not_rweet"} for i in range(1296)
        ]
        write_jsonl(path, records)
        d = load_dataset(path, BINARY)
        stats = dataset_stats(d)
        assert len(d) == 2940
        assert stats.counts == {"rweet": 1644, "not_rweet": 1296}


class TestStats:
    def test_counting(self):
        d = Dataset(BINARY, (
            RawTweet("1", "x", "rweet"),
            RawTweet("2", "y", "rweet"),
            RawTweet("3", "z", "not_rweet"),
        ))
        stats = dataset_stats(d)
        assert stats.counts == {"rweet": 2, "not_rweet": 1}
        assert stats.fractions["rweet"] == pytest.approx(2 / 3)

    def test_fractions_sum_to_one(self):
        for seed in range(10):
            d = synth_corpus(seed, 30, CATEGORICAL)
            assert sum(dataset_stats(d).fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_dataset(self):
        d = Dataset(BINARY, (RawTweet("1", "unlabeled"),))
        stats = dataset_stats(d)
        assert stats.counts == {} and stats.fractions == {}

    def test_documented_category_distribution(self, tmp_path):
        counts = {"money": 1896, "volunteer": 216, "cloth": 165,
                  "shelter": 146, "medical": 144, "food": 140}
        records = []
        for label, n in counts.items():
            records += [{"id": f"{label}{i}", "text": "t", "label": label} for i in range(n)]
        path = tmp_path / "d2.jsonl"
        write_jsonl(path, records)
        d = load_dataset(path, CATEGORICAL)
        assert len(d) == 2707
        assert dataset_stats(d).counts == counts


class TestSynth:
    def test_deterministic(self):
        a = synth_corpus(7, 60, BINARY)
        b = synth_corpus(7, 60, BINARY)
        assert a == b

    def test_all_labels_present(self):
        d = synth_corpus(7, 60, CATEGORICAL)
        assert {t.label for t in d} == set(CATEGORICAL.labels)

    def test_size_too_small(self):
        with pytest.raises(ValidationError):
            synth_corpus(1, 3, CATEGORICAL)

    @pytest.mark.parametrize("domain", [BINARY, CATEGORICAL], ids=lambda d: d.name)
    def test_peak_memory_stays_near_the_dataset(self, domain):
        """No second copy of the tweets or their draws is alive while the
        Dataset checks its ids: the tracemalloc peak stays within 1.8x of the
        Dataset returned (about 1.4x; 2.7x with a dict per noise shape and the
        entries kept)."""
        import tracemalloc

        tracemalloc.start()
        try:
            d = synth_corpus(1, 5000, domain)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(d) == 5000
        assert peak < 1.8 * held, (held, peak)

    def test_different_seeds_differ(self):
        assert synth_corpus(1, 40, BINARY) != synth_corpus(2, 40, BINARY)

    def test_rweet_texts_come_from_request_templates(self):
        d = synth_corpus(9, 120, BINARY)
        patterns = [
            re.compile(
                "^"
                + re.escape(t)
                .replace(re.escape("_location_"), "[a-z ]+")
                .replace(re.escape("_resource_"), "[a-z]+")
                + "$"
            )
            for t in corpus.REQUEST_TEMPLATES
        ]
        cores = {}
        for tweet in d:
            if tweet.label != "rweet":
                continue
            # strip decorations: RT prefix, trailing noise, casing
            core = tweet.text.lower()
            core = re.sub(r"^rt @\w+: ", "", core)
            core = re.sub(r" \d+ people affected.*$| @\w+.*$| http://\S+.*$|[!.]+$", "", core)
            cores[tweet.id] = core
        assert cores, "expected rweet-labeled tweets"
        for core in cores.values():
            assert any(p.match(core) for p in patterns), core

    def test_imperative_template_present(self):
        assert "need _resource_ at _location_ please help" in corpus.REQUEST_TEMPLATES
        assert "need shelter at _location_ please help" in corpus.CATEGORY_TEMPLATES["shelter"]
