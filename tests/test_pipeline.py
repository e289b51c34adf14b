import random
from itertools import compress

import numpy as np
import pytest

from oracles import length_prefixed_digest, save_version_1_matrix, with_header
from rweets import artifact, lexicon
from rweets.cli import main
from rweets.corpus import (
    BINARY,
    CATEGORICAL,
    RWEET,
    Dataset,
    RawTweet,
    save_dataset,
    synth_corpus,
)
from rweets.errors import FormatError, RweetsError, StaleCacheError, ValidationError
from rweets.digest import combine_digests, digest_bytes, digest_records, digest_text
from rweets.features import FeatureConfig, _matrix_fields, combo, save_matrix
from rweets.models import CLASSIFIERS, MultinomialNaiveBayes, input_config
from rweets.pipeline import (
    STAGED_FILE,
    FeatureCache,
    featurize_corpus,
    load_staged,
    run_series,
    save_series_output,
    save_staged,
    train_staged,
)
from rweets.preprocess import CleanCorpus, run_pipeline


@pytest.fixture(scope="module")
def staged_model():
    d1 = synth_corpus(41, 240, BINARY)
    d2 = synth_corpus(42, 240, CATEGORICAL)
    staged, _reports = train_staged(d1, d2, combo(10))
    return staged


def stage_slot(staged, stage):
    """The cache slot of a stage ("stage1" or "stage2") of a staged model:
    the stage, the feature config its classifier is fed, its vocabulary,
    the pipeline config and the entry layout."""
    clf, vocab = {"stage1": (staged.identifier, staged.identifier_vocab),
                  "stage2": (staged.categorizer, staged.categorizer_vocab)}[stage]
    return combine_digests(stage, input_config(clf, staged.feature_config).digest, vocab.digest,
                           staged.pipeline_config.digest, "cache 1")


def stage1_key(staged, dataset):
    """The stage-1 cache key: the stage-1 slot and the raw input."""
    return combine_digests(stage_slot(staged, "stage1"),
                           digest_records((tw.id, tw.text) for tw in dataset))


def matrix_key(staged, dataset, layout):
    """The stage-1 key the cache named its `.matrix` files by before it had
    slots: the identifier's input config and vocabulary, the pipeline
    config, the raw input and the matrix layout (none: version 1)."""
    return combine_digests(
        input_config(staged.identifier, staged.feature_config).digest,
        staged.identifier_vocab.digest,
        staged.pipeline_config.digest,
        digest_records((tw.id, tw.text) for tw in dataset),
        "stage1",
        *layout,
    )


def save_entry(path, key, fm, positions=None):
    """Write `fm` as a cache entry under `key`: its matrix arrays, and the
    positions of its rows when given."""
    meta, arrays = _matrix_fields(fm.matrix)
    if positions is not None:
        arrays["positions"] = artifact.narrow(positions)
    artifact.save(path, "cache", key, meta, **arrays)


def recording_cache(directory):
    """A FeatureCache that keeps every matrix get_or_build returns."""
    cache = FeatureCache(directory)
    cache.returned = []
    get_or_build = cache.get_or_build

    def recorded(*args):
        fm = get_or_build(*args)
        cache.returned.append(fm)
        return fm

    cache.get_or_build = recorded
    return cache


def rows_where(corpus, mask):
    """The corpus of `corpus`'s rows whose `mask` entry is true, in order."""
    columns = (tuple(compress(c, mask)) for c in (corpus.ids, corpus.tokens, corpus.labels))
    return CleanCorpus(*columns, corpus.config_digest)


class TestTrainStaged:
    def test_wrong_domains_rejected(self):
        d1 = synth_corpus(1, 40, BINARY)
        d2 = synth_corpus(2, 40, CATEGORICAL)
        with pytest.raises(ValidationError):
            train_staged(d2, d2, combo(1))
        with pytest.raises(ValidationError):
            train_staged(d1, d1, combo(1))

    def test_unlabeled_rejected(self):
        d1 = Dataset(BINARY, (RawTweet("a", "need food"), RawTweet("b", "calm day")))
        d2 = synth_corpus(2, 40, CATEGORICAL)
        with pytest.raises(ValidationError):
            train_staged(d1, d2, combo(1))

    def test_shared_config_digest(self, staged_model):
        assert staged_model.feature_config.digest == combo(10).digest

    def test_deterministic_artifacts(self, tmp_path):
        d1 = synth_corpus(51, 120, BINARY)
        d2 = synth_corpus(52, 120, CATEGORICAL)
        for name in ("one", "two"):
            staged, _ = train_staged(d1, d2, combo(4))
            save_staged(staged, tmp_path / name)
            assert [p.name for p in (tmp_path / name).iterdir()] == [STAGED_FILE]
        assert (tmp_path / "one" / STAGED_FILE).read_bytes() == (
            tmp_path / "two" / STAGED_FILE
        ).read_bytes()


class TestRunSeries:
    def test_conservation(self, staged_model):
        probe = synth_corpus(43, 120, BINARY)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        ids, stage1, stage2 = run_series(probe.texts_by_id(), staged_model)
        assert len(ids) == len(stage1) == len(stage2) == len(clean)
        assert [label == RWEET for label in stage1] == [c is not None for c in stage2]
        assert RWEET in stage1
        assert len(ids) <= len(probe)

    def test_alignment(self, staged_model):
        probe = synth_corpus(44, 80, BINARY)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        ids, _, _ = run_series(probe.texts_by_id(), staged_model)
        assert len(ids) == len(set(ids))
        assert ids == list(clean.ids)  # the cleaned corpus's ids, in its order

    def test_near_perfect_on_easy_data(self, staged_model):
        probe = synth_corpus(45, 150, BINARY)
        ids, stage1, _ = run_series(probe.texts_by_id(), staged_model)
        gold = {t.id: t.label for t in probe}
        acc = sum(gold[i] == label for i, label in zip(ids, stage1)) / len(ids)
        assert acc >= 0.95

    def test_warm_cache_skips_featurization(self, staged_model, tmp_path):
        probe = synth_corpus(46, 90, BINARY)
        cold = FeatureCache(tmp_path / "cache")
        first = run_series(probe.texts_by_id(), staged_model, cold)
        assert cold.built == 2 and cold.hits == 0
        warm = FeatureCache(tmp_path / "cache")
        second = run_series(probe.texts_by_id(), staged_model, warm)
        assert warm.built == 0 and warm.misses == 0 and warm.hits == 2
        assert first == second

    # logreg and NB trained on the same data have the same vocabularies; the
    # NB stages are fed raw counts, so they must not take logreg's matrices
    def test_models_of_other_classifiers_share_a_cache_dir(self, tmp_path):
        d1, d2 = synth_corpus(41, 120, BINARY), synth_corpus(42, 120, CATEGORICAL)
        logreg, nb = (train_staged(d1, d2, combo(10), make_clf=CLASSIFIERS[kind])[0]
                      for kind in ("logreg", "nb"))
        assert logreg.identifier_vocab == nb.identifier_vocab
        texts = synth_corpus(46, 200, BINARY).texts_by_id()
        run_series(texts, logreg, FeatureCache(tmp_path / "cache"))
        cache = FeatureCache(tmp_path / "cache")
        assert run_series(texts, nb, cache) == run_series(texts, nb)
        assert (cache.hits, cache.misses, cache.built) == (0, 2, 2)

    def test_nb_stages_carry_the_config_they_are_fed(self, tmp_path):
        staged, _ = train_staged(synth_corpus(41, 120, BINARY), synth_corpus(42, 120, CATEGORICAL),
                                 combo(16), make_clf=MultinomialNaiveBayes)
        fed = input_config(staged.identifier, combo(16))
        assert fed == FeatureConfig(ngram_range=(1, 2), l2_normalize=False)
        assert staged.feature_config == combo(16)  # the user's config is what is saved
        texts = synth_corpus(46, 90, BINARY).texts_by_id()
        for hits in (0, 2):  # built, then loaded
            cache = recording_cache(tmp_path / "cache")
            run_series(texts, staged, cache)
            assert cache.hits == hits
            assert [fm.config for fm in cache.returned] == [fed, fed]

    def test_rules_run_once_per_cleaned_row(self, staged_model, tmp_path, rule_walks):
        probe = synth_corpus(46, 90, BINARY)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        texts = probe.texts_by_id()
        cold = run_series(texts, staged_model, FeatureCache(tmp_path / "cache"))
        assert RWEET in cold[1]
        assert rule_walks == [texts[i] for i in clean.ids]  # one walk per cleaned row
        rule_walks.clear()
        assert run_series(texts, staged_model, FeatureCache(tmp_path / "cache")) == cold
        assert rule_walks == []
        assert run_series(texts, staged_model) == cold
        assert rule_walks == [texts[i] for i in clean.ids]

    def stage2_reference(self, staged, probe, series):
        """Stage-2 features built from scratch on the id-filtered corpus, the
        positions of their rows among stage 1's, and the slot and key
        run_series files them under."""
        clean, _ = run_pipeline(probe, staged.pipeline_config)
        ids, stage1, _ = series
        kept = {i for i, label in zip(ids, stage1) if label == RWEET}
        filtered = rows_where(clean, [i in kept for i in clean.ids])
        fm = featurize_corpus(
            filtered, staged.feature_config, probe.texts_by_id(),
            vocabulary=staged.categorizer_vocab,
        )
        positions = [i for i, label in enumerate(stage1) if label == RWEET]
        slot = stage_slot(staged, "stage2")
        key = combine_digests(slot, stage1_key(staged, probe),
                              digest_bytes(np.array(positions, dtype="<i8").tobytes()))
        return fm, positions, slot, key

    def test_cache_filled_under_the_dataset_key_is_all_hits(self, staged_model, tmp_path):
        # stage1_key digests the input as a Dataset's (id, text) pairs, the
        # key run_series filed matrices under when it took a Dataset
        probe = synth_corpus(46, 90, BINARY)
        results = run_series(probe.texts_by_id(), staged_model)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        cache = FeatureCache(tmp_path / "cache")
        fm1 = featurize_corpus(clean, staged_model.feature_config, probe.texts_by_id(),
                               vocabulary=staged_model.identifier_vocab)
        input_ids = [tw.id for tw in probe]
        save_entry(cache.path_for(stage_slot(staged_model, "stage1")),
                   stage1_key(staged_model, probe), fm1, list(map(input_ids.index, clean.ids)))
        fm2, _positions, slot2, key2 = self.stage2_reference(staged_model, probe, results)
        save_entry(cache.path_for(slot2), key2, fm2)
        assert run_series(probe.texts_by_id(), staged_model, cache) == results
        assert (cache.hits, cache.misses, cache.built) == (2, 0, 0)

    def test_cache_of_version_1_matrices_is_rebuilt(self, staged_model, tmp_path, capsys):
        # a cache that the version-1 and version-2 matrix layouts filled holds
        # each stage under a key that names no slot: series builds both
        # stages into their slots and reads and removes none of those files
        probe = synth_corpus(46, 90, BINARY)
        save_staged(staged_model, tmp_path / "model")
        save_dataset(probe, tmp_path / "in.jsonl")
        series = ["series", "--model", str(tmp_path / "model"),
                  "--input", str(tmp_path / "in.jsonl")]
        assert main(series + ["--output", str(tmp_path / "none.jsonl")]) == 0
        results = run_series(probe.texts_by_id(), staged_model)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        fm1 = featurize_corpus(clean, staged_model.feature_config, probe.texts_by_id(),
                               vocabulary=staged_model.identifier_vocab)
        fm2, positions, _slot, _key = self.stage2_reference(staged_model, probe, results)
        config2 = input_config(staged_model.categorizer, staged_model.feature_config)
        cache = tmp_path / "cache"
        cache.mkdir()
        old = []
        for layout, save in (((), save_version_1_matrix), (("matrix 2",), save_matrix)):
            key1 = matrix_key(staged_model, probe, layout)
            key2 = combine_digests(config2.digest, staged_model.categorizer_vocab.digest, key1,
                                   digest_text(",".join(map(str, positions))), "stage2", *layout)
            for key, fm in ((key1, fm1), (key2, fm2)):
                save(fm, cache / f"{key}.matrix", key)
                old.append(cache / f"{key}.matrix")
        before = {path: path.read_bytes() for path in old}
        capsys.readouterr()
        cached = ["--cache-dir", str(cache), "--verbose"] + series
        assert main(cached + ["--output", str(tmp_path / "cold.jsonl")]) == 0
        assert "cache: 0 hits, 2 misses, 2 built" in capsys.readouterr().out
        assert main(cached + ["--output", str(tmp_path / "warm.jsonl")]) == 0
        assert "cache: 2 hits, 0 misses, 0 built" in capsys.readouterr().out
        outputs = {(tmp_path / f"{run}.jsonl").read_bytes() for run in ("none", "cold", "warm")}
        assert len(outputs) == 1
        assert {path: path.read_bytes() for path in old} == before
        assert len(list(cache.iterdir())) == 6

    def test_cache_under_the_length_prefixed_key_is_rebuilt(self, staged_model, tmp_path, capsys):
        # both slots hold entries keyed by the record digest's earlier stream
        # (each field's byte length, then its bytes) and the stage-2 positions
        # as decimal text: each is a miss, rebuilt once, then a hit
        probe = synth_corpus(46, 90, BINARY)
        save_staged(staged_model, tmp_path / "model")
        save_dataset(probe, tmp_path / "in.jsonl")
        series = ["series", "--model", str(tmp_path / "model"),
                  "--input", str(tmp_path / "in.jsonl")]
        assert main(series + ["--output", str(tmp_path / "none.jsonl")]) == 0
        results = run_series(probe.texts_by_id(), staged_model)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        fm1 = featurize_corpus(clean, staged_model.feature_config, probe.texts_by_id(),
                               vocabulary=staged_model.identifier_vocab)
        fm2, positions, slot2, key2 = self.stage2_reference(staged_model, probe, results)
        slot1 = stage_slot(staged_model, "stage1")
        old1 = combine_digests(slot1, length_prefixed_digest((tw.id, tw.text) for tw in probe))
        old2 = combine_digests(slot2, old1, digest_text(",".join(map(str, positions))))
        assert old1 != stage1_key(staged_model, probe) and old2 != key2
        cache = FeatureCache(tmp_path / "cache")
        input_ids = [tw.id for tw in probe]
        save_entry(cache.path_for(slot1), old1, fm1, list(map(input_ids.index, clean.ids)))
        save_entry(cache.path_for(slot2), old2, fm2)
        capsys.readouterr()
        cached = ["--cache-dir", str(cache.directory), "--verbose"] + series
        assert main(cached + ["--output", str(tmp_path / "cold.jsonl")]) == 0
        assert "cache: 0 hits, 2 misses, 2 built" in capsys.readouterr().out
        assert main(cached + ["--output", str(tmp_path / "warm.jsonl")]) == 0
        assert "cache: 2 hits, 0 misses, 0 built" in capsys.readouterr().out
        outputs = {(tmp_path / f"{run}.jsonl").read_bytes() for run in ("none", "cold", "warm")}
        assert len(outputs) == 1
        assert sorted(p.name for p in cache.directory.iterdir()) == sorted(
            cache.path_for(slot).name for slot in (slot1, slot2))
        assert artifact.load(cache.path_for(slot1), "cache")[0]["digest"] == stage1_key(
            staged_model, probe)
        assert artifact.load(cache.path_for(slot2), "cache")[0]["digest"] == key2

    def test_stage2_artifact_matches_filtered_corpus(self, staged_model, tmp_path):
        probe = synth_corpus(46, 90, BINARY)
        cache = FeatureCache(tmp_path / "cache")
        results = run_series(probe.texts_by_id(), staged_model, cache)
        fm, positions, slot, key = self.stage2_reference(staged_model, probe, results)
        save_entry(tmp_path / "reference.cache", key, fm)
        reference = (tmp_path / "reference.cache").read_bytes()
        assert cache.path_for(slot).read_bytes() == reference
        # the entry holds the matrix arrays and no row list or vocabulary
        header, arrays = artifact.load(cache.path_for(slot), "cache", key)
        assert {"counts", "indices"} <= set(arrays)
        assert not {"positions", "row_ids", "terms", "doc_freqs"} & set(arrays)
        assert header["meta"] == {"rows": len(positions), "cols": fm.matrix.cols}

    def test_stage2_miss_after_stage1_hit(self, staged_model, tmp_path, rule_walks):
        probe = synth_corpus(46, 90, BINARY)
        cold = run_series(probe.texts_by_id(), staged_model, FeatureCache(tmp_path / "cache"))
        _fm, positions, slot, _key = self.stage2_reference(staged_model, probe, cold)
        n_stage2 = len(positions)
        assert 0 < n_stage2 < len(cold[0])
        stage2_path = FeatureCache(tmp_path / "cache").path_for(slot)
        stage2_path.unlink()
        rule_walks.clear()
        cache = FeatureCache(tmp_path / "cache")
        assert run_series(probe.texts_by_id(), staged_model, cache) == cold
        assert (cache.hits, cache.misses, cache.built) == (1, 1, 1)
        texts = probe.texts_by_id()
        stage2_texts = [texts[i] for i, label in zip(cold[0], cold[1]) if label == RWEET]
        assert len(stage2_texts) == n_stage2
        assert rule_walks == stage2_texts  # stage 2 walks its own rows only
        assert stage2_path.exists()

    # tf and tf-idf, each without and with rules, on unigrams plus bigrams;
    # NB reads raw counts
    @pytest.mark.parametrize("index,classifier", [(4, "logreg"), (10, "logreg"), (16, "logreg"),
                                                  (22, "logreg"), (10, "nb")])
    def test_stage2_counts_taken_from_stage1_equal_a_fresh_count(self, index, classifier,
                                                                 tmp_path):
        staged, _ = train_staged(synth_corpus(41, 120, BINARY), synth_corpus(42, 120, CATEGORICAL),
                                 combo(index), make_clf=CLASSIFIERS[classifier])
        probe = synth_corpus(46, 90, BINARY)
        taken = recording_cache(tmp_path / "cache")  # stage 2 takes stage 1's counts
        results = run_series(probe.texts_by_id(), staged, taken)
        stage2 = results[2]
        assert 0 < sum(c is not None for c in stage2) < len(stage2)
        stage1_path = taken.path_for(stage_slot(staged, "stage1"))
        for path in (tmp_path / "cache").iterdir():
            if path != stage1_path:
                path.unlink()
        counted = recording_cache(tmp_path / "cache")  # a stage-1 hit: stage 2 counts its rows
        assert run_series(probe.texts_by_id(), staged, counted) == results
        assert (counted.hits, counted.misses, counted.built) == (1, 1, 1)
        ours, fresh = taken.returned[1], counted.returned[1]
        assert ours.row_ids == fresh.row_ids
        assert (ours.matrix.rows, ours.matrix.cols) == (fresh.matrix.rows, fresh.matrix.cols)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours.matrix, name), getattr(fresh.matrix, name)), name

    # a staged pair may mix classifiers; NB reads raw counts, logreg weighted rows
    @pytest.mark.parametrize("kinds", [("logreg", "nb"), ("nb", "logreg")])
    def test_each_stage_featurized_for_its_own_classifier(self, kinds, tmp_path):
        from dataclasses import replace

        d1, d2 = synth_corpus(41, 120, BINARY), synth_corpus(42, 120, CATEGORICAL)
        first, second = (train_staged(d1, d2, combo(16), make_clf=CLASSIFIERS[kind])[0]
                         for kind in kinds)
        staged = replace(first, categorizer=second.categorizer,
                         categorizer_vocab=second.categorizer_vocab)
        texts = synth_corpus(46, 200, BINARY).texts_by_id()
        cache = recording_cache(tmp_path / "cache")
        ids, stage1, stage2 = run_series(texts, staged, cache)
        assert run_series(texts, staged, None) == (ids, stage1, stage2)
        cleaned, _ = run_pipeline([(i, t, None) for i, t in texts.items()])
        rweets = rows_where(cleaned, [label == RWEET for label in stage1])
        assert 0 < len(rweets) < len(cleaned)
        stages = ((cleaned, staged.identifier, staged.identifier_vocab),
                  (rweets, staged.categorizer, staged.categorizer_vocab))
        for (corpus, clf, vocab), ours in zip(stages, cache.returned, strict=True):
            fresh = featurize_corpus(corpus, input_config(clf, combo(16)), vocabulary=vocab).matrix
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(ours.matrix, name), getattr(fresh, name)), name
            labels = stage1 if clf is staged.identifier else [c for c in stage2 if c is not None]
            assert labels == clf.predict(fresh)

    def count_cleanings(self, monkeypatch):
        from rweets import pipeline

        calls = []
        clean = pipeline.run_pipeline

        def counted(*args):
            calls.append(args)
            return clean(*args)

        monkeypatch.setattr(pipeline, "run_pipeline", counted)
        return calls

    def test_warm_call_never_cleans(self, staged_model, tmp_path, monkeypatch):
        probe = synth_corpus(46, 90, BINARY)
        calls = self.count_cleanings(monkeypatch)
        uncached = run_series(probe.texts_by_id(), staged_model)
        assert len(calls) == 1
        calls.clear()
        cold = run_series(probe.texts_by_id(), staged_model, FeatureCache(tmp_path / "cache"))
        assert len(calls) == 1
        calls.clear()
        warm = FeatureCache(tmp_path / "cache")
        assert run_series(probe.texts_by_id(), staged_model, warm) == cold == uncached
        assert warm.hits == 2 and calls == []
        warm.path_for(stage_slot(staged_model, "stage2")).unlink()
        stage2_miss = FeatureCache(tmp_path / "cache")
        assert run_series(probe.texts_by_id(), staged_model, stage2_miss) == cold
        assert (stage2_miss.hits, stage2_miss.built) == (1, 1) and len(calls) == 1

    def test_changed_input_or_pipeline_misses(self, staged_model, tmp_path):
        from dataclasses import replace

        probe = synth_corpus(46, 90, BINARY)
        run_series(probe.texts_by_id(), staged_model, FeatureCache(tmp_path / "cache"))
        first, *rest = probe.tweets
        variants = [
            # "!" is punctuation, so cleaning leaves the same tokens
            (Dataset(BINARY, (first._replace(text=first.text + "!"), *rest)), staged_model),
            (Dataset(BINARY, (*rest, first)), staged_model),
            (probe, replace(staged_model, pipeline_config=replace(
                staged_model.pipeline_config, english_threshold=0.14))),
        ]
        for dataset, staged in variants:
            cache = FeatureCache(tmp_path / "cache")
            texts = dataset.texts_by_id()
            assert run_series(texts, staged, cache) == run_series(texts, staged)
            assert cache.hits == 0 and cache.built == 2

    def test_rule_columns_follow_the_raw_text(self, staged_model, tmp_path):
        # "?" changes no cleaned token but fires a rule pattern
        assert staged_model.feature_config.append_rules
        rest = synth_corpus(46, 40, BINARY).tweets
        for n, text in enumerate(("where can i donate food", "where can i donate food?")):
            probe = Dataset(BINARY, (RawTweet("t1", text), *rest))
            cache = recording_cache(tmp_path / "cache")
            assert run_series(probe.texts_by_id(), staged_model, cache)[1][0] == RWEET
            assert cache.built == 2 and cache.hits == 0
            # an empty cache returns what its builders made
            fresh = recording_cache(tmp_path / f"fresh{n}")
            run_series(probe.texts_by_id(), staged_model, fresh)
            assert [fm.matrix for fm in cache.returned] == [fm.matrix for fm in fresh.returned]

    def test_stage2_build_checks_the_cached_rows(self, staged_model, tmp_path, monkeypatch):
        from rweets import pipeline

        probe = synth_corpus(46, 90, BINARY)
        run_series(probe.texts_by_id(), staged_model, FeatureCache(tmp_path / "cache"))
        FeatureCache(tmp_path / "cache").path_for(stage_slot(staged_model, "stage2")).unlink()
        clean = pipeline.run_pipeline

        def drops_first_row(*args):  # cleaning that no longer matches the cache
            corpus, report = clean(*args)
            rest = corpus.ids[1:], corpus.tokens[1:], corpus.labels[1:]
            return CleanCorpus(*rest, corpus.config_digest), report

        monkeypatch.setattr(pipeline, "run_pipeline", drops_first_row)
        with pytest.raises(StaleCacheError, match="rows differ"):
            run_series(probe.texts_by_id(), staged_model, FeatureCache(tmp_path / "cache"))

    # entries whose header digest is their key but whose rows are damaged
    def test_damaged_positions_are_format_errors(self, staged_model, tmp_path, capsys):
        probe = synth_corpus(46, 90, BINARY)
        save_staged(staged_model, tmp_path / "model")
        save_dataset(probe, tmp_path / "in.jsonl")
        cache = FeatureCache(tmp_path / "cache")
        args = ["--cache-dir", str(cache.directory), "series", "--model", str(tmp_path / "model"),
                "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")]
        assert main(args) == 0
        path1, path2 = (cache.path_for(stage_slot(staged_model, s)) for s in ("stage1", "stage2"))
        header, arrays = artifact.load(path1, "cache")
        positions = arrays["positions"]
        assert positions.dtype == np.uint8 and 0 < len(positions) < len(probe)
        signed = positions.astype("<i8")
        signed[0] = -1
        damaged = {
            "out of range": np.append(positions[:-1], len(probe)).astype(positions.dtype),
            "negative": signed,
            "falling": positions[[1, 0, *range(2, len(positions))]],
            "repeated": positions[[0, 0, *range(2, len(positions))]],
            "floats": positions.astype("<f8"),
            "2-D": positions.reshape(1, -1),
            "one short of the rows": positions[:-1],
        }
        for name, bad in damaged.items():
            artifact.save(path1, "cache", header["digest"], header["meta"],
                          **{**arrays, "positions": bad})
            with pytest.raises(FormatError, match=f"{path1.name}: damaged cache entry"):
                run_series(probe.texts_by_id(), staged_model, FeatureCache(cache.directory))
            capsys.readouterr()
            assert main(args) == 3, name
            assert f"{path1.name}: damaged cache entry" in capsys.readouterr().err, name
        artifact.save(path1, "cache", header["digest"], header["meta"], **arrays)
        assert main(args) == 0
        # a stage-2 matrix one row short of the rows stage 1 keeps
        header, arrays = artifact.load(path2, "cache")
        entries = len(arrays["indices"]) - int(arrays["counts"][-1])
        short = {name: (array[:-1] if name == "counts" else array[:entries]
                        if name in ("indices", "codes", "data") else array)
                 for name, array in arrays.items()}
        meta = {**header["meta"], "rows": header["meta"]["rows"] - 1}
        artifact.save(path2, "cache", header["digest"], meta, **short)
        with pytest.raises(FormatError, match=f"{path2.name}: damaged cache entry .* rows"):
            run_series(probe.texts_by_id(), staged_model, FeatureCache(cache.directory))
        capsys.readouterr()
        assert main(args) == 3
        assert f"{path2.name}: damaged cache entry" in capsys.readouterr().err

    def test_entry_under_a_stale_key_is_rebuilt(self, staged_model, tmp_path):
        probe = synth_corpus(46, 90, BINARY)
        run_series(probe.texts_by_id(), staged_model, FeatureCache(tmp_path / "cache"))
        # same ids and cleaned tokens ("!" is punctuation), so only the key
        # tells the two inputs' matrices apart; their slots are the same
        first, *rest = probe.tweets
        variant = Dataset(BINARY, (first._replace(text=first.text + "!"), *rest))
        cache = FeatureCache(tmp_path / "cache")
        path = cache.path_for(stage_slot(staged_model, "stage1"))
        data = path.read_bytes()
        path.write_bytes(data[:-1])  # read past its header, the entry is a FormatError
        texts = variant.texts_by_id()
        assert run_series(texts, staged_model, cache) == run_series(texts, staged_model)
        assert (cache.hits, cache.misses, cache.built) == (0, 2, 2)
        fresh = FeatureCache(tmp_path / "fresh")
        run_series(texts, staged_model, fresh)
        assert len(list(cache.directory.iterdir())) == 2
        for stale, rebuilt in zip(sorted(cache.directory.iterdir()),
                                  sorted(fresh.directory.iterdir()), strict=True):
            assert stale.name == rebuilt.name and stale.read_bytes() == rebuilt.read_bytes()
        assert artifact.load(path, "cache")[0]["digest"] == stage1_key(staged_model, variant)

    def test_all_not_rweet_identifier_yields_no_stage2(self, staged_model):
        from dataclasses import replace

        from oracles import zero_model

        # a zero-weight identifier predicts the first class (not_rweet) for
        # every row, so stage 2 must never run
        cols = len(staged_model.identifier_vocab) + 18
        neutered = replace(staged_model, identifier=zero_model(BINARY.labels, cols))
        probe = synth_corpus(49, 60, BINARY)
        ids, stage1, stage2 = run_series(probe.texts_by_id(), neutered)
        assert ids and stage1 == ["not_rweet"] * len(ids)
        assert stage2 == [None] * len(ids)

    def test_a_categorizer_that_drops_a_label_is_a_validation_error(self, staged_model):
        from dataclasses import replace

        class DropsOne:  # one label short of the rows it is given
            def predict(self, X):
                return staged_model.categorizer.predict(X)[:-1]

        probe = synth_corpus(46, 90, BINARY)
        assert RWEET in run_series(probe.texts_by_id(), staged_model)[1]
        with pytest.raises(ValidationError, match="categorizer"):
            run_series(probe.texts_by_id(), replace(staged_model, categorizer=DropsOne()))

    def test_empty_cleaned_input(self, staged_model):
        probe = Dataset(
            BINARY,
            (
                RawTweet("e1", "necesitamos ayuda urgente"),
                RawTweet("e2", "se necesita comida y agua"),
            ),
        )
        assert run_series(probe.texts_by_id(), staged_model) == ([], [], [])


def keyword_toy_sets():
    """Perfectly separable training and probe sets: one unique keyword per
    category, shared filler, unique location per tweet to defeat dedupe."""
    keywords = {
        "money": "money",
        "volunteer": "volunteers",
        "cloth": "jackets",
        "shelter": "shelter",
        "medical": "bandages",
        "food": "meals",
    }
    train_locs = ["riverside", "bayview", "oakdale", "hillcrest", "northside", "lakeside"]
    probe_locs = ["midtown", "springfield"]

    def request(keyword, loc):
        return f"please send {keyword} to the {loc} camp"

    def chatter(loc, i):
        fillers = ["storm passed over", "sun came back to", "quiet morning in"]
        return f"the {fillers[i % 3]} {loc} again"

    d1_tweets, d2_tweets, probe, gold = [], [], [], {}
    i = 0
    for label, keyword in keywords.items():
        for loc in train_locs:
            d1_tweets.append(RawTweet(f"r{i}", request(keyword, loc), RWEET))
            d2_tweets.append(RawTweet(f"c{i}", request(keyword, loc), label))
            i += 1
        for loc in probe_locs:
            tweet_id = f"p{i}"
            probe.append(RawTweet(tweet_id, request(keyword, loc)))
            gold[tweet_id] = label
            i += 1
    for j, loc in enumerate(train_locs):
        d1_tweets.append(RawTweet(f"n{j}", chatter(loc, j), "not_rweet"))
    for j, loc in enumerate(probe_locs):
        tweet_id = f"pn{j}"
        probe.append(RawTweet(tweet_id, chatter(loc, j), None))
        gold[tweet_id] = None
    return (
        Dataset(BINARY, tuple(d1_tweets)),
        Dataset(CATEGORICAL, tuple(d2_tweets)),
        Dataset(BINARY, tuple(probe)),
        gold,
    )


class TestPerfectStagedToy:
    def test_every_gold_rweet_carries_its_gold_category(self):
        d1, d2, probe, gold = keyword_toy_sets()
        staged, _ = train_staged(d1, d2, combo(4))  # tf, uni+bi, no rules
        ids, stage1, stage2 = run_series(probe.texts_by_id(), staged)
        assert len(ids) == len(probe)
        for i, label, category in zip(ids, stage1, stage2):
            if gold[i] is None:
                assert label == "not_rweet" and category is None
            else:
                assert label == RWEET
                assert category == gold[i]


class TestStagedPersistence:
    def test_round_trip_predictions(self, staged_model, tmp_path):
        save_staged(staged_model, tmp_path / "staged")
        loaded = load_staged(tmp_path / "staged")
        probe = synth_corpus(47, 60, BINARY)
        texts = probe.texts_by_id()
        assert run_series(texts, loaded) == run_series(texts, staged_model)
        assert loaded.identifier_vocab.digest == staged_model.identifier_vocab.digest
        assert loaded.categorizer_vocab.digest == staged_model.categorizer_vocab.digest

    def test_manifest_digest_mismatch(self, staged_model, tmp_path, monkeypatch):
        save_staged(staged_model, tmp_path / "staged")
        path = tmp_path / "staged" / STAGED_FILE
        data = path.read_bytes()
        path.write_bytes(with_header(data, lambda header: header.update(digest="0" * 16)))
        with pytest.raises(StaleCacheError, match="config digest mismatch"):
            load_staged(tmp_path / "staged")
        # the pipeline digest covers the lexicon: a model trained under another
        # lexicon is stale too
        path.write_bytes(data)
        monkeypatch.setattr(lexicon, "lexicon_digest", lambda: "0" * 16)
        with pytest.raises(StaleCacheError, match="config digest mismatch"):
            load_staged(tmp_path / "staged")

    def test_flipped_bytes_never_leak_another_error(self, staged_model, tmp_path):
        save_staged(staged_model, tmp_path / "staged")
        path = tmp_path / "staged" / STAGED_FILE
        data = path.read_bytes()
        size = 4 + int.from_bytes(data[:4], "little")
        probe = synth_corpus(47, 20, BINARY)
        rng = random.Random(0)
        for trial in range(400):
            flipped = bytearray(data)
            # half the trials hit the header, where most of the checks are
            end = size if trial % 2 else len(data)
            for _ in range(rng.randint(1, 3)):
                flipped[rng.randrange(end)] = rng.randrange(256)
            path.write_bytes(bytes(flipped))
            try:
                run_series(probe.texts_by_id(), load_staged(tmp_path / "staged"))
            except RweetsError:
                pass


class TestSeriesOutput:
    def test_jsonl_shape(self, staged_model, tmp_path):
        import json

        texts = synth_corpus(48, 50, BINARY).texts_by_id()
        ids, stage1, stage2 = run_series(texts, staged_model)
        path = tmp_path / "out.jsonl"
        save_series_output(texts, ids, stage1, stage2, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(ids)
        for record, tweet_id in zip(lines, ids):
            assert set(record) <= {"id", "text", "stage1", "stage2"}
            assert record["id"] == tweet_id and record["text"] == texts[tweet_id]
            assert record["stage1"] in ("rweet", "not_rweet")
            assert ("stage2" in record) == (record["stage1"] == "rweet")

    @staticmethod
    def _columns(rows):
        """`save_series_output`'s texts and columns for (id, text, stage1,
        stage2) rows."""
        ids, texts, stage1, stage2 = map(list, zip(*rows))
        return dict(zip(ids, texts)), ids, stage1, stage2

    @staticmethod
    def _expected(rows):
        import json

        return "".join(json.dumps({"id": i, "text": text, "stage1": s1,
                                   **({} if s2 is None else {"stage2": s2})},
                                  ensure_ascii=False) + "\n"
                       for i, text, s1, s2 in rows).encode("utf-8")

    def test_lines_are_json_dumps_of_the_records(self, tmp_path):
        # quotes, backslashes, control characters, DEL, the Unicode line and
        # paragraph separators, non-BMP and non-ASCII characters, and nothing
        strings = ['say "hi"', "back\\slash\\", "\x00\x01\x1f\t\n\r\x0b\x0c\x08", "del\x7f",
                   "\u2028\u2029", "\U0001f6a8 help \U00010348", "café 需要 İ", "\u00a0\ufeff",
                   ""]
        rows = [(f"{s}#{n}", s, RWEET, "food") if n % 2 else (f"{s}#{n}", s, "not_rweet", None)
                for n, s in enumerate(strings + strings[::-1])]
        save_series_output(*self._columns(rows), tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == self._expected(rows)

    @staticmethod
    def _rows(n):
        return [(f"t{i}", f"we need water at shelter {i}", RWEET, "water")
                if i % 3 else (f"t{i}", f"calm night {i}", "not_rweet", None)
                for i in range(n)]

    def test_three_chunks_are_json_dumps_lines(self, tmp_path):
        rows = self._rows(2500)
        save_series_output(*self._columns(rows), tmp_path / "out.jsonl")
        assert (tmp_path / "out.jsonl").read_bytes() == self._expected(rows)

    def test_a_result_that_fails_in_the_third_chunk_leaves_no_file(self, tmp_path):
        rows = self._rows(2500)
        rows[2100] = (7, "an id that is not a str", "not_rweet", None)
        texts, ids, stage1, stage2 = self._columns(rows)
        path = tmp_path / "out.jsonl"
        with pytest.raises(TypeError):
            save_series_output(texts, ids, stage1, stage2, path)
        assert list(tmp_path.iterdir()) == []  # no file and no temp file
        path.write_text("old output\n")
        with pytest.raises(TypeError):
            save_series_output(texts, iter(ids), stage1, stage2, path)
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "old output\n"

    def test_holds_one_chunk_of_lines(self, tmp_path):
        """Peak memory stays near one chunk's lines, not the whole file's."""
        import tracemalloc

        rows = self._rows(20_000)
        columns = self._columns(rows)
        path = tmp_path / "out.jsonl"
        tracemalloc.start()
        try:
            save_series_output(*columns, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = self._expected(rows)
        assert path.read_bytes() == expected
        assert peak < len(expected) / 2, (peak, len(expected))


class TestFeaturizeCorpus:
    def test_rules_need_raw_texts(self):
        corpus, _ = run_pipeline(synth_corpus(3, 40, BINARY))
        with pytest.raises(ValidationError):
            featurize_corpus(corpus, FeatureConfig(append_rules=True))

    def test_rule_columns_present(self):
        dataset = synth_corpus(3, 40, BINARY)
        corpus, _ = run_pipeline(dataset)
        fm = featurize_corpus(corpus, FeatureConfig(append_rules=True), dataset.texts_by_id())
        assert fm.matrix.cols == len(fm.vocab) + 18
