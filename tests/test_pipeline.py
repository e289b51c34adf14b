import pytest

from rweets.corpus import BINARY, CATEGORICAL, RWEET, Dataset, RawTweet, synth_corpus
from rweets.errors import StaleCacheError, ValidationError
from rweets.digest import combine_digests
from rweets.features import FeatureConfig, combo, save_matrix
from rweets.pipeline import (
    CategorizedTweet,
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


class TestCategorizedTweet:
    def test_stage2_requires_rweet(self):
        CategorizedTweet("a", "text", RWEET, "food")
        CategorizedTweet("b", "text", "not_rweet", None)
        with pytest.raises(ValidationError):
            CategorizedTweet("c", "text", "not_rweet", "food")
        with pytest.raises(ValidationError):
            CategorizedTweet("d", "text", RWEET, None)


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
        for filename in ("identifier.model", "categorizer.model", "staged.json"):
            assert (tmp_path / "one" / filename).read_bytes() == (
                tmp_path / "two" / filename
            ).read_bytes()


class TestRunSeries:
    def test_conservation(self, staged_model):
        probe = synth_corpus(43, 120, BINARY)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        results = run_series(probe, staged_model)
        assert len(results) == len(clean)
        n_rweet = sum(1 for r in results if r.stage1 == RWEET)
        n_stage2 = sum(1 for r in results if r.stage2 is not None)
        assert n_rweet == n_stage2
        assert len(results) <= len(probe)

    def test_alignment(self, staged_model):
        probe = synth_corpus(44, 80, BINARY)
        results = run_series(probe, staged_model)
        texts = probe.texts_by_id()
        ids = [r.id for r in results]
        assert len(ids) == len(set(ids))
        for r in results:
            assert texts[r.id] == r.text

    def test_near_perfect_on_easy_data(self, staged_model):
        probe = synth_corpus(45, 150, BINARY)
        results = run_series(probe, staged_model)
        gold = {t.id: t.label for t in probe}
        acc = sum(1 for r in results if gold[r.id] == r.stage1) / len(results)
        assert acc >= 0.95

    def test_warm_cache_skips_featurization(self, staged_model, tmp_path):
        probe = synth_corpus(46, 90, BINARY)
        cold = FeatureCache(tmp_path / "cache")
        first = run_series(probe, staged_model, cold)
        assert cold.built == 2 and cold.hits == 0
        warm = FeatureCache(tmp_path / "cache")
        second = run_series(probe, staged_model, warm)
        assert warm.built == 0 and warm.misses == 0 and warm.hits == 2
        assert first == second

    def count_rule_evals(self, monkeypatch):
        """Record the text of every match_tweet call the series path makes."""
        from rweets import rules

        seen = []
        match_tweet = rules.match_tweet

        def counted(text):
            seen.append(text)
            return match_tweet(text)

        monkeypatch.setattr(rules, "match_tweet", counted)
        return seen

    def test_rules_run_once_per_cleaned_row(self, staged_model, tmp_path, monkeypatch):
        probe = synth_corpus(46, 90, BINARY)
        clean, _ = run_pipeline(probe, staged_model.pipeline_config)
        seen = self.count_rule_evals(monkeypatch)
        cold = run_series(probe, staged_model, FeatureCache(tmp_path / "cache"))
        assert any(r.stage1 == RWEET for r in cold)
        texts = probe.texts_by_id()
        assert seen == [texts[i] for i in clean.ids()]
        seen.clear()
        assert run_series(probe, staged_model, FeatureCache(tmp_path / "cache")) == cold
        assert seen == []
        assert run_series(probe, staged_model) == cold
        assert len(seen) == len(clean)

    def stage2_reference(self, staged, probe, results):
        """Stage-2 features built from scratch on the id-filtered corpus,
        with the key run_series files them under."""
        clean, _ = run_pipeline(probe, staged.pipeline_config)
        kept = {r.id for r in results if r.stage1 == RWEET}
        filtered = CleanCorpus(tuple(tw for tw in clean if tw.id in kept), clean.config_digest)
        fm = featurize_corpus(
            filtered, staged.feature_config, probe, vocabulary=staged.categorizer_vocab
        )
        key = combine_digests(
            staged.feature_config.digest,
            staged.categorizer_vocab.digest,
            filtered.content_digest(),
            "stage2",
        )
        return fm, key, len(filtered)

    def test_stage2_artifact_matches_filtered_corpus(self, staged_model, tmp_path):
        probe = synth_corpus(46, 90, BINARY)
        cache = FeatureCache(tmp_path / "cache")
        results = run_series(probe, staged_model, cache)
        fm, key, _ = self.stage2_reference(staged_model, probe, results)
        save_matrix(fm, tmp_path / "reference.spmat")
        for suffix in ("", ".vocab", ".rowids"):
            cached = cache.path_for(key).with_suffix(".spmat" + suffix)
            reference = tmp_path / f"reference.spmat{suffix}"
            assert cached.read_bytes() == reference.read_bytes()

    def test_stage2_miss_after_stage1_hit(self, staged_model, tmp_path, monkeypatch):
        probe = synth_corpus(46, 90, BINARY)
        cold = run_series(probe, staged_model, FeatureCache(tmp_path / "cache"))
        _fm, key, n_stage2 = self.stage2_reference(staged_model, probe, cold)
        assert 0 < n_stage2 < len(cold)
        stage2_path = FeatureCache(tmp_path / "cache").path_for(key)
        stage2_path.unlink()
        seen = self.count_rule_evals(monkeypatch)
        cache = FeatureCache(tmp_path / "cache")
        assert run_series(probe, staged_model, cache) == cold
        assert (cache.hits, cache.misses, cache.built) == (1, 1, 1)
        assert len(seen) == n_stage2  # stage 2 evaluates its own rows only
        assert stage2_path.exists()

    def test_all_not_rweet_identifier_yields_no_stage2(self, staged_model):
        from dataclasses import replace

        from oracles import zero_model

        # a zero-weight identifier predicts the first class (not_rweet) for
        # every row, so stage 2 must never run
        cols = len(staged_model.identifier_vocab) + 18
        neutered = replace(staged_model, identifier=zero_model(BINARY.labels, cols))
        probe = synth_corpus(49, 60, BINARY)
        results = run_series(probe, neutered)
        assert results and all(r.stage1 == "not_rweet" for r in results)
        assert all(r.stage2 is None for r in results)

    def test_empty_cleaned_input(self, staged_model):
        probe = Dataset(
            BINARY,
            (
                RawTweet("e1", "necesitamos ayuda urgente"),
                RawTweet("e2", "se necesita comida y agua"),
            ),
        )
        assert run_series(probe, staged_model) == []


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
        results = run_series(probe, staged)
        assert len(results) == len(probe)
        for r in results:
            if gold[r.id] is None:
                assert r.stage1 == "not_rweet" and r.stage2 is None
            else:
                assert r.stage1 == RWEET
                assert r.stage2 == gold[r.id]


class TestStagedPersistence:
    def test_round_trip_predictions(self, staged_model, tmp_path):
        save_staged(staged_model, tmp_path / "staged")
        loaded = load_staged(tmp_path / "staged")
        probe = synth_corpus(47, 60, BINARY)
        assert run_series(probe, loaded) == run_series(probe, staged_model)

    def test_manifest_digest_mismatch(self, staged_model, tmp_path):
        save_staged(staged_model, tmp_path / "staged")
        manifest = tmp_path / "staged" / "staged.json"
        text = manifest.read_text().replace(
            staged_model.feature_config.digest, "0" * 16
        )
        manifest.write_text(text)
        with pytest.raises(StaleCacheError):
            load_staged(tmp_path / "staged")


class TestSeriesOutput:
    def test_jsonl_shape(self, staged_model, tmp_path):
        import json

        probe = synth_corpus(48, 50, BINARY)
        results = run_series(probe, staged_model)
        path = tmp_path / "out.jsonl"
        save_series_output(results, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == len(results)
        for record in lines:
            assert set(record) <= {"id", "text", "stage1", "stage2"}
            assert record["stage1"] in ("rweet", "not_rweet")
            assert ("stage2" in record) == (record["stage1"] == "rweet")


class TestFeaturizeCorpus:
    def test_rules_need_raw_texts(self):
        corpus, _ = run_pipeline(synth_corpus(3, 40, BINARY))
        with pytest.raises(ValidationError):
            featurize_corpus(corpus, FeatureConfig(append_rules=True))

    def test_rule_columns_present(self):
        dataset = synth_corpus(3, 40, BINARY)
        corpus, _ = run_pipeline(dataset)
        fm = featurize_corpus(corpus, FeatureConfig(append_rules=True), dataset)
        assert fm.matrix.cols == len(fm.vocab) + 18
