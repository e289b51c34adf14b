import random

import pytest
from oracles import (
    SOURCE_NUM_RE,
    SOURCE_URL_RE,
    SOURCE_WWW_RE,
    dedupe,
    reference_clean,
)
from oracles import _generalize_tags as oracle_generalize_tags

from rweets import lexicon, preprocess
from rweets.corpus import BINARY, CATEGORICAL, Dataset, RawTweet, synth_corpus
from rweets.errors import ValidationError
from rweets.preprocess import (
    DEFAULT_OPS,
    PUNCT_FIRST_OPS,
    CleanCorpus,
    PipelineConfig,
    drop_if_short,
    generalize_tags,
    is_english,
    lemmatize,
    lowercase,
    remove_punctuation,
    remove_stopwords,
    run_pipeline,
    strip_non_ascii,
)


def make_dataset(texts, domain=BINARY, label=None):
    return Dataset(domain, tuple(RawTweet(f"t{i}", t, label) for i, t in enumerate(texts)))


class TestStripNonAscii:
    @pytest.mark.parametrize(
        "text,expected",
        [("café now", "caf now"), ("help!", "help!"), ("需要帮助 help", " help")],
    )
    def test_examples(self, text, expected):
        assert strip_non_ascii(text) == expected

    def test_order_preserved(self):
        assert strip_non_ascii("aé bç c") == "a b c"


class TestIsEnglish:
    def test_english_request(self):
        assert is_english("we are stuck please help us", threshold=0.15)

    def test_empty_text(self):
        assert not is_english("")

    def test_spanish(self):
        assert not is_english("necesitamos ayuda urgente por favor", threshold=0.15)

    def test_short_text_single_hit(self):
        assert is_english("the flood")
        assert not is_english("xyzzy qwrk")

    def test_cleaned_text_still_passes(self):
        # cleaned tweets are stopword-free; the evidence lexicon must still
        # recognize them or re-cleaning would drop everything
        assert is_english("he go school _MENT_ _URL_")
        assert is_english("need food riverside please help")


class TestLowercase:
    @pytest.mark.parametrize(
        "text,expected",
        [("HURRICANE", "hurricane"), ("help", "help"), ("RT @Bob", "rt @bob")],
    )
    def test_examples(self, text, expected):
        assert lowercase(text) == expected

    def test_placeholders_survive(self):
        assert lowercase("_URL_ Help _MENT_") == "_URL_ help _MENT_"


class TestGeneralizeTags:
    def test_full_example(self):
        assert (
            generalize_tags("rt @bob: send 20 blankets http://x.co")
            == "_RT_ send _NUM_ blankets _URL_"
        )

    def test_mention(self):
        assert generalize_tags("@alice help") == "_MENT_ help"

    def test_identity(self):
        assert generalize_tags("no tags here") == "no tags here"

    def test_bare_www_host(self):
        assert generalize_tags("see www.example123.com") == "see _URL_"

    def test_number_forms(self):
        assert generalize_tags("send 1,200 or 3.5 units") == "send _NUM_ or _NUM_ units"


class TestRemovePunctuation:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("help, please!!", "help please"),
            ("_URL_ ok.", "_URL_ ok"),
            ("#sandy victims", "#sandy victims"),
        ],
    )
    def test_examples(self, text, expected):
        assert remove_punctuation(text) == expected

    def test_keeps_apostrophe(self):
        assert remove_punctuation("don't stop") == "don't stop"


class TestRemoveStopwords:
    def test_bundled_list_membership(self):
        # "he" is deliberately not a stopword: personal pronouns carry
        # request signal and the documented cleaning example keeps them
        assert remove_stopwords(["he", "is", "going", "to", "school"]) == [
            "he",
            "going",
            "school",
        ]

    def test_no_stopwords(self):
        assert remove_stopwords(["shelter"]) == ["shelter"]

    def test_all_stopwords(self):
        assert remove_stopwords(["the", "a", "an"]) == []


class TestDropIfShort:
    def test_empty(self):
        assert drop_if_short([]) is None

    def test_single(self):
        assert drop_if_short(["help"]) is None

    def test_keeps_pair(self):
        assert drop_if_short(["need", "food"]) == ["need", "food"]


class TestLemmatize:
    @pytest.mark.parametrize(
        "token,lemma",
        [
            ("writes", "write"),
            ("wrote", "write"),
            ("_URL_", "_URL_"),
            ("running", "run"),
            ("cities", "city"),
            ("going", "go"),
            ("goes", "go"),
            ("#sandy", "#sandy"),
            ("donated", "donate"),
            ("classes", "class"),
            ("supplies", "supply"),
        ],
    )
    def test_examples(self, token, lemma):
        assert lemmatize([token]) == [lemma]

    def test_fixed_point(self):
        # lemma output must be stable under a second pass (idempotence)
        words = ["bringing", "raising", "victims", "families", "needed", "used", "looking"]
        once = lemmatize(words)
        assert lemmatize(once) == once


class TestDedupe:
    def test_worked_example(self):
        d = make_dataset(
            [
                "He is going to school @akram, www.example.com",
                "He goes to School @ahmed, www.example123.com",
            ]
        )
        corpus, report = run_pipeline(d)
        assert len(corpus) == 1
        assert " ".join(corpus.tokens[0]) == "he go school _MENT_ _URL_"
        assert report.removed_by_stage["dedupe"] == 1

    def test_identical_cleaned(self):
        a = ("1", ("need", "food"), None)
        b = ("2", ("need", "food"), None)
        assert dedupe([a, b]) == [a]

    def test_distinct_kept(self):
        a = ("1", ("need", "food"), None)
        b = ("2", ("need", "shelter"), None)
        assert dedupe([a, b]) == [a, b]


# Orders beyond the two named ones, which PipelineConfig rejects: text ops
# after tokenize; no strip_non_ascii, is_english, drop_if_short or dedupe;
# the language filter late.
OTHER_ORDERS = (
    ("strip_non_ascii", "is_english", "remove_punctuation", "tokenize", "lowercase",
     "generalize_tags", "remove_stopwords", "drop_if_short", "lemmatize", "dedupe"),
    ("generalize_tags", "lowercase", "tokenize", "remove_stopwords", "lemmatize"),
    ("lowercase", "strip_non_ascii", "generalize_tags", "is_english", "tokenize",
     "remove_punctuation", "drop_if_short", "remove_stopwords", "lemmatize", "dedupe"),
)


class TestPipelineConfig:
    def test_default_order(self):
        assert PipelineConfig().ops == DEFAULT_OPS

    def test_duplicate_op_rejected(self):
        with pytest.raises(ValidationError):
            PipelineConfig(ops=DEFAULT_OPS + ("lowercase",))

    def test_dedupe_must_be_last(self):
        ops = ("dedupe",) + tuple(op for op in DEFAULT_OPS if op != "dedupe")
        with pytest.raises(ValidationError):
            PipelineConfig(ops=ops)

    def test_digest_stable_and_sensitive(self):
        assert PipelineConfig().digest == PipelineConfig().digest
        assert PipelineConfig().digest != PipelineConfig(english_threshold=0.2).digest
        assert PipelineConfig().digest != PipelineConfig(ops=PUNCT_FIRST_OPS).digest

    def test_digest_follows_the_lexicon(self, monkeypatch):
        before = PipelineConfig().digest
        monkeypatch.setattr(lexicon, "lexicon_digest", lambda: "0" * 16)
        assert PipelineConfig().digest != before

    def test_unknown_op_rejected(self):
        ops = tuple(op for op in DEFAULT_OPS if op != "dedupe") + ("spell_correct", "dedupe")
        with pytest.raises(ValidationError, match="spell_correct"):
            PipelineConfig(ops=ops)

    @pytest.mark.parametrize("ops", [
        DEFAULT_OPS + ("lowercase",),
        DEFAULT_OPS[:-1] + ("spell_correct", "dedupe"),
        ("dedupe",) + DEFAULT_OPS[:-1],
        *OTHER_ORDERS,
    ], ids=["duplicate", "unknown", "dedupe-first", "late-text-ops", "bare", "late-filter"])
    def test_only_the_two_orders_accepted(self, ops):
        with pytest.raises(ValidationError, match="DEFAULT_OPS or PUNCT_FIRST_OPS"):
            PipelineConfig(ops=ops)

    @pytest.mark.parametrize("ops", [DEFAULT_OPS, PUNCT_FIRST_OPS], ids=["default", "punct"])
    def test_list_form_of_an_order(self, ops):
        config = PipelineConfig(ops=list(ops))
        assert config.ops == ops and config.digest == PipelineConfig(ops=ops).digest


class TestRunPipeline:
    def test_accounting(self):
        for seed in (1, 2, 3):
            d = synth_corpus(seed, 150, BINARY)
            corpus, report = run_pipeline(d)
            assert report.input_count == len(d)
            assert report.output_count == len(corpus)
            assert len(d) == len(corpus) + sum(report.removed_by_stage.values())

    def test_all_spanish_removed_at_language_stage(self):
        d = make_dataset(
            [
                "necesitamos ayuda urgente",
                "se necesita comida y agua",
                "hay gente atrapada",
            ]
        )
        corpus, report = run_pipeline(d)
        assert len(corpus) == 0
        assert report.removed_by_stage["is_english"] == 3

    def test_idempotence(self):
        d = synth_corpus(13, 200, CATEGORICAL)
        first, _ = run_pipeline(d)
        rebuilt = Dataset(
            CATEGORICAL,
            tuple(map(RawTweet, first.ids, map(" ".join, first.tokens), first.labels)),
        )
        second, _ = run_pipeline(rebuilt)
        assert first.tokens == second.tokens

    def test_lowercase_closure(self):
        corpus, _ = run_pipeline(synth_corpus(17, 150, BINARY))
        for tokens in corpus.tokens:
            for token in tokens:
                assert token in lexicon.PLACEHOLDERS or token == token.lower()

    def test_token_charset(self):
        import re

        allowed = re.compile(r"[a-z0-9_#']+\Z")
        corpus, _ = run_pipeline(synth_corpus(19, 150, CATEGORICAL))
        for tokens in corpus.tokens:
            for token in tokens:
                assert token in lexicon.PLACEHOLDERS or allowed.match(token), token

    def test_post_dedupe_uniqueness(self):
        corpus, _ = run_pipeline(synth_corpus(23, 200, BINARY))
        joined = [" ".join(t) for t in corpus.tokens]
        assert len(joined) == len(set(joined))

    def test_placeholder_safety(self):
        d = make_dataset(["rt @a: send 50 blankets to camp http://x.co/ab1"])
        corpus, _ = run_pipeline(d)
        tokens = corpus.tokens[0]
        assert "_RT_" in tokens and "_NUM_" in tokens and "_URL_" in tokens

    def test_order_preservation(self):
        d = make_dataset(["we really need clean water and warm blankets tonight"])
        corpus, _ = run_pipeline(d)
        tokens = list(corpus.tokens[0])
        source_order = ["need", "clean", "water", "warm", "blanket", "tonight"]
        positions = [tokens.index(w) for w in source_order]
        assert positions == sorted(positions)

    def test_prose_order_defeats_tag_patterns(self):
        d = make_dataset(["rt @bob: send 20 blankets http://x.co"])
        corpus, _ = run_pipeline(d, PipelineConfig(ops=PUNCT_FIRST_OPS))
        tokens = corpus.tokens[0]
        assert "_RT_" not in tokens and "_URL_" not in tokens


class TestCleanCorpus:
    def test_columns_of_different_lengths_are_rejected(self):
        with pytest.raises(ValidationError, match="differ in number"):
            CleanCorpus(("a", "b"), (("x",),), (None, None))


_FUZZ_PIECES = (
    "_NUM_", "_RT_", "_MENT_", "_URL_", "_num_", "_NUM", "a_b", "__", "help", "HELP",
    "Need", "FOOD", "water", "the", "is", "going", "went", "families", "supplies",
    "don't", "#Sandy", "café", "Ünïcödé", "需要", "ı", "İ", "ſ", "\xa0", "\u2003",
    "\u3000", "\t", "\n", "@bob", "@ Ann_1", "rt @x:", "RT @Y:", "@", "a@b",
    "http://x.co/ab1", "https : //y.org", "x//y", "//", "www.example123.com",
    "WWW.EXAMPLE.COM", "www", "12", "1,200.5", "3.", "٣٤", "!!", "...", ",", ":",
    "'", "",
    # the word/text split: ASCII separators that str.split splits on, tags
    # next to words or across a space (one whose "//" strip_non_ascii makes),
    # and letters whose lowercase is longer (which strip_non_ascii removes)
    "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "rt @12ab:", "x_NUM_y",
    "xwww.a1.com", "http : //a.b", "http : /é/a.b", "@ bob", "ǅ",
    # the separator that joins a chunk's tag-route texts, and texts that hold
    # pieces of placeholders
    "\x00", "\x00@", "_NUM_x", "a_MENT_", "_RT", "URL_", "x_url_",
)


def fuzz_texts(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    texts = ["", " ", "\xa0\u3000 \t", "_NUM_ help", "help_NUM_", "HELP _URL_ us"]
    for _ in range(n - len(texts)):
        pieces = rng.choices(_FUZZ_PIECES, k=rng.randint(1, 9))
        texts.append("".join(p + rng.choice((" ", " ", "", "\xa0")) for p in pieces))
    return texts


def assert_same_as_reference(dataset, config):
    corpus, report = run_pipeline(dataset, config)
    ref_corpus, ref_report = reference_clean(dataset, config)
    assert corpus == ref_corpus
    assert report == ref_report
    # dict equality ignores key order, which the report keeps
    assert list(report.removed_by_stage.items()) == list(ref_report.removed_by_stage.items())


class TestAgainstReference:
    """The compiled runner against the per-op reference in tests/oracles.py."""

    @pytest.mark.parametrize("ops", [DEFAULT_OPS, PUNCT_FIRST_OPS], ids=["default", "punct"])
    @pytest.mark.parametrize("domain", [BINARY, CATEGORICAL], ids=["binary", "categorical"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_synth(self, seed, domain, ops):
        assert_same_as_reference(synth_corpus(seed, 300, domain), PipelineConfig(ops=ops))

    @pytest.mark.parametrize("ops", [DEFAULT_OPS, PUNCT_FIRST_OPS], ids=["default", "punct"])
    def test_fuzz(self, ops):
        dataset = make_dataset(fuzz_texts(7, 3000))
        assert_same_as_reference(dataset, PipelineConfig(ops=ops))
        strict = PipelineConfig(ops=ops, english_threshold=0.6, min_tokens=3)
        assert_same_as_reference(dataset, strict)

    def test_fuzz_reaches_every_pattern(self):
        # the fuzz is only a check of the pre-checks if each guarded pattern fires
        texts = fuzz_texts(7, 3000)
        lowered = [t.lower() for t in texts]
        for pattern in (preprocess._RT_RE, preprocess._MENT_RE, preprocess._URL_RE,
                        preprocess._WWW_RE):
            assert sum(bool(pattern.search(t)) for t in lowered) > 50, pattern
        assert sum(bool(preprocess._PLACEHOLDER_SPLIT.search(t)) for t in texts) > 50
        # and each route of the runner: texts tagged whole and word by word
        assert sum("@" in t or "//" in t for t in texts) > 50
        assert sum("@" not in t and "/" not in t for t in texts) > 50

    def test_number_pattern_matches_the_source_pattern(self):
        rng = random.Random(3)
        for _ in range(20000):
            text = "".join(rng.choices("0123456789,.,. a٣", k=rng.randint(0, 12)))
            assert preprocess._NUM_RE.sub("_NUM_", text) == SOURCE_NUM_RE.sub("_NUM_", text), text

    def test_ascii_tag_patterns_match_the_unicode_ones(self):
        # generalize_tags tags an ASCII text with its digits zeroed and the
        # ASCII patterns; "٣" is a digit to \d and "_" a word character, so
        # non-ASCII texts must keep the Unicode ones
        rng = random.Random(4)
        pieces = ("٣", "_", "@ x", "rt @x:", "http : //", "@", "rt", "12", "1,0", ".9", "345678",
                  ",", ":", "a", "é", "x.co", "www.", " ", "  ", "\t", "0", "07,", "9.")
        texts = ["".join(rng.choices(pieces, k=rng.randint(0, 9))) for _ in range(5000)]
        assert sum(t.isascii() for t in texts) > 1000 and sum("٣" in t for t in texts) > 500
        unicode_rt_ment = (preprocess._RT_RE, preprocess._MENT_RE)
        for text in texts:
            assert generalize_tags(text) == oracle_generalize_tags(text), text
            if text.isascii():
                zeroed = text.translate(preprocess._ZEROS)
                assert (preprocess._ZERO_NUM_RE.sub("_X_", zeroed)
                        == preprocess._NUM_RE.sub("_X_", text)), text
                for ascii_re, unicode_re in zip(preprocess._ASCII_RT_MENT, unicode_rt_ment):
                    assert ascii_re.sub("_X_", text) == unicode_re.sub("_X_", text), text
        assert_same_as_reference(make_dataset(texts), PipelineConfig())
        assert_same_as_reference(make_dataset(texts), PipelineConfig(ops=PUNCT_FIRST_OPS))

    def test_retweet_pattern_matches_the_source_pattern(self):
        # a text without "RT @" is tagged by the literal-led "rt @" form; the
        # cleaning fuzz, raw and lowercased, with case variants of the marker
        # and a placeholder before " @" spliced in, tags as the source does
        rng = random.Random(29)
        markers = ("RT @", "Rt @", "_RT_ @", "rt @", "rT @", "RT  @", "RT @ ", "rt @ Ann:")
        fuzz = fuzz_texts(7, 3000)
        texts = fuzz + [t.lower() for t in fuzz]
        for text in fuzz:
            at = rng.randint(0, len(text))
            texts.append(text[:at] + rng.choice(markers) + rng.choice(("x_1:", "é", "", " y")) +
                         text[at:])
        assert sum("RT @" in t for t in texts) > 300
        assert sum("RT @" not in t and "rt @" in t for t in texts) > 300
        for text in texts:
            assert generalize_tags(text) == oracle_generalize_tags(text), text
        assert_same_as_reference(make_dataset(texts), PipelineConfig())

    def test_url_patterns_match_the_source_patterns(self):
        # the URL body as one class, and the www pattern with its word
        # boundary behind the literal, substitute as the source forms do
        rng = random.Random(6)
        pieces = ("www.", "www", "ww", "w", "W", ".", "a", "_", "é", "ǅ", "٣", " ", "\t", "\x00",
                  "http://", "https : //", "x.co", "%2f", "%", "9", "@", "/", "-", "~", "(", "!")
        texts = ["".join(rng.choices(pieces, k=rng.randint(0, 12))) for _ in range(20000)]
        fuzz = fuzz_texts(7, 3000)
        texts += fuzz + [t.lower() for t in fuzz]
        assert sum(bool(SOURCE_WWW_RE.search(t)) for t in texts) > 2000
        assert sum("www." in t and not SOURCE_WWW_RE.search(t) for t in texts) > 2000
        assert sum(bool(SOURCE_URL_RE.search(t)) for t in texts) > 2000
        for text in texts:
            assert preprocess._WWW_RE.sub("_URL_", text) == SOURCE_WWW_RE.sub("_URL_", text), text
            assert preprocess._URL_RE.sub("_URL_", text) == SOURCE_URL_RE.sub("_URL_", text), text

    def test_memos_last_one_call(self, monkeypatch):
        # a memo that outlived its call would serve tokens, lemmas and
        # language evidence from the lexicon of an earlier call
        dataset = make_dataset(
            fuzz_texts(11, 500) + ["we need food supplies now"] * 3 + ["they are rescuing cats"]
        )
        assert_same_as_reference(dataset, PipelineConfig())
        exceptions = dict(lexicon.lemma_exceptions(), supplies="stock", need="want")
        evidence = lexicon.english_evidence() - {"need", "food", "help", "water"}
        stopwords = lexicon.stopwords() | {"food"}
        base_words = lexicon.base_words() - {"rescue"}
        monkeypatch.setattr(lexicon, "lemma_exceptions", lambda: exceptions)
        monkeypatch.setattr(lexicon, "english_evidence", lambda: evidence)
        monkeypatch.setattr(lexicon, "stopwords", lambda: stopwords)
        monkeypatch.setattr(lexicon, "base_words", lambda: base_words)
        corpus, _ = run_pipeline(dataset, PipelineConfig())
        assert ("we", "want", "stock") in corpus.token_lists()
        assert ("they", "rescuing", "cat") in corpus.token_lists()
        assert_same_as_reference(dataset, PipelineConfig())
        assert_same_as_reference(dataset, PipelineConfig(ops=PUNCT_FIRST_OPS))

    def test_each_word_op_runs_once_per_distinct_word(self, monkeypatch):
        calls = {"_punctuation_free_words": [], "_lemma": []}
        for name, seen in calls.items():
            counted = lambda w, fn=getattr(preprocess, name), seen=seen: seen.append(w) or fn(w)
            monkeypatch.setattr(preprocess, name, counted)
        synth = [tw.text for tw in synth_corpus(1, 300, BINARY)]
        # three chunks: the memos last the call, not the chunk
        dataset = make_dataset(fuzz_texts(13, 2500) + synth)
        assert len(dataset) > 2 * preprocess._CHUNK
        for ops in (DEFAULT_OPS, PUNCT_FIRST_OPS):
            run_pipeline(dataset, PipelineConfig(ops=ops))
            for name, seen in calls.items():
                assert seen and len(seen) == len(set(seen)), name
                seen.clear()


# Both orders, each under the default and a strict configuration.
CONFIGS = [PipelineConfig(ops=ops, english_threshold=threshold, min_tokens=min_tokens)
           for ops in (DEFAULT_OPS, PUNCT_FIRST_OPS)
           for threshold, min_tokens in ((0.15, 2), (0.6, 3))]
CONFIG_IDS = ["default", "default-strict", "punct", "punct-strict"]


def chunk_texts(seed: int, n: int) -> list[str]:
    """n texts, fuzz and synth tweets in turn, none holding the separator."""
    fuzz = [text.replace("\x00", "") for text in fuzz_texts(seed, n)]
    synth = [tw.text for tw in synth_corpus(seed, max(n, 2), BINARY)]
    return [f if i % 2 else s for i, (f, s) in enumerate(zip(fuzz, synth))][:n]


class TestChunks:
    """run_pipeline cleans 1,024 rows at a time: no output may show where a
    chunk ends."""

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 3079])
    def test_sizes(self, n, config):
        assert preprocess._CHUNK == 1024
        assert_same_as_reference(make_dataset(chunk_texts(19, n)), config)

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_duplicates_across_a_boundary_keep_the_first(self, config):
        texts, at = chunk_texts(23, 2100), (1020, 1023, 1024, 1030, 2047, 2048)
        dup = "we urgently need food and water at the shelter"
        for i in at:
            texts[i] = dup
        dataset = make_dataset(texts)
        assert_same_as_reference(dataset, config)
        corpus, report = run_pipeline(dataset, config)
        (tokens,) = run_pipeline(make_dataset([dup]), config)[0].token_lists()
        assert [i for i, t in zip(corpus.ids, corpus.tokens) if t == tokens] == ["t1020"]
        # the text once among the others: the rest of its copies are the difference
        once = [t for i, t in enumerate(texts) if i not in at] + [dup]
        dedupe = run_pipeline(make_dataset(once), config)[1].removed_by_stage["dedupe"]
        assert report.removed_by_stage["dedupe"] == dedupe + len(at) - 1

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_a_chunk_dropped_whole_at_the_language_filter(self, config):
        spanish = [f"necesitamos ayuda urgente en la zona {i}" for i in range(1024)]
        dataset = make_dataset(chunk_texts(29, 1024) + spanish + chunk_texts(31, 10))
        assert_same_as_reference(dataset, config)
        assert run_pipeline(dataset, config)[1].removed_by_stage["is_english"] >= 1024

    @pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
    def test_chunks_of_one_route(self, config):
        texts = chunk_texts(37, 6000)
        tagged = [t for t in texts if "@" in t or "/" in t]
        plain = [t for t in texts if "@" not in t and "/" not in t]
        assert len(tagged) > 1024 and len(plain) > 1024
        dataset = make_dataset(plain[:1024] + tagged[:1024] + texts[:500])
        assert_same_as_reference(dataset, config)

    def test_a_chunk_is_tagged_as_one_text_unless_a_text_holds_the_separator(self, monkeypatch):
        calls, tag = [], preprocess.generalize_tags
        monkeypatch.setattr(preprocess, "generalize_tags", lambda t: calls.append(t) or tag(t))
        texts = [f"@user{i} we need water at the shelter {i % 7}" for i in range(2048)]
        texts[1500] = "rt @x: \x00 need food and water"
        assert_same_as_reference(make_dataset(texts), PipelineConfig())
        # the first chunk's texts as one, then the second chunk's one by one
        assert sum("@" in text for text in calls) == 1 + 1024
