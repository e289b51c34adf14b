
import itertools
import random
import re
import sys
import time

import numpy as np
import pytest
from oracles import regex_search
from rweets import rules
from rweets.corpus import BINARY, Dataset, RawTweet
from rweets.errors import ValidationError
from rweets.rules import (
    N_PATTERNS,
    PATTERN_SOURCES,
    compile_patterns,
    match_tweet,
    rule_classify,
    rule_features,
)

# --- seeded fuzz texts --------------------------------------------------------
#
# Words of the patterns themselves, fillers that come close to them (a "can"
# inside "pelican" has no word boundary before it), and separators that `.`
# matches ("\r", "\x85", "\u2028") or does not ("\n"). Non-ASCII letters
# that case-fold to ASCII ones under re.IGNORECASE ("ı" and "İ" match "i",
# "ſ" matches "s", the Kelvin sign matches "k") are swapped into words.


def _alternatives(stage):
    return stage.replace("\\b", "").replace("\\'", "'").strip("()").split("|")


# per chained pattern, the literal phrases each of its stages accepts
CHAINS = [[_alternatives(stage) for stage in source.split(".*")] for source in PATTERN_SOURCES
          if ".*" in source]
PATTERN_WORDS = sorted({w for chain in CHAINS for alts in chain for alt in alts for w in alt.split()})
FILLERS = ("the", "storm", "a", "ok", "x1", "_", "pelican", "unto", "you're", "canned", "toward")
SEPARATORS = (" ", " ", " ", " ", "", "\n", "\r", "\r\n", "?", " ? ", "'", ", ", "\t")
NON_ASCII_SEPARATORS = ("\x85", "\u2028", "\u00a0")
CASE_FOLDS = {"i": ("ı", "İ"), "s": ("ſ",), "k": ("\u212a",)}


def fuzz_text(rng, ascii_only=False):
    """Random words and separators; half the texts also carry, in order, one
    phrase for each stage of a random chained pattern."""
    separators = SEPARATORS if ascii_only else SEPARATORS + NON_ASCII_SEPARATORS
    words = []
    for alternatives in rng.choice(CHAINS) if rng.random() < 0.5 else [[]]:
        for _ in range(rng.randint(0, 3)):
            words.append(rng.choice(PATTERN_WORDS) if rng.random() < 0.75 else rng.choice(FILLERS))
        if alternatives:
            words.append(rng.choice(alternatives))
    parts = []
    for word in words:
        word = rng.choice((word, word, word.upper(), word.title(), word.swapcase()))
        if not ascii_only and rng.random() < 0.2:
            word = "".join(rng.choice(CASE_FOLDS.get(ch.lower(), (ch,))) for ch in word)
        parts += [word, rng.choice(separators)]
    return "".join(parts[:-1]) if rng.random() < 0.7 else "".join(parts)


def re_bits(text):
    return tuple(re.search(source, text, re.IGNORECASE) is not None for source in PATTERN_SOURCES)


def long_text(rng, length):
    """Subjects and verb phrases that the chained patterns start on, among
    fillers, with no word that ends a chain: every chain that starts keeps
    a backtracking `re` busy over the rest of the text."""
    triggers = ("I am", "we are", "I will be", "we will be", "I are", "we am")
    fillers = ("the", "storm", "river", "night", "roads", "power", "again", "bridge")
    words, size = [], 0
    while size < length:
        words.append(rng.choice(triggers) if len(words) % 4 == 0 else rng.choice(fillers))
        size += len(words[-1]) + 1
    return " ".join(words)[:length].rstrip()


# 10 positives with the pattern id (1-based) each is built to trigger,
# 20 negatives with no pattern hits at all.
POSITIVE_FIXTURE = (
    ("I am bringing two boxes of supplies", 1),
    ("I'm donating my old coats this weekend", 2),
    ("we're helping with the river cleanup", 3),
    ("we will donate whatever is left", 4),
    ("I would like to volunteer at the kitchen", 5),
    ("we'll bring extra water for the crews", 6),
    ("Where can I donate clothes for Sandy victims", 8),
    ("where can we volunteer after the storm", 9),
    ("need shelter?", 13),
    ("could you send blankets to the gym", 15),
)

NEGATIVE_FIXTURE = (
    "the storm passed over the coast last night",
    "emergency crews restored power in the northern district",
    "roads stayed closed through the afternoon",
    "many families spent the night at the stadium",
    "the river crested just before dawn",
    "rain kept falling on the valley all day",
    "officials opened three new distribution points",
    "the mayor visited the damaged pier today",
    "trees came down across the old highway",
    "the shelter at the school reached capacity",
    "neighbors shared a generator for the freezer",
    "most phone lines were restored by evening",
    "the ferry resumed service this morning",
    "a second wave of rain arrived at midnight",
    "damage assessment teams walked the boardwalk",
    "the relief warehouse received another truck",
    "classes resumed at the elementary school",
    "grocery stores reopened with limited stock",
    "the tide finally receded from the parking lot",
    "crews cleared sand from the coastal road",
)


class TestCompile:
    def test_exactly_18(self):
        assert len(compile_patterns()) == N_PATTERNS == 18

    def test_ids_unique_and_complete(self):
        assert [p.id for p in compile_patterns()] == list(range(1, 19))

    def test_pattern_13_source(self):
        assert PATTERN_SOURCES[12] == r"\b\w*\s*\b\?"

    def test_pattern_1_prefix(self):
        assert PATTERN_SOURCES[0].startswith(r"\b(I|we)\b")

    @pytest.mark.parametrize("source", [
        r"\b(I|we\b.*\b(am|are)\b",  # unbalanced
        r"\b(I|we)\b.*\b(am|\w+)\b",  # not a literal phrase
        r"\b(I|we)\b.*\b(am|2nd)\b",  # a phrase that starts with a digit
        r".*\b(am|are)\b",  # an empty stage
        r"\b(I|we)\b\s*\b(am|are)\b",  # a stage that is not one alternation
    ])
    def test_source_outside_the_stage_shape_names_its_id(self, monkeypatch, source):
        sources = list(PATTERN_SOURCES)
        sources[2] = source
        monkeypatch.setattr(rules, "PATTERN_SOURCES", tuple(sources))
        with pytest.raises(ValidationError, match="rule pattern 3 failed to compile"):
            rules._forests(range(N_PATTERNS))

    def test_rewrite_that_fails_to_compile_names_its_id(self, monkeypatch):
        scannable = rules._scannable
        # a trailing backslash escapes nothing
        monkeypatch.setattr(rules, "_scannable",
                            lambda stage: [(p, regex + "\\") for p, regex in scannable(stage)])
        with pytest.raises(ValidationError, match="rule pattern 1 failed to compile"):
            rules._forests(range(N_PATTERNS))


@pytest.fixture(scope="module")
def every_code_point():
    return "".join(map(chr, range(sys.maxunicode + 1)))


class TestScannableStages:
    """Each stage compiles lowercase, without IGNORECASE, to regexes over
    folded text that begin with literal characters; these pin the two facts
    that make that exact."""

    def test_folding_is_what_ignorecase_matches(self, every_code_point):
        # the fold comes from this interpreter's Unicode tables
        folded = rules._folded([every_code_point])
        assert folded[-1] == "\n"
        folded = folded[:-1]
        # no character folds to nothing, so each folds to exactly one
        assert len(folded) == len(every_code_point)
        word = re.compile(r"\w")
        assert ([m.start() for m in word.finditer(folded)]
                == [m.start() for m in word.finditer(every_code_point)])
        phrase_chars = {c.lower() for source in PATTERN_SOURCES
                        for c in re.sub(r"\\.", "", source) if c.isascii() and c.isalpha()}
        assert len(phrase_chars) > 20
        for char in sorted(phrase_chars | {"'", " ", "?", "\n"}):
            expected = [m.start() for m in re.finditer(re.escape(char), every_code_point,
                                                       re.IGNORECASE)]
            assert [m.start() for m in re.finditer(re.escape(char), folded)] == expected, char

    def test_pattern_13_on_every_short_string(self):
        # a word character right before a "?" matches; nothing else does
        alphabet = ("a", "é", "İ", "_", "1", " ", "?", "\n")
        for n in range(6):
            for chars in itertools.product(alphabet, repeat=n):
                text = "".join(chars)
                expected = re.search(PATTERN_SOURCES[12], text, re.IGNORECASE) is not None
                assert match_tweet(text)[12] == expected, repr(text)

    @pytest.mark.parametrize("text,expected", [
        ("?", False), ("?help", False), ("help ?", False), ("help\n?", False), ("??", False),
        ("x_?", True), ("_?", True), ("route 9?", True), ("café?", True), ("help??", True),
        ("İ?", True), ("where?\n", True),
    ])
    def test_pattern_13_named_cases(self, text, expected):
        assert (re.search(PATTERN_SOURCES[12], text, re.IGNORECASE) is not None) == expected
        assert match_tweet(text)[12] == expected


class TestMatchTweet:
    def test_donate_clothes_sets_bit_8(self):
        bits = match_tweet("Where can I donate clothes for Sandy victims")
        assert bits[7]

    def test_chatter_all_clear(self):
        assert not any(match_tweet("good morning everyone"))

    def test_question_mark_sets_bit_13(self):
        assert match_tweet("need shelter?")[12]

    def test_sequence_sensitivity(self):
        assert match_tweet("Where can I donate clothes")[7]
        assert not match_tweet("donate can I where")[7]

    def test_question_after_word_char_property(self):
        for text in ("why?", "need water? now", "ok then?!"):
            assert match_tweet(text)[12], text

    def test_deterministic(self):
        text = "could you send blankets?"
        assert match_tweet(text) == match_tweet(text)


class TestRuleClassify:
    def test_rweet(self):
        assert rule_classify("Where can I donate clothes") == "rweet"

    def test_empty(self):
        assert rule_classify("") == "not_rweet"

    def test_offer_pattern(self):
        assert rule_classify("I will be donating blankets") == "rweet"

    def test_matches_popcount(self):
        for text, _pid in POSITIVE_FIXTURE:
            assert rule_classify(text) == ("rweet" if any(match_tweet(text)) else "not_rweet")
        for text in NEGATIVE_FIXTURE:
            assert rule_classify(text) == ("rweet" if any(match_tweet(text)) else "not_rweet")


class TestRuleFeatures:
    def test_zero_matrix_for_no_match(self):
        m = rule_features(["calm seas today", "sunset over the bay", "quiet night"])
        assert m.shape == (3, 18)
        assert not m.any()

    def test_rows_align_with_dataset_order(self):
        d = Dataset(BINARY, (
            RawTweet("a", "need shelter?"),
            RawTweet("b", "quiet night"),
        ))
        m = rule_features([tw.text for tw in d])
        assert m[0, 12] == 1.0 and m[1].sum() == 0.0

    def test_question_only_row(self):
        row = rule_features(["need shelter?"])[0]
        assert row[12] == 1.0
        non_question = [j for j in range(18) if j != 12]
        assert row[non_question].sum() == 0.0


class TestBatches:
    """`rule_features` and `rule_bits` give every row of a batch, repeated or
    multi-line texts among them, the bits `re` gives its text."""

    def test_fuzz_batches_with_repeats_equal_re(self):
        rng = random.Random(31)
        repeats = multi_line = 0
        for _ in range(40):
            batch = [fuzz_text(rng) for _ in range(30)]
            batch += ["\n".join(rng.sample(batch, 3)) for _ in range(5)]
            batch += [rng.choice(batch) for _ in range(20)]
            rng.shuffle(batch)
            m = rule_features(batch)
            assert m.shape == (len(batch), N_PATTERNS) and m.dtype == np.float64
            for row, text in zip(m, batch):
                assert tuple(row == 1.0) == re_bits(text), repr(text)
            assert set(np.unique(m)) <= {0.0, 1.0}
            assert rules.rule_bits(batch) == [tuple(map(int, bits)) for bits in map(re_bits, batch)]
            repeats += len(batch) - len(set(batch))
            multi_line += sum("\n" in text for text in batch)
        assert repeats > 400 and multi_line > 400, (repeats, multi_line)
        assert rule_features([]).shape == (0, N_PATTERNS) and rules.rule_bits([]) == []

    @pytest.mark.parametrize("size", [1, 7, 1024])
    def test_batch_boundaries_keep_rows_in_order(self, monkeypatch, size):
        monkeypatch.setattr(rules, "_BATCH", size)
        rng = random.Random(size)
        texts = [fuzz_text(rng) for _ in range(2_100)]
        m = rule_features(texts)
        assert [tuple(row == 1.0) for row in m] == [re_bits(text) for text in texts]


class TestFixtureAgainstOracle:
    def test_positive_patterns_fire(self):
        for text, pattern_id in POSITIVE_FIXTURE:
            assert match_tweet(text)[pattern_id - 1], (text, pattern_id)

    def test_precision_on_fixture(self):
        predictions = [rule_classify(t) for t, _ in POSITIVE_FIXTURE]
        predictions += [rule_classify(t) for t in NEGATIVE_FIXTURE]
        gold = ["rweet"] * len(POSITIVE_FIXTURE) + ["not_rweet"] * len(NEGATIVE_FIXTURE)
        tp = sum(1 for p, g in zip(predictions, gold) if p == g == "rweet")
        fp = sum(1 for p, g in zip(predictions, gold) if p == "rweet" and g == "not_rweet")
        assert tp == len(POSITIVE_FIXTURE) and fp == 0

    def test_per_pattern_bit_agreement(self):
        texts = [t for t, _ in POSITIVE_FIXTURE] + list(NEGATIVE_FIXTURE)
        for text in texts:
            engine_bits = match_tweet(text)
            oracle_bits = tuple(regex_search(src, text) for src in PATTERN_SOURCES)
            assert engine_bits == oracle_bits, text


class TestStagedSearch:
    def test_chained_stages_are_literal_alternations(self):
        # The staged search is exact only for such stages: they cannot match
        # "\n", and no alternative occurs inside another except as its suffix,
        # so a stage's leftmost match is its earliest-ending one.
        literal = r"[A-Za-z' ]+"
        stage_shape = re.compile(rf"(\\b)?(\(({literal}\|)*{literal}\)|{literal})(\\b)?")
        for source in PATTERN_SOURCES:
            stages = source.split(".*")
            if len(stages) == 1:
                continue
            for stage in stages:
                shape = stage_shape.fullmatch(stage.replace("\\'", "'"))
                assert shape, (source, stage)
                alternatives = shape.group(2).strip("()").lower().split("|")
                for a in alternatives:
                    for b in alternatives:
                        assert a == b or b not in a or a.endswith(b), (stage, a, b)

    def test_fuzz_bits_equal_re(self):
        rng = random.Random(2024)
        hits = [0] * N_PATTERNS
        split_by_newline = 0
        for _ in range(20_000):
            text = fuzz_text(rng)
            expected = re_bits(text)
            assert match_tweet(text) == expected, repr(text)
            assert rule_classify(text) == ("rweet" if any(expected) else "not_rweet")
            hits = [h + bit for h, bit in zip(hits, expected)]
            if "\n" in text:
                joined = re_bits(text.replace("\n", " "))
                split_by_newline += sum(j and not e for j, e in zip(joined, expected))
        # every pattern matches often, and many chains have their stages on
        # different lines, which must read 0
        assert min(hits) > 100 and split_by_newline > 4_000, (hits, split_by_newline)

    def test_fuzz_bits_equal_oracle(self):
        rng = random.Random(2026)
        for _ in range(300):
            text = fuzz_text(rng, ascii_only=True)
            oracle = tuple(regex_search(source, text) for source in PATTERN_SOURCES)
            assert match_tweet(text) == oracle, repr(text)

    def test_stages_on_different_lines_do_not_match(self):
        assert match_tweet("I am bringing food")[0]
        assert not match_tweet("I am\nbringing food")[0]
        assert not match_tweet("I\nam bringing food")[0]
        assert match_tweet("I am\rbringing food")[0]
        assert match_tweet("old news\nI am\u2028bringing food")[0]

    def test_adversarial_lengths_within_budget(self):
        # a backtracking `re` takes about 39 s on the first text
        texts = ["I am " * 800, long_text(random.Random(7), 1_000)]
        assert len(texts[0]) == 4_000 and len(texts[1]) > 990
        # both match nothing; `re` checks the second in full and the first on
        # a shorter run of the same two words
        expected = (False,) * N_PATTERNS
        assert re_bits("I am " * 20) == re_bits(texts[1]) == expected
        # each call follows one on the other text, so none finds its text's
        # searches cached
        for text in texts:
            start = time.perf_counter()
            assert rule_classify(text) == "not_rweet"
            assert time.perf_counter() - start < 0.5
        for text in texts:
            start = time.perf_counter()
            assert match_tweet(text) == expected
            assert time.perf_counter() - start < 0.5
