"""Tweet cleaning pipeline: one of two fixed orders of per-tweet operations
followed by corpus-level duplicate elimination.

The default order generalizes tags (numbers, retweet markers, mentions, URLs)
before punctuation removal, which destroys the "@", ":" and "//" that the tag
patterns need. The "punct-first" order, kept for ablation, swaps the two.
`PipelineConfig.ops` accepts these two orders and no other.

Every per-tweet stage is a pure function, so cleaning is idempotent. That is
why the language filter scores words against the whole bundled English
lexicon rather than the stopwords alone: cleaned tweets are stopword-free.

`run_pipeline` cleans 1,024 rows at a time, each op over the whole chunk.
lowercase, tokenize, remove_stopwords, lemmatize and remove_punctuation act
inside a whitespace-delimited word, as does generalize_tags on a text without
"@" or "//" and after remove_punctuation; runs of these ops map each distinct
word once per call. The default order lowercases and tags a chunk's texts
that hold "@" or "/" as one text, joined by a separator no tag pattern
matches (text by text if one holds it). The corpus and report equal those of
the per-op reference in `tests/oracles.py`.
"""

import re
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, compress, islice, repeat, tee
from operator import ge, not_

from . import _Memo, lexicon
from .digest import digest_json
from .errors import ValidationError

PLACEHOLDERS = lexicon.PLACEHOLDERS

DEFAULT_OPS = (
    "strip_non_ascii",
    "is_english",
    "lowercase",
    "generalize_tags",
    "remove_punctuation",
    "tokenize",
    "remove_stopwords",
    "drop_if_short",
    "lemmatize",
    "dedupe",
)

# Alternative order with punctuation removal ahead of tag generalization;
# the tag patterns need the punctuation it strips, so they rarely fire.
# Kept selectable for ablation.
PUNCT_FIRST_OPS = (
    "strip_non_ascii",
    "is_english",
    "lowercase",
    "remove_punctuation",
    "tokenize",
    "remove_stopwords",
    "drop_if_short",
    "generalize_tags",
    "lemmatize",
    "dedupe",
)


@dataclass(frozen=True)
class PipelineConfig:
    ops: tuple[str, ...] = DEFAULT_OPS
    english_threshold: float = 0.15
    min_tokens: int = 2

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.ops not in (DEFAULT_OPS, PUNCT_FIRST_OPS):
            raise ValidationError(
                f"pipeline ops must be DEFAULT_OPS or PUNCT_FIRST_OPS, got {list(self.ops)}")
        if not 0.0 <= self.english_threshold <= 1.0:
            raise ValidationError("english_threshold must be within [0, 1]")
        if self.min_tokens < 1:
            raise ValidationError("min_tokens must be at least 1")

    @property
    def digest(self) -> str:
        lexicon_digest = lexicon.lexicon_digest()
        return digest_json({"kind": "pipeline", "lexicon": lexicon_digest, **asdict(self)})


@dataclass(frozen=True)
class CleanCorpus:
    """The cleaned rows as columns: row i is (ids[i], tokens[i], labels[i])."""

    ids: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]
    labels: tuple[str | None, ...]

    def __post_init__(self):
        if not len(self.ids) == len(self.tokens) == len(self.labels):
            raise ValidationError("ids, token lists and labels differ in number")

    def __len__(self) -> int:
        return len(self.ids)

    def token_lists(self) -> list[tuple[str, ...]]:
        return list(self.tokens)


@dataclass
class PreprocessReport:
    input_count: int
    output_count: int
    removed_by_stage: dict[str, int] = field(default_factory=dict)


# --- per-tweet operations ---------------------------------------------------

_PLACEHOLDER_SPLIT = re.compile("(" + "|".join(PLACEHOLDERS) + ")")

# Tag patterns. Replacement order is fixed: numbers, retweet markers,
# mentions, URLs. They expect lowercased input; the placeholders they emit
# are uppercase on purpose so later stages can recognize them. The number
# pattern is the source's (?:(?:\d+,?)+(?:\.?\d+)?) without its nested repeat.
_TAG_SOURCES = (r"\d+(?:,\d+)*,?(?:\.?\d+)?", r"(?:(RT|rt) @ ?[\w_]+:?)", r"(?:@ ?[\w_]+)")
_NUM_RE, _RT_RE, _MENT_RE = map(re.compile, _TAG_SOURCES)
_ASCII_RT_MENT = tuple(re.compile(p, re.ASCII) for p in _TAG_SOURCES[1:])
# Without "RT @" in a text only the retweet pattern's "rt" branch can match;
# led by that literal, `re` scans for it instead of trying both branches at
# every position.
_RT_LOWER_RE, _ASCII_RT_LOWER_RE = (re.compile(r"rt @ ?[\w_]+:?", flags) for flags in (0, re.ASCII))
# In an ASCII text every digit starts a number match and each match is
# replaced whole, so the digits may all be "0" first: `re` scans for a literal.
_ZEROS = str.maketrans("123456789", "0" * 9)
_ZERO_NUM_RE = re.compile(_TAG_SOURCES[0].replace(r"\d", "0").replace("0+", "00*", 1))
# The source's URL body (?:[a-z]|[0-9]|[$-_@.&+]|[!*\(\),]|(?:%[0-9a-f][0-9a-f]))+
# as one class ("%" lies in $-_). Bare www. hosts, which the source leaves
# out, appear in real tweets and the documented cleaning example; their word
# boundary is tested behind the literal, so that `re` can scan for "www.".
_URL_BODY = r"[a-z0-9$-_@.&+!*(),]+"
_URL_RE = re.compile(r"http[s]? ?: ?//" + _URL_BODY)
_WWW_RE = re.compile(r"www\.(?<!\wwww\.)" + _URL_BODY)

_NOT_ALLOWED_RE = re.compile(r"[^a-z0-9_#' ]+")
# A word without its leading and trailing characters outside [a-z'].
_CORE_RE = re.compile(r"[a-z'](?:.*[a-z'])?", re.DOTALL)


def _map_around_placeholders(text: str, fn) -> str:
    """Apply fn to the segments between placeholder occurrences."""
    if "_" not in text:  # every placeholder holds "_": the split would keep one segment
        return fn(text)
    parts = _PLACEHOLDER_SPLIT.split(text)
    return "".join(part if part in PLACEHOLDERS else fn(part) for part in parts)


def strip_non_ascii(text: str) -> str:
    return text if text.isascii() else text.encode("ascii", errors="ignore").decode("ascii")


def _is_evidence(word: str) -> bool:
    """A placeholder, or a lexicon word once lowercased and edge-trimmed."""
    if word in PLACEHOLDERS:
        return True
    core = _CORE_RE.search(word.lower())
    return core is not None and core.group() in lexicon.english_evidence()


def _needed(n: int, threshold: float) -> int:
    """The fewest lexicon hits that pass a text of n words (h / n grows with h)."""
    return 1 if n < 3 else next(h for h in range(n + 1) if h / n >= threshold)


def is_english(text: str, threshold: float = 0.15) -> bool:
    """Heuristic language check: the fraction of words found in the bundled
    English lexicon must reach the threshold (very short texts pass with a
    single hit). Deterministic and dependency-free."""
    words = text.split()
    return sum(map(_is_evidence, words)) >= _needed(len(words), threshold)


def lowercase(text: str) -> str:
    return _map_around_placeholders(text, str.lower)


def generalize_tags(text: str) -> str:
    # Each substring test is a necessary condition of the patterns it guards,
    # so a skipped substitution is one that could not have matched.
    if text.isascii():
        text, (rt, ment) = _ZERO_NUM_RE.sub("_NUM_", text.translate(_ZEROS)), _ASCII_RT_MENT
        rt_lower = _ASCII_RT_LOWER_RE
    else:
        text, rt, ment, rt_lower = _NUM_RE.sub("_NUM_", text), _RT_RE, _MENT_RE, _RT_LOWER_RE
    if "@" in text:
        text = (rt if "RT @" in text else rt_lower).sub("_RT_", text)
        text = ment.sub("_MENT_", text)
    if "//" in text:
        text = _URL_RE.sub("_URL_", text)
    if "www." in text:
        text = _WWW_RE.sub("_URL_", text)
    return text


def _punctuation_free_words(text: str) -> list[str]:
    return _map_around_placeholders(text, partial(_NOT_ALLOWED_RE.sub, " ")).split()


def remove_punctuation(text: str) -> str:
    return " ".join(_punctuation_free_words(text))


def tokenize(text: str) -> list[str]:
    return text.split()


def remove_stopwords(tokens: list[str]) -> list[str]:
    stopset = lexicon.stopwords()
    return [t for t in tokens if t not in stopset]


def drop_if_short(tokens: list[str], min_tokens: int = 2) -> list[str] | None:
    return None if len(tokens) < min_tokens else tokens


def lemmatize(tokens: list[str]) -> list[str]:
    return [_lemma(t) for t in tokens]


def _lemma(word: str) -> str:
    """Exception table first, then ordered suffix rules. Generalized tags and
    hashtags pass through untouched."""
    if word in PLACEHOLDERS or word.startswith("#"):
        return word
    exceptions = lexicon.lemma_exceptions()
    if word in exceptions:
        return exceptions[word]
    if len(word) >= 5 and word.endswith("ies"):
        return word[:-3] + "y"
    if len(word) >= 6 and word.endswith("sses"):
        return word[:-2]
    if (
        len(word) >= 4
        and word.endswith("s")
        and not word.endswith("ss")
        and not word.endswith("us")
        and "'" not in word
    ):
        return word[:-1]
    if len(word) >= 5 and word.endswith("ing"):
        return _validated_strip(word, word[:-3])
    if len(word) >= 4 and word.endswith("ed"):
        return _validated_strip(word, word[:-2])
    return word


def _validated_strip(word: str, stem: str) -> str:
    """Keep a stripped stem only if the dictionary backs it up; try restoring
    a silent e and undoubling a final consonant before giving up."""
    known = lexicon.base_words()
    if stem in known:
        return stem
    if stem + "e" in known:
        return stem + "e"
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[:-1] in known:
        return stem[:-1]
    return word


# --- pipeline runner --------------------------------------------------------

_CHUNK = 1024  # rows cleaned as one batch: memory holds one chunk's intermediates
_SEP = "\x00"  # joins a chunk's tag-route texts; no tag pattern matches it


def _compile(config: PipelineConfig):
    """Config's order as a chunk cleaner and a function from the input count to (corpus, report)."""
    canon = _Memo(str).__getitem__  # a word -> the first string object that held it
    evidence = _Memo(_is_evidence).__getitem__
    needed = _Memo(partial(_needed, threshold=config.english_threshold)).__getitem__
    # no run holds tokenize, a split: every word in a run is split already
    word_memos = {op: _Memo(fn) for op, fn in {
        "lowercase": lambda w: lowercase(w).split(),
        "generalize_tags": lambda w: generalize_tags(w).split(),
        "remove_punctuation": _punctuation_free_words,
        "remove_stopwords": lambda w: remove_stopwords([w]),
        "lemmatize": lambda w: lemmatize([w]),
    }.items()}
    removed = dict.fromkeys(("is_english", "drop_if_short", "dedupe"), 0)
    survivors = {}  # token string -> the first (id, tokens, label) row holding it

    def run(*ops):
        def expand(word):
            words = [word]
            for op in ops:
                words = [t for w in words for t in word_memos[op][w]]
            return words

        tokens = _Memo(expand).__getitem__

        def step(rows):
            return list(map(list, map(chain.from_iterable, map(map, repeat(tokens), rows))))

        return step

    def keep(stage, mask, *columns):
        removed[stage] += mask.count(False)
        return [list(compress(column, mask)) for column in columns]

    def english(texts):
        # each text is split once, and no word list outlives its sum
        counted, scored = tee(map(str.split, texts))
        return list(map(ge, map(sum, map(map, repeat(evidence), scored)),
                        map(needed, map(len, counted))))

    def tag(texts):
        # ASCII case mapping changes letters only
        joined = _SEP.join(texts)
        whole = joined.count(_SEP) == len(texts) - 1  # no text holds the separator
        tagged = [generalize_tags(lowercase(text)) for text in ([joined] if whole else texts)]
        # each row's words as their first string objects: fresh ones die with the row
        rows = map(str.split, tagged[0].split(_SEP) if whole else tagged)
        return list(map(list, map(map, repeat(canon), rows)))

    punct_first = config.ops == PUNCT_FIRST_OPS
    if punct_first:  # after remove_punctuation, the only tags left are digit runs inside a word
        first = run("lowercase", "remove_punctuation", "remove_stopwords")
        last = run("generalize_tags", "lemmatize")
    else:
        # a text holding "@" or "/" is lowercased and tagged whole before the
        # word ops; lemmatize maps each token to one, so drop_if_short reads
        # the same count after it
        word_ops = ("remove_punctuation", "remove_stopwords", "lemmatize")
        plain, tagged = run("lowercase", "generalize_tags", *word_ops), run(*word_ops)

    def clean(chunk):
        ids, texts, labels = zip(*chunk)
        if not all(map(str.isascii, texts)):
            texts = list(map(strip_non_ascii, texts))
        ids, labels, texts = keep("is_english", english(texts), ids, labels, texts)
        if punct_first:
            rows = first(list(map(str.split, texts)))
        else:
            # no op before generalize_tags makes an "@", or a "//" out of no "/"
            route = ["@" in text or "/" in text for text in texts]
            plain_rows = iter(plain(list(map(str.split, compress(texts, map(not_, route))))))
            tag_rows = iter(tagged(tag(list(compress(texts, route)))))
            rows = [next(tag_rows) if r else next(plain_rows) for r in route]
        mask = list(map(ge, map(len, rows), repeat(config.min_tokens)))
        ids, labels, rows = keep("drop_if_short", mask, ids, labels, rows)
        rows = last(rows) if punct_first else rows
        # drop_if_short leaves at least one token, and no later op drops one
        before = len(survivors)
        for key, tweet_id, tokens, label in zip(map(" ".join, rows), ids, rows, labels):
            if key not in survivors:
                survivors[key] = tweet_id, tuple(tokens), label
        removed["dedupe"] += len(rows) - (len(survivors) - before)

    def finish(count):
        corpus = CleanCorpus(*(list(zip(*survivors.values())) or [()] * 3))
        return corpus, PreprocessReport(count, len(corpus), removed)

    return clean, finish


def run_pipeline(rows, config: PipelineConfig | None = None):
    """Clean every (id, text, label) row of `rows`, a sized iterable such as
    a Dataset, through the configured op sequence, _CHUNK rows at a time.

    Returns (CleanCorpus, PreprocessReport). The report accounts for every
    removed row: len(rows) == len(corpus) + sum(report.removed_by_stage.values()).
    """
    clean, finish = _compile(config or PipelineConfig())
    chunks = iter(rows)
    while chunk := list(islice(chunks, _CHUNK)):
        clean(chunk)
    return finish(len(rows))

