"""Tweet cleaning pipeline: an ordered, configurable sequence of per-tweet
operations followed by corpus-level duplicate elimination.

The default order generalizes tags (numbers, retweet markers, mentions, URLs)
before punctuation removal, which destroys the "@", ":" and "//" that the tag
patterns need. The "punct-first" order, kept for ablation, swaps the two.

Every per-tweet stage is a pure function, so cleaning is idempotent. That is
why the language filter scores words against the whole bundled English
lexicon rather than the stopwords alone: cleaned tweets are stopword-free.

`run_pipeline` cleans each distinct word once per call. Five ops act inside
a whitespace-delimited word and never across one: lowercase, tokenize,
remove_stopwords, lemmatize, and remove_punctuation, which turns every
whitespace character into a separator. generalize_tags is word-local on a
text without "@" or "//", where only the number and www patterns can match,
and neither matches whitespace; a text that holds "@" or "/" is tagged as a
whole. Each run of word-local ops is one memo from a word to its tokens and
each op's change to its word count; a run that must keep the separators
(lowercase before whole-text tagging) acts on the text. strip_non_ascii, the
filters and dedupe act on whole tweets. The memos die with the call, and the
corpus and report equal those of the per-op reference in `tests/oracles.py`.
"""

import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from . import artifact, lexicon
from .corpus import Dataset
from .digest import digest_json, digest_text
from .errors import FormatError, ValidationError

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

_TEXT_ONLY_OPS = {"strip_non_ascii", "is_english"}
_TOKEN_ONLY_OPS = {"remove_stopwords", "drop_if_short", "lemmatize"}
_EITHER_OPS = {"lowercase", "generalize_tags", "remove_punctuation"}
_KNOWN_OPS = _TEXT_ONLY_OPS | _TOKEN_ONLY_OPS | _EITHER_OPS | {"tokenize", "dedupe"}


@dataclass(frozen=True)
class PipelineConfig:
    ops: tuple[str, ...] = DEFAULT_OPS
    english_threshold: float = 0.15
    min_tokens: int = 2

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if len(set(self.ops)) != len(self.ops):
            raise ValidationError("pipeline op appears more than once")
        unknown = [op for op in self.ops if op not in _KNOWN_OPS]
        if unknown:
            raise ValidationError(f"unknown pipeline ops: {unknown}")
        if "dedupe" in self.ops and self.ops[-1] != "dedupe":
            raise ValidationError("dedupe must be the last pipeline op")
        if "tokenize" not in self.ops:
            raise ValidationError("pipeline must include the tokenize op")
        split_at = self.ops.index("tokenize")
        for op in self.ops[:split_at]:
            if op in _TOKEN_ONLY_OPS:
                raise ValidationError(f"{op} must come after tokenize")
        for op in self.ops[split_at + 1 :]:
            if op in _TEXT_ONLY_OPS:
                raise ValidationError(f"{op} must come before tokenize")
        if not 0.0 <= self.english_threshold <= 1.0:
            raise ValidationError("english_threshold must be within [0, 1]")
        if self.min_tokens < 1:
            raise ValidationError("min_tokens must be at least 1")

    @property
    def digest(self) -> str:
        lexicon_digest = lexicon.lexicon_digest()
        return digest_json({"kind": "pipeline", "lexicon": lexicon_digest, **asdict(self)})


@dataclass(frozen=True)
class CleanTweet:
    id: str
    tokens: tuple[str, ...]
    label: str | None = None

    def joined(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class CleanCorpus:
    tweets: tuple[CleanTweet, ...]
    config_digest: str

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self):
        return iter(self.tweets)

    def token_lists(self) -> list[tuple[str, ...]]:
        return [tw.tokens for tw in self.tweets]

    def ids(self) -> tuple[str, ...]:
        return tuple(tw.id for tw in self.tweets)

    def labels(self) -> list[str | None]:
        return [tw.label for tw in self.tweets]

    def content_digest(self) -> str:
        parts = [f"{tw.id}\x1f{tw.joined()}\x1f{tw.label or ''}" for tw in self.tweets]
        return digest_text(self.config_digest + "\x1e".join(parts))


@dataclass
class PreprocessReport:
    input_count: int
    output_count: int
    removed_by_stage: dict[str, int] = field(default_factory=dict)
    token_deltas: dict[str, int] = field(default_factory=dict)


# --- per-tweet operations ---------------------------------------------------

_PLACEHOLDER_SPLIT = re.compile("(" + "|".join(PLACEHOLDERS) + ")")

# Tag patterns. Replacement order is fixed: numbers, retweet markers,
# mentions, URLs. They expect lowercased input; the placeholders they emit
# are uppercase on purpose so later stages can recognize them. The number
# pattern is the source's (?:(?:\d+,?)+(?:\.?\d+)?) without its nested repeat.
_TAG_SOURCES = (r"\d+(?:,\d+)*,?(?:\.?\d+)?", r"(?:(RT|rt) @ ?[\w_]+:?)", r"(?:@ ?[\w_]+)")
_NUM_RE, _RT_RE, _MENT_RE = _NUM_RT_MENT = tuple(map(re.compile, _TAG_SOURCES))
# On an ASCII text these match what the patterns above match, and `re` can
# scan ahead for [0-9] where it cannot for \d.
_ASCII_NUM_RT_MENT = tuple(re.compile(p.replace(r"\d", "[0-9]"), re.ASCII) for p in _TAG_SOURCES)
# The source pattern covers only scheme-prefixed URLs; bare www. hosts appear
# in real tweets (and in the documented cleaning example), so they are
# generalized as well.
_URL_BODY = r"(?:[a-z]|[0-9]|[$-_@.&+]|[!*\(\),]|(?:%[0-9a-f][0-9a-f]))+"
_URL_RE = re.compile(r"http[s]? ?: ?//" + _URL_BODY)
_WWW_RE = re.compile(r"\bwww\." + _URL_BODY)

_NOT_ALLOWED_RE = re.compile(r"[^a-z0-9_#' ]+")
# A word without its leading and trailing characters outside [a-z'].
_CORE_RE = re.compile(r"[a-z'](?:.*[a-z'])?", re.DOTALL)


def _map_around_placeholders(text: str, fn) -> str:
    """Apply fn to the segments between placeholder occurrences."""
    if "_" not in text:  # every placeholder holds "_": the split would keep one segment
        return fn(text)
    parts = _PLACEHOLDER_SPLIT.split(text)
    return "".join(part if part in PLACEHOLDERS else fn(part) for part in parts)


class _Memo(dict):
    """word -> fn(word), computed on the first lookup of each word."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, word):
        value = self[word] = self.fn(word)
        return value


def strip_non_ascii(text: str) -> str:
    return text if text.isascii() else text.encode("ascii", errors="ignore").decode("ascii")


def _is_evidence(word: str) -> bool:
    """A placeholder, or a lexicon word once lowercased and edge-trimmed."""
    if word in PLACEHOLDERS:
        return True
    core = _CORE_RE.search(word.lower())
    return core is not None and core.group() in lexicon.english_evidence()


def _english(words: list[str], threshold: float, evidence: _Memo) -> bool:
    if not words:
        return False
    hits = sum(map(evidence.__getitem__, words))
    if len(words) < 3:
        return hits >= 1
    return hits / len(words) >= threshold


def is_english(text: str, threshold: float = 0.15) -> bool:
    """Heuristic language check: the fraction of words found in the bundled
    English lexicon must reach the threshold (very short texts pass with a
    single hit). Deterministic and dependency-free."""
    return _english(text.split(), threshold, _Memo(_is_evidence))


def lowercase(text: str) -> str:
    return _map_around_placeholders(text, str.lower)


def generalize_tags(text: str) -> str:
    # Each substring test is a necessary condition of the patterns it guards,
    # so a skipped substitution is one that could not have matched.
    num, rt, ment = _ASCII_NUM_RT_MENT if text.isascii() else _NUM_RT_MENT
    text = num.sub("_NUM_", text)
    if "@" in text:
        text = rt.sub("_RT_", text)
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

# Ops that report no token delta: the first two never change the word count,
# and dedupe drops whole tweets once the per-tweet ops are done.
_UNREPORTED_OPS = ("is_english", "tokenize", "dedupe")
# Before tokenize, a run of word-local ops with neither of these must keep the
# separators strip_non_ascii and whole-text tags read, so it acts on the text.
_JOINING_OPS = {"remove_punctuation", "tokenize"}
_TEXT_OPS = dict(
    strip_non_ascii=strip_non_ascii, lowercase=lowercase, generalize_tags=generalize_tags)


def _compile(config: PipelineConfig):
    """Config's per-tweet ops as routes of (key, step) pairs for texts with
    and without "@" or "/", the token-delta totals the steps add to, and each
    run's (ops, word-count changes by word, entering words). A step maps the
    state (the text, or a word list where no later step reads the exact text)
    to the next, or to None to drop the tweet. Each maximal run of word-local
    ops is one step, keyed by its ops, with a memo from a word to its tokens;
    beneath the runs, each op maps each distinct word once. Memos last a call.
    """
    evidence = _Memo(_is_evidence)
    word_memos = {op: _Memo(fn) for op, fn in {
        "lowercase": lambda w: lowercase(w).split(),
        "generalize_tags": lambda w: generalize_tags(w).split(),
        "remove_punctuation": _punctuation_free_words,
        "tokenize": tokenize,
        "remove_stopwords": lambda w: remove_stopwords([w]),
        "lemmatize": lambda w: lemmatize([w]),
    }.items()}
    totals, runs = Counter(), []

    def run_step(ops):
        # the words entering the run are counted, and each op's changes to
        # their counts summed once the call is done
        changes_of, seen = {}, Counter()
        runs.append((ops, changes_of, seen))

        def expand(word):
            words, changes = [word], []
            for op in ops:
                after = [t for w in words for t in word_memos[op][w]]
                changes.append(len(after) - len(words))
                words = after
            if any(changes):  # a word no op changed adds nothing to the totals
                changes_of[word] = changes
            return words

        tokens = _Memo(expand)

        def step(state):
            words = state.split() if isinstance(state, str) else state
            seen.update(words)
            return list(chain.from_iterable(map(tokens.__getitem__, words)))

        return step

    def text_step(op, to_words):
        def step(state):
            text = state if isinstance(state, str) else " ".join(state)
            new = _TEXT_OPS[op](text)
            words = new.split() if to_words else None
            # ASCII case mapping changes letters only, never a word boundary;
            # each space a tag match removes joins two words (a match's only
            # whitespace is single spaces between non-space characters)
            if op == "generalize_tags":
                totals[op] += new.count(" ") - text.count(" ")
            elif new != text and not (op == "lowercase" and text.isascii()):
                totals[op] += len(words or new.split()) - len(text.split())
            return new if words is None else words

        return step

    def english_step(to_words):
        def step(state):
            words = state.split() if isinstance(state, str) else state
            if _english(words, config.english_threshold, evidence):
                return words if to_words else state

        return step

    short = partial(drop_if_short, min_tokens=config.min_tokens)
    makers = {"is_english": english_step, "drop_if_short": lambda _: short}
    run_steps = _Memo(run_step)
    # lemmatize maps each token to one, so drop_if_short reads the same count
    # after it; run first, it joins the run before drop_if_short
    ops = " ".join(config.ops).replace("drop_if_short lemmatize", "lemmatize drop_if_short")
    ops = [op for op in ops.split() if op != "dedupe"]

    def route(word_tags: bool):
        keys, on_tokens = [], False  # (an op or the ops of a run, state is tokens)
        is_local = lambda op: op in word_memos and (word_tags or op != "generalize_tags")
        for local, group in groupby(ops, is_local):
            group = tuple(group)
            joins = local and (on_tokens or _JOINING_OPS & set(group))
            keys += [(group, on_tokens)] if joins else [(op, on_tokens) for op in group]
            on_tokens = on_tokens or "tokenize" in group
        # a step hands on a word list in token state or when a run reads it next
        return [
            (key, run_steps[key] if type(key) is tuple else
             makers.get(key, partial(text_step, key))(tokens or type(then) is tuple))
            for (key, tokens), (then, _) in zip(keys, keys[1:] + [((), True)])
        ]

    return route(True), route(False), totals, runs


def run_pipeline(dataset: Dataset, config: PipelineConfig | None = None):
    """Clean every tweet through the configured op sequence.

    Returns (CleanCorpus, PreprocessReport). The report accounts for every
    removed tweet: len(dataset) == len(corpus) + sum(report.removed_by_stage.values()).
    """
    config = config or PipelineConfig()
    plain, tagged, totals, runs = _compile(config)

    removed = {op: 0 for op in config.ops if op in ("is_english", "drop_if_short", "dedupe")}
    # by token string under dedupe, keeping the first of each; else by id
    survivors: dict[str, CleanTweet] = {}

    for tweet in dataset:
        state = tweet.text
        # no op before generalize_tags makes an "@", or a "//" out of no "/"
        for key, step in tagged if "@" in state or "/" in state else plain:
            state = step(state)
            if state is None:
                removed[key] += 1
                break
        else:
            # tokenize is a required op, so the state is a token list here
            if not state:
                removed["empty"] = removed.get("empty", 0) + 1
            elif (dup_key := " ".join(state) if "dedupe" in removed else tweet.id) in survivors:
                removed["dedupe"] += 1
            else:
                survivors[dup_key] = CleanTweet(tweet.id, tuple(state), tweet.label)

    for ops, changes_of, seen in runs:
        for word, changes in changes_of.items():
            totals.update({op: seen[word] * change for op, change in zip(ops, changes)})
    # An op reports a delta once some tweet has come through it.
    deltas: dict[str, int] = {}
    reached = len(dataset)
    for op in config.ops:
        reached -= removed.get(op, 0)
        if reached and op not in _UNREPORTED_OPS:
            deltas[op] = totals[op]

    corpus = CleanCorpus(tuple(survivors.values()), config.digest)
    report = PreprocessReport(
        input_count=len(dataset),
        output_count=len(corpus),
        removed_by_stage=removed,
        token_deltas=deltas,
    )
    return corpus, report


# --- persistence ------------------------------------------------------------


def save_clean(corpus: CleanCorpus, path) -> None:
    """One artifact: ids, each distinct token once in first-appearance order,
    one code into that table per token with every tweet's codes end to end,
    the offset where each tweet's codes start, and labels ("" for none)."""
    table: dict[str, int] = {}
    codes = [table.setdefault(token, len(table)) for tw in corpus for token in tw.tokens]
    artifact.save(
        path,
        "clean",
        corpus.config_digest,
        {},
        ids=corpus.ids(),
        tokens=tuple(table),
        codes=np.array(codes, dtype=np.int64),
        token_offsets=np.cumsum([0, *(len(tw.tokens) for tw in corpus)], dtype=np.int64),
        labels=[tw.label or "" for tw in corpus],
    )


def load_clean(path, config: PipelineConfig | None = None) -> CleanCorpus:
    """Load a cleaned corpus; if a config is given, reject files produced
    under a different pipeline digest."""
    header, arrays = artifact.load(path, "clean", config.digest if config else None)
    try:
        ids, labels, table, codes = (arrays[k] for k in ("ids", "labels", "tokens", "codes"))
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(table):
            raise FormatError("token code outside the token table")
        words = tuple(table[c] for c in codes.tolist())
        tokens = artifact.split_at(words, arrays["token_offsets"])
    except (KeyError, FormatError) as exc:
        raise FormatError(f"{Path(path).name}: inconsistent clean corpus ({exc})") from None
    if not len(ids) == len(tokens) == len(labels):
        raise FormatError(f"{Path(path).name}: ids, token lists and labels differ in number")
    tweets = (CleanTweet(i, t, label or None) for i, t, label in zip(ids, tokens, labels))
    return CleanCorpus(tuple(tweets), header["digest"])
