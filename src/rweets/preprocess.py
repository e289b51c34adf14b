"""Tweet cleaning pipeline: an ordered, configurable sequence of per-tweet
operations followed by corpus-level duplicate elimination.

The default order generalizes tags (numbers, retweet markers, mentions, URLs)
BEFORE punctuation removal: the tag patterns need "@", ":" and "//", which
punctuation removal destroys. The alternative "punct-first" order runs
punctuation removal ahead of tag generalization and is selectable for
ablation; under it the tag patterns mostly cannot fire.

Every per-tweet stage is a pure function, so cleaning is idempotent:
re-running the pipeline over already-clean text changes nothing. That is why
the language filter scores words against the full bundled English lexicon
(stopwords plus base words) rather than the stopword list alone; cleaned
tweets are stopword-free and would otherwise never survive a second pass.

`run_pipeline` is a fast path with the per-op runner's results. It compiles
the op list into steps once per call, and each step carries the tweet's word
count forward, so no op counts words twice. The lemma and English-evidence
memos are created per call and die with it. Substitutions whose pattern
needs a substring the text lacks are skipped. The corpus and the report
(removals and token deltas, in order) equal those of the per-op reference
in `tests/oracles.py`.
"""

import json
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from . import lexicon
from .corpus import Dataset
from .digest import atomic_write_text, digest_json, digest_text
from .errors import FormatError, StaleCacheError, ValidationError

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
    stopword_list_id: str = lexicon.STOPWORD_LIST_ID
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
        return digest_json(
            {
                "kind": "pipeline",
                "ops": list(self.ops),
                "stopwords": self.stopword_list_id,
                "lexicon": lexicon.lexicon_digest(),
                "threshold": self.english_threshold,
                "min_tokens": self.min_tokens,
            }
        )


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

    @property
    def duplicates_removed(self) -> int:
        return self.removed_by_stage.get("dedupe", 0)

    @property
    def total_removed(self) -> int:
        return sum(self.removed_by_stage.values())


# --- per-tweet operations ---------------------------------------------------

_PLACEHOLDER_SPLIT = re.compile("(" + "|".join(PLACEHOLDERS) + ")")

# Tag patterns. Replacement order is fixed: numbers, retweet markers,
# mentions, URLs. They expect lowercased input; the placeholders they emit
# are uppercase on purpose so later stages can recognize them.
_NUM_RE = re.compile(r"(?:(?:\d+,?)+(?:\.?\d+)?)")
_RT_RE = re.compile(r"(?:(RT|rt) @ ?[\w_]+:?)")
_MENT_RE = re.compile(r"(?:@ ?[\w_]+)")
# The source pattern covers only scheme-prefixed URLs; bare www. hosts appear
# in real tweets (and in the documented cleaning example), so they are
# generalized as well.
_URL_BODY = r"(?:[a-z]|[0-9]|[$-_@.&+]|[!*\(\),]|(?:%[0-9a-f][0-9a-f]))+"
_URL_RE = re.compile(r"http[s]? ?: ?//" + _URL_BODY)
_WWW_RE = re.compile(r"\bwww\." + _URL_BODY)

_NOT_ALLOWED_RE = re.compile(r"[^a-z0-9_#' ]+")
_EDGE_TRIM_RE = re.compile(r"^[^a-z']+|[^a-z']+$")


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
    return text.encode("ascii", errors="ignore").decode("ascii")


def _is_evidence(word: str) -> bool:
    """A placeholder, or a lexicon word once lowercased and edge-trimmed."""
    if word in PLACEHOLDERS:
        return True
    trimmed = _EDGE_TRIM_RE.sub("", word.lower())
    return bool(trimmed) and trimmed in lexicon.english_evidence()


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
    text = _NUM_RE.sub("_NUM_", text)
    if "@" in text:
        text = _RT_RE.sub("_RT_", text)
        text = _MENT_RE.sub("_MENT_", text)
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


def dedupe(tweets: list[CleanTweet]) -> list[CleanTweet]:
    """Collapse tweets with identical token strings, keeping the first."""
    seen: set[str] = set()
    kept = []
    for tw in tweets:
        key = tw.joined()
        if key not in seen:
            seen.add(key)
            kept.append(tw)
    return kept


# --- pipeline runner --------------------------------------------------------

# Ops that never change the word count and report no token delta.
_UNREPORTED_OPS = ("is_english", "tokenize")


def _compile(config: PipelineConfig) -> list[tuple[str, Callable]]:
    """The per-tweet ops of config, in order, as (op, step) pairs.

    A step maps (state, word count) to the pair after the op, or to None when
    the op drops the tweet. The state is the text up to `tokenize` and the
    token list after it; text ops after `tokenize` run on the joined tokens
    and are split again. The memos live in the steps, so they last one call.
    """
    lemmas = _Memo(_lemma)
    evidence = _Memo(_is_evidence)
    threshold, min_tokens = config.english_threshold, config.min_tokens

    def strip_step(text, count):
        if text.isascii():
            return text, count
        text = strip_non_ascii(text)
        return text, len(text.split())

    def english_step(text, count):
        return (text, count) if _english(text.split(), threshold, evidence) else None

    def lowercase_step(text, count):
        lowered = lowercase(text)
        # ASCII case mapping changes letters only, never a word boundary
        return lowered, count if text.isascii() else len(lowered.split())

    def tags_step(text, count):
        tagged = generalize_tags(text)
        return tagged, count if tagged == text else len(tagged.split())

    def punctuation_step(text, count):
        words = _punctuation_free_words(text)
        return " ".join(words), len(words)

    def tokenize_step(text, count):
        return tokenize(text), count

    def on_tokens(text_op):
        def step(tokens, count):
            words = text_op(" ".join(tokens)).split()
            return words, len(words)

        return step

    def stopwords_step(tokens, count):
        kept = remove_stopwords(tokens)
        return kept, len(kept)

    def short_step(tokens, count):
        kept = drop_if_short(tokens, min_tokens)
        return None if kept is None else (kept, count)

    def lemmatize_step(tokens, count):
        return list(map(lemmas.__getitem__, tokens)), count

    table = {
        "strip_non_ascii": strip_step,
        "is_english": english_step,
        "lowercase": lowercase_step,
        "generalize_tags": tags_step,
        "remove_punctuation": punctuation_step,
        "tokenize": tokenize_step,
    }
    token_table = {
        "lowercase": on_tokens(lowercase),
        "generalize_tags": on_tokens(generalize_tags),
        "remove_punctuation": on_tokens(remove_punctuation),
        "remove_stopwords": stopwords_step,
        "drop_if_short": short_step,
        "lemmatize": lemmatize_step,
    }
    steps = []
    for op in config.ops:
        if op == "dedupe":
            continue
        steps.append((op, table[op]))
        if op == "tokenize":
            table = token_table
    return steps


def run_pipeline(dataset: Dataset, config: PipelineConfig | None = None):
    """Clean every tweet through the configured op sequence.

    Returns (CleanCorpus, PreprocessReport). The report accounts for every
    removed tweet: len(dataset) == len(corpus) + report.total_removed.
    """
    config = config or PipelineConfig()
    steps = _compile(config)

    filter_stages = ("is_english", "drop_if_short", "dedupe")
    removed: dict[str, int] = {op: 0 for op in config.ops if op in filter_stages}
    totals = [0] * len(steps)
    survivors: list[CleanTweet] = []

    for tweet in dataset:
        state = tweet.text
        count = len(state.split())
        for i, (op, step) in enumerate(steps):
            result = step(state, count)
            if result is None:
                removed[op] += 1
                break
            state, after = result
            totals[i] += after - count
            count = after
        else:
            # tokenize is a required op, so the state is a token list here
            if count:
                survivors.append(CleanTweet(tweet.id, tuple(state), tweet.label))
            else:
                removed["empty"] = removed.get("empty", 0) + 1

    # An op reports a delta once some tweet has come through it.
    deltas: dict[str, int] = {}
    reached = len(dataset)
    for (op, _), total in zip(steps, totals):
        reached -= removed.get(op, 0)
        if reached and op not in _UNREPORTED_OPS:
            deltas[op] = total

    if "dedupe" in config.ops:
        before_dedupe = len(survivors)
        survivors = dedupe(survivors)
        removed["dedupe"] = before_dedupe - len(survivors)

    corpus = CleanCorpus(tuple(survivors), config.digest)
    report = PreprocessReport(
        input_count=len(dataset),
        output_count=len(corpus),
        removed_by_stage=removed,
        token_deltas=deltas,
    )
    return corpus, report


# --- persistence ------------------------------------------------------------

_CLEAN_MAGIC = "CLEAN v1"


def save_clean(corpus: CleanCorpus, path) -> None:
    lines = [f"{_CLEAN_MAGIC} {corpus.config_digest} {len(corpus)}"]
    for tw in corpus:
        record: dict = {"id": tw.id, "tokens": list(tw.tokens)}
        if tw.label is not None:
            record["label"] = tw.label
        lines.append(json.dumps(record, ensure_ascii=False))
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def load_clean(path, config: PipelineConfig | None = None) -> CleanCorpus:
    """Load a cleaned corpus; if a config is given, reject files produced
    under a different pipeline digest."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        fields = header.split(" ")
        if len(fields) != 4 or " ".join(fields[:2]) != _CLEAN_MAGIC:
            raise FormatError(f"{path.name}: bad clean-corpus header")
        digest, count_text = fields[2], fields[3]
        try:
            count = int(count_text)
        except ValueError:
            raise FormatError(f"{path.name}: bad tweet count in header") from None
        if config is not None and digest != config.digest:
            raise StaleCacheError(
                f"{path.name}: clean corpus was built under pipeline digest {digest}, "
                f"expected {config.digest}"
            )
        tweets = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path.name}: line {lineno}: {exc.msg}")
            tweets.append(
                CleanTweet(record["id"], tuple(record["tokens"]), record.get("label"))
            )
    if len(tweets) != count:
        raise FormatError(f"{path.name}: header promises {count} tweets, found {len(tweets)}")
    return CleanCorpus(tuple(tweets), digest)
