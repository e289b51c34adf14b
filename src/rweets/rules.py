r"""Rule-based rweet detection: 18 expert-curated sequential patterns.

Rules evaluate the ORIGINAL tweet text, not cleaned tokens; several patterns
depend on case variants, apostrophes, and question marks that cleaning
destroys. Matching is case-insensitive. Token order inside a pattern is
significant: "where can I donate" fires pattern 8, "donate can I where" does
not.

`PATTERN_SOURCES` is the single definition of the rules. A pattern's bit is
exactly `re.search(source, text, re.IGNORECASE) is not None`. As one regex,
a chained pattern `A.*B.*C` backtracks super-linearly, so the chains are
split on `.*` into stages and compiled once into a tree, in which patterns
that begin with the same stages share those nodes. A text is matched by one
walk of the tree per line (`.` does not match "\n"). A node is searched from
where its parent's match ended; one that finds nothing skips its subtree.
Every stage is an alternation of literal phrases with `\b` on one or both
sides, none inside another of its stage except as its suffix, so a stage's
leftmost match is its earliest-ending one, and committing to it loses no
match of the chain. Pattern 13 (`\b\w*\s*\b\?`) has no `.*` and stays one
search of the whole text: the time is linear in the text length, and no
text is truncated. Each stage compiles without IGNORECASE to an equivalent
regex that starts with one character class, which `re` scans for instead of
trying every offset (`_scannable`); pattern 13 becomes `\?(?<=\w\?)`.
`rule_features` walks each of its texts once; `rules classify` walks each
distinct text of its input once.
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .corpus import NOT_RWEET, RWEET, Dataset
from .errors import ValidationError

PATTERN_SOURCES = (
    r"\b(I|we)\b.*\b(am|are|will be)\b.*\b(bringing|giving|helping|raising|donating|auctioning)\b",
    r"\b(I\'m)\b.*\b(bringing|giving|helping|raising|donating|auctioning)\b",
    r"\b(we\'re)\b.*\b(bringing|giving|helping|raising|donating|auctioning)\b",
    r"\b(I|we)\b.*\b(will|would like to)\b.*\b(bring|give|help|raise|donate|auction)\b",
    r"\b(I|we)\b.*\b(will|would like to)\b.*\b(work|volunteer|assist)\b",
    r"\b(we\'ll)\b.*\b(bring|give|help|raise|donate|auction)\b",
    r"\b(I|we)\b.*\b(ready|prepared)\b.*\b(bring|give|help|raise|donate|auction)\b",
    r"\b(where)\b.*\b(can I|can we)\b.*\b(bring|give|help|raise|donate)\b",
    r"\b(where)\b.*\b(can I|can we)\b.*\b(work|volunteer|assist)\b",
    r"\b(I|we)\b.*\b(like|want)\b.*\bto\b.*\b(bring|give|help|raise|donate)\b",
    r"\b(I|we)\b.*\b(like|want)\b.*\bto\b.*\b(work|volunteer|assist)\b",
    r"\b(will be)\b.*\b(brought|given|raised|donated|auctioned)\b",
    r"\b\w*\s*\b\?",
    r"\b(you|u).*(can|could|should|want to)\b",
    r"\b(can|could|should).*(you|u)\b",
    r"\b(like|want)\b.*\bto\b.*\b(bring|give|help|raise|donate)\b",
    r"\b(how)\b.*\b(can I|can we)\b.*\b(bring|give|help|raise|donate)\b",
    r"\b(how)\b.*\b(can I|can we)\b.*\b(work|volunteer|assist)\b",
)

N_PATTERNS = len(PATTERN_SOURCES)


@dataclass(frozen=True)
class RulePattern:
    id: int  # 1-based
    source: str
    forests: tuple = field(repr=False, compare=False)  # the stage tree of this pattern alone

    def matches(self, text: str) -> bool:
        return _walk(text, *self.forests)[self.id - 1]


# what re.IGNORECASE matches to an ASCII letter besides its two cases: İ, ı, K (Kelvin), ſ
_FOLDS = {"i": "\u0130\u0131", "k": "\u212a", "s": "\u017f"}
_STAGE = re.compile(r"(\\b)?(\()?([A-Za-z][A-Za-z' ]*(?:\|[A-Za-z][A-Za-z' ]*)*)(?(2)\))(\\b)?")


def _fold(c: str) -> str:
    """The characters that `c` matches under re.IGNORECASE."""
    return c.lower() + c.upper() + _FOLDS.get(c.lower(), "")


def _scannable(stage: str) -> str:
    """`stage` without IGNORECASE, beginning with one character class: each
    character becomes the class it matches, and a leading `\\b` moves behind
    the first character, where it reads "no word character before it"."""
    if stage == r"\b\w*\s*\b\?":  # pattern 13: a word character right before a "?"
        return r"\?(?<=\w\?)"
    shape = _STAGE.fullmatch(stage.replace("\\'", "'"))
    if shape is None:
        raise ValueError(f"{stage!r} is not an alternation of literal phrases")
    phrases = shape[3].split("|")
    firsts = "".join(dict.fromkeys(_fold(p[0]) for p in phrases))
    rests = "|".join(f"(?<=[{_fold(p[0])}])" + "".join(f"[{_fold(c)}]" for c in p[1:])
                     for p in phrases)
    return f"[{firsts}]" + (r"(?<!\w.)" if shape[1] else "") + f"(?:{rests})" + (shape[4] or "")


def _forests(indices) -> tuple[list, list]:
    """The stage tree of the patterns at `indices`: per-line chains and whole-text
    patterns (no ".*"). A node is (search, indices of patterns ending there, children)."""
    nodes, roots, whole = {}, [], []
    for i in indices:
        parts = PATTERN_SOURCES[i].split(".*")
        siblings = roots if len(parts) > 1 else whole
        for k in range(len(parts)):
            key = (len(parts) == 1, *parts[: k + 1])  # the forest, then the chain
            if key not in nodes:
                try:
                    nodes[key] = (re.compile(_scannable(parts[k])).search, [], [])
                except (re.error, ValueError) as exc:
                    raise ValidationError(f"rule pattern {i + 1} failed to compile: {exc}") from exc
                siblings.append(nodes[key])
            siblings = nodes[key][2]
        nodes[key][1].append(i)
    return roots, whole


@lru_cache(maxsize=1)
def compile_patterns() -> tuple[RulePattern, ...]:
    """Compile all 18 patterns once; a failure names the offending id."""
    return tuple(RulePattern(i + 1, s, _forests([i])) for i, s in enumerate(PATTERN_SOURCES))


_TREE = _forests(range(N_PATTERNS))  # all 18, compiled once


def _walk_line(nodes, line: str, start: int, bits: list) -> None:
    for search, ends, children in nodes:
        m = search(line, start)
        if m is not None:
            for i in ends:
                bits[i] = True
            if children:
                _walk_line(children, line, m.end(), bits)


def _walk(text: str, roots: list, whole: list) -> tuple[bool, ...]:
    bits = [False] * N_PATTERNS
    for line in text.split("\n"):
        _walk_line(roots, line, 0, bits)
    _walk_line(whole, text, 0, bits)
    return tuple(bits)


def match_tweet(text: str) -> tuple[bool, ...]:
    """18 match bits for one tweet, indexed by pattern id minus one."""
    return _walk(text, *_TREE)


def rule_classify(text: str) -> str:
    """A tweet satisfying at least one pattern is a rweet."""
    return RWEET if any(p.matches(text) for p in compile_patterns()) else NOT_RWEET


def rule_features(dataset_or_texts) -> np.ndarray:
    """Binary matrix of shape (n_tweets, 18); row i holds match_tweet of
    tweet i. Accepts a Dataset or any iterable of texts."""
    data = dataset_or_texts
    texts = [tw.text for tw in data] if isinstance(data, Dataset) else list(data)
    out = np.zeros((len(texts), N_PATTERNS), dtype=np.float64)
    for i, text in enumerate(texts):
        out[i, :] = match_tweet(text)
    return out


def rule_block_for_ids(ids, texts_by_id) -> np.ndarray:
    """Rule features for specific tweet ids looked up in an id->text map."""
    missing = [i for i in ids if i not in texts_by_id]
    if missing:
        raise ValidationError(f"no original text for tweet ids {missing[:5]!r}")
    return rule_features([texts_by_id[i] for i in ids])
