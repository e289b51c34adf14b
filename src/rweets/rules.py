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
that begin with the same stages share those nodes. A chain matches within
one line (`.` does not match "\n"). Every stage is an alternation of literal
phrases with `\b` on one or both sides, none inside another of its stage
except as its suffix: no two match at one position, and committing to a
stage's leftmost match loses no match of the chain. Pattern 13 matches
exactly where a word character stands right before a "?": `\?(?<=\w\?)`.

Texts are matched in batches, folded once (`_folded`): a folded character
keeps its length and `\w`-ness, and is an ASCII letter, "'", space, "?" or
"\n" exactly when IGNORECASE matches it to that character. So each phrase
compiles lowercase, a leading `\b` moved behind it as `(?<!\w.{n})`, and
`re` scans for its literal characters. Each phrase of a root stage is found
by one scan of the batch's joined lines, keeping each line's leftmost match;
each child stage is searched only on the lines its parent matched, from the
parent's end to the line's end. Every step is linear in the text length.
`rules classify` matches the distinct texts of each chunk it reads as one batch
(`rule_bits`). numpy is imported only where a float matrix is built.
"""

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

from .corpus import NOT_RWEET, RWEET
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
    forests: list = field(repr=False, compare=False)  # the stage tree of this pattern alone

    def matches(self, text: str) -> bool:
        return self.id - 1 in _match([text], self.forests)


_STAGE = re.compile(r"(\\b)?(\()?([A-Za-z][A-Za-z' ]*(?:\|[A-Za-z][A-Za-z' ]*)*)(?(2)\))(\\b)?")
_BATCH = 1024  # texts per batch of rule_features


def _scannable(stage: str) -> list[tuple[str, str]]:
    """Each phrase of `stage` over folded text, with its regex: lowercase,
    beginning with the phrase, and a leading `\\b` moved behind the phrase,
    where it reads "no word character before it"."""
    if stage == r"\b\w*\s*\b\?":  # pattern 13: a word character right before a "?"
        return [("?", r"\?(?<=\w\?)")]
    shape = _STAGE.fullmatch(stage.replace("\\'", "'"))
    if shape is None:
        raise ValueError(f"{stage!r} is not an alternation of literal phrases")
    return [(p, p + (rf"(?<!\w.{{{len(p)}}})" if shape[1] else "") + (shape[4] or ""))
            for p in shape[3].lower().split("|")]


def _forests(indices) -> list:
    """The stage tree of the patterns at `indices`: (finder, indices of the
    patterns ending there, children) per node; a root's finder is one
    finditer per phrase, a child's one search for any phrase."""
    nodes, roots = {}, []
    for i in indices:
        parts = PATTERN_SOURCES[i].split(".*")
        siblings = roots
        for k in range(len(parts)):
            key = tuple(parts[: k + 1])
            if key not in nodes:
                try:
                    phrases = _scannable(parts[k])
                    nodes[key] = ([(p, re.compile(r).finditer) for p, r in phrases] if k == 0
                                  else re.compile("|".join(r for _, r in phrases)).search, [], [])
                except (re.error, ValueError) as exc:
                    raise ValidationError(f"rule pattern {i + 1} failed to compile: {exc}") from exc
                siblings.append(nodes[key])
            siblings = nodes[key][2]
        nodes[key][1].append(i)
    return roots


@lru_cache(maxsize=1)
def compile_patterns() -> tuple[RulePattern, ...]:
    """Compile all 18 patterns once; a failure names the offending id."""
    return tuple(RulePattern(i + 1, s, _forests([i])) for i, s in enumerate(PATTERN_SOURCES))


_ROOTS = _forests(range(N_PATTERNS))  # all 18, compiled once


def _reached(node, folded: str, end: int, stop: int, row: int, hits: dict) -> None:
    """Record the patterns ending at `node`; search its children from `end` to `stop`."""
    for i in node[1]:
        hits.setdefault(i, []).append(row)
    for child in node[2]:
        if m := child[0](folded, end, stop):
            _reached(child, folded, m.end(), stop, row, hits)


def _folded(texts: list) -> str:
    """`texts` joined by "\\n", every line ending in one: İ, ı and ſ become i,
    i and s, then `str.lower()` runs (which maps the Kelvin sign to k)."""
    return "\n".join([*texts, ""]).replace("İ", "i").replace("ı", "i").replace("ſ", "s").lower()


def _match(texts: list, roots: list) -> dict[int, list[int]]:
    """Pattern index -> the positions in `texts` of its texts, one entry per matching line."""
    folded, hits = _folded(texts), {}
    starts = list(accumulate([len(text) + 1 for text in texts], initial=0))
    for root in roots:
        found = [m.span() for p, finditer in root[0] if p in folded for m in finditer(folded)]
        found.sort()
        stop = -1  # where the line of the last match kept ends
        for start, end in found:
            if start > stop:  # the leftmost match of its line
                stop = folded.find("\n", end)
                _reached(root, folded, end, stop, bisect_right(starts, start) - 1, hits)
    return hits


def match_tweet(text: str) -> tuple[bool, ...]:
    """18 match bits for one tweet, indexed by pattern id minus one."""
    hits = _match([text], _ROOTS)
    return tuple(i in hits for i in range(N_PATTERNS))


def rule_classify(text: str) -> str:
    """A tweet satisfying at least one pattern is a rweet."""
    return RWEET if any(p.matches(text) for p in compile_patterns()) else NOT_RWEET


def rule_bits(texts: list) -> list[tuple[int, ...]]:
    """Each text's 18 match bits, 0 or 1, with `texts` matched as one batch."""
    rows = [[0] * N_PATTERNS for _ in texts]
    for i, at in _match(texts, _ROOTS).items():
        for row in at:
            rows[row][i] = 1
    return [tuple(row) for row in rows]


def rule_features(texts) -> "numpy.ndarray":
    """Binary matrix of shape (n_texts, 18) over an iterable of texts; row i
    holds match_tweet of text i."""
    import numpy as np
    texts = list(texts)
    out = np.zeros((len(texts), N_PATTERNS), dtype=np.float64)
    for lo in range(0, len(texts), _BATCH):
        for i, rows in _match(texts[lo:lo + _BATCH], _ROOTS).items():
            out[lo:lo + _BATCH][rows, i] = 1.0  # through a view of the batch's rows
    return out


def rule_block_for_ids(ids, texts_by_id) -> "numpy.ndarray":
    """Rule features for specific tweet ids looked up in an id->text map."""
    missing = [i for i in ids if i not in texts_by_id]
    if missing:
        raise ValidationError(f"no original text for tweet ids {missing[:5]!r}")
    return rule_features([texts_by_id[i] for i in ids])
