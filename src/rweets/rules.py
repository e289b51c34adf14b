r"""Rule-based rweet detection: 18 expert-curated sequential patterns.

Rules evaluate the ORIGINAL tweet text, not cleaned tokens; several patterns
depend on case variants, apostrophes, and question marks that cleaning
destroys. Matching is case-insensitive. Token order inside a pattern is
significant: "where can I donate" fires pattern 8, "donate can I where" does
not.

`PATTERN_SOURCES` is the single definition of the rules. A pattern's bit is
exactly `re.search(source, text, re.IGNORECASE) is not None`, but a chained
pattern `A.*B.*C` is not run as one backtracking regex, whose `.*` chains
take super-linear time on long texts. It is split on `.*` into stages, each
compiled once, and matched as staged searches:

- one line at a time: `.` does not match "\n", so a chain matches within one
  line; the text is split on "\n" only ("\r" and other line breaks are
  ordinary characters to `.`);
- on a line, each stage is searched from where the previous stage's match
  ended. Every stage is an alternation of literal phrases with `\b` on one
  or both sides, and no phrase occurs inside another of its stage except
  as its suffix, so a stage's leftmost match is also its earliest-ending
  one, and committing to it loses no match of the whole chain.

Pattern 13 (`\b\w*\s*\b\?`) has no `.*` and stays one search over the whole
text; each of its attempts starts at a word boundary and scans at most one
word and the blanks after it. Each stage of a chain scans a line once, and
patterns that begin with the same stages share those searches within one
text. So the time is linear in the text length, and texts of any length
are accepted and never truncated.
"""

import re
from dataclasses import dataclass
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
    # the source split on ".*", each stage compiled, with the id of the chain
    # of stages ending there (equal for patterns that begin with that chain)
    stages: tuple[tuple[int, re.Pattern], ...]

    def matches(self, text: str) -> bool:
        if len(self.stages) == 1:  # no ".*": search the whole text
            return self.stages[0][1].search(text) is not None
        for line, ends in _line_scan(text):
            end = 0
            for chain, stage in self.stages:
                found = ends.get(chain)
                if found is None:
                    m = stage.search(line, end)
                    found = ends[chain] = m.end() if m else -1
                if found < 0:
                    break
                end = found
            else:
                return True
        return False


@lru_cache(maxsize=1)
def _line_scan(text: str) -> list[tuple[str, dict[int, int]]]:
    """Each line of the text with the earliest end on it of every chain of
    stages searched so far (-1: no match). Cached for the last text, so the
    18 `matches` calls on one text share their searches."""
    return [(line, {}) for line in text.split("\n")]


@lru_cache(maxsize=1)
def compile_patterns() -> tuple[RulePattern, ...]:
    """Compile all 18 patterns once; a failure names the offending id."""
    chains: dict[tuple[str, ...], int] = {}
    patterns = []
    for i, source in enumerate(PATTERN_SOURCES, start=1):
        parts = source.split(".*")
        keys = [chains.setdefault(tuple(parts[: k + 1]), len(chains)) for k in range(len(parts))]
        try:
            stages = tuple(zip(keys, (re.compile(part, re.IGNORECASE) for part in parts)))
        except re.error as exc:
            raise ValidationError(f"rule pattern {i} failed to compile: {exc}") from exc
        patterns.append(RulePattern(i, source, stages))
    return tuple(patterns)


def match_tweet(text: str) -> tuple[bool, ...]:
    """18 match bits for one tweet, indexed by pattern id minus one."""
    return tuple(p.matches(text) for p in compile_patterns())


def rule_classify(text: str) -> str:
    """A tweet satisfying at least one pattern is a rweet."""
    return RWEET if any(p.matches(text) for p in compile_patterns()) else NOT_RWEET


def rule_features(dataset_or_texts) -> np.ndarray:
    """Binary matrix of shape (n_tweets, 18); row i holds match_tweet of
    tweet i. Accepts a Dataset or any iterable of texts."""
    if isinstance(dataset_or_texts, Dataset):
        texts = [tw.text for tw in dataset_or_texts]
    else:
        texts = list(dataset_or_texts)
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
