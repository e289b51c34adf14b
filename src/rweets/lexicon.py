"""Vendored English lexicon: stopwords, lemma exceptions, and a base-form
word list.

The stopword list deliberately omits personal pronouns (I, we, he, us, ...):
pronouns are strong request signals in tweets, and keeping them preserves the
cleaning behavior documented in the preprocessing worked examples. The word
list holds base forms used to validate suffix stripping in the lemmatizer.
All three files together form the English-evidence lexicon for the language
filter.
"""

from functools import lru_cache
from importlib import resources

from .digest import combine_digests, digest_bytes

PLACEHOLDERS = ("_NUM_", "_RT_", "_MENT_", "_URL_")


def _read_data(name: str) -> bytes:
    return resources.files("rweets.data").joinpath(name).read_bytes()


@lru_cache(maxsize=None)
def stopwords() -> frozenset[str]:
    lines = _read_data("stopwords.txt").decode("utf-8").splitlines()
    return frozenset(w.strip() for w in lines if w.strip())


@lru_cache(maxsize=None)
def lemma_exceptions() -> dict[str, str]:
    table = {}
    for line in _read_data("lemma_exceptions.tsv").decode("utf-8").splitlines():
        if not line.strip():
            continue
        word, lemma = line.split("\t")
        table[word] = lemma
    return table


@lru_cache(maxsize=None)
def base_words() -> frozenset[str]:
    lines = _read_data("wordlist.txt").decode("utf-8").splitlines()
    return frozenset(w.strip() for w in lines if w.strip())


@lru_cache(maxsize=None)
def english_evidence() -> frozenset[str]:
    """Words accepted as evidence that a tweet is English.

    Cleaned tweets are stopword-free, so the evidence set must be wider than
    the stopword list or re-cleaning already-clean text would reject every
    tweet at the language filter.
    """
    exceptions = lemma_exceptions()
    return frozenset(
        set(stopwords())
        | set(base_words())
        | set(exceptions)
        | set(exceptions.values())
        | set(PLACEHOLDERS)
    )


@lru_cache(maxsize=None)
def lexicon_digest() -> str:
    return combine_digests(
        digest_bytes(_read_data("stopwords.txt")),
        digest_bytes(_read_data("lemma_exceptions.tsv")),
        digest_bytes(_read_data("wordlist.txt")),
    )
