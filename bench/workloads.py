"""Workload definitions: seeded input generation and the CLI calls each
workload makes.

Everything here runs in the benchmark's parent process, before the measured
process starts, so the measured process holds only the program's own data.
The program is given only the generated files; the gold labels stay in a
file the benchmark alone reads.
"""

import json
import random
from pathlib import Path

from rweets.corpus import BINARY, CATEGORICAL, Dataset, RawTweet, save_dataset, synth_corpus
from rweets.preprocess import run_pipeline

WORKLOADS = ("cv", "series-cold", "series-warm", "rules-long")

CV_TWEETS = 600          # per cross-validated corpus
UNSEEN_TWEETS = 20_000   # series and rules-long inputs
LONG_TEXTS = 200         # backtracking texts added to rules-long
LONG_MIN, LONG_MAX = 140, 1000
CATEGORIES = CATEGORICAL.labels

# Long texts repeat a subject (I/we) and a verb phrase that the rule patterns
# chain with `.*`, and never end the chain, so every pattern that starts
# matching backtracks over the rest of the text. Fillers avoid every word
# the patterns end on, any word starting with "u"/"you"/"can"/"could"/
# "should", the word "to", and "?" (bench/confirm_long.py checks this with `re`).
_TRIGGERS = ("I am", "we are", "I will be", "we will be", "I are", "we am")
_FILLERS = (
    "the", "storm", "river", "night", "roads", "power", "again", "today",
    "after", "north", "water", "bridge", "winds", "quiet", "houses", "street",
    "morning", "market", "school", "trees", "local", "team", "photos", "rain",
)
_TRIGGER_EVERY = 25  # characters between triggers, so cost grows ~ length^3 / 25^2


def _seed(seed: int, k: int) -> int:
    """Distinct synth seeds per role, for any run seed."""
    return seed * 16 + k


def long_texts(seed: int) -> list[str]:
    """LONG_TEXTS non-matching texts with lengths spread evenly over
    [LONG_MIN, LONG_MAX]. Lengths do not depend on the seed, only the words
    do, so their rule-engine cost is the same for every seed."""
    rng = random.Random(_seed(seed, 9))
    texts = []
    for j in range(LONG_TEXTS):
        length = LONG_MIN + round(j * (LONG_MAX - LONG_MIN) / (LONG_TEXTS - 1))
        words, size, since = [], 0, _TRIGGER_EVERY
        while size < length:
            word = rng.choice(_TRIGGERS) if since >= _TRIGGER_EVERY else rng.choice(_FILLERS)
            since = 0 if word in _TRIGGERS else since + len(word) + 1
            words.append(word)
            size += len(word) + 1
        texts.append(" ".join(words)[:length].rstrip())
    return texts


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _cv_corpora(seed: int) -> tuple[Dataset, Dataset]:
    """Identification corpus: half binary synth, half categorical synth
    relabelled rweet, shuffled. Categorization corpus: categorical synth."""
    half = CV_TWEETS // 2
    binary = synth_corpus(_seed(seed, 1), half, BINARY)
    requests = synth_corpus(_seed(seed, 2), half, CATEGORICAL)
    mixed = list(binary) + [RawTweet(tw.id, tw.text, "rweet") for tw in requests]
    random.Random(_seed(seed, 0)).shuffle(mixed)
    return Dataset(BINARY, tuple(mixed)), synth_corpus(_seed(seed, 3), CV_TWEETS, CATEGORICAL)


def _series_input(seed: int) -> tuple[list[dict], dict]:
    """Unseen tweets, half binary synth and half categorical synth, shuffled;
    gold holds (stage-1 label, category or None) per id."""
    half = UNSEEN_TWEETS // 2
    tweets = [(tw, tw.label, None) for tw in synth_corpus(_seed(seed, 4), half, BINARY)]
    tweets += [(tw, "rweet", tw.label) for tw in synth_corpus(_seed(seed, 5), half, CATEGORICAL)]
    random.Random(_seed(seed, 6)).shuffle(tweets)
    records = [{"id": tw.id, "text": tw.text} for tw, _, _ in tweets]
    return records, {tw.id: [stage1, category] for tw, stage1, category in tweets}


def _rules_input(seed: int) -> tuple[list[dict], dict]:
    """Binary synth tweets plus the long backtracking texts (gold not_rweet),
    shuffled; gold holds (label, long-text flag) per id."""
    items = [(tw.id, tw.text, tw.label, False)
             for tw in synth_corpus(_seed(seed, 7), UNSEEN_TWEETS, BINARY)]
    items += [(f"long{seed}-{j:03d}", text, "not_rweet", True)
              for j, text in enumerate(long_texts(seed))]
    random.Random(_seed(seed, 8)).shuffle(items)
    records = [{"id": i, "text": text} for i, text, _, _ in items]
    return records, {i: [label, is_long] for i, _, label, is_long in items}


def build(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Write the inputs of one workload under `work` and return (plan, gold).

    The plan lists the CLI calls: `setup` is repeated `setup_reps` times,
    `warmup` runs once untimed, and `round` is the closed-loop unit the
    measured region repeats. Paths are relative to `work`.
    """
    for sub in ("in", "out", "cache", "model"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    plan = {"setup": [], "setup_reps": 0, "warmup": [], "round": [],
            "fresh_dirs": [], "watch": ["out", "cache"]}
    gold: dict = {}
    if workload == "cv" or workload.startswith("series"):
        ident, categ = _cv_corpora(seed)
        save_dataset(ident, work / "in/ident.jsonl")
        save_dataset(categ, work / "in/categ.jsonl")
    if workload == "cv":
        evaluate = ["--seed", str(seed), "evaluate", "--combo", "10", "--folds", "5"]
        plan["round"] = [
            evaluate + ["--input", "in/ident.jsonl", "--out", "out/ident.report.json"],
            evaluate + ["--domain", "categorical", "--input", "in/categ.jsonl",
                        "--out", "out/categ.report.json"],
        ]
        plan["warmup"] = [plan["round"][0]]
        plan["tweets_per_round"] = 2 * CV_TWEETS
        # the supports of a CV report sum to the cleaned row count
        gold["cleaned_rows"] = {
            "out/ident.report.json": len(run_pipeline(ident)[0]),
            "out/categ.report.json": len(run_pipeline(categ)[0]),
        }
    elif workload.startswith("series"):
        records, gold["labels"] = _series_input(seed)
        _write_jsonl(work / "in/unseen.jsonl", records)
        plan["setup"] = [["train", "--binary", "in/ident.jsonl", "--categories",
                          "in/categ.jsonl", "--combo", "10", "--out", "model"]]
        plan["setup_reps"] = 3
        series = ["--cache-dir", "cache", "--verbose", "series", "--model", "model",
                  "--input", "in/unseen.jsonl"]
        if workload == "series-cold":
            plan["round"] = [series + ["--output", "out/series.jsonl"]]
            plan["fresh_dirs"] = ["cache"]
        else:
            plan["warmup"] = [series + ["--output", "out/fill.jsonl"]]
            plan["round"] = [series + ["--output", "out/series.jsonl"]]
        plan["tweets_per_round"] = UNSEEN_TWEETS
    elif workload == "rules-long":
        records, gold["labels"] = _rules_input(seed)
        _write_jsonl(work / "in/rules.jsonl", records)
        plan["round"] = [["rules", "classify", "--input", "in/rules.jsonl",
                          "--output", "out/rules.jsonl"]]
        plan["warmup"] = [plan["round"][0]]
        plan["tweets_per_round"] = len(records)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan, gold
