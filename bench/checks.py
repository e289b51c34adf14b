"""Output checks and quality figures, computed apart from the program.

Each check rests on a property the output must have or on an independent
computation (`re` for the rule bits, the gold labels for quality); none
compares against a stored copy of earlier output. A check returns the list
of problems found and the quality figures; run.py counts every call whose
output was not shown correct as failed.
"""

import json
import re
from pathlib import Path

from workloads import CATEGORIES

# Floors for the cross-validated F1 figures (see README.md, "Output checks").
CV_IDENTIFY_F1_FLOOR = 0.80
CV_CATEGORIZE_F1_FLOOR = 0.90
TOL = 1e-9

_SUMMARY = re.compile(r"^(\d+) tweets classified; (\d+) rweets categorized$", re.M)
_CACHE = re.compile(r"^cache: (\d+) hits, (\d+) misses, (\d+) built$", re.M)


def class_f1(pairs, label) -> float:
    tp = sum(1 for t, p in pairs if t == label and p == label)
    fp = sum(1 for t, p in pairs if t != label and p == label)
    fn = sum(1 for t, p in pairs if t == label and p != label)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def macro_f1(pairs, labels) -> float:
    """The program's documented macro form: the harmonic mean of the
    macro-averaged precision and recall, 0/0 read as 0. A prediction of
    None (no label given) is a miss for the true class."""
    precisions, recalls = [], []
    for label in labels:
        tp = sum(1 for t, p in pairs if t == label and p == label)
        predicted = sum(1 for _, p in pairs if p == label)
        actual = sum(1 for t, _ in pairs if t == label)
        precisions.append(tp / predicted if predicted else 0.0)
        recalls.append(tp / actual if actual else 0.0)
    p, r = sum(precisions) / len(labels), sum(recalls) / len(labels)
    return 2 * p * r / (p + r) if p + r else 0.0


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_cv(work: Path, gold: dict) -> tuple[list, dict]:
    problems, quality = [], {}
    for path, labels in (("out/ident.report.json", ("not_rweet", "rweet")),
                         ("out/categ.report.json", CATEGORIES)):
        report = json.loads((work / path).read_text(encoding="utf-8"))
        per_class = report["per_class"]
        if tuple(pc["label"] for pc in per_class) != tuple(labels):
            problems.append(f"{path}: per-class labels {[pc['label'] for pc in per_class]}")
        for key in ("p_micro", "r_micro", "f1_micro"):
            if abs(report[key] - report["accuracy"]) > TOL:
                problems.append(f"{path}: {key} {report[key]} != accuracy {report['accuracy']}")
        for key, field in (("p_macro", "precision"), ("r_macro", "recall")):
            mean = sum(pc[field] for pc in per_class) / len(per_class)
            if abs(report[key] - mean) > TOL:
                problems.append(f"{path}: {key} {report[key]} != mean per-class {field} {mean}")
        p, r = report["p_macro"], report["r_macro"]
        harmonic = 2 * p * r / (p + r) if p + r else 0.0
        if abs(report["f1_macro"] - harmonic) > TOL:
            problems.append(f"{path}: f1_macro {report['f1_macro']} != harmonic mean {harmonic}")
        supports = sum(pc["support"] for pc in per_class)
        if supports != gold["cleaned_rows"][path]:
            problems.append(f"{path}: supports sum to {supports}, "
                            f"cleaned rows {gold['cleaned_rows'][path]}")
        if labels == CATEGORIES:
            quality["macro_f1"] = report["f1_macro"]
        else:
            quality["identify_f1"] = per_class[1]["f1"]
    if quality.get("identify_f1", 0.0) < CV_IDENTIFY_F1_FLOOR:
        problems.append(f"identify F1 {quality.get('identify_f1')} below floor {CV_IDENTIFY_F1_FLOOR}")
    if quality.get("macro_f1", 0.0) < CV_CATEGORIZE_F1_FLOOR:
        problems.append(f"categorize F1 {quality.get('macro_f1')} below floor {CV_CATEGORIZE_F1_FLOOR}")
    return problems, quality


def check_series_output(work: Path, path: str, gold_labels: dict) -> tuple[list, dict, tuple]:
    """Problems, quality figures, and the (rows, rweets) counts the call's
    summary line must print."""
    inputs = {r["id"]: r["text"] for r in _read_jsonl(work / "in/unseen.jsonl")}
    problems, seen = [], set()
    stage1_pairs, stage2_pairs = [], []
    for n, record in enumerate(_read_jsonl(work / path), start=1):
        where = f"{path}: line {n}"
        if not set(record) <= {"id", "text", "stage1", "stage2"}:
            problems.append(f"{where}: unexpected keys {sorted(record)}")
        tweet_id = record.get("id")
        if tweet_id in seen or tweet_id not in inputs:
            problems.append(f"{where}: id {tweet_id!r} repeated or not in the input")
            continue
        seen.add(tweet_id)
        if record.get("text") != inputs[tweet_id]:
            problems.append(f"{where}: text differs from the input text")
        stage1, stage2 = record.get("stage1"), record.get("stage2")
        if stage1 not in ("rweet", "not_rweet"):
            problems.append(f"{where}: stage1 {stage1!r}")
        if ("stage2" in record) != (stage1 == "rweet"):
            problems.append(f"{where}: stage2 present={'stage2' in record} with stage1 {stage1!r}")
        elif stage2 is not None and stage2 not in CATEGORIES:
            problems.append(f"{where}: stage2 {stage2!r} is not a category")
        gold_stage1, gold_category = gold_labels[tweet_id]
        stage1_pairs.append((gold_stage1, stage1))
        if gold_category is not None:
            stage2_pairs.append((gold_category, stage2))
    if not seen:
        problems.append(f"{path}: empty output")
    quality = {"identify_f1": class_f1(stage1_pairs, "rweet"),
               "macro_f1": macro_f1(stage2_pairs, CATEGORIES)}
    rweets = sum(1 for _, predicted in stage1_pairs if predicted == "rweet")
    return problems, quality, (len(stage1_pairs), rweets)


def check_series_stdout(stdout: str, warm: bool, counts: tuple) -> list:
    problems = []
    summary, cache = _SUMMARY.search(stdout), _CACHE.search(stdout)
    if summary is None or (int(summary[1]), int(summary[2])) != counts:
        problems.append(f"summary line disagrees with the output (rows, rweets) {counts}")
    expected = (2, 0, 0) if warm else (0, 2, 2)
    if cache is None or tuple(int(x) for x in cache.groups()) != expected:
        problems.append(f"cache counters {cache and cache.group(0)!r}, expected "
                        "{} hits, {} misses, {} built".format(*expected))
    return problems


def check_rules(work: Path, gold_labels: dict) -> tuple[list, dict]:
    from rweets.rules import PATTERN_SOURCES

    oracle = [re.compile(source, re.IGNORECASE) for source in PATTERN_SOURCES]
    inputs = _read_jsonl(work / "in/rules.jsonl")
    outputs = _read_jsonl(work / "out/rules.jsonl")
    problems, pairs = [], []
    if len(inputs) != len(outputs):
        problems.append(f"{len(outputs)} output records for {len(inputs)} inputs")
    for n, (source, record) in enumerate(zip(inputs, outputs), start=1):
        where = f"out/rules.jsonl: line {n}"
        if set(record) != {"id", "text", "rule_label", "rule_bits"}:
            problems.append(f"{where}: keys {sorted(record)}")
            continue
        if record["id"] != source["id"] or record["text"] != source["text"]:
            problems.append(f"{where}: id or text differs from input line {n}")
            continue
        label, is_long = gold_labels[record["id"]]
        if is_long:
            # non-matching by construction; bench/confirm_long.py shows it with `re`
            expected = [0] * len(oracle)
        else:
            expected = [int(p.search(record["text"]) is not None) for p in oracle]
        if record["rule_bits"] != expected:
            problems.append(f"{where}: rule bits {record['rule_bits']} != re {expected}")
        if (record["rule_label"] == "rweet") != any(record["rule_bits"]) or \
                record["rule_label"] not in ("rweet", "not_rweet"):
            problems.append(f"{where}: rule_label {record['rule_label']!r} with bits "
                            f"{record['rule_bits']}")
        pairs.append((label, record["rule_label"]))
    quality = {"identify_f1": class_f1(pairs, "rweet"),
               "macro_f1": macro_f1(pairs, ("not_rweet", "rweet"))}
    return problems, quality
