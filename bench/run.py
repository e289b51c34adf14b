"""The rweets benchmark: one workload per process.

    python3 bench/run.py --workload cv --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from --seed under .bench_work/, then starts
the measured process (bench/child.py), which calls `rweets.cli.main`
in-process: set-up calls, warm-up calls, and whole rounds of the workload's
calls in a closed loop (one caller) until --seconds of measured time have
passed. The parent then checks every output (bench/checks.py) and prints,
as its last line, one JSON object: the end-to-end metrics with --trace 0, or
with --trace 1 the per-layer metrics of a traced run (bench/spans.py).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = (
    ("tweets_per_s", "tweets/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("artifact_mb", "MiB"), ("identify_f1", "ratio"), ("macro_f1", "ratio"),
)


def _output_of(argv):
    for flag in ("--out", "--output"):
        if flag in argv:
            return argv[argv.index(flag) + 1]
    return None


def _run_child(work: Path, plan: dict, deadline: float) -> dict:
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    # the caller's thread and the host probe's: numpy's own pool stays at one
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with open(work / "child.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "plan.json", "result.json"],
            cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0:
        raise RuntimeError(f"measured process exited {proc.returncode}; see {work / 'child.log'}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


def _check(workload: str, work: Path, plan: dict, gold: dict, calls: list):
    """Mark failed calls and gather quality figures. A call fails when it
    exits non-zero, when the output it wrote is not byte-identical to the
    file checked, when that check fails, or when its printed summary is
    wrong."""
    import checks

    problems, failed = [], set()
    counts = None
    try:
        if workload == "cv":
            content, quality = checks.check_cv(work, gold)
        elif workload == "rules-long":
            content, quality = checks.check_rules(work, gold["labels"])
        else:
            content, quality, counts = checks.check_series_output(
                work, "out/series.jsonl", gold["labels"])
    except (OSError, ValueError, KeyError, TypeError) as exc:  # missing or malformed output
        content = [f"output unreadable: {type(exc).__name__}: {exc}"]
        quality = {"identify_f1": 0.0, "macro_f1": 0.0}
    problems += content

    final = calls[-1]["digests"]
    for i, call in enumerate(calls):
        if call["rc"] != 0:
            failed.add(i)
            problems.append(f"call {i} ({call['phase']}) exited {call['rc']}: "
                            f"{call['stderr'][-300:]}")
            continue
        if call["phase"] == "setup":
            continue
        argv = (plan["warmup"] if call["phase"] == "warmup" else plan["round"])[call["index"]]
        path = _output_of(argv)
        # a warm series output must equal the cold output that filled the cache
        checked = "out/series.jsonl" if path == "out/fill.jsonl" else path
        if content or call["digests"].get(path) != final.get(checked):
            failed.add(i)
            problems.append(f"call {i}: {path} is not the checked, correct {checked}")
        if counts is not None:
            warm = workload == "series-warm" and call["phase"] == "measured"
            trouble = checks.check_series_stdout(call["stdout"], warm, counts)
        elif workload == "rules-long":
            expected = f"classified {len(gold['labels'])} tweets -> out/rules.jsonl"
            trouble = [] if expected in call["stdout"] else [f"stdout lacks {expected!r}"]
        else:
            trouble = []
        if trouble:
            failed.add(i)
            problems += [f"call {i}: {t}" for t in trouble]
    return problems, failed, quality


def _rounds(result: dict, key: str) -> list:
    """Per measured round, the sum of `key` ("seconds" raw, "scaled_s" at
    the reference host speed) over the round's calls."""
    totals: dict = {}
    for c in result["calls"]:
        if c["phase"] == "measured":
            totals[c["group"]] = totals.get(c["group"], 0.0) + c[key]
    return list(totals.values())


def _throughput(plan: dict, result: dict, key: str = "scaled_s") -> float:
    return statistics.median(plan["tweets_per_round"] / s for s in _rounds(result, key))


def _end_to_end(plan: dict, result: dict, quality: dict) -> dict:
    reps: dict = {}
    for c in result["calls"]:
        if c["phase"] == "setup":
            reps[c["group"]] = reps.get(c["group"], 0.0) + c["scaled_s"]
    setup = result["import_scaled_s"] + sum(
        c["scaled_s"] for c in result["calls"] if c["phase"] == "warmup")
    if reps:
        setup += statistics.median(reps.values())
    return {
        "tweets_per_s": _throughput(plan, result),
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_mb"],
        "artifact_mb": statistics.median(_rounds(result, "written_bytes")) / (1 << 20),
        "identify_f1": quality["identify_f1"],
        "macro_f1": quality["macro_f1"],
    }


def _per_layer(work: Path, plan: dict, result: dict) -> tuple[dict, dict]:
    import spans

    trace = json.loads((work / "trace.json").read_text(encoding="utf-8"))
    metrics = spans.layer_metrics(
        trace["spans"], trace["text_chars"], result["phases"],
        n_setup=plan["setup_reps"], n_rounds=len(_rounds(result, "seconds")),
    )
    metrics["cli.tweets_per_s"] = _throughput(plan, result)
    return metrics, dict(spans.PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "rweets" / "cli.py").is_file():
        print(f"error: the program is missing ({SRC / 'rweets'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / (args.workload + ("-trace" if args.trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    plan, gold = workloads.build(args.workload, args.seed, work)
    plan.update(seconds=args.seconds, trace=bool(args.trace),
                outputs=sorted({_output_of(a) for a in plan["warmup"] + plan["round"]}))
    try:
        result = _run_child(work, plan, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems, failed, quality = _check(args.workload, work, plan, gold, result["calls"])
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: raw {_throughput(plan, result, 'seconds'):.1f} "
          f"tweets/s, scaled {_throughput(plan, result):.1f} tweets/s over "
          f"{len(_rounds(result, 'seconds'))} rounds; {result['probe_samples']} probe samples",
          file=sys.stderr)
    if args.trace:
        metrics, units = _per_layer(work, plan, result)
    else:
        metrics, units = _end_to_end(plan, result, quality), dict(END_TO_END)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(result["calls"]),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
