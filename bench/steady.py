"""Steadiness of the benchmark: sets of runs and their comparison.

    python3 bench/steady.py run --runs 10 --out .bench_work/steady/a.json
    python3 bench/steady.py run --runs 5 --workloads series-warm --out ...
    python3 bench/steady.py compare .bench_work/steady/a.json .bench_work/steady/b.json

`run` makes one set: for each workload, --runs runs of bench/run.py with
consecutive seeds from --first-seed, one after another, and stores every
result. It prints, per workload and end-to-end metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json.

`compare` takes two sets of the same code, best made on separate occasions
since the host's speed drifts within minutes, and checks for each workload
that every spread except that of setup_s is within its bound, that no
median of the second set is worse than the first by more than the bound,
and that the share of failed operations is exactly equal. It exits 1 if
any check fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def run_set(workloads, runs: int, first_seed: int, seconds: int) -> dict:
    results = {}
    for workload in workloads:
        results[workload] = []
        for seed in range(first_seed, first_seed + runs):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            wall = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            raw = re.search(r"raw ([0-9.]+) tweets/s", proc.stderr)
            result["raw_tweets_per_s"] = float(raw[1]) if raw else None
            results[workload].append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return results


def report(results: dict) -> bool:
    """Print spreads; True when every spread but setup_s is within bound."""
    ok = True
    for workload, runs in results.items():
        print(f"\n{workload} ({len(runs)} runs, mean wall {statistics.mean(r['wall_s'] for r in runs):.1f} s)")
        for metric in _config()["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            flag = ""
            if s["spread"] > metric["bound"] and name != "setup_s":
                flag, ok = "  OVER BOUND", False
            elif s["spread"] > metric["bound"] / 3:
                flag = "  over a third of bound"
            print(f"  {name:13} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}"
                  f"  spread {s['spread']:7.4f}  bound {metric['bound']}{flag}")
        raw = [r.get("raw_tweets_per_s") for r in runs]
        if None not in raw:
            s = summarize(raw)
            print(f"  (raw wall-clock tweets/s: median {s['median']:.6g}, spread {s['spread']:.4f})")
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"  failed share {sorted(failed)}; all correct: {all(r['correct'] for r in runs)}")
    return ok


def compare(first: dict, second: dict) -> bool:
    ok = report(first) & report(second)
    print("\nsecond set against first:")
    for workload in first:
        for metric in _config()["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (a - b) / a if metric["better"] == "higher" else (b - a) / a
            flag = "  WORSE THAN BOUND" if worse > metric["bound"] else ""
            ok &= not flag
            print(f"  {workload:12} {name:13} {a:12.6g} -> {b:12.6g}  worse by {worse:+.4f}"
                  f"  (bound {metric['bound']}){flag}")
        shares = [sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload])
                  for s in (first, second)]
        if shares[0] != shares[1]:
            ok = False
            print(f"  {workload}: failed share differs {shares}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness of the benchmark")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    args = parser.parse_args(argv)

    config = _config()
    if args.command == "run":
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
        results = run_set(names, args.runs, args.first_seed, config["run_seconds"])
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        return 0 if report(results) else 1
    sets = [json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.first, args.second)]
    return 0 if compare(*sets) else 1


if __name__ == "__main__":
    sys.exit(main())
