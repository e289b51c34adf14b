"""Confirm with `re` that the long rules-long texts match no rule pattern.

    python3 bench/confirm_long.py --seeds 0-49
    python3 bench/confirm_long.py --seeds 0-0 --ladder

The rules-long check takes the rule bits of the long texts as all zero
without running `re` on them in every run (that would cost as much as the
program does). The zero bits hold by construction: every pattern needs a
word the texts never contain (bringing/giving/..., I'm, we're, we'll,
ready/prepared, where, like/want, how, brought/given/..., "?", a word
starting with you/u, or one starting with can/could/should). This command
checks the claim on the texts of each seed in the range. --ladder also
times one `re` pass of the 18 patterns over "I am " repeated 56, 200 and
400 times, the super-linear backtracking the workload is built around.
"""

import argparse
import re
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rweets.rules import PATTERN_SOURCES  # noqa: E402

from workloads import long_texts  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-49", help="inclusive range LO-HI")
    parser.add_argument("--ladder", action="store_true")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    patterns = [re.compile(source, re.IGNORECASE) for source in PATTERN_SOURCES]

    matched = 0
    for seed in range(lo, hi + 1):
        for j, text in enumerate(long_texts(seed)):
            hits = [i + 1 for i, p in enumerate(patterns) if p.search(text)]
            if hits:
                matched += 1
                print(f"seed {seed} text {j}: patterns {hits} match", file=sys.stderr)
    print(f"seeds {lo}-{hi}: {matched} long texts match a pattern")

    if args.ladder:
        for n in (56, 200, 400):
            text = "I am " * n
            start = perf_counter()
            for p in patterns:
                p.search(text)
            print(f'"I am " x {n} ({len(text)} chars): {perf_counter() - start:.4f} s')
    return 1 if matched else 0


if __name__ == "__main__":
    sys.exit(main())
