"""The measured process: runs one workload's CLI calls in-process.

    python3 bench/child.py PLAN.json RESULT.json

Started by bench/run.py with the working directory set to the workload's
work directory and `src` on PYTHONPATH. It imports the program, optionally
installs the tracer, runs the set-up calls, the warm-up calls and then whole
rounds of the measured calls until the measured time reaches the run
length, and writes one JSON result. Output checks run later, in the parent.

Host speed. The host this was built on alternates between a fast state and
one about 1.7x slower, switching within seconds and drifting over minutes,
so raw wall times of the same call spread by 20% between runs. A probe
thread therefore times a fixed pure-Python loop every 0.1 s while the
program runs (about 0.3 ms of GIL time per sample), on the same CPU as the
program (the process is pinned to one CPU), and each timed interval
is also reported scaled to a reference probe time (REF_PROBE_S): seconds x
REF_PROBE_S / median probe time inside the interval. The probe code is
independent of the program, so a change to the program moves the scaled
time as it moves the raw one.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import threading
from time import perf_counter, sleep

REF_PROBE_S = 300e-6  # the probe loop's time in the fast state, 2-vCPU Xeon host
PROBE_EVERY_S = 0.1


class HostProbe:
    """Samples (start, duration) of a fixed loop every PROBE_EVERY_S."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def _run(self):
        while not self._stop.is_set():
            start = perf_counter()
            table = {}
            for i in range(2000):
                table[i & 255] = table.get(i & 255, 0) + i
            self.samples.append((start, perf_counter() - start))
            sleep(PROBE_EVERY_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scaled(self, start, end) -> float:
        """end - start at the reference probe speed. An interval holding
        fewer than three samples borrows those within 1 s of it."""
        inside = [d for t, d in self.samples if start <= t < end]
        if len(inside) < 3:
            inside = [d for t, d in self.samples if start - 1.0 <= t < end + 1.0]
        return (end - start) * REF_PROBE_S / statistics.median(inside)


def _snapshot(dirs) -> dict:
    """path -> (disk bytes, mtime, inode). Disk bytes are the allocated
    blocks: the space an artifact takes, which for a report of a few hundred
    bytes does not vary with how many digits its scores print with."""
    files = {}
    for top in dirs:
        for root, _, names in os.walk(top):
            for name in names:
                path = os.path.join(root, name)
                st = os.stat(path)
                files[path] = (st.st_blocks * 512, st.st_mtime_ns, st.st_ino)
    return files


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(plan_path, result_path) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()

    calls, phases = [], {}

    def call(phase, index, argv, group):
        out, err = io.StringIO(), io.StringIO()
        before = _snapshot(plan["watch"]) if phase == "measured" else None
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed call, not a crashed run
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
        t1 = perf_counter()
        record = {"phase": phase, "index": index, "group": group, "rc": rc,
                  "start": t0, "end": t1,
                  "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}
        if before is not None:
            after = _snapshot(plan["watch"])
            record["written_bytes"] = sum(
                meta[0] for path, meta in after.items() if before.get(path) != meta)
        record["digests"] = {p: _sha256(p) for p in plan["outputs"] if os.path.exists(p)}
        calls.append(record)
        return t1 - t0

    def phase(name, body):
        first = len(tracer.spans) if tracer else 0
        body()
        if tracer:
            phases[name] = [first, len(tracer.spans)]

    def setup():
        for rep in range(plan["setup_reps"]):
            for i, argv in enumerate(plan["setup"]):
                call("setup", i, argv, rep)

    def warmup():
        for i, argv in enumerate(plan["warmup"]):
            call("warmup", i, argv, 0)

    def measured():
        elapsed, rounds = 0.0, 0
        while rounds == 0 or elapsed < plan["seconds"]:
            for i, argv in enumerate(plan["round"]):
                for d in plan["fresh_dirs"]:
                    shutil.rmtree(d, ignore_errors=True)
                elapsed += call("measured", i, argv, rounds)
            rounds += 1

    # the probe must see the CPU the program runs on: the two vCPUs of the
    # host change state independently, so the process stays on one of them
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with HostProbe() as probe:
        start = perf_counter()
        from rweets import cli
        imported = perf_counter()
        if tracer is not None:
            spans.install(tracer)
        phase("setup", setup)
        phase("warmup", warmup)
        phase("measured", measured)

    for record in calls:
        record["seconds"] = record["end"] - record["start"]
        record["scaled_s"] = probe.scaled(record["start"], record["end"])
    result = {
        "import_s": imported - start,
        "import_scaled_s": probe.scaled(start, imported),
        "calls": calls,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phases": phases,
    }
    if tracer:
        with open("trace.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
