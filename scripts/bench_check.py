#!/usr/bin/env python3
"""Check the benchmark's pinned outputs.

Runs every workload BENCHMARK.json declares once, with the command that
file gives, for one second (a pass that starts is finished), and fails
unless each run's last output line reports "correct":true. The
benchmark exits 0 even when an output digest misses perfbench/pins.txt
and says so only in that line, so its exit status alone proves nothing.

Usage: python3 scripts/bench_check.py [OUT_DIR]   (default target/bench-check)
Run from the repository root.
"""

import json
import subprocess
import sys
import time


def last_line_correct(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        last = json.loads(lines[-1])
    except json.JSONDecodeError:
        return False
    return isinstance(last, dict) and last.get("correct") is True


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "target/bench-check"
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failed = []
    for workload in bench["workloads"]:
        name = workload["name"]
        cmd = bench["command"] + ["--workload", name, "--seconds", "1", "--out", out]
        print("+ " + " ".join(cmd), flush=True)
        start = time.monotonic()
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(run.stdout)
        ok = run.returncode == 0 and last_line_correct(run.stdout)
        verdict = "ok" if ok else "FAILED"
        print(f"bench-check: {name} {verdict} ({time.monotonic() - start:.0f} s)", flush=True)
        if not ok:
            failed.append(name)
    if failed:
        print("bench-check: pinned outputs do not hold for " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
