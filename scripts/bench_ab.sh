#!/bin/sh
# A/B the benchmark between a parent revision and the working tree.
#
#   sh scripts/bench_ab.sh PARENT [--pairs N] [--seed N] [--traced N]
#                                 [--workload NAME]... [--record FILE]
#
# Builds perfbench with BENCHMARK.json's command (its `cargo run` made a
# `cargo build`) in a `git archive` export of PARENT and in the working
# tree.
# Then runs N pairs (default 10) of every BENCHMARK.json workload, or of
# each --workload given, for BENCHMARK.json's run_seconds at seed N
# (default 7), the side that goes first alternating from pair to pair;
# then --traced pairs (default 2; 0 for none) of traced runs the same
# way. Results land in target/bench-ab/{parent,change} and
# perfbench/compare.py prints its verdicts. The sunmap-bench-record/1
# record, shaped like BENCH_15.json but with `traced` a list with one
# entry per workload, goes to FILE (default
# target/bench-ab/record-<first 12 hex digits of PARENT>.json, so an A/B
# of another parent never meets it); an existing FILE for the same
# parent gains the new entries instead, and one for another parent
# stops the script before it builds anything.
# Each run clears only the previous run's results, logs and verdicts, so
# a record under target/bench-ab survives to be appended to. The export
# is removed on exit.
#
# Each run is pinned to one CPU by perfbench and lasts run_seconds, so
# ten pairs of two 50 s workloads take about 35 minutes. Keep the
# machine otherwise idle. Not part of `make ci`.
set -eu

usage() {
    sed -n '4,5p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
parent=$1
shift
pairs=10
seed=7
traced=2
workloads=
record=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --pairs) pairs=$2 ;;
    --seed) seed=$2 ;;
    --traced) traced=$2 ;;
    --workload) workloads="$workloads $2" ;;
    --record) record=$2 ;;
    *) usage ;;
    esac
    shift 2
done

root=$(git rev-parse --show-toplevel)
cd "$root"
parent_commit=$(git rev-parse --verify "$parent^{commit}")
bench() {
    python3 -c "import json, shlex; b = json.load(open('BENCHMARK.json')); $1"
}
[ -n "$workloads" ] || workloads=$(bench 'print(" ".join(w["name"] for w in b["workloads"]))')
seconds=$(bench 'print(b["run_seconds"])')
run_cmd=$(bench 'print(" ".join(map(shlex.quote, b["command"])))')
build_cmd=$(bench 'c = b["command"][:b["command"].index("--")]; c[c.index("run")] = "build"; print(" ".join(map(shlex.quote, c)))')

out=$root/target/bench-ab
tree=$out/parent-tree
record=${record:-$out/record-$(printf %.12s "$parent_commit").json}
# An existing record of another parent cannot take this run's entries:
# refuse before anything is cleared, exported or built.
if [ -f "$record" ]; then
    python3 - "$record" "$parent_commit" <<'EOF'
import json
import sys

path, parent_commit = sys.argv[1:]
with open(path) as f:
    if json.load(f).get("parent_commit") != parent_commit:
        sys.exit(f"bench-ab: {path} records another parent; not appending")
EOF
fi
rm -rf "$out/parent" "$out/change" "$out/parent.log" "$out/change.log" "$out/compare.txt" "$tree"
mkdir -p "$out/parent" "$out/change" "$tree"
trap 'rm -rf "$tree"' EXIT
trap 'exit 130' INT TERM
git archive "$parent_commit" | tar -x -C "$tree"

for dir in "$tree" "$root"; do
    echo "== building perfbench in $dir"
    (cd "$dir" && eval "$build_cmd")
done

# run SIDE WORKLOAD TRACE: one perfbench run, its output appended to
# target/bench-ab/SIDE.log and its last line (the result summary) echoed.
run() {
    dir=$root
    [ "$1" = parent ] && dir=$tree
    (cd "$dir" && eval "$run_cmd" --workload "$2" --seed "$seed" --seconds "$seconds" \
        --trace "$3" --out "$out/$1") >>"$out/$1.log"
    echo "   $1 $2 trace=$3: $(tail -n 1 "$out/$1.log")"
}

# alternate COUNT TRACE: COUNT pairs of every workload, the parent first
# in odd pairs and the change first in even ones.
alternate() {
    i=0
    while [ "$i" -lt "$1" ]; do
        i=$((i + 1))
        order="parent change"
        [ $((i % 2)) -eq 0 ] && order="change parent"
        echo "== pair $i/$1 (trace=$2): $order"
        for w in $workloads; do
            for side in $order; do
                run "$side" "$w" "$2"
            done
        done
    done
}

alternate "$pairs" 0
alternate "$traced" 1

python3 perfbench/compare.py "$out/parent" "$out/change" | tee "$out/compare.txt"

python3 - "$out" "$record" "$parent_commit" "$seed" "$seconds" <<'EOF'
import importlib.util
import json
import os
import subprocess
import sys

out, record_path, parent_commit, seed, seconds = sys.argv[1:]
spec = importlib.util.spec_from_file_location("compare", "perfbench/compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)
bounds, _ = compare.load_bounds("BENCHMARK.json")


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True).stdout.strip()


def side(values):
    q1, median, q3 = compare.quartiles(values)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def entry(workload, traced, parent, change):
    metrics = {}
    for name, metric in parent[0]["metrics"].items():
        ps = compare.series(parent, name)
        cs = compare.series(change, name)
        if not ps or not cs:
            continue
        p, c = side([v for _, v in ps]), side([v for _, v in cs])
        m = {
            "unit": metric["unit"],
            "parent": p,
            "change": c,
            "delta_share": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        }
        if not traced and name in bounds:
            better, bound = bounds[name]
            sign = 1.0 if better == "lower" else -1.0
            won = sum(1 for pv, cv in compare.pairs(ps, cs) if sign * (pv - cv) > 0)
            m.update(
                better=better,
                bound=bound,
                pairs_won_by_change=f"{won}/{len(compare.pairs(ps, cs))}",
                verdict=compare.verdict(ps, cs, better, bound),
            )
        metrics[name] = m
    return {
        "workload": workload,
        "seed": int(seed),
        "run_seconds": float(seconds),
        "trace": traced,
        "runs_per_side": [len(parent), len(change)],
        "failed_operations": {"parent": sum(r["failed"] for r in parent),
                              "change": sum(r["failed"] for r in change)},
        "attempted_operations": {"parent": sum(r["attempted"] for r in parent),
                                 "change": sum(r["attempted"] for r in change)},
        "all_correct": all(r["correct"] for r in parent + change),
        "metrics": metrics,
    }


parent = compare.load_results(os.path.join(out, "parent"))
change = compare.load_results(os.path.join(out, "change"))
entries = {False: [], True: []}
for workload in sorted({r["workload"] for r in parent}, key=[r["workload"] for r in parent].index):
    for traced in (False, True):
        p = [r for r in parent if r["workload"] == workload and r["trace"] == traced]
        c = [r for r in change if r["workload"] == workload and r["trace"] == traced]
        if p and c:
            entries[traced].append(entry(workload, traced, p, c))

if os.path.exists(record_path):
    # Its parent was checked before the builds.
    with open(record_path) as f:
        record = json.load(f)
else:
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    head = git("rev-parse", "HEAD")
    record = {
        "schema": "sunmap-bench-record/1",
        "change": f"uncommitted changes on {head[:12]}" if dirty else git("log", "-1", "--format=%s"),
        "parent_commit": parent_commit,
        "change_commit": head,
        "nproc": os.cpu_count(),
        "pinned_cpus": 1,
        "rustc": subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip(),
        "method": "scripts/bench_ab.sh: perfbench built with the BENCHMARK.json command in a "
                  "git archive export of the parent and in the working tree; parent and change runs "
                  "alternate, the first side alternating per pair; each run is pinned to one "
                  "CPU by perfbench; medians, quartiles and verdicts are perfbench/compare.py's "
                  "(position-paired runs)",
        "end_to_end": [],
        "traced": [],
    }
record["end_to_end"] += entries[False]
record["traced"] += entries[True]
with open(record_path, "w") as f:
    json.dump(record, f, indent=1)
    f.write("\n")
print(f"bench-ab: wrote {record_path}")
EOF
