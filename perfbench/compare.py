#!/usr/bin/env python3
"""Compare two sets of benchmark results: a parent commit's and a change's.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
    python3 perfbench/compare.py RESULTS_DIR [--benchmark BENCHMARK.json]

With one directory it prints each metric's median, quartiles and spread
(the distance between the quartiles as a share of the median) against
its bound, to check that the benchmark is steady.

Each directory holds the `perfbench-result/1` files the benchmark writes
(`perfbench/results/` by default). For every workload and end-to-end
metric the tool prints both sides' medians and quartiles and a verdict
under the metric's bound:

- improved   the change wins at least nine tenths of the run pairs and
             the medians differ by more than the parent's own spread
             (the distance between its quartiles);
- worse      the change's median is worse than the parent's by more
             than the bound;
- unresolved the parent's spread is wider than the bound, unless every
             change run reads better than every parent run;
- same       none of the above: within the bound.

Then it prints the traced runs' per-layer medians and deltas, so a
claim can show where its saving sits. Counts must repeat exactly
between runs of one seed; a count that moves is flagged.
"""

import argparse
import json
import os
import statistics
import sys

# Workload-specific end-to-end metrics. `BENCHMARK.json` lists only the
# metrics every workload reports; these are reported by one workload
# each (error_rate by all, but it is 0 when correct).
EXTRA_BOUNDS = {
    "explore_ms_p50": ("lower", 0.15),
    "explore_ms_p90": ("lower", 0.25),
    "sim_cycles_per_s": ("higher", 0.15),
    "error_rate": ("lower", 0.0),
}


def load_results(directory):
    """All result records in `directory`, newest last."""
    records = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            record = json.load(f)
        if record.get("schema") == "perfbench-result/1":
            records.append(record)
    return records


def load_bounds(path):
    """(direction, bound) for every end-to-end metric, and the per-layer
    metrics' directions, from BENCHMARK.json plus EXTRA_BOUNDS."""
    with open(path) as f:
        spec = json.load(f)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for name, value in EXTRA_BOUNDS.items():
        bounds.setdefault(name, value)
    layer = {m["name"]: m["better"] for m in spec["per_layer"]}
    return bounds, layer


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """Pair runs by seed where both sides ran it, else by position."""
    p_seeds = {s: v for s, v in parent}
    c_seeds = {s: v for s, v in change}
    common = sorted(set(p_seeds) & set(c_seeds))
    if len(common) == min(len(parent), len(change)) and common:
        return [(p_seeds[s], c_seeds[s]) for s in common]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(parent, change, better, bound):
    """The verdict for one metric.

    `parent` and `change` are lists of (seed, value); `better` is
    "lower" or "higher"; `bound` the share of the parent's median by
    which the change may be worse.
    """
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_values)
    _, c_med, _ = quartiles(c_values)
    sign = 1.0 if better == "lower" else -1.0
    # Positive = the change is better.
    gain = sign * (p_med - c_med)
    scale = abs(p_med)

    def wins(p, c):
        return sign * (p - c) > 0

    run_pairs = pairs(parent, change)
    won = sum(1 for p, c in run_pairs if wins(p, c))
    spread = p_q3 - p_q1
    if run_pairs and won >= 0.9 * len(run_pairs) and gain > spread:
        return "improved"
    if -gain > bound * scale:
        return "worse"
    all_better = all(wins(p, c) for p in p_values for c in c_values)
    if spread > bound * scale and not all_better:
        return "unresolved"
    return "same"


def series(records, metric):
    """(seed, value) of `metric` over `records` that report it."""
    return [
        (r["seed"], r["metrics"][metric]["value"])
        for r in records
        if metric in r["metrics"]
    ]


def fmt(x):
    return f"{x:.6g}"


def compare(parent, change, bounds, layer, out):
    """Print the comparison of two record lists to `out`."""
    workloads = sorted({r["workload"] for r in parent + change})
    for workload in workloads:
        for traced in (False, True):
            p = [r for r in parent if r["workload"] == workload and r["trace"] == traced]
            c = [r for r in change if r["workload"] == workload and r["trace"] == traced]
            if not p or not c:
                continue
            title = "per-layer (traced)" if traced else "end-to-end"
            print(f"\n== {workload}: {title}  (parent n={len(p)}, change n={len(c)})", file=out)
            names = [n for n in p[0]["metrics"] if any(n in r["metrics"] for r in c)]
            for name in names:
                ps, cs = series(p, name), series(c, name)
                unit = p[0]["metrics"][name]["unit"]
                p_q1, p_med, p_q3 = quartiles([v for _, v in ps])
                c_q1, c_med, c_q3 = quartiles([v for _, v in cs])
                delta = c_med - p_med
                share = f"{100 * delta / p_med:+.1f}%" if p_med else "n/a"
                line = (
                    f"  {name:<34} {fmt(p_med):>12} [{fmt(p_q1)}..{fmt(p_q3)}]"
                    f" -> {fmt(c_med):>12} [{fmt(c_q1)}..{fmt(c_q3)}] {unit:<9} {share:>8}"
                )
                if not traced and name in bounds:
                    better, bound = bounds[name]
                    line += f"  {verdict(ps, cs, better, bound)} (bound {bound:g})"
                elif unit == "count":
                    moved = len({v for _, v in ps} | {v for _, v in cs}) > 1
                    per_seed = {}
                    for s, v in ps + cs:
                        per_seed.setdefault(s, set()).add(v)
                    if any(len(v) > 1 for v in per_seed.values()):
                        line += "  COUNT MOVED"
                    elif moved:
                        line += "  (varies by seed)"
                elif traced and name in layer:
                    line += f"  ({layer[name]} is better)"
                print(line, file=out)
            fails = sum(r["failed"] for r in c)
            if fails:
                print(f"  change: {fails} failed operations", file=out)


def spreads(records, bounds, out):
    """Print each end-to-end metric's spread over `records` against a
    third of its bound; returns whether every spread is below it."""
    steady = True
    for workload in sorted({r["workload"] for r in records}):
        rs = [r for r in records if r["workload"] == workload and not r["trace"]]
        if not rs:
            continue
        print(f"\n== {workload}  (n={len(rs)})", file=out)
        for name in rs[0]["metrics"]:
            values = [v for _, v in series(rs, name)]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            line = f"  {name:<34} median {fmt(med):>12}  spread {100 * spread:6.2f}%"
            if name in bounds and name != "error_rate":
                _, bound = bounds[name]
                ok = spread < bound / 3
                steady &= ok or name == "setup_s"
                line += f"  (bound {bound:g}: {'ok' if ok else 'WIDE'})"
            print(line, file=out)
    return steady


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    bounds, layer = load_bounds(args.benchmark)
    if args.change is None:
        return 0 if spreads(load_results(args.parent), bounds, sys.stdout) else 1
    compare(load_results(args.parent), load_results(args.change), bounds, layer, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
