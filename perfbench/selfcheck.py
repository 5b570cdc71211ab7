#!/usr/bin/env python3
"""Self-check of the benchmark: an A/A pair and a planted regression.

Runs the benchmark on one workload as three interleaved sets over the
same seeds: A and A2 (the same code twice) and B (the same code with a
busy-wait planted in the benchmark's own alert sink, --plant-alert-spin).
For every end-to-end metric it compares set medians the way BENCHMARK.json
bounds them: a set is worse when its median is worse than A's by more
than the metric's bound. The check passes when A2 is nowhere worse than
A and B is worse on at least one metric.

Run from the repository root:

    python3 perfbench/selfcheck.py --workload lit64_s1 --runs 5 --spin 1.7us
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, extra):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"] + extra
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(args), out.stderr))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print("warning: run %s seed %d reported correct=false" % (extra, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def worse_by(base, other, better):
    """Relative amount by which other is worse than base (negative = better)."""
    if base == 0:
        return 0.0
    if better == "lower":
        return (other - base) / base
    return (base - other) / base


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="lit64_s1")
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--spin", default="1.7us", help="planted busy-wait per alert")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    sets = {"A": [], "A2": [], "B": []}
    flags = {"A": [], "A2": [], "B": ["--plant-alert-spin", opts.spin]}
    order = ["A", "A2", "B"]
    for i in range(opts.runs):
        seed = 1000 + i
        for name in order[i % 3:] + order[:i % 3]:  # rotate which set runs first
            sets[name].append(run_once(bench["command"], opts.workload, seed, seconds, flags[name]))
            print("seed %d %-2s %s" % (seed, name, json.dumps(sets[name][-1], sort_keys=True)), flush=True)

    ok = True
    print("\n%-18s %12s %12s %12s %9s %9s %7s" % ("metric", "A", "A2", "B", "A2 worse", "B worse", "bound"))
    flagged_b = []
    for m in metrics:
        name, bound = m["name"], m["bound"]
        med = {k: statistics.median(r[name] for r in v) for k, v in sets.items()}
        wa = worse_by(med["A"], med["A2"], m["better"])
        wb = worse_by(med["A"], med["B"], m["better"])
        print("%-18s %12.6g %12.6g %12.6g %8.1f%% %8.1f%% %6.0f%%" % (
            name, med["A"], med["A2"], med["B"], 100 * wa, 100 * wb, 100 * bound))
        if wa > bound:
            ok = False
            print("  A/A pair flagged on %s" % name)
        if wb > bound:
            flagged_b.append(name)
    print("\nA/A pair: %s" % ("passes" if ok else "FLAGGED"))
    print("planted regression: %s" % (("flagged on " + ", ".join(flagged_b)) if flagged_b else "NOT flagged"))
    sys.exit(0 if ok and flagged_b else 1)


if __name__ == "__main__":
    main()
