#!/usr/bin/env python3
"""Check that perfbench holds steady: two separate sets of runs must agree.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--out .bench_build/steadiness.json]

For each set, every workload runs --runs times through perfbench/run.py,
each run with its own seed (sets use disjoint seeds); workloads are
interleaved so a slow spell of the host lands on all of them. For every
end-to-end metric the script reports each set's median and quartiles, and
checks, with the bounds from BENCHMARK.json:

  * spread: (q3 - q1) / median within each set stays within the bound
    (setup_s is exempt: it is one cold set-up per run) -- and, as the
    steadiness target, below a third of it;
  * drift: the second set's median is not worse than the first's by more
    than the bound;
  * the share of failed operations is the same in both sets.

Exits 1 when any check fails. The report is also written as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d" % (workload, seed))
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "steadiness.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w in workloads]
    metrics = bench["end_to_end"]

    sets = []
    for set_index in range(2):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = 1000 * (set_index + 1) + i + 1
            for w in workloads:
                r = run_once(w, seed, bench["run_seconds"])
                results[w].append(r)
                print("set %d run %d %s: %s" % (
                    set_index + 1, i + 1, w,
                    " ".join("%s=%.5g" % (m["name"],
                                           r["metrics"][m["name"]]["value"])
                             for m in metrics)), flush=True)
        sets.append(results)

    report = {"runs": args.runs, "run_seconds": bench["run_seconds"],
              "nproc": os.cpu_count(), "workloads": {}}
    ok = True
    print("\n%-14s %-14s %-5s %12s %12s %12s %7s %7s %7s  %s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread",
        "drift", "bound", "verdict"))
    for w in workloads:
        shares = [sum(r["failed"] for r in s[w]) /
                  sum(r["attempted"] for r in s[w]) for s in sets]
        wrep = {"failed_share": shares,
                "correct": all(r["correct"] for s in sets for r in s[w]),
                "metrics": {}}
        if shares[0] != shares[1] or not wrep["correct"]:
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            s1, s2 = (summary([r["metrics"][name]["value"] for r in s[w]])
                      for s in sets)
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (s2["median"] - s1["median"]) / s1["median"]
            spread_ok = name == "setup_s" or max(
                s1["spread"], s2["spread"]) <= bound
            steady = name == "setup_s" or max(
                s1["spread"], s2["spread"]) < bound / 3
            verdict = ("FAIL" if not (spread_ok and drift <= bound)
                       else "steady" if steady else "within bound")
            ok = ok and verdict != "FAIL"
            wrep["metrics"][name] = {"set1": s1, "set2": s2, "drift": drift,
                                     "bound": bound, "verdict": verdict}
            for k, s in enumerate((s1, s2)):
                print("%-14s %-14s %-5d %12.6g %12.6g %12.6g %7.3f %7s %7.2f"
                      "  %s" % (w, name, k + 1, s["median"], s["q1"], s["q3"],
                                s["spread"],
                                "%.3f" % drift if k else "", bound,
                                verdict if k else ""))
        report["workloads"][w] = wrep
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print("\n%s (report: %s)" % ("steady" if ok else "NOT steady", args.out))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
