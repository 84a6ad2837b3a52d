#!/usr/bin/env python3
"""Build bdrmap from source and run one perfbench workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The program's libraries and the benchmark program are compiled in Release
mode into .bench_build/perfbench (configured on first use, rebuilt
incrementally after that). The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics. --trace 1 runs the workload twice
with the same seed, once untraced and once traced, and prints the per-layer
metrics plus obs.trace_overhead (traced end-to-end time over untraced). Its
spans and per-layer figures are also written under .bench_build/trace/.
--selftest checks that every output check rejects a corrupted result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("scale_map", "scale_sharded", "access_churn")
# The end-to-end metric obs.trace_overhead compares, per workload.
PRIMARY = {"scale_map": "map_s", "scale_sharded": "map_s",
           "access_churn": "epoch_s"}
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", "3"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def run_binary(args):
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with %d" % proc.returncode)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.call([BINARY, "--selftest"], timeout=RUN_TIMEOUT_S))

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    if args.trace == 0:
        print(json.dumps(run_binary(common + ["--trace", "0"])))
        return

    os.makedirs(TRACE_DIR, exist_ok=True)
    stem = os.path.join(TRACE_DIR, "%s-seed%d" % (args.workload, args.seed))
    plain = run_binary(common + ["--trace", "0"])
    traced = run_binary(common + ["--trace", "1",
                                  "--trace-out", stem + "-spans.json"])
    key = PRIMARY[args.workload]
    traced_e2e = traced.pop("end_to_end")
    traced["metrics"]["obs.trace_overhead"] = {
        "value": traced_e2e[key]["value"] / plain["metrics"][key]["value"],
        "unit": "ratio"}
    traced["correct"] = traced["correct"] and plain["correct"]
    with open(stem + "-layers.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "untraced": plain["metrics"], "traced": traced_e2e,
                   "per_layer": traced["metrics"]}, f, indent=1)
    print(json.dumps(traced))


if __name__ == "__main__":
    main()
