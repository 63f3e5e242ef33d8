#!/usr/bin/env python3
"""Run the benchmark over several seeds and tabulate each end-to-end
metric's spread, host-normalised beside raw.

Usage (from the repository root):
    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--first-seed 1]

Reads BENCHMARK.json for the command, run_seconds, workloads and bounds.
Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles(values, n=4)) as a share of their median. A
metric is "steady" when its host-normalised spread is below a third of its
bound. Prints a Markdown table per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def run_once(cfg, workload, seed):
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    full = os.path.join(ROOT, build, "perfbench", "%s-seed%d-trace0.json" % (workload, seed))
    with open(full) as fh:
        raw = json.load(fh)["raw"]
    return result, raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cfg = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    for wl in names:
        scaled, raw = {}, {}
        failures = 0
        for i in range(args.runs):
            res, rawm = run_once(cfg, wl, args.first_seed + i)
            failures += res["failed"] + (0 if res["correct"] else 1)
            for k, v in res["metrics"].items():
                scaled.setdefault(k, []).append(v["value"])
            for k, v in rawm.items():
                raw.setdefault(k[len("raw."):], []).append(v["value"])
        print("\n### %s (%d runs, seeds %d-%d, incorrect or failed: %d)\n"
              % (wl, args.runs, args.first_seed, args.first_seed + args.runs - 1, failures))
        print("| metric | median | spread | raw median | raw spread | bound | steady |")
        print("|---|---|---|---|---|---|---|")
        for m in cfg["end_to_end"]:
            name = m["name"]
            s, med = spread(scaled[name])
            if name in raw:
                rs, rmed = spread(raw[name])
                rcols = "%.4g | %.1f%%" % (rmed, 100 * rs)
            else:
                rcols = "- | -"
            ok = s < m["bound"] / 3 or name == "setup_s"
            print("| %s | %.4g %s | %.1f%% | %s | %.0f%% | %s |"
                  % (name, med, m["unit"], 100 * s, rcols, 100 * m["bound"], "yes" if ok else "NO"))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
