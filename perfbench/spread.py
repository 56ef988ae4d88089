#!/usr/bin/env python3
"""Run the benchmark once per seed and report, for each metric, its median
and the distance between its first and third quartile as a share of the
median -- the steadiness figure the benchmark's bounds are judged by.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --trace 0|1

Each run measures for BENCHMARK.json's run_seconds, as the benchmark's
own runs do.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in a.seeds:
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", a.workload, "--seed", str(seed),
                            "--seconds", seconds, "--trace", a.trace],
                           capture_output=True, text=True)
        lines = p.stdout.splitlines()
        result = json.loads(lines[-1])
        # the host's speed during the run, to tell host drift from spread
        calib = next((x.split("(")[0].strip() for x in lines
                      if x.startswith("  host.calib_ns")), "")
        print("seed %d: exit %d correct %s failed %d of %d  %s"
              % (seed, p.returncode, result["correct"], result["failed"],
                 result["attempted"], calib), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        bound = bounds.get(name)
        spread = stats.iqr_frac(xs) if len(xs) > 1 else 0.0
        print("%-30s median %-14.6g spread %.4f%s" % (
            name, stats.median(xs), spread,
            "" if bound is None else "  (bound %.2f, a third %.4f)" % (bound, bound / 3)))
        print("    " + " ".join("%.6g" % x for x in xs))


if __name__ == "__main__":
    main()
