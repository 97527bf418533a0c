#!/usr/bin/env python3
"""Toy-scale self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py

Builds the benchmark like run.py, then runs every workload on tiny inputs
(--toy) for one second, once untraced and once traced, and checks that
  * the last line is the result object with exactly its four keys,
  * every oracle passed (correct, no failed operations),
  * the untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and the traced run every per-layer metric with its unit,
  * each workload prints its figures under the design's names.
Exits 0 when all checks pass.
"""

import argparse
import json
import os
import sys

import run

# The design's end-to-end figures each workload must print (besides
# setup_s, peak_rss_mb and error_rate, which every workload prints).
DESIGN_NAMES = {
    "served_sql": ["served.qps_1c", "served.qps_3c", "served.p50_ms",
                   "served.p99_ms"],
    "analytic_200k": ["analytic.join_s", "analytic.groupby_s",
                    "analytic.antijoin_s", "analytic.closure_s"],
    "append_reseal": ["append.visible_p50_ms", "append.visible_p90_ms"],
    "verify_rewrites": ["verify.instances_per_s",
                        "verify.equiv_check_ms_p50"],
}


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    binary = run.build()
    errors = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=7, seconds=1,
                                      trace=trace)
            where = "%s trace=%d" % (name, trace)
            try:
                _, result, info = run.run_one(binary, args, ("--toy",))
            except (OSError, RuntimeError, ValueError) as e:
                errors.append("%s: %s" % (where, e))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: result keys %s" % (where, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                errors.append("%s: oracle failed (%d of %d)" %
                              (where, result["failed"], result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append("%s: metrics %s, want %s" %
                              (where, got, expected[trace]))
            want = DESIGN_NAMES[name] + ["setup_s", "peak_rss_mb",
                                         "error_rate"]
            missing = [m for m in want if m not in info["report"]]
            if missing:
                errors.append("%s: report lacks %s" % (where, missing))
            if info["report"]["error_rate"]["value"] != 0:
                errors.append("%s: error_rate is not 0" % where)
            print("%-16s trace=%d ok: %d operations" %
                  (name, trace, result["attempted"]))
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
