#!/usr/bin/env python3
"""End-to-end benchmark of the ARC engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root. Builds perfbench/ (Release, into .bench_build
or $CARGO_TARGET_DIR) from the sources in this checkout, runs one workload
through the `arcbench` binary, and prints its output; the last line is the
JSON result {"correct", "attempted", "failed", "metrics"}. Each run also
leaves a detail file with provenance (git SHA, dirty flag and diff hash when
the checkout is a git work tree, a hash of the built sources, build type,
nproc, seed, run length) under <build dir>/results/.

`--workload all` runs every workload once and prints the figures under their
design names (served.qps_3c, analytic.join_s, ... and error_rate).
BENCHMARK.json lists append_reseal and verify_rewrites; served_sql and
analytic_200k are run by hand (see perfbench/NOTES.md).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["served_sql", "analytic_200k", "append_reseal",
             "verify_rewrites"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the Release benchmark binary."""
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            raise RuntimeError("build directory is not a Release build")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "arcbench", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return os.path.join(out, "arcbench")


def source_hash():
    """SHA-256 over the files the binary is built from."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git(*args):
    # The ceiling keeps git from using a repository above this checkout, so
    # a checkout that is not a git work tree reports no SHA instead of a
    # wrong one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", *args], cwd=ROOT, env=env,
                       capture_output=True)
    return r.stdout if r.returncode == 0 else None


def provenance(args):
    p = {"nproc": os.cpu_count(), "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "source_sha256": source_hash()}
    top = git("rev-parse", "--show-toplevel")
    if top is not None and os.path.realpath(top.decode().strip()) == \
            os.path.realpath(ROOT):
        diff = git("diff", "HEAD") or b""
        p["git_sha"] = (git("rev-parse", "HEAD") or b"").decode().strip()
        p["git_dirty"] = bool((git("status", "--porcelain") or b"").strip())
        p["git_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    else:
        p["git_sha"] = None
        p["git_dirty"] = None
        p["git_diff_sha256"] = None
    return p


def run_one(binary, args, extra=()):
    """Runs one workload; returns (stdout lines, result, detail record)."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results, *extra]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError("arcbench exited with %d" % r.returncode)
    lines = r.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    detail = os.path.join(results, "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(detail) as f:
        info = json.load(f)
    info["provenance"] = provenance(args)
    with open(detail, "w") as f:
        json.dump(info, f, indent=1)
    return lines[:-1], result, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
        if args.workload != "all":
            lines, result, info = run_one(binary, args)
            for line in lines:
                print(line)
            print("provenance: " + json.dumps(info["provenance"]))
            print(json.dumps(result))
            return 0
        for name in WORKLOADS:
            args.workload = name
            _, result, info = run_one(binary, args)
            for m, v in info["report"].items():
                print("%-16s %-34s %14.6g %s" % (name, m, v["value"], v["unit"]))
        print("provenance: " + json.dumps(info["provenance"]))
        return 0
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
