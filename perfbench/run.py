#!/usr/bin/env python3
"""End-to-end fault-grading benchmark: build, reference, measure.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

Builds the library and perfbench_driver from source into
.bench_build/perfbench/ (CMake, RelWithDebInfo: the library's default
build type), computes the independent reference for (workload, seed) once
and caches it there, then measures.  The last line of standard output is one
JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Everything the
benchmark writes stays under .bench_build/.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["s5378-seq-t1", "s35932-seq-t4", "s5378-tr-campaign-t2"]
# Every child gets at most this long, so one invocation ends well inside
# the 180 s a run may take (the first, building run excepted).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else None,
                              stderr=subprocess.STDOUT if capture else None)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                   stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log)
            if r.returncode != 0:
                with open(log) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("build failed; see " + log)


def revision():
    """Git revision when the tree is a checkout, plus a digest of the
    sources the benchmark builds (an exported source tree has no .git)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    rev = "src-sha256:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
            if git.returncode == 0 and git.stdout.strip():
                rev = "git:" + git.stdout.strip() + " " + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def ensure_reference(workload, seed):
    path = os.path.join(WORK, "ref", "%s-seed%d.ref" % (workload, seed))
    if os.path.exists(path):
        return
    r = run_child([DRIVER, "--mode", "reference", "--workload", workload,
                   "--seed", str(seed), "--workdir", WORK], RUN_TIMEOUT_S,
                  capture=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("reference computation failed for %s seed %d" % (workload, seed))
    sys.stdout.write(r.stdout)


def measure(workload, args, rev):
    """Runs one workload; echoes its report and returns its result line."""
    ensure_reference(workload, args.seed)
    r = run_child([DRIVER, "--mode", "measure", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--workdir", WORK,
                   "--revision", rev], RUN_TIMEOUT_S, capture=True)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(r.stdout)
        fail("%s: driver exited with code %d" % (workload, r.returncode))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the correctness check rejects a "
                         "reference with one fault's status flipped")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    build()
    os.makedirs(WORK, exist_ok=True)
    if args.self_test:
        r = run_child([DRIVER, "--mode", "self-test", "--workdir", WORK],
                      RUN_TIMEOUT_S)
        sys.exit(r.returncode)

    rev = revision()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: measure(w, args, rev) for w in names}
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {w + "/" + k: v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
