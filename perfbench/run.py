#!/usr/bin/env python3
"""parmem-bench: build the benchmark driver from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py --test               # the benchmark's own tests

The driver is compiled with perfbench/Makefile into $CARGO_TARGET_DIR
(default .bench_build) under the repository root. The last line the
driver prints is the JSON result; the exit code is nonzero when the build
fails or any op's result differs from its reference.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fork-fine", "pure-bulk", "mutate-entangle"]
SOURCE_DIRS = ["core", "runtimes", "bench_common", "perfbench"]


def out_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def make(target):
    """Builds `target` with perfbench/Makefile; compiler output to stderr."""
    cmd = ["make", "-s", "-f", "perfbench/Makefile", "OUT=" + out_dir(), target]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    except OSError as e:
        print("parmem-bench: cannot run make: %s" % e, file=sys.stderr)
        return 1
    if rc != 0:
        print("parmem-bench: build failed", file=sys.stderr)
    return rc


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for d in SOURCE_DIRS:
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, d))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.test:
        return make("test")
    if args.workload is None:
        ap.error("--workload is required")
    if make(os.path.join(out_dir(), "parmem_bench")) != 0:
        return 1
    binary = os.path.join(ROOT, out_dir(), "parmem_bench")
    commit = source_id()
    worst = 0
    for w in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        rc = subprocess.run(
            [binary, "--workload", w, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--commit", commit, "--out-dir", out_dir()],
            cwd=ROOT).returncode
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
