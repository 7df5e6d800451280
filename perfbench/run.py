#!/usr/bin/env python3
"""One run of the bvqserve benchmark.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --oracle-selftest

Run from the root of the repository. Builds bvqserve and the load generator
bvqbench (perfbench/src) from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then hands over to bvqbench, whose last
line of standard output is the JSON result. Build output goes to standard
error.

--oracle-selftest runs a short serve_hot window with one expected payload
deliberately altered; it exits 0 only if bvqbench caught the alteration.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_hot", "serve_churn", "eval_fixpoint")


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        sys.exit("run.py: the bvq sources (src/, tools/) are not next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "bvqserve",
                  "bvqbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return build_dir


def driver_args(build_dir, workload, seed, seconds, trace, selftest=False):
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    args = [os.path.join(build_dir, "bvqbench"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--bvqserve", os.path.join(build_dir, "bvq_tools", "bvqserve"),
            "--work-dir", work_dir]
    if selftest:
        args += ["--oracle-selftest", "1"]
    return args


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--oracle-selftest", action="store_true")
    opts = ap.parse_args()
    if not opts.oracle_selftest and opts.workload is None:
        ap.error("--workload is required")
    build_dir = build()
    sys.stdout.flush()
    if opts.oracle_selftest:
        run = subprocess.run(driver_args(build_dir, "serve_hot", opts.seed, 2,
                                         0, selftest=True),
                             stdout=subprocess.PIPE, text=True)
        caught = run.returncode != 0 and "MISMATCH id=" in run.stdout and \
            '"correct": false' in run.stdout
        print(run.stdout, end="")
        print("oracle self-test: " + ("the altered payload was caught" if caught
                                      else "FAILED, the altered payload passed"))
        sys.exit(0 if caught else 1)
    args = driver_args(build_dir, opts.workload, opts.seed, opts.seconds,
                       opts.trace)
    os.execv(args[0], args)


if __name__ == "__main__":
    main()
