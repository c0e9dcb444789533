#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload archive_cold --seed 1 --seconds 20 --trace 0

Builds e2ebench/ (a CMake package that compiles the repository's library
sources) into $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when
the variable is unset, runs one workload, and prints txml_e2e's output:
a run-context line, a checks line and, last, the result line. Exits
non-zero without printing a result when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out_dir):
    """Configures and builds txml_e2e; returns the binary path or None."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", HERE, "-B", out_dir,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out_dir, "--target", "txml_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))]]
        for step in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
                return None
    binary = os.path.join(out_dir, "txml_e2e")
    return binary if os.path.exists(binary) else None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the self-test)")
    parser.add_argument("--digest", action="store_true",
                        help="print the request-stream digest and exit")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(out_dir, "run",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    trace_out = os.path.join(out_dir, "traces",
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--trace-out", trace_out,
               "--git-sha", git_sha()]
    if args.smoke:
        command.append("--smoke")
    if args.digest:
        command.append("--digest")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("e2ebench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return 1
    if not args.digest:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        if not isinstance(result, dict) or sorted(result) != [
                "attempted", "correct", "failed", "metrics"]:
            print("e2ebench: no result line", file=sys.stderr)
            return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
