#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/selftest.py

Runs every workload txml_e2e knows at tiny size (--smoke), untraced and
traced, and fails unless each run exits 0, reports correct answers with
error_frac 0, and emits every metric BENCHMARK.json names with its unit.
Also checks that the request-stream digest is a pure
function of the seed. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("archive_cold", "ingest_mixed")


def run(workload, seed, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke"] + list(extra)
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(command),
                                               proc.returncode))
    return proc.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(condition, message):
        if not condition:
            failures.append(message)

    for w in spec["workloads"]:
        check(w["name"] in WORKLOADS, w["name"] + ": not a known workload")
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            where = "%s trace=%d" % (workload, trace)
            try:
                lines = run(workload, 1, trace)
            except AssertionError as e:
                failures.append(str(e))
                continue
            result = json.loads(lines[-1])
            checks = next((json.loads(l)["checks"] for l in lines
                           if l.startswith('{"checks"')), None)
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], where + ": result keys")
            check(result.get("correct") is True, where + ": not correct")
            check(result.get("attempted", 0) >= 1, where + ": nothing attempted")
            check(checks is not None and checks["error_frac"] == 0,
                  where + ": error_frac is not 0")
            metrics = result.get("metrics", {})
            check(sorted(metrics) == sorted(m["name"] for m in wanted),
                  where + ": metric names differ from BENCHMARK.json")
            for m in wanted:
                got = metrics.get(m["name"])
                check(got is not None and got.get("unit") == m["unit"],
                      "%s: %s missing or not in %s" % (where, m["name"],
                                                       m["unit"]))
            print("ok  %s (%d metrics)" % (where, len(metrics)))

        digests = [run(workload, seed, 0, ["--digest"])[-1]
                   for seed in (7, 7, 8)]
        check(digests[0] == digests[1],
              workload + ": same seed, different request streams")
        check(digests[0] != digests[2],
              workload + ": different seeds, same request stream")
        print("ok  %s digest %s" % (workload, digests[0]))

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
