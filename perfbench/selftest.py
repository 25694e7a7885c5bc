#!/usr/bin/env python3
"""Self-test of the benchmark: run from the repository root as

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json at tiny scale through the
benchmark command, untraced and traced.  run.py itself refuses a result
whose metrics are not exactly those BENCHMARK.json lists, with their
units; this test checks that each run exits 0, is correct, prints a
finite value for every metric, and that the traced run writes a trace
file.  It also checks that the command fails without printing a result
in a directory that holds only BENCHMARK.json and the benchmark's files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cmd, cwd, env=None):
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def check_run(spec, workload, trace, failures):
    args = ["--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--tiny"]
    proc = run(spec["command"] + args, ROOT)
    tag = "%s trace=%d" % (workload, trace)
    before = len(failures)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        failures.append("%s: exit %d\n%s" % (tag, proc.returncode,
                                             proc.stderr[-2000:]))
        return
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append("%s: incorrect run: %s" % (tag, lines[-2]))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            failures.append("%s: %s has no finite value" % (tag, name))
    if trace:
        path = os.path.join(ROOT, ".bench_out",
                            "trace-%s-3.json" % workload)
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            failures.append("%s: empty trace file %s" % (tag, path))
    print("ok  " if len(failures) == before else "FAIL", tag, flush=True)


def check_isolated(spec, failures):
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    before = len(failures)
    iso = os.path.join(ROOT, ".bench_out", "isolated")
    shutil.rmtree(iso, ignore_errors=True)
    os.makedirs(iso)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(iso, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = run(spec["command"] + ["--workload", "fast_sim", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], iso, env)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("isolated directory: expected failure without "
                        "output, got exit %d" % proc.returncode)
    shutil.rmtree(iso, ignore_errors=True)
    print("ok  " if len(failures) == before else "FAIL",
          "isolated directory fails",
          flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, failures)
    check_isolated(spec, failures)
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
