#!/usr/bin/env python3
"""Build and run the bioperf5 host-performance benchmark.

    python3 perfbench/run.py --open-rate 600 --workload timing_sweep \\
        --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It configures and builds perfbench/
(a CMake project that compiles the library sources in src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload:

  timing_sweep  full-detail timing of the paper's grid via ExperimentDriver
  fast_sim      functional and SMARTS-sampled simulation of the four apps
  serve_mixed   an in-process serve::Server, closed and open loop

Every workload measures all three paths; the named one gets most of the
run.  --trace 0 prints the end-to-end metrics; --trace 1 prints the
per-layer metrics and writes a Chrome trace-event file (load it in
ui.perfetto.dev) to .bench_out/.  The open-loop rate is fixed by the
caller (BENCHMARK.json passes it), never derived from the run itself.

The last line of stdout is the result:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status is 0 when a result was printed, nonzero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then build; returns the benchmark binary's path."""
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def git_commit():
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric name -> unit from BENCHMARK.json, or None without one."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Reasons the result line breaks the result format."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if set(result) != RESULT_KEYS:
        return ["result keys are %s" % sorted(result)]
    problems = []
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want is not None and got != want:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or mismatched %s"
                        % (sorted(set(want) - set(got)),
                           sorted(k for k in got if want.get(k) != got[k])))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["timing_sweep", "fast_sim", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--open-rate", type=float, required=True,
                    help="open-loop serve rate, jobs/s")
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (self-test only)")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--open-rate", str(args.open_rate), "--commit", git_commit()]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: benchmark exited with %d" % proc.returncode)
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.exit("perfbench: " + "; ".join(problems))
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
