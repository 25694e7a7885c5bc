#!/usr/bin/env python3
"""Simulator-speed and serving-throughput regression gate.

Compares a fresh ``bench/sim_speed_bench --json`` record against the
checked-in perf-trajectory baseline (BENCH_simspeed.json) and fails if
any (workload, mode) point lost more than --max-drop of its simulated
MIPS.  Run from CI after the test step:

    ./build/bench/sim_speed_bench --json > new.json
    python3 tools/perf_gate.py --baseline BENCH_simspeed.json --new new.json

Only relative regressions are gated; faster-than-baseline points are
reported but never fail.  The simulated counts are deterministic, so
they are gated exactly: when a baseline row carries ``instructions``,
``reps`` and ``cycles``, the new row's instructions per rep and its
cycles must equal the baseline's (a mismatch means the model changed,
whatever the host speed; the rep count itself follows wall time).  The baseline file also carries the pre-PR
interpreter reference (``reference_pre_predecode``); when present, the
gate additionally checks the compiled-engine speedup contract: each
workload's functional-mode MIPS must stay >= --min-speedup times the
reference timing-interpreter MIPS on at least --min-speedup-apps
workloads (host-relative, so this only trips when the engine itself
slows down, not when the CI host does).

The batch-serving trajectory is gated the same way from its own
baseline (BENCH_serve.json, written by ``bench/serve_load --bench
--json``).  The baseline's ``serve`` section carries absolute SLO
bounds chosen to hold on any plausible CI host:

    "serve": {"min_jobs_per_s": F, "max_p99_us": C}

and the gate checks a fresh serve_load record against them:
the open-loop row's throughput must stay >= F, the paced row's p99
latency must stay <= C, and no row may report failed, rejected, or
dropped jobs:

    ./build/bench/serve_load --jobs=... --bench --json > serve_new.json
    python3 tools/perf_gate.py --serve-baseline BENCH_serve.json \\
        --serve-new serve_new.json

Either pair (or both) may be given.  Exit status: 0 = all points
within bounds, 1 = regression, 2 = usage or schema error.
"""

import argparse
import json
import sys


REQUIRED_KEYS = ("workload", "mode", "sim_mips")


def load_rows(path):
    """Return {(workload, mode): row} from a sim-speed JSON document.

    Tolerant by design: rows may carry any number of unknown keys
    (newer benches append columns — e.g. the cpi_* cycle-accounting
    cells — and the gate must keep reading older and newer reports
    alike), and unknown top-level sections are ignored.  Only the
    REQUIRED_KEYS themselves are validated.
    """
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: no 'rows' array")
    out = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {i} is not an object")
        missing = [k for k in REQUIRED_KEYS if k not in row]
        if missing:
            raise ValueError(
                f"{path}: row {i} is missing key(s) {', '.join(missing)}")
        key = (row["workload"], row["mode"])
        if key in out:
            raise ValueError(f"{path}: duplicate row {key}")
        out[key] = row
    return out


def require_row(rows, workload, mode, path):
    """Row for (workload, mode), or a readable error instead of KeyError."""
    key = (workload, mode)
    if key not in rows:
        raise ValueError(
            f"missing row (workload={workload}, mode={mode}) in {path}")
    return rows[key]


COUNT_KEYS = ("instructions", "reps", "cycles")


def count_mismatches(key, brow, nrow):
    """Failures for a row whose deterministic counts moved.

    Instructions are compared per rep (cross-multiplied, so no
    rounding), cycles as recorded.  Baseline rows without the count
    columns are not count-gated.
    """
    if not all(k in brow for k in COUNT_KEYS):
        return []
    name = f"{key[0]}/{key[1]}"
    missing = [k for k in COUNT_KEYS if k not in nrow]
    if missing:
        return [f"{name}: new row lacks {', '.join(missing)}"]
    b_inst, b_reps = int(brow["instructions"]), int(brow["reps"])
    n_inst, n_reps = int(nrow["instructions"]), int(nrow["reps"])
    if b_reps <= 0 or n_reps <= 0:
        return [f"{name}: non-positive reps"]
    out = []
    if b_inst * n_reps != n_inst * b_reps:
        out.append(f"{name}: {n_inst / n_reps:.0f} instructions per rep "
                   f"vs baseline {b_inst / b_reps:.0f} (must be equal)")
    if int(brow["cycles"]) != int(nrow["cycles"]):
        out.append(f"{name}: {int(nrow['cycles'])} cycles vs baseline "
                   f"{int(brow['cycles'])} (must be equal)")
    return out


SERVE_ROW_KEYS = ("mode", "jobs", "completed", "failed", "rejected",
                  "jobs_per_s", "p99_us")


def load_serve(path):
    """Return (doc, {mode: row}) from a serve_load --json document.

    Same tolerance policy as load_rows: rows may carry extra columns,
    only SERVE_ROW_KEYS are validated.  Rows are keyed by mode alone
    ("open"/"paced") because the serve bench runs one mixed workload.
    """
    with open(path) as f:
        doc = json.load(f)
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"{path}: no 'rows' array")
    out = {}
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{path}: row {i} is not an object")
        missing = [k for k in SERVE_ROW_KEYS if k not in row]
        if missing:
            raise ValueError(
                f"{path}: row {i} is missing key(s) {', '.join(missing)}")
        if row["mode"] in out:
            raise ValueError(f"{path}: duplicate mode '{row['mode']}'")
        out[row["mode"]] = row
    return doc, out


def check_serve(baseline_path, new_path):
    """Gate a fresh serve_load record against the baseline's SLO bounds.

    Returns a list of failure strings (empty = pass).  Raises
    ValueError on schema problems (missing serve section or rows),
    which main() maps to exit 2.
    """
    base_doc, base_rows = load_serve(baseline_path)
    _, new_rows = load_serve(new_path)

    slo = base_doc.get("serve")
    if not isinstance(slo, dict):
        raise ValueError(f"{baseline_path}: no 'serve' SLO section")
    try:
        floor = float(slo["min_jobs_per_s"])
        ceiling = float(slo["max_p99_us"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            f"{baseline_path}: 'serve' section needs numeric "
            f"min_jobs_per_s and max_p99_us")

    failures = []
    print(f"{'mode':<7} {'jobs_per_s':>11} {'p99_us':>9}   bound")
    for mode in ("open", "paced"):
        if mode not in new_rows:
            raise ValueError(
                f"{new_path}: missing serve row mode='{mode}' "
                f"(run serve_load with --bench)")
    for mode, row in sorted(new_rows.items()):
        base = base_rows.get(mode)
        ref = (f" (baseline {float(base['jobs_per_s']):.1f}/"
               f"{float(base['p99_us']):.0f})" if base else "")
        print(f"{mode:<7} {float(row['jobs_per_s']):>11.1f} "
              f"{float(row['p99_us']):>9.0f}{ref}")
        # Integrity applies to every row regardless of mode: a phase
        # that failed, rejected, or silently dropped jobs is a broken
        # server, not a slow one.
        failed = int(row["failed"])
        rejected = int(row["rejected"])
        dropped = (int(row["jobs"]) - int(row["completed"]) - failed -
                   rejected)
        if failed or rejected or dropped:
            failures.append(
                f"serve/{mode}: {failed} failed, {rejected} rejected, "
                f"{dropped} dropped (all must be 0)")
    got = float(new_rows["open"]["jobs_per_s"])
    if got < floor:
        failures.append(
            f"serve/open: {got:.1f} jobs/s below SLO floor "
            f"{floor:.1f}")
    p99 = float(new_rows["paced"]["p99_us"])
    if p99 > ceiling:
        failures.append(
            f"serve/paced: p99 {p99:.0f} us above SLO ceiling "
            f"{ceiling:.0f} us")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline",
                    help="checked-in BENCH_simspeed.json")
    ap.add_argument("--new", dest="new_path",
                    help="fresh sim_speed_bench --json output")
    ap.add_argument("--serve-baseline",
                    help="checked-in BENCH_serve.json (carries the "
                         "'serve' SLO section)")
    ap.add_argument("--serve-new",
                    help="fresh serve_load --bench --json output")
    ap.add_argument("--max-drop", type=float, default=0.20,
                    help="maximum tolerated fractional sim_mips drop "
                         "per (workload, mode) point (default 0.20)")
    ap.add_argument("--min-speedup", type=float, default=10.0,
                    help="required functional-vs-reference-timing "
                         "speedup (default 10)")
    ap.add_argument("--min-speedup-apps", type=int, default=3,
                    help="workloads that must meet --min-speedup "
                         "(default 3)")
    args = ap.parse_args()

    if bool(args.baseline) != bool(args.new_path):
        print("perf_gate: --baseline and --new must be given together",
              file=sys.stderr)
        return 2
    if bool(args.serve_baseline) != bool(args.serve_new):
        print("perf_gate: --serve-baseline and --serve-new must be "
              "given together", file=sys.stderr)
        return 2
    if not args.baseline and not args.serve_baseline:
        print("perf_gate: nothing to gate (give --baseline/--new "
              "and/or --serve-baseline/--serve-new)", file=sys.stderr)
        return 2

    failures = []

    if args.serve_baseline:
        try:
            failures += check_serve(args.serve_baseline, args.serve_new)
        except (OSError, ValueError, KeyError) as e:
            print(f"perf_gate: {e}", file=sys.stderr)
            return 2

    if not args.baseline:
        if failures:
            print("\nperf_gate FAILED:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print("\nperf_gate OK")
        return 0

    try:
        base = load_rows(args.baseline)
        new = load_rows(args.new_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"perf_gate: {e}", file=sys.stderr)
        return 2

    print(f"{'workload':<10} {'mode':<11} {'base':>8} {'new':>8} "
          f"{'ratio':>6}")
    for key, brow in sorted(base.items()):
        nrow = new.get(key)
        if nrow is None:
            failures.append(f"missing point {key} in {args.new_path}")
            continue
        b, n = float(brow["sim_mips"]), float(nrow["sim_mips"])
        if b <= 0:
            failures.append(f"{key}: non-positive baseline MIPS {b}")
            continue
        ratio = n / b
        flag = ""
        if ratio < 1.0 - args.max_drop:
            flag = "  << REGRESSION"
            failures.append(
                f"{key[0]}/{key[1]}: {n:.2f} MIPS vs baseline "
                f"{b:.2f} ({100 * (1 - ratio):.1f}% drop > "
                f"{100 * args.max_drop:.0f}% allowed)")
        counts = count_mismatches(key, brow, nrow)
        if counts:
            flag += "  << COUNTS CHANGED"
            failures += counts
        print(f"{key[0]:<10} {key[1]:<11} {b:>8.2f} {n:>8.2f} "
              f"{ratio:>6.2f}{flag}")

    # Compiled-engine speedup contract vs the pre-predecode reference,
    # measured within the new record's own host via the baseline's
    # functional/timing structure: compare new functional MIPS against
    # the stored interpreter reference scaled by the host-speed ratio
    # of the timing rows (timing-mode cost changed little with the
    # engine, so it doubles as the host-speed proxy).
    with open(args.baseline) as f:
        ref = json.load(f).get("reference_pre_predecode")
    if ref:
        try:
            ref_rows = {}
            for i, r in enumerate(ref.get("rows", [])):
                if "workload" not in r or "mode" not in r:
                    raise ValueError(
                        f"reference_pre_predecode row {i} in "
                        f"{args.baseline} is missing workload/mode")
                ref_rows[(r["workload"], r["mode"])] = r
            ok_apps = 0
            apps = sorted({w for (w, _) in ref_rows})
            # One geometric-mean host-speed factor across all
            # workloads: per-app timing ratios would double-count
            # run-to-run noise.
            ratios = []
            for w in apps:
                if (w, "timing") not in new:
                    continue
                brow = require_row(base, w, "timing", args.baseline)
                if float(brow["sim_mips"]) > 0:
                    ratios.append(float(new[(w, "timing")]["sim_mips"]) /
                                  float(brow["sim_mips"]))
            host_scale = 1.0
            if ratios:
                prod = 1.0
                for r in ratios:
                    prod *= r
                host_scale = prod ** (1.0 / len(ratios))
            for w in apps:
                ref_timing = float(
                    require_row(ref_rows, w, "timing",
                                f"{args.baseline} (reference_pre_predecode)"
                                )["sim_mips"])
                n = new.get((w, "functional"))
                if n is None or ref_timing <= 0:
                    continue
                need = args.min_speedup * ref_timing * host_scale
                got = float(n["sim_mips"])
                if got >= need:
                    ok_apps += 1
                print(f"speedup {w}: functional {got:.1f} vs scaled "
                      f"interpreter floor {need:.1f} "
                      f"({'ok' if got >= need else 'below'})")
            if ok_apps < args.min_speedup_apps:
                failures.append(
                    f"compiled-engine speedup contract: only {ok_apps} "
                    f"workload(s) reach {args.min_speedup:.0f}x over the "
                    f"pre-predecode interpreter "
                    f"(need {args.min_speedup_apps})")
        except ValueError as e:
            print(f"perf_gate: {e}", file=sys.stderr)
            return 2

    if failures:
        print("\nperf_gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf_gate OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
