#!/usr/bin/env python3
"""Unit/smoke tests for tools/perf_gate.py.

Runs the gate as a subprocess against synthetic baseline/new JSON
documents and checks the exit-status contract:

    0 = within bounds, 1 = regression / missing point, 2 = schema error

Schema errors must produce a readable one-line message, never a
KeyError traceback.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "perf_gate.py")


def rows_doc(points, reference=None):
    doc = {"rows": [{"workload": w, "mode": m, "sim_mips": v}
                    for (w, m, v) in points]}
    if reference is not None:
        doc["reference_pre_predecode"] = {
            "rows": [{"workload": w, "mode": m, "sim_mips": v}
                     for (w, m, v) in reference]}
    return doc


def run_gate(baseline_doc, new_doc, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "baseline.json")
        npath = os.path.join(tmp, "new.json")
        with open(bpath, "w") as f:
            json.dump(baseline_doc, f)
        with open(npath, "w") as f:
            json.dump(new_doc, f)
        return subprocess.run(
            [sys.executable, GATE, "--baseline", bpath, "--new", npath,
             *extra],
            capture_output=True, text=True)


def serve_row(mode, jobs_per_s, p99_us, jobs=1000, completed=None,
              failed=0, rejected=0):
    if completed is None:
        completed = jobs - failed - rejected
    return {"workload": "serve_mixed", "mode": mode, "jobs": jobs,
            "completed": completed, "failed": failed,
            "rejected": rejected, "jobs_per_s": jobs_per_s,
            "p99_us": p99_us}


def serve_doc(rows, slo=(100.0, 50000.0)):
    doc = {"title": "serve-load", "rows": rows}
    if slo is not None:
        doc["serve"] = {"min_jobs_per_s": slo[0], "max_p99_us": slo[1]}
    return doc


SERVE_BASE = [serve_row("open", 900.0, 2000000.0),
              serve_row("paced", 450.0, 8000.0)]


def run_serve_gate(baseline_doc, new_doc, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        bpath = os.path.join(tmp, "serve_baseline.json")
        npath = os.path.join(tmp, "serve_new.json")
        with open(bpath, "w") as f:
            json.dump(baseline_doc, f)
        with open(npath, "w") as f:
            json.dump(new_doc, f)
        return subprocess.run(
            [sys.executable, GATE, "--serve-baseline", bpath,
             "--serve-new", npath, *extra],
            capture_output=True, text=True)


BASE_POINTS = [("clustalw", "functional", 100.0),
               ("clustalw", "timing", 10.0),
               ("hmmer", "functional", 120.0),
               ("hmmer", "timing", 12.0)]


class PerfGateTest(unittest.TestCase):
    def test_identical_runs_pass(self):
        r = run_gate(rows_doc(BASE_POINTS), rows_doc(BASE_POINTS))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("perf_gate OK", r.stdout)

    def test_small_drop_within_tolerance_passes(self):
        new = [(w, m, v * 0.9) for (w, m, v) in BASE_POINTS]
        r = run_gate(rows_doc(BASE_POINTS), rows_doc(new))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_regression_fails(self):
        new = [(w, m, v * 0.5) for (w, m, v) in BASE_POINTS]
        r = run_gate(rows_doc(BASE_POINTS), rows_doc(new))
        self.assertEqual(r.returncode, 1)
        self.assertIn("REGRESSION", r.stdout)

    def test_missing_point_fails(self):
        new = BASE_POINTS[:-1]
        r = run_gate(rows_doc(BASE_POINTS), rows_doc(new))
        self.assertEqual(r.returncode, 1)
        self.assertIn("missing point", r.stderr)

    def test_unknown_keys_and_sections_are_tolerated(self):
        # Newer benches append columns (e.g. cpi_* cycle-accounting
        # cells) and extra top-level sections; the gate must ignore
        # what it does not know about in either document.
        base = rows_doc(BASE_POINTS)
        base["cpi_report"] = {"anything": [1, 2, 3]}
        new = rows_doc(BASE_POINTS)
        for row in new["rows"]:
            row["cpi_completing"] = 1234
            row["cpi_branch_flush"] = 99
            row["future_column"] = "text"
        r = run_gate(base, new)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("perf_gate OK", r.stdout)

    def test_non_object_row_is_readable_schema_error(self):
        doc = rows_doc(BASE_POINTS)
        doc["rows"].append(42)
        r = run_gate(doc, rows_doc(BASE_POINTS))
        self.assertEqual(r.returncode, 2)
        self.assertIn("is not an object", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_row_without_sim_mips_is_schema_error(self):
        doc = rows_doc(BASE_POINTS)
        del doc["rows"][0]["sim_mips"]
        r = run_gate(doc, rows_doc(BASE_POINTS))
        self.assertEqual(r.returncode, 2)
        self.assertIn("missing key(s) sim_mips", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def counted(self, reps=1, inst_per_rep=1000, cycles=900):
        doc = rows_doc(BASE_POINTS)
        for row in doc["rows"]:
            row["instructions"] = inst_per_rep * reps
            row["reps"] = reps
            row["cycles"] = cycles
        return doc

    def test_equal_counts_with_other_rep_count_pass(self):
        # A faster host runs more reps; per-rep counts still match.
        r = run_gate(self.counted(reps=4), self.counted(reps=2))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("perf_gate OK", r.stdout)

    def test_changed_instructions_per_rep_fail(self):
        r = run_gate(self.counted(reps=4),
                     self.counted(reps=4, inst_per_rep=1001))
        self.assertEqual(r.returncode, 1)
        self.assertIn("COUNTS CHANGED", r.stdout)
        self.assertIn("instructions per rep", r.stderr)

    def test_changed_cycles_fail(self):
        r = run_gate(self.counted(), self.counted(cycles=901))
        self.assertEqual(r.returncode, 1)
        self.assertIn("901 cycles vs baseline 900", r.stderr)

    def test_new_row_without_counts_fails(self):
        r = run_gate(self.counted(), rows_doc(BASE_POINTS))
        self.assertEqual(r.returncode, 1)
        self.assertIn("new row lacks", r.stderr)

    def test_speedup_contract_passes_when_fast_enough(self):
        base = rows_doc(BASE_POINTS,
                        reference=[("clustalw", "timing", 5.0),
                                   ("hmmer", "timing", 6.0)])
        r = run_gate(base, rows_doc(BASE_POINTS), "--min-speedup-apps", "2")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("speedup clustalw", r.stdout)

    def test_speedup_contract_fails_when_slow(self):
        base = rows_doc(BASE_POINTS,
                        reference=[("clustalw", "timing", 50.0),
                                   ("hmmer", "timing", 60.0)])
        r = run_gate(base, rows_doc(BASE_POINTS), "--min-speedup-apps", "2")
        self.assertEqual(r.returncode, 1)
        self.assertIn("speedup contract", r.stderr)

    def test_serve_within_slo_passes(self):
        r = run_serve_gate(serve_doc(SERVE_BASE), serve_doc(SERVE_BASE))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("perf_gate OK", r.stdout)

    def test_serve_throughput_below_floor_fails(self):
        new = [serve_row("open", 50.0, 2000000.0),
               serve_row("paced", 25.0, 8000.0)]
        r = run_serve_gate(serve_doc(SERVE_BASE), serve_doc(new))
        self.assertEqual(r.returncode, 1)
        self.assertIn("below SLO floor", r.stderr)

    def test_serve_p99_above_ceiling_fails(self):
        new = [serve_row("open", 900.0, 2000000.0),
               serve_row("paced", 450.0, 90000.0)]
        r = run_serve_gate(serve_doc(SERVE_BASE), serve_doc(new))
        self.assertEqual(r.returncode, 1)
        self.assertIn("above SLO ceiling", r.stderr)

    def test_serve_dropped_or_failed_jobs_fail(self):
        new = [serve_row("open", 900.0, 2000000.0, jobs=1000,
                         completed=990, failed=7),
               serve_row("paced", 450.0, 8000.0)]
        r = run_serve_gate(serve_doc(SERVE_BASE), serve_doc(new))
        self.assertEqual(r.returncode, 1)
        self.assertIn("7 failed", r.stderr)
        self.assertIn("3 dropped", r.stderr)

    def test_serve_baseline_without_slo_section_is_schema_error(self):
        r = run_serve_gate(serve_doc(SERVE_BASE, slo=None),
                           serve_doc(SERVE_BASE))
        self.assertEqual(r.returncode, 2)
        self.assertIn("no 'serve' SLO section", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_serve_new_missing_paced_row_is_schema_error(self):
        r = run_serve_gate(serve_doc(SERVE_BASE),
                           serve_doc([serve_row("open", 900.0,
                                                2000000.0)]))
        self.assertEqual(r.returncode, 2)
        self.assertIn("mode='paced'", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_serve_rows_tolerate_extra_columns(self):
        rows = [dict(r, p50_us=100, mean_us=1.5, future="x")
                for r in SERVE_BASE]
        r = run_serve_gate(serve_doc(SERVE_BASE), serve_doc(rows))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_both_pairs_gate_together(self):
        # A serve regression must fail the run even when the sim-speed
        # pair passes.
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            docs = {"b": rows_doc(BASE_POINTS),
                    "n": rows_doc(BASE_POINTS),
                    "sb": serve_doc(SERVE_BASE),
                    "sn": serve_doc([serve_row("open", 50.0, 2000000.0),
                                     serve_row("paced", 25.0, 8000.0)])}
            for k, doc in docs.items():
                paths[k] = os.path.join(tmp, k + ".json")
                with open(paths[k], "w") as f:
                    json.dump(doc, f)
            r = subprocess.run(
                [sys.executable, GATE, "--baseline", paths["b"],
                 "--new", paths["n"], "--serve-baseline", paths["sb"],
                 "--serve-new", paths["sn"]],
                capture_output=True, text=True)
        self.assertEqual(r.returncode, 1)
        self.assertIn("below SLO floor", r.stderr)
        self.assertIn("perf_gate FAILED", r.stderr)

    def test_unpaired_serve_flag_is_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sb.json")
            with open(path, "w") as f:
                json.dump(serve_doc(SERVE_BASE), f)
            r = subprocess.run(
                [sys.executable, GATE, "--serve-baseline", path],
                capture_output=True, text=True)
        self.assertEqual(r.returncode, 2)
        self.assertIn("must be given together", r.stderr)

    def test_reference_missing_timing_row_is_readable_error(self):
        # The new record has a timing row for a workload the baseline
        # 'rows' lack: must be a message, not a KeyError.
        base = rows_doc(BASE_POINTS,
                        reference=[("blast", "timing", 5.0)])
        new = rows_doc(BASE_POINTS + [("blast", "timing", 7.0)])
        r = run_gate(base, new)
        self.assertEqual(r.returncode, 2)
        self.assertIn("missing row (workload=blast, mode=timing)",
                      r.stderr)
        self.assertNotIn("Traceback", r.stderr)


if __name__ == "__main__":
    unittest.main()
