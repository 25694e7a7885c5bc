#!/usr/bin/env python3
"""JSON Lines contract of the paper-reproduction benches.

Invoked by ctest as:

    test_bench_json.py <bench-binary-dir>

Contract under test (see BenchOptions::emit, ::note and ::parse in
bench/bench_util.h): under --json a bench exits 0 and every line of its
stdout is one JSON object with a non-empty "title", distinct among that
bench's tables, and a non-empty "rows" list; the prose around the
tables is suppressed.  A malformed numeric flag makes a bench exit
non-zero and name the flag on stderr, rather than run with a value it
made up.

ablation_sampling is not listed: it deliberately exits 1 when its
sampled-timing error exceeds the bound, which it does at this small
budget; it is run at 1M instructions elsewhere.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = None

BENCHES = [
    "table1_counters",
    "table2_branch_stats",
    "fig1_profile",
    "fig2_timeline",
    "fig3_predication",
    "fig4_btac",
    "fig5_fxu",
    "fig6_combined",
    "ablation_btac",
    "ablation_frontend",
    "ablation_lsq",
    "ablation_predictor",
    "extension_phylip",
]


class BenchJsonContractTest(unittest.TestCase):
    def test_every_stdout_line_is_a_result_table(self):
        for bench in BENCHES:
            with self.subTest(bench=bench):
                r = subprocess.run(
                    [os.path.join(BENCH_DIR, bench), "--json",
                     "--budget=50000", "--klass=A"],
                    capture_output=True, text=True)
                self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
                lines = r.stdout.splitlines()
                self.assertTrue(lines, f"{bench}: empty stdout")
                titles = []
                for line in lines:
                    doc = json.loads(line)  # must not raise
                    self.assertIsInstance(doc, dict, line)
                    self.assertIsInstance(doc.get("title"), str, line)
                    self.assertTrue(doc["title"], f"{bench}: empty title")
                    self.assertIsInstance(doc.get("rows"), list, line)
                    self.assertTrue(doc["rows"], f"{bench}: empty rows")
                    titles.append(doc["title"])
                self.assertEqual(len(titles), len(set(titles)),
                                 f"{bench}: repeated title in {titles}")

    def test_malformed_numbers_are_rejected(self):
        for flag in ("--budget=abc", "--seed=12x"):
            with self.subTest(flag=flag):
                r = subprocess.run(
                    [os.path.join(BENCH_DIR, "table1_counters"), flag,
                     "--klass=A"],
                    capture_output=True, text=True)
                self.assertNotEqual(r.returncode, 0, r.stdout)
                self.assertIn(flag.split("=")[0], r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_bench_json.py <bench-binary-dir>")
    BENCH_DIR = sys.argv.pop()
    unittest.main()
