#!/usr/bin/env python3
"""JSON Lines contract of the paper-reproduction benches.

Invoked by ctest as:

    test_bench_json.py <bench-binary-dir>

Contract under test (see BenchOptions::emit and ::note in
bench/bench_util.h): under --json a bench exits 0 and every line of its
stdout is one JSON object with a "title" and a non-empty "rows" list;
the prose around the tables is suppressed.

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
                for line in lines:
                    doc = json.loads(line)  # must not raise
                    self.assertIsInstance(doc, dict, line)
                    self.assertIn("title", doc, line)
                    self.assertIsInstance(doc.get("rows"), list, line)
                    self.assertTrue(doc["rows"], f"{bench}: empty rows")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_bench_json.py <bench-binary-dir>")
    BENCH_DIR = sys.argv.pop()
    unittest.main()
