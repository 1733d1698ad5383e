#!/usr/bin/env python3
"""Unit tests for bench_delta.py.

The one contract that matters for the trajectory job: ANY artifact shape
— missing files, missing keys (e.g. a previous run from before the
rank_* counters existed), empty dirs — must degrade to "n/a" cells and
exit 0, never crash.  Run directly: python3 bench_delta_test.py
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_delta  # noqa: E402


def write_json(dirname, filename, doc):
    with open(os.path.join(dirname, filename), "w") as f:
        json.dump(doc, f)


def run_delta(prev_dir, cur_dir):
    out = io.StringIO()
    argv = sys.argv
    sys.argv = ["bench_delta.py", prev_dir, cur_dir]
    try:
        with redirect_stdout(out):
            rc = bench_delta.main()
    finally:
        sys.argv = argv
    return rc, out.getvalue()


# A current-run portfolio artifact with the full key set, rank_* included.
CURRENT_PORTFOLIO = {
    "total_ratio": 1.1,
    "total_share_ratio_vs_plain": 0.95,
    "total_clauses_exported": 3000,
    "total_clauses_imported": 48000,
    "total_rank_ratio_vs_share": 0.97,
    "total_ranks_published": 120,
    "total_rank_refreshes": 14,
    "race_setup": {"speedup": 5.8},
    "max_cancel_latency_us": 850,
    "total_vars_eliminated": 900,
    "total_clauses_subsumed": 400,
    "total_preprocess_us": 5200,
    "trace": {"events": 4200},
    "hw_threads": 4,
}


class BenchDeltaTest(unittest.TestCase):
    def test_empty_dirs_degrade_to_na(self):
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_solver.json rows", out)
        self.assertIn("no BENCH_portfolio.json", out)

    def test_previous_artifact_missing_rank_keys(self):
        # The old-vs-new diff the CI job actually performs right after
        # this PR lands: the previous run's BENCH_portfolio.json predates
        # the rank_* counters.  Every rank row must print with an "n/a"
        # previous cell instead of raising.
        old = {k: v for k, v in CURRENT_PORTFOLIO.items()
               if not k.startswith("total_rank")}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", old)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        for label in ("rank-sharing race ratio vs lemma-only race",
                      "cores published (rank-sharing races)",
                      "rank refreshes (rank-sharing races)"):
            row = [l for l in out.splitlines() if label in l]
            self.assertEqual(len(row), 1, label)
            self.assertIn("n/a", row[0])

    def test_previous_artifact_missing_preprocess_keys(self):
        # Same diff one PR later: the previous run's artifact predates
        # the preprocess_* totals.  Those rows print "n/a" previous
        # cells instead of raising.
        old = {k: v for k, v in CURRENT_PORTFOLIO.items()
               if k not in ("total_vars_eliminated",
                            "total_clauses_subsumed",
                            "total_preprocess_us")}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", old)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        for label in ("vars eliminated (preprocess)",
                      "clauses subsumed (preprocess)",
                      "preprocess time, us (suite)"):
            row = [l for l in out.splitlines() if label in l]
            self.assertEqual(len(row), 1, label)
            self.assertIn("n/a", row[0])

    def test_rank_metrics_diff_when_both_present(self):
        prev_doc = dict(CURRENT_PORTFOLIO,
                        total_ranks_published=100,
                        total_rank_refreshes=7)
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", prev_doc)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        row = [l for l in out.splitlines()
               if "cores published (rank-sharing races)" in l][0]
        self.assertIn("100", row)
        self.assertIn("120", row)
        self.assertIn("+20.0%", row)

    def test_observability_keys_degrade_and_diff(self):
        # Previous run predates the tracing layer: no cancel latency, no
        # trace section.  Rows print with n/a previous cells; when both
        # runs have the keys, the informational rows diff like any other.
        old = {k: v for k, v in CURRENT_PORTFOLIO.items()
               if k not in ("max_cancel_latency_us", "trace")}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json", old)
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        for label in ("max cancel latency, us (all races)",
                      "traced-race retained events"):
            row = [l for l in out.splitlines() if label in l]
            self.assertEqual(len(row), 1, label)
            self.assertIn("n/a", row[0])
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_portfolio.json",
                       dict(CURRENT_PORTFOLIO, max_cancel_latency_us=1000))
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        row = [l for l in out.splitlines()
               if "max cancel latency" in l][0]
        self.assertIn("1,000", row)
        self.assertIn("850", row)

    def test_corrupt_json_degrades_to_na(self):
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            with open(os.path.join(cur, "BENCH_portfolio.json"), "w") as f:
                f.write("{not json")
            write_json(prev, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_portfolio.json", out)

    def test_memory_artifact_absent_degrades(self):
        # The previous run predates BENCH_memory.json entirely AND the
        # current run lacks it too (bench_memory leg skipped): the
        # Memory section must degrade to its absence note, exit 0.
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(cur, "BENCH_portfolio.json", CURRENT_PORTFOLIO)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("no BENCH_memory.json", out)

    def test_memory_metrics_diff_and_degrade(self):
        # Current run has the full memory artifact, previous has none:
        # every cell on the previous side is "n/a"; with both present
        # the compression ratio diffs numerically.
        cur_memory = {
            "codec_totals": {"clauses": 12000, "raw_bytes": 180000,
                             "encoded_bytes": 54000, "compression": 3.33},
            "pauses": {
                "arena.chunk_alloc_us": {"count": 40, "p99_us": 63},
                "arena.gc_pause_us": {"count": 2, "p99_us": 1023},
            },
            "rank_row": {
                "demoted": {"wall_sec": 0.08, "ranks_published": 0},
                "forced": {"wall_sec": 0.09, "ranks_published": 40},
            },
            "process": {"vm_hwm_kb": 9600},
        }
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(cur, "BENCH_memory.json", cur_memory)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("### Memory", out)
        self.assertIn("| tape codec compression (raw / encoded) | n/a "
                      "| 3.330 | n/a |", out)

        prev_memory = dict(cur_memory)
        prev_memory["codec_totals"] = {"clauses": 12000,
                                       "raw_bytes": 180000,
                                       "encoded_bytes": 60000,
                                       "compression": 3.0}
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_memory.json", prev_memory)
            write_json(cur, "BENCH_memory.json", cur_memory)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("| tape codec compression (raw / encoded) | 3.000 "
                      "| 3.330 | +11.0% |", out)

    def test_memory_depth_row_degrades_on_old_artifact(self):
        # The incremental_depth row arrived after BENCH_memory.json: a
        # previous artifact without it shows "n/a" beside the current
        # figures, and both present diff numerically.
        old_memory = {"codec_totals": {"compression": 3.3},
                      "process": {"vm_hwm_kb": 9600}}
        cur_memory = dict(old_memory)
        cur_memory["incremental_depth"] = {
            "model": "cntm12_m3000+d48",
            "depth_60": {"peak_mem_bytes": 8000000, "vm_hwm_kb": 19000},
            "depth_120": {"peak_mem_bytes": 16000000, "vm_hwm_kb": 34000},
            "peak_growth": 2.0,
            "vm_hwm_growth": 1.79,
        }
        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_memory.json", old_memory)
            write_json(cur, "BENCH_memory.json", cur_memory)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("| incremental tracker peak at depth 120, bytes | n/a "
                      "| 16,000,000 | n/a |", out)
        self.assertIn("| incremental VmHWM growth, depth 60 -> 120 | n/a "
                      "| 1.790 | n/a |", out)

        with tempfile.TemporaryDirectory() as prev, \
                tempfile.TemporaryDirectory() as cur:
            write_json(prev, "BENCH_memory.json", cur_memory)
            write_json(cur, "BENCH_memory.json", cur_memory)
            rc, out = run_delta(prev, cur)
        self.assertEqual(rc, 0)
        self.assertIn("| incremental tracker peak growth, depth 60 -> 120 "
                      "| 2.000 | 2.000 | +0.0% |", out)


if __name__ == "__main__":
    unittest.main()
