"""Smoke test of the benchmark: every workload, untraced and traced, on
11-point grids. Checks that every metric BENCHMARK.json names is printed,
that the trace files are valid trace-event JSON whose layer spans plus
engine.self_s add up to each replay's wall time, and that the benchmark
refuses to run without the sources it builds.

    python3 perfbench/tests/test_smoke.py      (from the repository root)
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("compute", "figures-cold", "rerun-warm")
END_TO_END_PRINTED = ("campaign_s", "points_per_s", "cpu_s", "peak_rss_mb",
                      "disk_mb", "setup_s", "error_rate")


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.proc = subprocess.run(
            [sys.executable, str(RUN), "--all", "--smoke"], cwd=ROOT,
            capture_output=True, text=True, timeout=900)

    def test_runs_clean(self):
        self.assertEqual(self.proc.returncode, 0, self.proc.stderr[-4000:])
        results = json.loads(self.proc.stdout.splitlines()[-1])
        self.assertEqual(set(results), set(WORKLOADS))
        for workload, (untraced, traced) in results.items():
            for result, kind in ((untraced, "end_to_end"),
                                 (traced, "per_layer")):
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], workload)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]),
                                 {m["name"] for m in self.benchmark[kind]})
            self.assertEqual(
                traced["metrics"]["store.hit_ratio"]["value"], 1)

    def test_prints_every_metric_with_unit(self):
        lines = self.proc.stdout.splitlines()
        names = set(END_TO_END_PRINTED)
        names |= {m["name"] for m in self.benchmark["per_layer"]}
        for name in names:
            printed = [line.split() for line in lines
                       if line.split()[:1] == [name]]
            self.assertEqual(len(printed),
                             len(WORKLOADS), f"{name} not printed")
            self.assertTrue(all(len(fields) == 3 for fields in printed))

    def test_trace_spans_cover_replay(self):
        for workload in WORKLOADS:
            path = ROOT / ".bench_out" / workload / "trace.json"
            events = json.loads(path.read_text())["traceEvents"]
            spans = [e for e in events if e["ph"] == "X"]
            for span in spans:
                self.assertTrue({"name", "cat", "ts", "dur", "pid", "tid",
                                 "args"} <= set(span))
            by_id = {s["args"]["id"]: s for s in spans}
            roots = [s for s in spans if s["cat"] == "workload"]
            self.assertGreaterEqual(len(roots), 1, workload)
            for root in roots:
                layers = [s for s in spans if s["cat"] == "layer"
                          and self.descends(s, root, by_id)]
                layers.sort(key=lambda s: s["ts"])
                for before, after in zip(layers, layers[1:]):
                    self.assertLessEqual(before["ts"] + before["dur"],
                                         after["ts"] + 1e-3)
                covered = sum(s["dur"] for s in layers)
                self_us = 1e6 * root["args"]["engine.self_s"]
                self.assertAlmostEqual(covered + self_us, root["dur"],
                                       delta=1e-3 * (len(layers) + 2))

    @staticmethod
    def descends(span, root, by_id):
        parent = span["args"]["parent"]
        while parent != -1:
            if parent == root["args"]["id"]:
                return True
            parent = by_id[parent]["args"]["parent"]
        return False


class StrippedCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        stripped = ROOT / ".bench_out" / "stripped"
        shutil.rmtree(stripped, ignore_errors=True)
        stripped.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "compute",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180)
        shutil.rmtree(stripped)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
