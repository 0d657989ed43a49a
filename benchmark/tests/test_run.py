"""Feeds doctored results to run.py's checker and comparer.

Run with: python3 -m unittest discover -s benchmark/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (benchmark/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUND = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "exch_per_s")


def fake_run(workload="cycle-hot", seed=42, exch=1000.0, **extra):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    metrics["exch_per_s"]["value"] = exch
    doc = {"workload": workload, "seed": seed, "correct": True,
           "attempted": 10, "failed": 0, "checks": {"views_valid": True},
           "metrics": metrics, "info": {}, "host": {"simd": "avx2"}}
    doc.update(extra)
    return doc


def fake_trace_run(workload="cycle-hot"):
    doc = fake_run(workload)
    for m in SPEC["per_layer"]:
        doc["metrics"][m["name"]] = {"value": 2.0, "unit": m["unit"]}
    return doc


HOST = {"cpu_model": "cpu", "nproc": 4, "l3": "300M"}


def results(exch_values, host=HOST):
    runs = [fake_run(exch=v) for v in exch_values]
    return {"host": dict(host), "summary": run.summarize(runs), "runs": runs}


class CheckerTest(unittest.TestCase):
    def test_clean_results_pass(self):
        runs = [fake_run(), fake_run()]
        self.assertEqual(run.check_results(runs, SPEC, [fake_trace_run()]), [])

    def test_failed_check_fails(self):
        bad = fake_run(correct=False, checks={"digest_seq_eq_par": False})
        failures = run.check_results([fake_run(), bad], SPEC)
        self.assertEqual(len(failures), 1)
        self.assertIn("digest_seq_eq_par", failures[0])

    def test_nothing_attempted_fails(self):
        self.assertTrue(run.check_results([fake_run(attempted=0)], SPEC))

    def test_missing_or_zero_metric_fails(self):
        missing = fake_run()
        del missing["metrics"]["getpeer_p50_ns"]
        zero = fake_run()
        zero["metrics"]["setup_s"]["value"] = 0
        self.assertTrue(run.check_results([missing], SPEC))
        self.assertTrue(run.check_results([zero], SPEC))

    def test_series_hash_drift_fails(self):
        a = fake_run("figure", info={"series_hash": "aa"})
        b = fake_run("figure", info={"series_hash": "bb"})
        failures = run.check_results([a, b], SPEC)
        self.assertEqual(len(failures), 1)
        self.assertIn("series hash", failures[0])

    def test_traced_run_missing_layer_metric_fails(self):
        traced = fake_trace_run()
        del traced["metrics"]["sim.queue_hold_ns"]
        failures = run.check_results([fake_run()], SPEC, [traced])
        self.assertTrue(any("sim.queue_hold_ns" in f for f in failures))

    def test_result_line_counts_failed_checks(self):
        bad = fake_run(correct=False, checks={"a": True, "b": False})
        line = run.result_line(bad, SPEC, trace=False)
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)
        self.assertEqual(line["attempted"], 12)

    def test_result_line_refuses_missing_metric(self):
        doc = fake_run()
        del doc["metrics"]["peak_rss_mb"]
        with self.assertRaises(run.BenchError):
            run.result_line(doc, SPEC, trace=False)
        with self.assertRaises(run.BenchError):
            run.result_line(fake_run(), SPEC, trace=True)


class CompareTest(unittest.TestCase):
    def verdicts(self, a, b):
        lines, ok = run.compare(a, b, SPEC)
        row = next(line for line in lines if "exch_per_s " in line)
        return row, ok

    def test_same_results_are_within_bound(self):
        row, ok = self.verdicts(results([100, 101, 99, 100, 100]),
                                results([100, 100, 101, 99, 100]))
        self.assertIn("within bound", row)
        self.assertTrue(ok)

    def test_regression_beyond_bound_is_worse(self):
        slow = 100 * (1 - BOUND - 0.05)
        row, ok = self.verdicts(results([100, 101, 99, 100, 100]),
                                results([slow, slow + 1, slow - 1, slow, slow]))
        self.assertIn("worse", row)
        self.assertFalse(ok)

    def test_wide_spread_is_unresolved(self):
        row, ok = self.verdicts(results([100, 40, 160, 100, 100]),
                                results([99, 98, 100, 99, 99]))
        self.assertIn("unresolved", row)
        self.assertFalse(ok)

    def test_clear_gain_is_better_with_pair_wins(self):
        row, ok = self.verdicts(results([100, 101, 99, 100, 100]),
                                results([120, 121, 119, 120, 120]))
        self.assertIn("better", row)
        self.assertIn("B wins 5/5 pairs", row)
        self.assertTrue(ok)

    def test_different_hosts_are_refused(self):
        other = dict(HOST, nproc=1)
        with self.assertRaises(run.BenchError):
            run.compare(results([100]), results([100], host=other), SPEC)
        lines, _ = run.compare(results([100]), results([100], host=other), SPEC,
                               cross_host=True)
        self.assertTrue(lines)


if __name__ == "__main__":
    unittest.main()
