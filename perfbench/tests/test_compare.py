"""Self-tests for perfbench/compare.py: host-shape refusal and ratio math."""
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402

SPEC = {"end_to_end": [
    {"name": "sim_events_per_s", "unit": "events/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def run_text(nproc, events, setup, workload="sim-paper"):
    host = {"perfbench_host": {"nproc": nproc, "cpu_model": "X", "compiler": "GNU 12",
                               "build_type": "RelWithDebInfo"},
            "workload": workload, "seed": 1, "trace": 0, "samples": {}}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "sim_events_per_s": {"value": events, "unit": "events/s"},
        "setup_s": {"value": setup, "unit": "s"}}}
    return "log line\n" + json.dumps(host) + "\n" + json.dumps(result) + "\n"


class CompareTest(unittest.TestCase):
    def test_refuses_different_host_shapes(self):
        base = compare.parse_runs(run_text(4, 100.0, 1.0))
        new = compare.parse_runs(run_text(1, 100.0, 1.0))
        with self.assertRaises(ValueError):
            compare.compare(base, new, SPEC)

    def test_change_direction(self):
        self.assertAlmostEqual(compare.change(100.0, 80.0, "higher"), 0.2)
        self.assertAlmostEqual(compare.change(100.0, 120.0, "higher"), -0.2)
        self.assertAlmostEqual(compare.change(1.0, 1.5, "lower"), 0.5)
        self.assertEqual(compare.change(0.0, 5.0, "lower"), 0.0)

    def test_medians_and_regression_flag(self):
        base = compare.parse_runs(run_text(4, 100.0, 1.0) + run_text(4, 110.0, 1.0) +
                                  run_text(4, 90.0, 1.0))
        new = compare.parse_runs(run_text(4, 85.0, 1.1))
        rows, worse = compare.compare(base, new, SPEC)
        by_name = {r[1]: r for r in rows}
        self.assertEqual(by_name["sim_events_per_s"][2], 100.0)
        self.assertTrue(by_name["sim_events_per_s"][5])   # 15% worse > 10%
        self.assertFalse(by_name["setup_s"][5])           # 10% worse < 25%
        self.assertTrue(worse)

    def test_metric_names_in_benchmark_json(self):
        with open(os.path.join(os.path.dirname(compare.HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
