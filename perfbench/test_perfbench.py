"""Tests of the benchmark itself.

  python3 perfbench/test_perfbench.py

The seed test builds and runs perfbench_driver (--list-inputs only), so it
needs the library sources next to perfbench/.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
import run  # noqa: E402


def bench():
    with open(run.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def record(workload):
    """A driver record with every counter the workload's driver sets."""
    counters = {
        "area_ge": 1000.0, "netlist.nets": 500, "netlist.faults": 1000,
        "logic.literals_2l": 300, "ostr.nodes_investigated": 10,
        "ostr.nodes_pruned": 5, "partition.interned": 7,
        "partition.memo_lookups": 100, "partition.memo_hits": 90,
    }
    series = {}
    if workload == "synth":
        counters.update({"literals_ml": 200, "logic.factored_nodes": 40})
    elif workload == "faultsim":
        counters.update({"campaign_faults": 900, "campaign_detected": 800,
                         "baseline_faults": 8, "baseline_fault_list": 80,
                         "bist.session_runs": 20,
                         "bist.cycles_simulated": 5000, "bist.ops_evaluated": 10,
                         "bist.ops_possible": 100, "bist.collapsed_total": 700})
        series = {"campaign_s": [1.0, 1.2], "baseline_s": [0.5, 0.4]}
    elif workload == "fleet":
        counters.update({"fleet.packed_runs": 30, "bist.session_runs": 30,
                         "bist.cycles_simulated": 9000})
        series = {"instances": [1000.0, 1000.0]}
    elif workload == "sweep":
        counters.update({"deadline_s": 0.2, "sweep.faults_simulated": 100,
                         "jobs.busy_s": 3.0, "jobs.pool_utilization": 0.7,
                         "jobs.tasks": 200, "jobs.steals": 3,
                         "jobs.cache_hit_rate": 0.5, "jobs.degraded": 4,
                         "bist.campaign_s": 1.0, "bist.baseline_s": 2.0,
                         "baseline_faults": 50})
        series = {"job_s": [0.01 * k for k in range(1, 153)]}
    return {"workload": workload, "setup_s": [0.2, 0.1, 0.3], "pass_s": [2.0, 2.2],
            "traced_pass_s": 2.1, "peak_rss_mb": 50.0,
            "attempted": 10, "failed": 0, "failures": [], "series": series,
            "counters": counters, "host": {}}


SPANS = [
    {"name": "bench.pass", "layer": "bench", "dur": 10.0, "id": 0, "parent": -1,
     "probe": False},
    {"name": "bench.item", "layer": "bench", "dur": 9.0, "id": 1, "parent": 0,
     "probe": False},
    {"name": "ostr.solve_ostr", "layer": "ostr", "dur": 2.0, "id": 2, "parent": 1,
     "probe": False},
    {"name": "bist.build_fig1", "layer": "bist", "dur": 5.0, "id": 3, "parent": 1,
     "probe": False},
    {"name": "logic.minimize_for", "layer": "logic", "dur": 1.0, "id": 4,
     "parent": 1, "probe": True},
]


class PercentileTest(unittest.TestCase):
    def test_selected_percentile_leaves_ten_samples_beyond(self):
        for n in range(1, 3000):
            p = metrics.select_percentile(n)
            if p is None:
                self.assertLess(metrics.samples_beyond(n, 50), 10)
                continue
            self.assertGreaterEqual(metrics.samples_beyond(n, p), 10, n)
            higher = [q for q in metrics.PERCENTILES if q > p]
            for q in higher:
                self.assertLess(metrics.samples_beyond(n, q), 10, (n, q))

    def test_sweep_job_count_reports_p90(self):
        self.assertEqual(metrics.select_percentile(152), 90)
        self.assertEqual(metrics.samples_beyond(152, 90), 15)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 90), 90)
        self.assertEqual(metrics.percentile([3.0], 90), 3.0)
        jobs = record("sweep")["series"]["job_s"]
        beyond = [t for t in jobs if t > metrics.percentile(jobs, 90)]
        self.assertGreaterEqual(len(beyond), 10)


class MetricNamesTest(unittest.TestCase):
    def test_end_to_end_names_match_benchmark(self):
        names = [m["name"] for m in bench()["end_to_end"]]
        for w in bench()["workloads"]:
            got = metrics.end_to_end(record(w["name"]))
            self.assertEqual(sorted(got), sorted(names), w["name"])
            self.assertTrue(all(v > 0 for v in got.values()), w["name"])

    def test_per_layer_names_match_benchmark(self):
        names = {m["name"] for m in bench()["per_layer"]}
        for w in bench()["workloads"]:
            got = metrics.per_layer(record(w["name"]), SPANS)
            self.assertEqual(names - set(got), set(), w["name"])

    def test_benchmark_file_shape(self):
        b = bench()
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in b[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in b["end_to_end"]])
        bounds = {m["name"]: m["bound"] for m in b["end_to_end"]}
        self.assertTrue(all(0 < v <= 0.25 for v in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(len(w["why"]) <= 200 for w in b["workloads"]))


class TraceTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        st = metrics.self_times(SPANS)
        self.assertAlmostEqual(st["bench"], 1.0 + 1.0)
        self.assertAlmostEqual(st["ostr"], 2.0)
        self.assertAlmostEqual(st["bist"], 5.0)

    def test_overhead_leaves_probes_out(self):
        got = metrics.per_layer(record("synth"), SPANS)
        # traced pass 2.1 s minus 1.0 s of probes, over the 2.1 s median pass
        self.assertAlmostEqual(got["trace.overhead_frac"], 1.1 / 2.1 - 1.0)
        self.assertAlmostEqual(got["logic.minimize_s"], 1.0)
        self.assertAlmostEqual(got["bist.build_s"], 5.0)


class SeedTest(unittest.TestCase):
    """The seed changes the seeded inputs and nothing else."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def inputs(self, workload, seed):
        out = subprocess.run([str(run.DRIVER), "--workload", workload, "--seed",
                              str(seed), "--list-inputs"], stdout=subprocess.PIPE,
                             check=True, text=True, timeout=120).stdout
        return json.loads(out)

    def test_seed_changes_only_seeded_inputs(self):
        for w in bench()["workloads"]:
            a, b = self.inputs(w["name"], 1), self.inputs(w["name"], 2)
            self.assertEqual(a["fixed"], b["fixed"], w["name"])
            self.assertTrue(a["fixed"], w["name"])
            if a["seeded"]:
                self.assertNotEqual(a["seeded"], b["seeded"], w["name"])
                for key in a["seeded"]:
                    if key in b["seeded"]:
                        self.assertNotEqual(a["seeded"][key], b["seeded"][key])
            self.assertEqual(a, self.inputs(w["name"], 1), w["name"])


if __name__ == "__main__":
    unittest.main()
