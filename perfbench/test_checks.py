"""Self-test of the benchmark's output checks.

Each check must pass on a clean result and fail on a deliberately
broken one: swapped strawman/scratchpipe rows, hit_rate = 1.5,
reordered percentiles and a flipped digest byte, among others.

    python3 perfbench/test_checks.py
"""

import copy
import json
import unittest
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
SERVE = "serve:rate=500000,arrival=bursty,batch_max=16,budget_us=300,refresh=lru"
SPECS = ["hybrid", "strawman", "scratchpipe", SERVE]
BATCH = 2048

# Shaped like sys::toJson output; only the checked fields matter.
CLEAN = [
    {"system": "Hybrid CPU-GPU", "iterations": 10,
     "seconds_per_iteration": 0.1697, "hit_rate": None},
    {"system": "Straw-man", "iterations": 10,
     "seconds_per_iteration": 0.0639, "hit_rate": 0.462},
    {"system": "ScratchPipe", "iterations": 10,
     "seconds_per_iteration": 0.0258, "hit_rate": 0.68573486328125},
    {"system": "Serving", "iterations": 10,
     "seconds_per_iteration": 0.0903, "hit_rate": 0.385,
     "serving": {"requests": 20480, "dropped": 0,
                 "latency": {"p50": 0.5632, "p99": 0.8572,
                             "p999": 0.8626, "max": 0.8631}}},
]


class ResultChecks(unittest.TestCase):
    def broken(self, results):
        return checks.check_results(results, SPECS, BATCH)

    def test_clean_result_passes(self):
        self.assertEqual(self.broken(CLEAN), [])

    def test_swapped_strawman_scratchpipe_rows_fail(self):
        results = copy.deepcopy(CLEAN)
        results[1], results[2] = results[2], results[1]
        self.assertEqual(len(self.broken(results)), 1)

    def test_hit_rate_above_one_fails(self):
        results = copy.deepcopy(CLEAN)
        results[2]["hit_rate"] = 1.5
        self.assertEqual(len(self.broken(results)), 1)

    def test_reordered_percentiles_fail(self):
        results = copy.deepcopy(CLEAN)
        latency = results[3]["serving"]["latency"]
        latency["p50"], latency["p99"] = latency["p99"], latency["p50"]
        self.assertEqual(len(self.broken(results)), 1)

    def test_failed_spec_fails(self):
        results = copy.deepcopy(CLEAN)
        results[0]["error"] = "injected"
        self.assertEqual(len(self.broken(results)), 1)

    def test_non_positive_seconds_per_iteration_fails(self):
        results = copy.deepcopy(CLEAN)
        results[0]["seconds_per_iteration"] = 0.0
        self.assertEqual(len(self.broken(results)), 1)

    def test_lost_requests_fail(self):
        results = copy.deepcopy(CLEAN)
        results[3]["serving"]["requests"] -= 1
        self.assertEqual(len(self.broken(results)), 1)


class DigestChecks(unittest.TestCase):
    TEXT = json.dumps(CLEAN)

    def test_identical_digests_pass(self):
        digest = checks.fnv1a64(self.TEXT)
        self.assertEqual(checks.check_digests(
            digest, [("rep 0", digest), ("spsim", digest)]), [])

    def test_flipped_digest_byte_fails(self):
        digest = checks.fnv1a64(self.TEXT)
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        self.assertEqual(len(checks.check_digests(
            digest, [("rep 0", digest), ("spsim", flipped)])), 1)

    def test_flipped_results_byte_changes_digest(self):
        flipped = self.TEXT.replace("0.0258", "0.0259")
        self.assertNotEqual(checks.fnv1a64(flipped),
                            checks.fnv1a64(self.TEXT))

    def test_fnv1a64_reference_values(self):
        self.assertEqual(checks.fnv1a64(""), "cbf29ce484222325")
        self.assertEqual(checks.fnv1a64("a"), "af63dc4c8601ec8c")


class ReplicaChecks(unittest.TestCase):
    def test_exact_hit_rate_passes(self):
        self.assertEqual(checks.check_replica(2247016, 1029784,
                                              0.68573486328125), [])

    def test_one_hit_off_fails(self):
        self.assertEqual(len(checks.check_replica(2247015, 1029785,
                                                  0.68573486328125)), 1)

    def test_invariants(self):
        clean = {"plan_fanout_hits": "7", "replica_hits_all_batches": "7",
                 "find_found": "5", "find_many_found": "5",
                 "trace_cache_cold_hit": "false",
                 "trace_cache_warm_hit": "true"}
        self.assertEqual(checks.check_invariants(clean), [])
        for key, value in (("plan_fanout_hits", "8"), ("find_found", "4"),
                           ("trace_cache_cold_hit", "true"),
                           ("trace_cache_warm_hit", "false")):
            broken = dict(clean, **{key: value})
            self.assertEqual(len(checks.check_invariants(broken)), 1, key)


class Definitions(unittest.TestCase):
    def test_layers_table_covers_every_per_layer_metric(self):
        benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        self.assertEqual(sorted(m["name"] for m in benchmark["per_layer"]),
                         sorted(layers))
        workloads = {w["name"] for w in benchmark["workloads"]}
        for name, entry in layers.items():
            self.assertLessEqual(set(entry["on"]), workloads, name)


if __name__ == "__main__":
    unittest.main()
