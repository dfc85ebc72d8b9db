"""Self-tests of the benchmark's own arithmetic and determinism.

    python3 -m unittest discover -s bbsbench/tests

The determinism tests build the driver first (incremental, into the same
directory run.py uses).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import benchlib  # noqa: E402
import run  # noqa: E402


class TailPercentileRule(unittest.TestCase):
    def test_refuses_p99_with_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.tail_percentile([float(i) for i in range(999)], 0.99)

    def test_reports_p99_with_ten_samples_beyond(self):
        values = [float(i) for i in range(1000)]
        p99 = benchlib.tail_percentile(values, 0.99)
        self.assertAlmostEqual(p99, 989.01)
        self.assertEqual(sum(1 for v in values if v > p99), 10)

    def test_ties_at_the_tail_leave_nothing_beyond(self):
        with self.assertRaises(benchlib.InsufficientSamples):
            benchlib.tail_percentile([1.0] * 5000, 0.99)

    def test_median_interpolates(self):
        self.assertEqual(benchlib.percentile([4.0, 1.0, 3.0, 2.0], 0.5), 2.5)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_the_union_of_children(self):
        spans = [
            ["root", -1, 0, 0.0, 10.0],
            ["a", 0, 0, 1.0, 3.0],
            ["b", 0, 0, 2.0, 5.0],   # overlaps a: union [1, 5]
            ["c", 0, 0, 7.0, 8.0],
            ["d", 1, 0, 1.5, 2.0],   # grandchild: only a's self time
        ]
        self.assertEqual(benchlib.self_times(spans),
                         [5.0, 1.5, 3.0, 1.0, 0.5])

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(benchlib.covered((0.0, 4.0), [(-1.0, 1.0),
                                                       (3.0, 9.0)]), 2.0)

    def test_engine_coverage_per_request(self):
        spans = [
            ["api.engine", -1, 7, 0.0, 10.0],
            ["solver.ipm", 0, 7, 0.0, 6.0],
            ["core.mapping", 0, 7, 6.0, 9.0],
        ]
        totals, coverage = benchlib.per_request(spans)
        self.assertEqual(totals[7]["solver.ipm"], 6.0)
        self.assertAlmostEqual(coverage[7], 0.9)

    def test_thirds_split_by_rank(self):
        rows = [{"tasks": t} for t in (40, 10, 30, 20, 60, 50)]
        self.assertEqual([[r["tasks"] for r in g]
                          for g in benchlib.thirds(rows)],
                         [[10, 20], [30, 40], [50, 60]])


class ExpectedComparison(unittest.TestCase):
    def test_objective_within_tolerance(self):
        self.assertTrue(benchlib.values_match(100.0, 100.0 * (1 + 5e-5)))
        self.assertFalse(benchlib.values_match(100.0, 100.0 * (1 + 2e-4)))

    def test_absolute_floor_near_zero(self):
        self.assertTrue(benchlib.values_match(0.0, 5e-7))
        self.assertFalse(benchlib.values_match(0.0, 5e-6))

    def test_null_and_lists(self):
        self.assertTrue(benchlib.values_match(None, None))
        self.assertFalse(benchlib.values_match(None, 1.0))
        self.assertTrue(benchlib.values_match([None, 2.0], [None, 2.0001e0]))
        self.assertFalse(benchlib.values_match([None, 2.0], [2.0, 2.0]))
        self.assertFalse(benchlib.values_match([1.0], [1.0, 1.0]))

    def test_classification(self):
        exp = ["ok", 10.0]
        self.assertEqual(benchlib.classify(["k", "ok", 10.0, "", ""], exp),
                         (False, False, ""))
        self.assertEqual(
            benchlib.classify(["k", "ok", 10.1, "", ""], exp)[:2],
            (True, True))
        self.assertEqual(
            benchlib.classify(["k", "ok", 10.0, "platform", ""], exp)[:2],
            (True, True))
        self.assertEqual(
            benchlib.classify(["k", "ok", 10.0, "cap", ""], exp),
            (True, False, "cap_overshoot"))
        self.assertEqual(
            benchlib.classify(["k", "ok", 10.0, "cap+mcr", ""], exp)[:2],
            (True, True))
        self.assertEqual(
            benchlib.classify(["k", "missing", None, "", ""], exp)[:2],
            (True, True))

    def test_overshoot_may_only_add_memory(self):
        exp = ["ok", 10.0]
        self.assertEqual(
            benchlib.classify(["k", "ok", 10.0, "cap+cap_memory", ""], exp),
            (True, False, "cap_overshoot"))
        # A platform violation that clamping to the caps does not remove
        # (a TDM wheel over budget) is wrong, with or without an overshoot.
        self.assertTrue(benchlib.classify(
            ["k", "ok", 10.0, "cap+platform", ""], exp)[1])
        self.assertTrue(benchlib.classify(
            ["k", "ok", 10.0, "cap_memory", ""], exp)[1])

    def test_numerical_failure_against_the_reference(self):
        row = ["k", "error", None, "", "numerical_failure"]
        self.assertEqual(benchlib.classify(row, ["error", None]),
                         (True, False, "numerical_failure"))
        self.assertEqual(benchlib.classify(row, ["ok", 10.0]),
                         (True, False, "extra_numerical_failure"))
        self.assertTrue(benchlib.classify(
            ["k", "error", None, "", "internal"], ["error", None])[1])

    def test_bisected_periods_get_the_search_tolerance(self):
        exp = ["ok", 10.0]
        row = ["s0.l0.min_period", "ok", 10.003, "", ""]
        self.assertFalse(benchlib.classify(row, exp)[0])
        row = ["s0.l0.sweep", "ok", [10.003], "", ""]
        self.assertTrue(benchlib.classify(row, ["ok", [10.0]])[1])

    def test_bisection_overshoot_is_a_known_failure(self):
        exp = ["ok", 8.0]
        self.assertEqual(
            benchlib.classify(["s1.l0.min_period", "ok", 10.2, "", ""], exp),
            (True, False, "period_overshoot"))
        # Below the reference with a re-verified mapping, the reference
        # missed it; with a failing mapping, it is wrong.
        self.assertEqual(
            benchlib.classify(["s1.l0.min_period", "ok", 6.0, "", ""], exp),
            (False, False, "reference_unsolved"))
        self.assertTrue(benchlib.classify(
            ["s1.l0.min_period", "ok", 6.0, "mcr", ""], exp)[1])
        self.assertTrue(benchlib.classify(
            ["s1.l0.min_period", "ok", None, "", ""], exp)[1])

    def test_false_infeasible_is_a_known_failure(self):
        self.assertEqual(
            benchlib.classify(["k", "infeasible", None, "", ""],
                              ["ok", 5.0]),
            (True, False, "false_infeasible"))
        sweep = ["s7.l2.sweep", "ok", [None, None, 115.5734], "", ""]
        self.assertEqual(
            benchlib.classify(sweep, ["ok", [None, 139.5, 115.5734]]),
            (True, False, "false_infeasible"))
        # Feasibility the reference does not find needs a re-verified
        # allocation; a mismatched objective is wrong.
        self.assertEqual(
            benchlib.classify(["k", "ok", 5.0, "", ""], ["error", None]),
            (False, False, "reference_unsolved"))
        self.assertTrue(benchlib.classify(
            ["k", "ok", 5.0, "cap+mcr", ""], ["infeasible", None])[1])
        sweep = ["s7.l2.sweep", "ok", [None, 140.5, 115.5734], "", ""]
        self.assertTrue(benchlib.classify(
            sweep, ["ok", [None, 139.5, 115.5734]])[1])

    def test_gate_counts(self):
        rows = [["a", "ok", 1.0, "", ""], ["b", "ok", 2.0, "cap", ""],
                ["c", "missing", None, "", ""]]
        expected = {"a": ["ok", 1.0], "b": ["ok", 2.0], "c": ["ok", 3.0]}
        counts = benchlib.gate(rows, expected, {"cap_overshoot": 0.5})
        self.assertEqual((counts["attempted"], counts["failed"],
                          counts["wrong"]), (3, 2, 1))

    def test_gate_refuses_rows_without_expected_results(self):
        counts = benchlib.gate([["x", "ok", 1.0, "", ""]], {}, {})
        self.assertEqual(counts["wrong"], 1)

    def test_known_defects_are_wrong_beyond_their_limit(self):
        rows = [["k%d" % i, "ok", 1.0, "cap" if i < 30 else "", ""]
                for i in range(100)]
        expected = {"k%d" % i: ["ok", 1.0] for i in range(100)}
        within = benchlib.gate(rows, expected, {"cap_overshoot": 0.3})
        self.assertEqual((within["failed"], within["wrong"]), (30, 0))
        beyond = benchlib.gate(rows, expected, {"cap_overshoot": 0.25})
        self.assertEqual((beyond["failed"], beyond["wrong"]), (30, 5))
        self.assertEqual(beyond["reasons"]["over limit: cap_overshoot"], 5)
        # A kind without a limit may not occur at all.
        self.assertEqual(benchlib.gate(rows, expected, {})["wrong"], 30)

    def test_every_catalogue_has_limits(self):
        for workload, name in benchlib.CATALOGUE.items():
            with self.subTest(workload=workload):
                self.assertIn(name, benchlib.DEFECT_LIMITS)
                self.assertTrue(
                    os.path.exists(benchlib.expected_path(workload)))


class MetricNames(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json declares."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_end_to_end(self):
        doc = {"mode": "closed_loop", "attempted": 2000, "round": 100,
               "latency_ms": [float(i % 1000) for i in range(2000)],
               "request_cpu_ms": [1.0] * 2000,
               "calibration_ms": [8.0] * 21, "calibration_nominal_ms": 8.0,
               "setup_s": [0.2, 0.3, 0.4],
               "setup_calibration_ms": [8.0] * 4, "peak_rss_mb": 50.0}
        metrics = benchlib.end_to_end(doc, {"failed": 3})
        self.assertEqual(
            {m: u for m, (_, u) in metrics.items()},
            {m["name"]: m["unit"] for m in self.spec["end_to_end"]})
        self.assertAlmostEqual(metrics["ok_share"][0], 0.9985)
        self.assertAlmostEqual(metrics["cpu_ms_per_req"][0], 1.0)

    def test_per_layer(self):
        spans = [["request", -1, 0, 0.0, 10.0], ["io.parse", 0, 0, 0.0, 1.0],
                 ["api.engine", 0, 0, 1.0, 9.0],
                 ["core.build", 2, 0, 1.0, 2.0],
                 ["solver.kkt_first", 2, 0, 2.0, 3.0],
                 ["solver.kkt_numeric", 2, 0, 3.0, 3.5],
                 ["solver.kkt_solve", 2, 0, 3.5, 4.0],
                 ["solver.ipm", 2, 0, 4.0, 8.0],
                 ["io.serialise", 0, 0, 9.0, 10.0]]
        gaps = [i * 0.001 for i in range(1000)]
        doc = {"spans": spans,
               "counters": [[30, True, 100, 10, 1, 0, 0, 0, 0, 2048, 1024]],
               "warmup": {"spans": [], "counters": []},
               "queue_ms": gaps, "transport_ms": gaps, "engine_ms": [8.0],
               "engine_stats": {"pool_hits": 0, "pool_misses": 1,
                                "evictions": 0},
               "cache_load_ms": 0.3, "calibration_ms": [8.0, 9.0, 10.0]}
        metrics = benchlib.per_layer(doc)
        metrics.update(benchlib.service_layer(doc))
        metrics.update(benchlib.telemetry_layer(doc))
        metrics.update(benchlib.defect_layer({"reasons": {}}))
        self.assertEqual(
            {m: u for m, (_, u) in metrics.items()},
            {m["name"]: m["unit"] for m in self.spec["per_layer"]})
        self.assertAlmostEqual(metrics["trace.child_coverage"][0], 7 / 8)
        self.assertAlmostEqual(metrics["solver.kkt_symbolic_ms.t3"][0], 0.5)


class HostSpeed(unittest.TestCase):
    """Times are scaled by the calibration timed around each round."""

    def doc(self, host=1.0, program=1.0, slow_stretch=()):
        """20 rounds of 100 requests; the host runs `host` times slower
        throughout, and another 1.5 times slower on the rounds of
        `slow_stretch` (calibrations inside it included)."""
        def speed(k):
            return host * (1.5 if k in slow_stretch else 1.0)
        latency, cpu = [], []
        for k in range(20):
            latency += [program * speed(k) * (1.0 + i + k / 100.0)
                        for i in range(100)]
            cpu += [program * speed(k) * 0.9] * 100
        cal = [8.0 * host * (1.5 if k in slow_stretch or k - 1 in
                             slow_stretch else 1.0) for k in range(21)]
        return {"round": 100, "latency_ms": latency, "request_cpu_ms": cpu,
                "calibration_ms": cal, "calibration_nominal_ms": 8.0,
                "attempted": 2000,
                "setup_s": [0.2 * host, 0.3 * host, 0.2 * host],
                "setup_calibration_ms": [8.0 * host, 16.0 * host, 8.0 * host,
                                         8.0 * host],
                "peak_rss_mb": 1.0}

    def metric(self, doc, name):
        return benchlib.end_to_end(doc, {"failed": 0})[name][0]

    def test_rounds_are_complete(self):
        doc = self.doc()
        doc["latency_ms"] += [99.0] * 30
        doc["request_cpu_ms"] += [99.0] * 30
        rounds = benchlib.rounds(doc)
        self.assertEqual(len(rounds), 20)
        self.assertAlmostEqual(sum(rounds[0][0]), 5050.0)

    def test_a_slower_host_does_not_count(self):
        quiet, slow = self.doc(), self.doc(host=1.4)
        for name in ("throughput_rps", "p50_ms", "p99_ms", "cpu_ms_per_req",
                     "setup_s"):
            self.assertAlmostEqual(self.metric(quiet, name),
                                   self.metric(slow, name), msg=name)

    def test_a_slow_stretch_counts_only_at_its_edges(self):
        # The calibration between a quiet and a slow round sees the slow
        # host, so the two quiet rounds next to the stretch read faster.
        quiet, slow = self.doc(), self.doc(slow_stretch={5, 6, 7})
        for name in ("throughput_rps", "p50_ms", "cpu_ms_per_req"):
            ratio = self.metric(slow, name) / self.metric(quiet, name)
            self.assertLess(abs(ratio - 1.0), 0.03, name)

    def test_a_slower_program_counts(self):
        quiet, slower = self.doc(), self.doc(program=1.5)
        self.assertAlmostEqual(self.metric(slower, "throughput_rps"),
                               self.metric(quiet, "throughput_rps") / 1.5)
        self.assertAlmostEqual(self.metric(slower, "cpu_ms_per_req"), 1.35)

    def test_setup_is_scaled_per_repetition(self):
        # 0.2 s between calibrations of 8 and 16 ms: 0.2 * 8 / 12.
        for got, want in zip(benchlib.setup_times(self.doc()),
                             [0.2 * 8 / 12, 0.3 * 8 / 12, 0.2]):
            self.assertAlmostEqual(got, want)


class DefectProbe(unittest.TestCase):
    """The workloads send no request that shows a known defect; the probe
    sends those and counts them."""

    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.ensure_built()
        cls.cold_errors = {k for k, v in benchlib.load_expected(
            "cold_solve").items() if v[0] == "error"}

    def keys(self, workload, seed=1):
        cmd = [self.binary, "keys", "--workload", workload, "--seed",
               str(seed)]
        return set(subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                                  text=True).stdout.split())

    def test_probe_sends_every_recorded_cold_failure(self):
        probe = self.keys("defect_probe")
        self.assertEqual({k for k in probe if k.startswith("c")},
                         self.cold_errors)
        self.assertEqual(len(self.cold_errors), 8)

    def test_cold_workload_avoids_recorded_failures(self):
        for seed in range(1, 31):
            keys = self.keys("cold_solve", seed)
            self.assertEqual(len(keys), 1000)
            self.assertFalse(keys & self.cold_errors, seed)

    def test_sweep_workload_sends_sweeps_only(self):
        keys = self.keys("sweep_explore")
        self.assertEqual(len(keys), 32)
        self.assertTrue(all(k.endswith(".sweep") for k in keys))

    def test_probe_counts_known_defects_and_refuses_wrong_answers(self):
        sweep = benchlib.load_expected("sweep_explore")["s0.l0.sweep"]
        rows = [["c389.v10", "error", None, "", "numerical_failure"],
                ["s0.l0.sweep", "ok", sweep[1], "cap", ""],
                ["s0.l0.min_period", "ok", 1e9, "", ""]]
        probe = benchlib.probe_gate(rows)
        self.assertEqual(probe["wrong"], 0)
        metrics = benchlib.defect_layer(probe)
        self.assertEqual(metrics["defects.numerical_failure"], (1, "count"))
        self.assertEqual(metrics["defects.period_overshoot"], (1, "count"))
        rows.append(["s0.l0.sweep", "ok", sweep[1], "mcr", ""])
        self.assertEqual(benchlib.probe_gate(rows)["wrong"], 1)


class PassLayers(unittest.TestCase):
    """A traced pass supplies only its own layer's metrics."""

    def test_telemetry_layer_needs_no_tail(self):
        # 1000 tied gaps give no p99; the restart pass must not need one.
        doc = {"counters": [[30, True, 100, 10, 1, 0, 0, 5, 1, 2048, 1024]],
               "cache_load_ms": 2.0, "queue_ms": [0.001] * 1000}
        self.assertEqual(benchlib.telemetry_layer(doc), {
            "telemetry.cache_load_ms": (2.0, "ms"),
            "telemetry.symbolic_loads": (5, "count"),
            "telemetry.seed_rejects": (1, "count")})

    def test_service_layer_from_daemon_stats(self):
        def stats(stolen, served):
            return {"result": {"stolen": stolen, "workers": [
                {"engine": {"requests": n}} for n in served]}}
        gaps = [i * 0.001 for i in range(1000)]
        metrics = benchlib.service_layer({
            "queue_ms": gaps, "transport_ms": gaps,
            "stats_before": stats(5, [10, 20]),
            "stats_after": stats(9, [70, 60])})
        self.assertEqual(metrics["service.steals"], (4, "count"))
        self.assertAlmostEqual(metrics["service.worker_share_max"][0], 0.6)
        self.assertTrue(all(name.startswith("service.") for name in metrics))


class Spread(unittest.TestCase):
    def test_relative_interquartile_spread(self):
        q1, med, q3, rel = benchlib.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(rel, 1.0)


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary, _ = run.ensure_built()

    def digest(self, workload, seed, seconds=10):
        cmd = [self.binary, "digest", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds)]
        return subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True).stdout.strip()

    def test_streams_repeat_per_seed(self):
        passes = tuple(w for w, _ in run.PASSES.values())
        for workload in run.WORKLOADS + passes:
            with self.subTest(workload=workload):
                first = self.digest(workload, 3)
                self.assertEqual(first, self.digest(workload, 3))
                self.assertNotEqual(first, self.digest(workload, 4))

    def test_open_loop_schedule_depends_on_seed_and_seconds_only(self):
        a = self.digest("serve_admission", 5)
        self.assertEqual(a, self.digest("serve_admission", 5))
        self.assertNotEqual(a, self.digest("serve_admission", 6))
        self.assertNotEqual(a, self.digest("serve_admission", 5, seconds=9))


if __name__ == "__main__":
    unittest.main()
