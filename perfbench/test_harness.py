"""Tests of the benchmark harness's own arithmetic and bookkeeping.

Run from the root of a checkout with either of::

    python3 -m pytest perfbench/test_harness.py -q
    python3 perfbench/test_harness.py

They need neither the program nor a child process.
"""

from __future__ import annotations

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import steadiness  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    SPANS = [
        ("sweep", 0.0, 10.0, -1),
        ("plan.compile", 1.0, 3.0, 0),
        ("pipeline.compile", 1.5, 2.5, 1),
        ("execute_plans", 4.0, 9.0, 0),
        ("engine.execute", 4.5, 8.0, 3),
        ("sample", 5.0, 6.0, 4),
        ("sample", 6.0, 6.5, 4),
        ("fit", 11.0, 12.0, -1),
    ]

    def test_self_time_subtracts_direct_children_only(self):
        selfs = stats.self_times(self.SPANS)
        self.assertAlmostEqual(selfs["sweep"][0], 10.0 - 2.0 - 5.0)
        self.assertAlmostEqual(selfs["plan.compile"][0], 2.0 - 1.0)
        self.assertAlmostEqual(selfs["execute_plans"][0], 5.0 - 3.5)
        self.assertAlmostEqual(selfs["engine.execute"][0], 3.5 - 1.5)
        self.assertEqual(selfs["sample"], (1.5, 2))
        self.assertEqual(selfs["fit"], (1.0, 1))

    def test_self_times_add_up_to_covered_time(self):
        total = sum(seconds for seconds, _calls in stats.self_times(self.SPANS).values())
        self.assertAlmostEqual(total, stats.root_seconds(self.SPANS))
        self.assertAlmostEqual(stats.root_seconds(self.SPANS), 11.0)

    def test_span_ending_before_it_starts_is_refused(self):
        with self.assertRaises(ValueError):
            stats.self_times([("x", 2.0, 1.0, -1)])


class TracerTest(unittest.TestCase):
    def test_wrapped_calls_nest_and_count(self):
        tracer = spans.Tracer()

        def inner(x):
            return x + 1

        inner_w = tracer.wrap(inner, "inner", after=lambda t, r: t.count("seen", r))

        def outer(x):
            return inner_w(x) * 2

        outer_w = tracer.wrap(outer, "outer")
        self.assertEqual(outer_w(1), 4)
        self.assertEqual([s[0] for s in tracer.spans], ["outer", "inner"])
        self.assertEqual(tracer.spans[1][3], 0)
        self.assertEqual(tracer.counts, {"seen": 2.0})

    def test_same_name_directly_inside_is_one_span(self):
        tracer = spans.Tracer()
        base = tracer.wrap(lambda: "built", "engine.build")
        derived = tracer.wrap(lambda: base(), "engine.build")
        self.assertEqual(derived(), "built")
        self.assertEqual(len(tracer.spans), 1)

    def test_exception_closes_the_span(self):
        tracer = spans.Tracer()

        def boom():
            raise KeyError("x")

        with self.assertRaises(KeyError):
            tracer.wrap(boom, "boom")()
        self.assertIsNone(tracer.innermost())
        self.assertGreaterEqual(tracer.spans[0][2], tracer.spans[0][1])


class MedianSpreadTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_spread_uses_statistics_quartiles(self):
        values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 10.6, 9.7]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / statistics.median(values))
        self.assertEqual(stats.spread([5.0]), 0.0)

    def test_worsening_follows_direction(self):
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 11.0, "higher"), -0.1)
        self.assertAlmostEqual(stats.worsening(10.0, 9.0, "higher"), 0.1)
        with self.assertRaises(ValueError):
            stats.worsening(1.0, 1.0, "sideways")

    def test_steadiness_interleaves_the_two_sets(self):
        order = steadiness.interleaved(4)
        self.assertEqual(order, [[0, 1], [1, 0], [0, 1], [1, 0]])
        # Each set runs first as often as it runs second.
        firsts = [pair[0] for pair in steadiness.interleaved(steadiness.RUNS)]
        self.assertEqual(firsts.count(0), firsts.count(1))


class TallyTest(unittest.TestCase):
    def test_every_round_attempts_every_check(self):
        names = ["a", "b", "c"]
        rounds = [
            {"a": True, "b": True, "c": True},
            {"a": True, "b": False, "c": True},
            None,  # crashed round
            {"a": True, "b": True},  # a missing check fails
        ]
        self.assertEqual(stats.tally(rounds, names), (12, 1 + 3 + 1))

    def test_failed_share_does_not_depend_on_round_count(self):
        names = ["a", "b"]
        one = {"a": True, "b": False}
        for count in (1, 2, 5):
            attempted, failed = stats.tally([one] * count, names)
            self.assertEqual(failed * 2, attempted)


class ImportTimeTest(unittest.TestCase):
    LINES = [
        "import time: self [us] | cumulative | imported package",
        "import time:        50 |         50 |     numpy.core",
        "import time:       100 |        150 |   numpy",
        "import time:        30 |         30 |       scipy._lib",
        "import time:        70 |        100 |     scipy",
        "import time:       200 |        300 |   scipy.optimize",
        "import time:        40 |         40 |   scipy.linalg",
        "import time:        10 |        500 | repro",
        "some warning on stderr",
    ]

    def test_counts_modules_and_outermost_scipy(self):
        parsed = stats.parse_importtime(self.LINES)
        self.assertEqual(parsed["modules"], 7.0)
        self.assertAlmostEqual(parsed["scipy_s"], (300 + 40) * 1e-6)


class CheckHelpersTest(unittest.TestCase):
    def test_ordered_compares_the_gap_with_its_error_bar(self):
        high = [(0.9, 0.01), (0.8, 0.01)]
        low = [(0.7, 0.01), (0.6, 0.01)]
        self.assertTrue(workloads.ordered(high, low, z=3.0))
        self.assertFalse(workloads.ordered(low, high, z=3.0))
        # Trailing by less than two error bars passes a z = -2 check only.
        near = [(0.69, 0.01), (0.59, 0.01)]
        self.assertTrue(workloads.ordered(near, low, z=-2.0))
        self.assertFalse(workloads.ordered(near, low, z=0.0))

    def test_edge_matchings_are_proper(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6)]
        matchings = workloads.edge_matchings(edges)
        self.assertEqual(sorted(e for m in matchings for e in m), sorted(edges))
        for matching in matchings:
            qubits = [q for edge in matching for q in edge]
            self.assertEqual(len(qubits), len(set(qubits)))

    def test_fig8_error_bar_grows_with_sample_spread(self):
        fig8 = workloads.WORKLOADS["fig8_layer10_vec"]
        tight = [[0.98, 0.97], [0.95, 0.96], [0.9, 0.91], [0.86, 0.85]]
        loose = [[0.99, 0.9], [0.99, 0.9], [0.95, 0.8], [0.9, 0.75]]
        tight, loose = ({"lf": 0.9, "samples": {"(0,)": s}} for s in (tight, loose))
        self.assertLess(fig8.lf_error(tight), fig8.lf_error(loose))

    def test_every_workload_names_its_checks_once(self):
        for name, workload in workloads.WORKLOADS.items():
            if name == "fig3_ramsey_vec":
                continue  # its grid comes from the program's case table
            names = workload.check_names()
            self.assertEqual(len(names), len(set(names)), name)


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(run.END_TO_END),
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(run.PER_LAYER),
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_every_self_time_metric_names_a_traced_span(self):
        traced = {span for *_, span, _lookups, _after in spans.FUNCTIONS}
        traced |= {span for *_, span, _after in spans.METHODS}
        traced.add("import.repro")
        computed = {
            "import.scipy_s", "trace.overhead_s", "trace.other_s",
        }
        for name, unit, _better in run.PER_LAYER:
            if unit == "s" and name not in computed:
                self.assertIn(name[: -len("_s")], traced, name)


if __name__ == "__main__":
    unittest.main()
