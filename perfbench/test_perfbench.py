"""The benchmark's own tests: python3 perfbench/test_perfbench.py

They need no build: metric assembly is driven with synthetic documents in
the format perfbench.cc prints.
"""

import json
import os
import re
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def hunt(name, domain="mtable", found=True, reproduced=True, to_bug=7):
    return {"name": name, "domain": domain, "reference": 5, "found": found,
            "reproduced": reproduced, "bug_kind": "safety",
            "executions_to_bug": to_bug if found else 0,
            "executions": 10, "steps": 200, "seconds": 0.6, "replay_ms": 0.2,
            "slices": [[4, 80, 400_000_000], [1, 20, 100_000_000]]}


def campaign(name="samplerepl-fixed", violations=0, saturated=False):
    return {"name": name, "domain": "samplerepl", "executions": 100,
            "steps": 5000, "seconds": 1.0, "cpu_seconds": 1.8,
            "violations": violations, "distinct_states": 4000,
            "pruned": 10, "hits": 300, "misses": 4000,
            "saturated": saturated, "compactions": 2, "runs": 2,
            "bloom_fp": 3, "events": 9000,
            "workers": [{"executions": 60, "seconds": 1.0},
                        {"executions": 40, "seconds": 0.8}],
            "corpus": {"entries": 5, "added": 6, "duplicates": 1,
                       "sampled": 90}}


def pass_doc(workload, missed=(), **kw):
    doc = {"units": 1, "seconds": 2.0, "resolve_ms": 0.3,
           "hunts": [], "campaigns": []}
    if workload == "bughunt":
        doc["hunts"] = [[hunt(n, found=n not in missed, **kw)
                         for n in metrics.HUNTS]]
    else:
        doc["campaigns"] = [[campaign(**kw)]]
    return doc


def raw_doc(workload, **kw):
    doc = {"workload": workload, "seed": 0, "hw_conc": 4,
           "setup_s": [0.3, 0.1, 0.2], "peak_rss_kb": 2048,
           "plain": pass_doc(workload, **kw),
           "traced": pass_doc(workload, **kw),
           "offline": {"fingerprint": [{"id": "x", "inserts": 1200,
                                        "quiet_inserts": 1000,
                                        "insert_ns_total": 50000.0,
                                        "compactions": 1,
                                        "compaction_ns_total": 2e6}],
                       "corpus_add_ns": [1000, 2000, 3000]}}
    if workload == "stateful_fixed":
        doc["obs_pairs"] = {"pairs": 2, "on_seconds": 2.1,
                            "off_seconds": 2.0}
    return doc


SPANS = [
    {"span": "workload", "id": "w", "parent": "", "start": 0, "end": 100},
    {"span": "campaign", "id": "w/a/u0", "parent": "w", "start": 0,
     "end": 90},
] + [
    {"span": "exec", "id": "w/a/u0/w0/%d" % i, "parent": "w/a/u0",
     "start": 10 * i + 1, "end": 10 * i + 9, "prepare_ns": 1,
     "gap_ns": 0 if i == 0 else 1, "harness_ns": 2 if i == 0 else 0,
     "harness_calls": 1 if i == 0 else 0, "decisions": 3,
     "decision_ns": 3, "steps": 2}
    for i in range(5)
]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(metrics.percentile(values, 50), 5)
        self.assertEqual(metrics.percentile(values, 100), 10)
        self.assertEqual(metrics.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(metrics.percentile(list(range(1, 1001)), 99.9), 999)
        self.assertEqual(metrics.percentile([7], 99), 7)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_percentile(100_000), 99.99)
        self.assertEqual(metrics.tail_percentile(99_999), 99.9)
        self.assertEqual(metrics.tail_percentile(1000), 99.0)
        self.assertEqual(metrics.tail_percentile(999), 90.0)
        self.assertEqual(metrics.tail_percentile(100), 90.0)
        self.assertEqual(metrics.tail_percentile(99), 50.0)

    def test_summary_reports_sample_count(self):
        summary = metrics.timing_summary(list(range(1, 1001)))
        self.assertEqual(summary, {"p50": 500, "tail": 990,
                                   "tail_pctl": 99.0, "samples": 1000})
        self.assertEqual(metrics.timing_summary([])["samples"], 0)

    def test_quartile_spread(self):
        values = list(range(1, 10))
        q1, median, q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, median, q3), (2.5, 5.0, 7.5))
        self.assertEqual(metrics.quartile_spread(values), 1.0)
        self.assertEqual(metrics.quartile_spread([4.0] * 10), 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_keys_and_limits(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(len(self.bench["end_to_end"]), 16)
        self.assertLessEqual(len(self.bench["per_layer"]), 128)
        self.assertTrue(2 <= len(self.bench["workloads"]) <= 8)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)
        self.assertLessEqual(len(json.dumps(self.bench)), 64 * 1024)

    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in self.bench["workloads"]]
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_bounds_and_setup(self):
        setup = [m for m in self.bench["end_to_end"]
                 if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        bounds = [m["bound"] for m in self.bench["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(setup[0]["bound"], max(bounds))

    def test_workloads_match_the_command(self):
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]),
                         run.WORKLOADS)

    def test_declared_metrics_match_the_code(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.bench["end_to_end"]]
        self.assertEqual(declared, metrics.END_TO_END)
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.bench["per_layer"]]
        self.assertEqual(declared, metrics.PER_LAYER)


class PrintedMetricsTest(unittest.TestCase):
    """Every metric the command prints is declared, with its unit."""

    def setUp(self):
        bench = load_benchmark()
        self.e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        self.layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    def test_end_to_end(self):
        for workload in run.WORKLOADS:
            printed = metrics.end_to_end(raw_doc(workload))
            self.assertEqual({k: v["unit"] for k, v in printed.items()},
                             self.e2e)
            for value in printed.values():
                self.assertGreater(value["value"], 0)

    def test_per_layer(self):
        for workload in run.WORKLOADS:
            printed = metrics.per_layer(raw_doc(workload), SPANS)
            self.assertEqual({k: v["unit"] for k, v in printed.items()},
                             self.layer)


class LayerMathTest(unittest.TestCase):
    def test_offline_replay_costs(self):
        printed = metrics.per_layer(raw_doc("guided"), SPANS)
        # Insert cost from the 1000 inserts of blocks without compaction.
        self.assertEqual(printed["core.fingerprint.insert_ns"]["value"],
                         50.0)
        self.assertEqual(printed["core.fingerprint.compaction_ms"]["value"],
                         2.0)
        self.assertEqual(
            printed["core.fingerprint.replay_compactions"]["value"], 1)

    def test_obs_overhead_from_paired_runs(self):
        printed = metrics.per_layer(raw_doc("stateful_fixed"), SPANS)
        self.assertAlmostEqual(printed["obs.overhead_pct"]["value"], 5.0)
        printed = metrics.per_layer(raw_doc("guided"), SPANS)
        self.assertEqual(printed["obs.overhead_pct"]["value"], 0.0)

    def test_self_times_from_spans(self):
        layers = metrics._span_layers(SPANS)
        self.assertEqual(layers["execs"], 5)
        # Five executions of 8 ns: 1 prepare, 3 decisions, 2 harness once.
        self.assertEqual(layers["step_ns"], (5 * 8 - 5 - 15 - 2) / 10)
        self.assertEqual(layers["exec_us"]["samples"], 4)
        self.assertEqual(layers["exec_us"]["p50"], 0.01)
        self.assertEqual(layers["first_exec_ms"], 8 / 1e6)
        self.assertAlmostEqual(layers["exec_share_pct"], 100 * 40 / 90)

    def test_censored_hunt_counts_the_budget(self):
        doc = raw_doc("bughunt", missed=metrics.HUNTS)
        printed = metrics.per_layer(doc, SPANS)
        self.assertEqual(printed["bughunt.hunts_censored"]["value"],
                         len(metrics.HUNTS))
        self.assertEqual(
            printed["bug.InsertBehindMigrator.executions_to_bug"]["value"],
            metrics.PAPER_BUDGET)


class PaceTest(unittest.TestCase):
    def test_bughunt_work_is_costed_at_the_fastest_slices(self):
        doc = raw_doc("bughunt")
        slow = [[4, 80, 4_000_000_000]] * 50  # a stretch at a tenth the pace
        doc["plain"]["hunts"][0][0]["slices"] += slow
        printed = metrics.end_to_end(doc)
        hunts = len(metrics.HUNTS)
        # Every hunt's pace: 0.1 s per execution (5 of them), 5 ms per step.
        self.assertAlmostEqual(printed["seconds_to_verdict"]["value"],
                               hunts * 5 * 0.1)
        self.assertAlmostEqual(printed["executions_per_s"]["value"], 10.0)
        self.assertAlmostEqual(printed["steps_per_s"]["value"], 200.0)

    def test_pace_percentile_of_pooled_units(self):
        doc = raw_doc("bughunt")
        unit = [dict(h, slices=[[1, 10, 300_000_000]])
                for h in doc["plain"]["hunts"][0]]
        doc["plain"]["hunts"].append(unit)
        printed = metrics.end_to_end(doc)
        # Each hunt pools 3 slices: 0.1, 0.1 and 0.3 s per execution.
        self.assertAlmostEqual(printed["executions_per_s"]["value"], 10.0)

    def test_campaigns_use_means_over_units(self):
        printed = metrics.end_to_end(raw_doc("stateful_fixed"))
        self.assertEqual(printed["seconds_to_verdict"]["value"], 1.0)
        self.assertEqual(printed["executions_per_s"]["value"], 100.0)
        self.assertEqual(printed["steps_per_s"]["value"], 5000.0)


class GateTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        for workload in run.WORKLOADS:
            attempted, failed, errors = metrics.gates(raw_doc(workload))
            self.assertGreater(attempted, 0)
            self.assertEqual((failed, errors), (0, []))

    def test_unreproduced_witness_fails(self):
        attempted, failed, errors = metrics.gates(
            raw_doc("bughunt", reproduced=False))
        self.assertEqual(attempted, len(metrics.HUNTS))
        self.assertEqual(failed, len(metrics.HUNTS))
        self.assertTrue(errors)

    def test_hunts_that_miss_their_bug_fail(self):
        attempted, failed, errors = metrics.gates(
            raw_doc("bughunt", missed=metrics.HUNTS))
        self.assertEqual(attempted, len(metrics.HUNTS))
        self.assertEqual(failed, len(metrics.HUNTS) - 1)
        self.assertEqual(len(errors), failed)
        _, failed, errors = metrics.gates(
            raw_doc("bughunt", missed=["InsertBehindMigrator"]))
        self.assertEqual(failed, 1)
        self.assertTrue(errors)

    def test_chance_miss_is_not_a_failure(self):
        _, failed, errors = metrics.gates(
            raw_doc("bughunt", missed=["QueryStreamedBackUpNewStream"]))
        self.assertEqual((failed, errors), (0, []))
        printed = metrics.per_layer(
            raw_doc("bughunt", missed=["QueryStreamedBackUpNewStream"]),
            SPANS)
        self.assertEqual(printed["bughunt.hunts_censored"]["value"], 1)

    def test_violation_on_a_fixed_control_fails(self):
        _, failed, errors = metrics.gates(
            raw_doc("stateful_fixed", violations=2))
        self.assertEqual(failed, 2)
        self.assertTrue(errors)

    def test_saturated_visited_set_fails(self):
        _, failed, errors = metrics.gates(raw_doc("guided", saturated=True))
        self.assertEqual(failed, 0)
        self.assertTrue(errors)

    def test_traced_counts_must_match(self):
        doc = raw_doc("bughunt")
        self.assertEqual(metrics.count_mismatches(doc), 0)
        doc["traced"]["hunts"][0][3]["executions_to_bug"] += 1
        self.assertEqual(metrics.count_mismatches(doc), 1)
        doc = raw_doc("stateful_fixed")
        doc["traced"]["campaigns"][0][0]["distinct_states"] += 1
        self.assertEqual(metrics.count_mismatches(doc), 1)


if __name__ == "__main__":
    unittest.main()
