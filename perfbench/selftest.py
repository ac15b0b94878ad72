"""Self-tests of the benchmark's verifier and tracer.

    python3 perfbench/selftest.py

Runs three short ``frac_sweep`` invocations in child interpreters (about
ten seconds).  The file name keeps it out of the repository's pytest run.
"""

import json
import shutil
import time
import unittest

import run
import verify

COMPLETES = "x2y3_a0.9"
ABORTS = "y2p5_a0.9"
TRACED = "sq2_a0.3"


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        work = run.ROOT / ".perfbench_work" / "selftest"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cls.runner = run.Runner("frac_sweep", 7, work, time.monotonic() + 120)
        cls.inv = {inv.name: inv for inv in cls.runner.invocations}
        cls.launches = {name: cls.runner.launch(cls.inv[name], "run") for name in (COMPLETES, ABORTS)}
        cls.output = (work / f"{COMPLETES}.run.out").read_text(encoding="utf-8")
        cls.abort_output = (work / f"{ABORTS}.run.out").read_text(encoding="utf-8")

    def ref(self, name=COMPLETES):
        return self.runner.reference[name]

    def edited(self, edit) -> str:
        doc = json.loads(self.output)
        edit(doc)
        return json.dumps(doc)

    def test_accepts_reference_outputs(self):
        for name, launch in self.launches.items():
            self.assertEqual(launch.problems, [], name)
        self.assertEqual(verify.compare(self.ref(), 0, self.output), [])
        self.assertEqual(verify.compare(self.ref(ABORTS), 2, self.abort_output), [])

    def test_run_launches_are_probed(self):
        for name, launch in self.launches.items():
            self.assertGreater(launch.norm_s, 0, name)
            self.assertGreater(launch.wall_s, launch.setup_s, name)

    def test_accepts_round_off(self):
        def nudge(doc):
            doc["star"]["coefficients"][0]["terms"][0]["re"] *= 1 + 1e-13

        self.assertEqual(verify.compare(self.ref(), 0, self.edited(nudge)), [])

    def test_rejects_perturbed_coefficient(self):
        def perturb(doc):
            doc["star"]["coefficients"][1]["terms"][0]["im"] += 1e-6

        self.assertTrue(verify.compare(self.ref(), 0, self.edited(perturb)))

    def test_rejects_dropped_term(self):
        def drop(doc):
            doc["star"]["coefficients"][1]["terms"].pop()

        self.assertTrue(verify.compare(self.ref(), 0, self.edited(drop)))

    def test_rejects_check_flipping_to_fail(self):
        passed = self.ref()["passed_checks"]
        self.assertTrue(passed)

        def flip(doc):
            for check in doc["checks"]:
                if check["name"] == passed[0]:
                    check["status"] = "fail"

        problems = verify.compare(self.ref(), 0, self.edited(flip))
        self.assertTrue(any(passed[0] in p for p in problems), problems)

    def test_allows_check_starting_to_pass(self):
        def fix(doc):
            for check in doc["checks"]:
                if check["status"] != "pass":
                    check["status"] = "pass"

        self.assertEqual(verify.compare(self.ref(), 0, self.edited(fix)), [])

    def test_rejects_changed_term_counts(self):
        def grow(doc):
            doc["fedosov"]["r_term_counts"]["2"] += 1

        self.assertTrue(verify.compare(self.ref(), 0, self.edited(grow)))

    def test_rejects_exit_0_where_2_expected(self):
        self.assertEqual(self.ref(ABORTS)["exit_code"], 2)
        self.assertTrue(verify.compare(self.ref(ABORTS), 0, self.output))
        self.assertTrue(verify.compare(self.ref(ABORTS), 0, self.abort_output))

    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            launch = self.runner.launch(self.inv[TRACED], "trace")
            self.assertEqual(launch.problems, [])
            metrics = run.per_layer(run.merge_traces([launch.trace]))
            counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] != "s"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["expr.caputo.calls"], 0)
        self.assertGreater(counts[0]["expr.power_rule_factor.hit_ratio"], 0)

    def test_metric_names_match_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        traced = dict(run.per_layer(run.merge_traces([])))
        traced.update(dict.fromkeys(("trace.wall_s", "trace.overhead_s"), {"unit": "s"}))
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["per_layer"]},
            {(name, m["unit"]) for name, m in traced.items()},
        )
        launch = self.launches[COMPLETES]
        pass_ = run.Pass([launch], launch.wall_s)
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["end_to_end"]},
            {(name, m["unit"]) for name, m in run.end_to_end([pass_], [launch.setup_s]).items()},
        )


if __name__ == "__main__":
    unittest.main()
