"""Self-tests of the benchmark itself (not of germlab).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import os
import random
import sys
import tempfile
import time
import unittest

import run          # puts bench/ and src/ on sys.path
import inputs
import tracing

from germlab import cli


def _fake_main(by_text, slow_n):
    """A stand-in for cli.main: answers classify requests with the expected
    label, and spins (until the budget timer fires) on germs of size slow_n."""
    def main(argv):
        req = by_text[argv[-1]]
        if req["n"] == slow_n:
            while True:
                pass
        print(json.dumps({"route": req["expect"]["route"],
                          "label": {"describe": req["expect"]["describe"]}}))
        return 0
    return main


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for gen in (inputs.classify_corpus, inputs.morin_ladder,
                    inputs.perturb_sweep):
            self.assertEqual(gen(7), gen(7))
            self.assertNotEqual(gen(7), gen(8))

    def test_composition(self):
        reqs = inputs.classify_corpus(1)
        self.assertEqual(len(reqs), 30 * inputs.CORPUS_CHANGES)
        sweep = inputs.perturb_sweep(1)
        self.assertEqual(sum(r["kind"] == "tables" for r in sweep), 1)
        self.assertEqual(len(sweep) - 1,
                         sum(c for *_, c in inputs.PERTURB_MIX))

    def test_changes_preserve_orientation(self):
        rng = random.Random(3)
        for n in range(1, 8):
            for _ in range(20):
                self.assertGreater(inputs.det(inputs.cyclic_shear(rng, n)), 0)


class CheckTest(unittest.TestCase):
    def test_expected_labels_of_normal_forms(self):
        """The known labels are those of the untransformed normal forms."""
        cases = [(tag, inputs.render(comps, n), expect)
                 for tag, comps, n, expect in inputs.corpus()]
        for n in (5, 6):
            for e1 in (1, -1):
                for e2 in (1, -1):
                    cases.append(("k=n=%d" % n,
                                  inputs.render(inputs.morin_form(n, n, e1, e2),
                                                n),
                                  inputs.morin_label(n, n, e1, e2)))
        for tag, text, (route, label) in cases:
            out = run.execute(cli.main, ["classify", "--json", text])
            payload = json.loads(out.stdout)
            self.assertEqual((payload["route"], payload["label"]["describe"]),
                             (route, label), tag)

    def test_planted_wrong_label_is_a_failure(self):
        req = inputs.warmup_requests()[0]
        wrong = dict(req, expect=dict(req["expect"], describe="cusp eps1=-1"))
        tally = run.Tally([req, wrong])
        for i, r in enumerate(tally.reqs):
            tally.record(i, run.execute(cli.main, r["argv"]))
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("expected", tally.errors[0])

    def test_perturb_and_tables_checks(self):
        perturb = inputs.warmup_requests()[1]
        tally = run.Tally([perturb, inputs.tables_request()])
        for i, r in enumerate(tally.reqs):
            tally.record(i, run.execute(cli.main, r["argv"]))
        self.assertEqual(tally.failed, 0, tally.errors)
        bad = run.Outcome(0, 0.0, '{"count": 3, "c_f_bound": 2, "points": '
                          '[{"verified": true}, {"verified": true}, '
                          '{"verified": true}]}', "", False, None)
        self.assertIsNotNone(run.check(perturb, bad))

    def test_recorded_bytes_are_compared(self):
        req = inputs.warmup_requests()[0]
        good = run.execute(cli.main, req["argv"])
        self.assertIsNone(run.check(req, good))
        planted = dict(req, expect=dict(req["expect"], stdout_sha256="0" * 64))
        self.assertIn("recorded bytes", run.check(planted, good))

    def test_earlier_run_digests_are_compared(self):
        with tempfile.TemporaryDirectory() as results:
            self.assertEqual(run.compare_earlier(results, "w", 1, ["a"]),
                             (0, []))
            run.write_json(os.path.join(results, "BENCH_w_seed1_trace0.json"),
                           {"request_sha256": ["a", "b", None]})
            run.write_json(os.path.join(results, "BENCH_w_seed1_trace1.json"),
                           {"request_sha256": ["a", "x", "c"]})
            # a request without a checked output is skipped
            self.assertEqual(run.compare_earlier(results, "w", 1,
                                                 ["a", "b", "c"]),
                             (2, ["stdout differs from BENCH_w_seed1_trace1"
                                  ".json at 1 requests"]))
            self.assertEqual(run.compare_earlier(results, "w", 2,
                                                 ["a", "b", "c"]), (0, []))

    def test_repeated_stdout_is_compared(self):
        req = inputs.warmup_requests()[0]
        tally = run.Tally([req])
        good = run.execute(cli.main, req["argv"])
        tally.record(0, good)
        tally.record(0, good)
        self.assertEqual(tally.failed, 0)
        changed = run.Outcome(0, 0.0, good.stdout.replace("}", " }", 1), "",
                              False, None)
        tally.record(0, changed)
        self.assertEqual(tally.failed, 1)


class ReferenceTest(unittest.TestCase):
    def test_latency_in_reference_units(self):
        req = inputs.warmup_requests()[0]
        good = run.execute(cli.main, req["argv"])
        tally = run.Tally([req])
        for ref in (0.5, 0.25, 1.0):
            tally.record(0, good._replace(seconds=2.0), reference=ref)
        self.assertEqual(tally.relative, [[4.0, 8.0, 2.0]])
        self.assertEqual(tally.typical_relative(), [4.0])
        m = run.relative_metrics([1.0, 2.0, 3.0, 4.0])
        self.assertEqual(m["requests_per_ref_s"], (400.0, "1/ref_s"))

    def test_every_untraced_request_is_bracketed(self):
        reqs = inputs.classify_corpus(1)[:5]
        by_text = {r["argv"][-1]: r for r in reqs}
        tally, passes = run.closed_loop(_fake_main(by_text, None), reqs, 0)
        self.assertEqual(passes, 1)
        self.assertEqual([len(r) for r in tally.relative], [1] * 5)
        self.assertEqual(len(tally.reference), 5)
        self.assertTrue(all(r > 0 for r in tally.reference))

    def test_references_inside_a_long_request(self):
        def spin(argv):
            end = time.process_time() + 0.35
            while time.process_time() < end:
                pass
            return 0
        outcome, ref, after = run.execute_referenced(spin, [], None, 1.0)
        # one reference time of 1 s before, and short ones during and after:
        # the mean is below 0.3 s only with at least two taken inside
        self.assertLess(ref, 0.3)
        self.assertGreater(after, 0)
        self.assertLess(outcome.seconds, 0.35 + 0.1)
        self.assertEqual(run.signal.getitimer(run.signal.ITIMER_PROF)[0],
                         0.0)


class BudgetTest(unittest.TestCase):
    def setUp(self):
        run.signal.signal(run.signal.SIGALRM, run._alarm)

    def test_timer_fires(self):
        def spin(argv):
            while True:
                pass
        start = time.perf_counter()
        out = run.execute(spin, [], budget=0.05)
        self.assertTrue(out.over_budget)
        self.assertLess(time.perf_counter() - start, 2.0)
        self.assertEqual(run.signal.getitimer(run.signal.ITIMER_REAL)[0], 0.0)

    def test_over_budget_rung_lowers_n_max_not_failures(self):
        rungs = inputs.morin_ladder(1)
        by_text = {r["argv"][-1]: r for rs in rungs.values() for r in rs}
        saved = run.LADDER_BUDGET_S
        run.LADDER_BUDGET_S = 0.05
        try:
            tally, passes, _, extra = run.run_morin_ladder(
                _fake_main(by_text, 4), rungs, 0, None)
        finally:
            run.LADDER_BUDGET_S = saved
        self.assertEqual(extra["ladder_n_max"][0], 3)
        self.assertEqual(tally.failed, 0, tally.errors)
        self.assertGreater(sum(tally.over), 0)

    def test_probe_rungs_extend_n_max(self):
        fits = {6: True, 7: False}
        self.assertEqual(run.ladder_n_max({6: [], 7: []}, {2: 0, 5: 0},
                                          fits.get), 6)
        self.assertEqual(run.ladder_n_max({}, {2: 0, 3: 1, 4: 0}, None), 2)


class SetupTest(unittest.TestCase):
    def test_resample_keeps_the_modules_in_use(self):
        before = run.germlab_modules()
        try:
            setup = run.Setup("perturb_sweep", 1)
            cli_in_use, _ = setup.first()
            setup.resample()
            self.assertIs(sys.modules["germlab.cli"], cli_in_use)
        finally:
            sys.modules.update(before)
        self.assertEqual(len(setup.times), run.SETUP_REPEATS + 1)
        self.assertEqual(setup.warm.failed, 0, setup.warm.errors)


class SpanTest(unittest.TestCase):
    def test_self_time_arithmetic(self):
        spans = [["a", 0.0, 10.0, -1, 0],
                 ["b", 1.0, 4.0, 0, 0],
                 ["c", 5.0, 9.0, 0, 0],
                 ["b", 6.0, 8.0, 2, 0]]
        agg = tracing.self_times(spans)
        self.assertEqual(agg["a"], [1, 3.0])
        self.assertEqual(agg["b"], [2, 5.0])
        self.assertEqual(agg["c"], [1, 2.0])

    def test_wrapped_calls_nest(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)))
        self.assertEqual(outer(1), 3)
        # outer 0..5, inner 1..2 and 3..4
        self.assertEqual(tracer.spans, [["outer", 0.0, 5.0, -1, None],
                                        ["inner", 1.0, 2.0, 0, None],
                                        ["inner", 3.0, 4.0, 0, None]])
        self.assertEqual(tracing.self_times(tracer.spans)["outer"], [1, 3.0])

    def test_patches_are_undone(self):
        original = cli.analyze
        tracer = tracing.Tracer()
        tracer.prepare()
        tracer.enable()
        try:
            self.assertIsNot(cli.analyze, original)
            out = run.execute(cli.main, inputs.warmup_requests()[0]["argv"])
            self.assertEqual(out.rc, 0)
        finally:
            tracer.disable()
        self.assertIs(cli.analyze, original)
        names = {s[0] for s in tracer.spans}
        self.assertTrue({"germparse.parse_map", "germ.analyze",
                         "polyring.det"} <= names, names)
        self.assertGreater(tracer.counts["polyring.mul.calls"], 0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         sorted(run.COMPOSITION))
        for name in run.COMPOSITION:
            self.assertTrue(run.workload_why(name))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
