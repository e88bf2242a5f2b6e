"""Self-tests of the benchmark harness (stdlib unittest).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They run a few jobs of each workload in process, so they take seconds,
not the length of a benchmark run.
"""

import json
import os
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402

# A cheap sample that still reaches every layer: small-sessions jobs.
SAMPLE = W.make_jobs("small-sessions", 7)[:40]


def _traced(jobs):
    sessions = W.build_sessions(jobs)
    tr = tracer.Tracer()
    tr.install(tracer.span_targets())
    t0 = time.perf_counter()
    try:
        digests = [W.digest(W.run_job(j, sessions)[1]) for j in jobs]
    finally:
        tr.uninstall()
    return tr, time.perf_counter() - t0, digests


def _counted(jobs):
    sessions = W.build_sessions(jobs)
    ctr = tracer.Counter()
    ctr.install()
    try:
        digests = [W.digest(W.run_job(j, sessions)[1]) for j in jobs]
    finally:
        ctr.uninstall()
    return ctr.counts, digests


class JobLists(unittest.TestCase):

    def test_same_seed_same_jobs(self):
        for wl in W.WORKLOADS:
            for seed in (0, 1, 12345):
                a = json.dumps(W.make_jobs(wl, seed), sort_keys=True)
                b = json.dumps(W.make_jobs(wl, seed), sort_keys=True)
                self.assertEqual(a, b)
            self.assertNotEqual(W.make_jobs(wl, 1), W.make_jobs(wl, 2))

    def test_pass_size_does_not_depend_on_seed(self):
        for wl in W.WORKLOADS:
            sizes = {len(W.make_jobs(wl, seed)) for seed in range(5)}
            self.assertEqual(len(sizes), 1, wl)

    def test_reference_matches_default_job_list(self):
        with open(worker.REFERENCE, encoding="ascii") as fh:
            ref = json.load(fh)
        for wl in W.WORKLOADS:
            labels = [W.job_label(j) for j in W.make_jobs(wl, W.DEFAULT_SEED)]
            self.assertEqual([row[0] for row in ref[wl]], labels)

    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(22), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        vals = list(range(1, 101))
        self.assertEqual(run.percentile(vals, 90), 90)
        self.assertEqual(run.percentile(vals, 50), 50)


class Calibration(unittest.TestCase):

    def test_metered_pass_keeps_outputs_and_scales_within_samples(self):
        jobs = SAMPLE[:12]
        sessions = W.build_sessions(jobs)
        expected = [(0, None)] * len(jobs)
        _, d1, f1 = worker._run_pass(jobs, sessions, expected)
        with speed.Meter() as meter:
            spans, d2, f2 = worker._run_pass(jobs, sessions, expected)
        self.assertEqual(d1, d2)
        self.assertEqual(f1 + f2, [])
        samples = meter.samples()
        self.assertGreaterEqual(len(samples), 2)
        lo = speed.REF_S / max(samples)
        hi = speed.REF_S / min(samples)
        for a, b in spans:
            scaled = meter.scale(a, b)
            self.assertGreater(scaled, 0)
            self.assertLessEqual(scaled, hi * (b - a) * (1 + 1e-9))
            # the handler's time inside a span is taken out, so a scaled
            # span may fall below lo * (b - a), but not below lo times
            # the span less every sample
            self.assertGreaterEqual(
                scaled * (1 + 1e-9), lo * (b - a - sum(samples)))


class Checks(unittest.TestCase):

    def test_false_flag_fails(self):
        out = json.dumps({"rows": [{"holds": False}], "pass": True}) + "\n"
        self.assertEqual(W.check_output(0, out), ["rows.holds is false"])
        self.assertEqual(W.check_output(0, '{"pass": true}\n'), [])
        self.assertTrue(W.check_output(1, '{"pass": true}\n'))
        self.assertTrue(W.check_output(None, ""))
        self.assertTrue(W.check_output(0, "x\n", 0, W.digest("y\n")))


class Tracing(unittest.TestCase):

    def test_every_product_in_exactly_one_class(self):
        for p, dim in ((2, 1), (2, 4), (3, 1), (3, 2)):
            field = type("F", (), {"p": p, "dim": dim})
            for na in (0, 1, 2, 30, 600):
                for nb in (0, 1, 2, 30, 600):
                    self.assertIn(tracer.mul_class(field, na, nb),
                                  tracer.MUL_CLASSES)
        # every traced product is counted under one class, once
        import drinfeld.laurent
        LE = drinfeld.laurent.LaurentElem
        total = [0]
        orig = LE.__mul__

        def counting(x, y):
            total[0] += 1
            return orig(x, y)
        LE.__mul__ = counting
        try:
            tr, _, _ = _traced(SAMPLE)
        finally:
            LE.__mul__ = orig
        spans, _ = tr.summary()
        by_class = sum(spans.get("laurent.mul." + c, {}).get("calls", 0)
                       for c in tracer.MUL_CLASSES)
        self.assertGreater(total[0], 0)
        self.assertEqual(by_class, total[0])

    def test_self_time_within_wall(self):
        tr, wall, _ = _traced(SAMPLE)
        spans, _ = tr.summary()
        self.assertLessEqual(sum(r["self_s"] for r in spans.values()), wall)
        for row in spans.values():
            self.assertGreaterEqual(row["self_s"], 0.0)
            self.assertLessEqual(row["incl_s"], wall)

    def test_counts_repeat_and_outputs_identical(self):
        plain = W.build_sessions(SAMPLE)
        want = [W.digest(W.run_job(j, plain)[1]) for j in SAMPLE]
        tr1, _, d1 = _traced(SAMPLE)
        tr2, _, d2 = _traced(SAMPLE)
        c1, d3 = _counted(SAMPLE)
        c2, _ = _counted(SAMPLE)
        self.assertEqual(want, d1)
        self.assertEqual(want, d2)
        self.assertEqual(want, d3)
        calls = [{k: v["calls"] for k, v in t.summary()[0].items()}
                 for t in (tr1, tr2)]
        self.assertEqual(calls[0], calls[1])
        self.assertEqual(tr1.summary()[1], tr2.summary()[1])
        self.assertEqual(c1, c2)
        self.assertGreater(c1["ff.mul.calls"], 0)

    def test_wrappers_removed(self):
        import drinfeld.cli
        import drinfeld.laurent
        before = (drinfeld.cli.main, drinfeld.cli.check_main_theorem,
                  drinfeld.laurent.LaurentElem.__dict__["__mul__"])
        _traced(SAMPLE[:3])
        _counted(SAMPLE[:3])
        after = (drinfeld.cli.main, drinfeld.cli.check_main_theorem,
                 drinfeld.laurent.LaurentElem.__dict__["__mul__"])
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
