#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark's own machinery (a few seconds).

    python3 perfbench/selftest.py

It checks the oracle (digest canonicalisation, exit-code and tolerance
rules), that every seed draws only invocations the oracle knows, the
cold-process runner, the untraced pass loop on a tiny invocation list, and
the tracer (self time, patching under every bound name, and restoring the
originals).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import unittest
from unittest import mock

import harness
import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(harness.SRC))

TINY = workloads.Invocation(("verify", "--property", "unimodal", "--max-m", "5", "--jobs", "1", "--format", "json"))


def in_process(args) -> str:
    from quartint import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(args)) == 0
    return out.getvalue()


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.text = in_process(TINY.args)
        self.oracle = {"digests": {TINY.key: workloads.report_digest(self.text)}, "closed_forms": {}}

    def test_digest_ignores_timing_jobs_and_added_fields(self):
        payload = json.loads(self.text)
        payload["started"] = payload["finished"] = "then"
        payload["config"]["jobs"] = 2
        payload["schema_version"] = 99
        for r in payload["results"]:
            r["elapsed"] = 123.0
            r["checks"] = 7
        self.assertEqual(workloads.check(TINY, 0, json.dumps(payload), self.oracle).status, "ok")

    def test_changed_content_is_wrong(self):
        payload = json.loads(self.text)
        payload["results"][0]["notes"] = ["something else"]
        self.assertEqual(workloads.check(TINY, 0, json.dumps(payload), self.oracle).status, "wrong")
        self.assertEqual(workloads.check(TINY, 0, "not json", self.oracle).status, "wrong")

    def test_exit_codes(self):
        self.assertEqual(workloads.check(TINY, 3, "", self.oracle).status, "error")
        self.assertEqual(workloads.check(TINY, 1, self.text, self.oracle).status, "wrong")

    def test_integral_rules(self):
        inv = workloads.Invocation(("integral", "--m", "1", "--a", "1", "--format", "json"))
        oracle = {"closed_forms": {inv.key: 1.0}}

        def out(numeric, closed, rel):
            return json.dumps({"numeric": numeric, "closed_form": closed, "relative_error": rel})

        self.assertEqual(workloads.check(inv, 0, out(1 + 1e-12, 1.0, 1e-12), oracle).status, "ok")
        self.assertEqual(workloads.check(inv, 0, out(1 + 1e-8, 1.0, 1e-8), oracle).status, "wrong")
        self.assertEqual(workloads.check(inv, 0, out(1.0, 1.1, 0.0), oracle).status, "wrong")
        self.assertEqual(workloads.check(inv, 3, "", oracle).status, "error")


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_inputs_and_all_known_to_oracle(self):
        oracle = workloads.load_oracle()
        known = set(oracle["digests"]) | set(oracle["closed_forms"])
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.invocations(workload, 7), workloads.invocations(workload, 7))
            for seed in range(40):
                for inv in workloads.invocations(workload, seed):
                    self.assertIn(inv.key, known)
                    self.assertNotIn("--jobs", inv.key)

    def test_unknown_workload(self):
        with self.assertRaises(ValueError):
            workloads.invocations("nope", 0)


class ColdRunTest(unittest.TestCase):
    def test_run_cold(self):
        res = harness.run_cold(("coeffs", "--m", "2"), timeout=60)
        self.assertEqual(res.returncode, 0)
        self.assertEqual(res.stdout.strip(), "21/8,15/4,3/2")  # d_0(2), d_1(2), d_2(2)
        self.assertGreater(res.cpu_s, 0)
        self.assertGreater(res.peak_rss_mb, 1)

    def test_untraced_loop_on_a_tiny_list(self):
        oracle = {"digests": {TINY.key: workloads.report_digest(in_process(TINY.args))}, "closed_forms": {}}
        with mock.patch.object(workloads, "invocations", lambda w, s: [TINY, TINY]), mock.patch.object(
            run, "SETUP_SAMPLES", 2
        ):
            result = run.untraced_run("verify-all", 0, 1, oracle, time.perf_counter() + 60)
        self.assertEqual(set(result["metrics"]), {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"})
        self.assertEqual(result["tally"].failed, 0)
        self.assertGreaterEqual(result["tally"].attempted, 2)
        self.assertTrue(all(v > 0 for v, _ in result["metrics"].values()))


class TracerTest(unittest.TestCase):
    def test_self_time_from_spans(self):
        t = Tracer()
        a, b = t.name_id("x.outer"), t.name_id("x.inner")
        t.spans = [[a, -1, 0, 0.0, 10.0, False], [b, 0, 0, 1.0, 4.0, False], [b, 0, 0, 5.0, 6.0, True]]
        stats = t.stats()
        self.assertAlmostEqual(stats["x.outer"].self_s, 6.0)
        self.assertAlmostEqual(stats["x.inner"].total_s, 4.0)
        self.assertEqual(stats["x.inner"].errors, 1)
        self.assertAlmostEqual(t.root_time(), 10.0)

    def test_install_patches_every_binding_and_uninstall_restores(self):
        from quartint import cli, exact, recurrence, tfunction

        originals = (tfunction.t_direct, recurrence.t_direct, exact.binomial, tfunction.binomial, cli.main)
        t = Tracer()
        t.install()
        try:
            self.assertIsNot(recurrence.t_direct, originals[1])
            self.assertIs(recurrence.t_direct, tfunction.t_direct)
            self.assertIsNot(tfunction.binomial, originals[3])
            tfunction.t_direct.__wrapped__.cache_clear()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["verify", "--property", "recurrence", "--max-n", "3", "--format", "json"])
        finally:
            t.uninstall()
        self.assertEqual(
            originals, (tfunction.t_direct, recurrence.t_direct, exact.binomial, tfunction.binomial, cli.main)
        )
        stats = t.stats()
        self.assertEqual(stats["cli.main"].calls, 1)
        self.assertGreater(stats["tfunction.t_direct"].calls, 0)
        self.assertIn("suites.run_suite.recurrence", stats)
        self.assertGreater(t.counts["polynomial.Polynomial.__call__"], 0)
        self.assertGreater(t.max_bits["tfunction.t_direct"], 0)
        total_self = sum(s.self_s for s in stats.values())
        self.assertAlmostEqual(total_self, t.root_time(), places=9)


if __name__ == "__main__":
    unittest.main(verbosity=2)
