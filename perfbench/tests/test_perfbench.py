#!/usr/bin/env python3
"""Self-test of the leodivide benchmark.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout. Builds the harness through perfbench/run.py
(the first call takes a few minutes) and runs every workload on a tiny
profile (--scale 0.05) for a fraction of a second:

  * each workload reports correct results and the end-to-end metrics
    BENCHMARK.json declares, with their units (exactly those, for the
    declared workloads);
  * the traced run reports exactly the declared per-layer metrics;
  * a deliberately corrupted cached blob makes paper_warm report a failure
    instead of a faster pass;
  * examples/serve_replay.txt still has the request mix serve_mix draws;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--seed", "7", "--seconds", "0.5", "--scale", "0.05"]
# paper_warm and serve_mix are run by the harness and its traced run but not
# declared in BENCHMARK.json (see perfbench/README.md); the smoke run covers
# them too.
DECLARED = [w["name"] for w in SPEC["workloads"]]
WORKLOADS = DECLARED + ["paper_warm", "serve_mix"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(SPEC["command"] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, result, declared, exact=True):
        units = {m["name"]: m["unit"] for m in declared}
        if exact:
            self.assertEqual(set(result["metrics"]), set(units))
        else:
            self.assertLessEqual(set(units), set(result["metrics"]))
        for name, unit in units.items():
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float), name)

    def test_every_workload_smoke(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench("--workload", workload, "--trace", "0",
                                 *TINY)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"], proc.stderr)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"],
                                   exact=workload in DECLARED)

    def test_traced_run_reports_every_layer(self):
        proc = run_bench("--workload", "paper_cold", "--trace", "1", *TINY)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"], proc.stderr)
        self.check_metrics(result, SPEC["per_layer"])

    def test_corrupted_blob_fails_paper_warm(self):
        proc = run_bench("--workload", "paper_warm", "--trace", "0",
                         "--corrupt-cache", *TINY)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_serve_mix_follows_the_replay_script(self):
        # serve_mix draws its requests in the proportions of this script
        # (ScriptGen in perfbench/src/serve_mix.cpp); when the script
        # changes, the benchmark's mix must be re-derived from it.
        replay = os.path.join(ROOT, "examples", "serve_replay.txt")
        with open(replay) as script:
            verbs = [line.split()[0] for line in script
                     if line.strip() and not line.startswith("#")]
        self.assertEqual({v: verbs.count(v) for v in set(verbs)},
                         {"add": 2, "remove": 1, "upgrade": 1, "price": 1,
                          "income": 1, "resize": 4, "served": 4, "afford": 4,
                          "threshold": 1})
        after_threshold = verbs[verbs.index("threshold"):]
        self.assertEqual(after_threshold.count("afford"), 3)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
        try:
            proc = run_bench("--workload", "paper_cold", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
