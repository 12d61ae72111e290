"""Smoke test of the benchmark itself, a few requests per workload.

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json declares is reported with its
unit, that the exactness check catches a wrong quotient both when the
CLI notices (exit 3) and when it does not, and that the benchmark
refuses to run without the polydiv sources beside it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import run
from check import check_reply, parse_text_poly
from workloads import WORKLOADS, Corpus, render

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MODULES = run.load_polydiv()
CLI, POLYCORE = MODULES[0], MODULES[1]
# Few enough requests to finish in seconds, enough to reach every route.
SMOKE_REQUESTS = {"verify-small": 4, "divide-highdeg": 3, "divide-widebits": 12, "divide-tiny": 16}
# The layer each workload exists to load must do most of its work.
TARGETS = {
    "verify-small": lambda m, share: share["det-ratio spans"] > 0.5,
    "divide-highdeg": lambda m, share: (
        m["detengine.det_oracle.calls"] == 0 and share["closedform"] + share["detengine"] > 0.5
    ),
    "divide-widebits": lambda m, share: m["detengine.det_oracle.calls"] == 0,
    "divide-tiny": lambda m, share: share["cli"] == max(share.values()),
}


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _wrong_closed(f, g):
    exact = POLYCORE.long_divide(f, g)
    return POLYCORE.DivisionResult(exact.quotient + POLYCORE.Polynomial([1]), exact.remainder)


class BenchmarkSmoke(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))

    def test_end_to_end_metrics_and_units(self):
        for name, count in SMOKE_REQUESTS.items():
            with self.subTest(workload=name):
                metrics, tally, *_ = run.run_measured(CLI, Corpus(WORKLOADS[name], 7), 0, min_requests=count, spawns=1)
                line = run.result_line(metrics, run.UNITS, tally, [])
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                self.assertEqual(got, _declared("end_to_end"))
                self.assertTrue(all(v["value"] > 0 for v in line["metrics"].values()))
                self.assertTrue(line["correct"])
                self.assertEqual(line["attempted"], count)

    def test_per_layer_metrics_and_units(self):
        for name, count in SMOKE_REQUESTS.items():
            with self.subTest(workload=name):
                metrics, tally, tracer, differing = run.run_traced(MODULES, Corpus(WORKLOADS[name], 7), count)
                units = {k: run.per_layer_unit(k) for k in metrics}
                self.assertEqual(units, _declared("per_layer"))
                self.assertEqual(differing, [])
                self.assertEqual(metrics["cli.main.calls"], count)
                self.assertTrue(TARGETS[name](metrics, tracer.shares()), tracer.shares())
        self.assertIs(CLI.METHODS["longdiv"], POLYCORE.long_divide, "tracing left a wrapper installed")

    def test_wrong_route_is_caught_by_cli_exit_3(self):
        original = CLI.METHODS["closed"]
        CLI.METHODS["closed"] = _wrong_closed
        try:
            metrics, tally, *_ = run.run_measured(CLI, Corpus(WORKLOADS["divide-tiny"], 3), 0, min_requests=16, spawns=1)
        finally:
            CLI.METHODS["closed"] = original
        self.assertLess(metrics["ok_share"], 1)
        self.assertEqual(tally.count("fail.exit3"), tally.failed)
        self.assertGreater(tally.failed, 0)

    def test_wrong_route_is_caught_by_own_check(self):
        # With the CLI's reconstruction check disabled too, the wrong
        # quotient is printed with exit 0 and only the benchmark sees it.
        original, reconstructs = CLI.METHODS["closed"], POLYCORE.DivisionResult.reconstructs
        CLI.METHODS["closed"] = _wrong_closed
        POLYCORE.DivisionResult.reconstructs = lambda self, f, g: True
        try:
            metrics, tally, *_ = run.run_measured(CLI, Corpus(WORKLOADS["divide-tiny"], 3), 0, min_requests=16, spawns=1)
        finally:
            CLI.METHODS["closed"] = original
            POLYCORE.DivisionResult.reconstructs = reconstructs
        self.assertLess(metrics["ok_share"], 1)
        self.assertEqual(tally.count("fail.inexact"), tally.failed)
        self.assertFalse(run.result_line(metrics, run.UNITS, tally, [])["correct"])

    def test_text_reply_round_trip(self):
        coeffs = [Fraction(5), Fraction(-3, 4), Fraction(0), Fraction(1), Fraction(-12)]
        self.assertEqual(parse_text_poly(render(coeffs)), coeffs)
        self.assertEqual(parse_text_poly("0"), [])
        request = Corpus(WORKLOADS["divide-tiny"], 1).request(0)
        self.assertIsNotNone(check_reply(request, "quotient: x\nremainder: 0\n"))

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(Path(run.__file__).parent, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "divide-tiny", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
