"""Self-tests of the benchmark: generator determinism, oracles that catch a
wrong outcome, and the output contract. Run from the root of the checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from attestnet import consortium, conveyance, endorsement_ledger  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run_sim(shape, seed):
    inputs = w.generate_sim(shape, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(inputs.scenario_text, encoding="utf-8")
        timers = Tracer()
        with timers.installed(w.SIM_STAGES):
            return w.run_sim(path, Path(tmp) / "out", inputs, timers)


def _run_flows(seed):
    timers = Tracer()
    with timers.installed(w.FLOW_STAGES):
        return w.run_flows(w.generate_flows(seed), timers)


def _run_supply(seed):
    timers = Tracer()
    with timers.installed(w.SUPPLY_STAGES):
        return w.run_supply(w.generate_supply(seed), timers)


class GeneratorDeterminism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        generators = {
            "sim-catalog": lambda s: w.generate_sim(w.SHAPES["sim-catalog"], s),
            "sim-fleet": lambda s: w.generate_sim(w.SHAPES["sim-fleet"], s),
            "flows": w.generate_flows,
            "supply-chain": w.generate_supply,
        }
        for name, generate in generators.items():
            with self.subTest(workload=name):
                self.assertEqual(generate(5).fingerprint(), generate(5).fingerprint())
                self.assertNotEqual(generate(5).fingerprint(), generate(6).fingerprint())


def _flip_first_verdict(run_epoch):
    def wrong(universe):
        report = run_epoch(universe)
        first = min(report.verdicts)
        report.verdicts[first] = "unknown"
        return report

    return wrong


class Oracles(unittest.TestCase):
    def test_sim_oracle(self):
        for name, shape in w.SHAPES.items():
            with self.subTest(workload=name):
                unit = _run_sim(shape, 3)
                self.assertEqual(unit.failed, 0)
                with mock.patch.object(consortium, "run_epoch",
                                       _flip_first_verdict(consortium.run_epoch)):
                    self.assertGreater(_run_sim(shape, 3).failed, 0)

    def test_flows_oracle(self):
        self.assertEqual(_run_flows(3).failed, 0)
        with mock.patch.object(conveyance, "appraise_result", lambda *args: True):
            self.assertGreater(_run_flows(3).failed, 0)

    def test_supply_oracle(self):
        self.assertEqual(_run_supply(3).failed, 0)
        with mock.patch.object(endorsement_ledger.EndorsementsLedger, "includes",
                               lambda self, record: True):
            self.assertGreater(_run_supply(3).failed, 0)


class OutputContract(unittest.TestCase):
    def _run(self, cwd, workload, trace):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "2",
             "--seconds", "0", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_metrics_are_declared(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        for workload in (wl["name"] for wl in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = self._run(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    for name in metrics:
                        self.assertTrue(NAME.fullmatch(name), name)
                    self.assertEqual({n: m["unit"] for n, m in metrics.items()}, declared[trace])
                    if trace == 0:
                        self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_fails_without_sources(self):
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self._run(tmp, "flows", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
