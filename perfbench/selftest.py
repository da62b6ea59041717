"""Self-test of the benchmark: tiny runs, and checks that reject bad output.

    python3 perfbench/selftest.py

Runs each workload for one operation through run.py and compares the
reported metric names with BENCHMARK.json, shows that every output check
rejects a deliberately corrupted output, that dwell warnings are recorded
as data, that the tracer restores what it patches, and that the benchmark
fails without printing a result when the package sources are absent.
Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
import warnings
from unittest import mock
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import numpy as np  # noqa: E402

from sqbath import entanglement, matkernel  # noqa: E402
from sqbath.model import BasisTag, BathParams, DensityMatrix  # noqa: E402

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, _CliOutcome  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class TinyRuns(unittest.TestCase):
    """Each workload at one operation reports exactly the declared metrics."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_one(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.001",
                     "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_end_to_end(self):
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                metrics = self.run_one(workload, 0)
                self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
                self.assertTrue(all(v["value"] > 0 for v in metrics.values()), metrics)

    def test_per_layer(self):
        declared = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        metrics = self.run_one("event_sweep", 1)
        self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
        self.assertGreater(metrics["events.grid_evals_per_scan"]["value"], 700)

    def test_fails_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("--workload", "trajectory", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class ChecksRejectCorruption(unittest.TestCase):

    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def scan(self, inp: dict):
        w = WORKLOADS["event_sweep"]
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            return w.run(inp, SCRATCH)

    def test_event_sweep(self):
        w = WORKLOADS["event_sweep"]
        for inp in ({"initial": "psi1", "eps": 0.3, "n_bar": 0.0},      # analytic route
                    {"initial": "psi2", "eps": 0.54, "n_bar": 0.1}):    # X-state route
            report = self.scan(inp)
            with self.subTest(inp=inp):
                self.assertEqual(w.check(inp, report), [])
                shifted = dataclasses.replace(
                    report, deaths=(report.deaths[0] + 1e-5,) + report.deaths[1:])
                self.assertNotEqual(w.check(inp, shifted), [])
                dropped = dataclasses.replace(report, revivals=report.revivals[:-1])
                self.assertNotEqual(w.check(inp, dropped), [])

    def test_dwell_warnings_are_recorded(self):
        class Warns:
            def run(self, inp, workdir):
                warnings.warn("dwell interval spans only 2 sample(s); event times "
                              "may be unreliable")
                warnings.warn("unrelated")

            def output_bytes(self, out):
                return 0

            def check(self, inp, out):
                return []

        op = worker.timed_op(Warns(), {}, SCRATCH)
        self.assertEqual(op.problems, [])
        self.assertEqual(op.dwell_warnings, 1)

    def test_trajectory(self):
        w = WORKLOADS["trajectory"]
        inp = {"initial": "psi2", "eps": 0.4, "n_bar": 0.3, "method": "exact"}
        out = w.run(inp, SCRATCH)
        self.assertEqual(w.check(inp, out), [])
        good = out.path.read_text().splitlines()

        def corrupted(row: int, col: int, delta: float) -> list[str]:
            lines = list(good)
            cells = lines[row].split(",")
            cells[col] = repr(float(cells[col]) + delta)
            lines[row] = ",".join(cells)
            return lines

        cases = {
            "concurrence": corrupted(20, 33, 1e-9),
            "ppt_min_eig": corrupted(20, 34, 1e-11),
            "time": corrupted(20, 0, 1e-9),
            "missing row": good[:-1],
            "header": [good[0].replace("concurrence", "c")] + good[1:],
        }
        for label, lines in cases.items():
            with self.subTest(corruption=label):
                out.path.write_text("\n".join(lines) + "\n")
                self.assertNotEqual(w.check(inp, out), [])
        failed = _CliOutcome(3, "", "numeric failure", out.path)
        self.assertNotEqual(w.check(inp, failed), [])

    def test_trajectory_rank_floor(self):
        # Row 1 (t = 0.025) is rank-deficient: concurrence_wootters' floor
        # drops a sqrt-term of 4.8e-7, which the check allows and counts.
        w = WORKLOADS["trajectory"]
        inp = {"initial": "psi2", "eps": 0.9229328718945192,
               "n_bar": 0.32130401755025373, "method": "exact"}
        out = w.run(inp, SCRATCH)
        self.assertEqual(w.check(inp, out), [])
        self.assertEqual(w.floor_rows, 1)
        lines = out.path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[33] = repr(float(cells[33]) + 1e-9)
        lines[2] = ",".join(cells)
        out.path.write_text("\n".join(lines) + "\n")
        self.assertNotEqual(w.check(inp, out), [])

    def test_validate(self):
        w = WORKLOADS["validate"]
        inp = {"argv": ["validate"]}
        self.assertEqual(w.check(inp, _CliOutcome(0, "table\ngate: ok\n", "")), [])
        self.assertNotEqual(w.check(inp, _CliOutcome(1, "table\ngate: FAILED\n", "")), [])
        self.assertNotEqual(w.check(inp, _CliOutcome(0, "table\n", "")), [])


class TracerPatching(unittest.TestCase):

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        original = matkernel.herm_eig
        bound = [(m, k) for m in list(sys.modules.values())
                 if getattr(m, "__name__", "").startswith("sqbath")
                 for k, v in vars(m).items() if v is original]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapper = matkernel.herm_eig
            self.assertIsNot(wrapper, original)
            self.assertTrue(all(getattr(m, k) is wrapper for m, k in bound))
            rho = DensityMatrix(0.25 * np.eye(4, dtype=complex), BasisTag.STANDARD)
            entanglement.concurrence_wootters(rho, BathParams(0.1))
        finally:
            tracer.uninstall()
        self.assertTrue(all(getattr(m, k) is original for m, k in bound))
        totals = tracer.layer_totals()
        self.assertEqual(totals["entanglement.concurrence_wootters"][0], 1)
        self.assertEqual(totals["validation.vacuum_report"], (0, 0.0))
        root = [s for s in tracer.spans if s[4] == -1]
        self.assertEqual(len(root), 1)
        span_total = root[0][3] - root[0][2]
        self.assertAlmostEqual(sum(s for _, s in totals.values()), span_total, delta=1e-9)

    def test_absent_targets_are_skipped(self):
        absent = (("dynamics", "ExactPropagator.no_such_method", False),
                  ("no_such_module", "no_such_function", False))
        with mock.patch.object(tracing, "TARGETS", tracing.TARGETS + absent):
            tracer = tracing.Tracer()
            tracer.install()
            tracer.uninstall()
        self.assertEqual(tracer.spans, [])


if __name__ == "__main__":
    unittest.main()
