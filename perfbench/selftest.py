"""The benchmark's own tests.

    python3 perfbench/selftest.py          # from the root of a checkout

Runs every workload in quick mode (``--seconds 1``) untraced and traced,
and checks that each emits every metric named in BENCHMARK.json with its
unit and no failed op, and that tracing leaves ``outputs_digest``
unchanged.  Then it tampers with each workload's expected outputs and
checks that the mismatch is counted as a failed op.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

import cold_run
import common
import live
import sweep_ckpt

sys.path.insert(0, common.SRC)
BENCH_DIR = common.BENCH_DIR
ROOT = common.ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def quick(workload: str, trace: int, seed: int = 5):
    """``(summary, result)``: the last two stdout lines of a quick run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}: "
                             f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class QuickModeTest(unittest.TestCase):
    """Every workload, untraced and traced, in quick mode."""

    def test_every_metric_and_digest(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                plain_summary, plain = quick(workload, 0)
                traced_summary, traced = quick(workload, 1)
                for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        expected)
                for name in (m["name"] for m in SPEC["end_to_end"]):
                    self.assertGreater(plain["metrics"][name]["value"], 0, name)
                self.assertEqual(plain_summary["outputs_digest"],
                                 traced_summary["outputs_digest"])
                self.assertEqual(traced_summary["untraced_digest"],
                                 traced_summary["outputs_digest"])
                if workload == "sweep-ckpt":
                    # One task per point: stopped and resumed halves
                    # together run every point once.
                    self.assertEqual(traced["metrics"]["exec.tasks"]["value"],
                                     traced_summary["traced_points"])


class TamperTest(unittest.TestCase):
    """A wrong output must count as a failed op, never pass silently."""

    def setUp(self) -> None:
        os.makedirs(common.OUT_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="selftest-", dir=common.OUT_ROOT)

    def _run_tampered(self, module, tamper) -> common.Outcome:
        ctx = module.prepare(7, self.work)
        ctx["workers"] = common.WORKERS
        tamper(ctx)
        out = common.Outcome()
        module.phase(ctx, 0.0, out, None)
        return out

    def test_cold_run(self) -> None:
        def tamper(ctx):
            ref = ctx["variants"][0][2]["open-loop-pair"]
            ref["metrics"]["simulated_cycles"] += 1

        out = self._run_tampered(cold_run, tamper)
        self.assertEqual(out.failed, 1, out.errors)

    def test_sweep_ckpt(self) -> None:
        def tamper(ctx):
            ctx["refs"][1][3]["metrics"]["min_attainment"] = -1.0

        out = self._run_tampered(sweep_ckpt, tamper)
        self.assertEqual(out.failed, 1, out.errors)

    def test_live(self) -> None:
        def tamper(ctx):
            live.reference(ctx, 0)["metrics"]["admission_rate"] = -1.0

        out = self._run_tampered(live, tamper)
        self.assertEqual(out.failed, 1, out.errors)


if __name__ == "__main__":
    unittest.main(verbosity=2)
