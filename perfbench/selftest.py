"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks the
result line against BENCHMARK.json; checks the tracer's self-time
arithmetic; checks that a failing stage makes a run incorrect and is never
timed; and checks that a directory holding only the benchmark's own
files makes the benchmark fail without printing a result.  Scratch files go
under .perfbench/ in the checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracing import Tracer, instrument  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Numbers a tiny run legitimately leaves at zero: p99 needs 1000 warm
# predictions, one epoch on a few rows may predict nothing right, a few
# samples fill few histogram bins, native labels may never agree, and
# failures and interpreter mismatches are zero when all is well.
ZERO_AT_TINY = {"predict_p99_ms", "fail_ratio", "mlp.test_acc", "dataset.label_agreement",
                "backend.native.interp_mismatch_ratio",
                *(f"dataset.label_hist.{u}" for u in (0, 2, 4, 8, 16, 32, 64))}


def run_bench(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def tiny_run(workload, trace):
    proc = run_bench(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny"])
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_self_times(testcase, tracer_spans):
    """Every span's self time is >= 0 and a root's subtree sums to its wall time."""
    tracer = Tracer()
    tracer.spans = tracer_spans
    for idx, (name, parent, start, end) in enumerate(tracer.spans):
        if parent != -1:
            continue
        self_times = tracer.self_times(idx)
        testcase.assertTrue(all(v >= 0 for v in self_times.values()), self_times)
        testcase.assertLessEqual(sum(self_times.values()), tracer.duration(idx) + 1e-9)


class TracerTest(unittest.TestCase):
    def test_self_times_partition_the_root(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                time.sleep(0.002)
                with tracer.span("b"):
                    time.sleep(0.002)
            with tracer.span("b"):
                time.sleep(0.001)
        self_times = tracer.self_times(root)
        self.assertEqual(set(self_times), {"root", "a", "b"})
        check_self_times(self, tracer.spans)
        self.assertAlmostEqual(sum(self_times.values()), tracer.duration(root), places=9)
        self.assertGreaterEqual(self_times["b"], 0.003)

    def test_instrument_wraps_and_restores(self):
        owner = types.SimpleNamespace(__name__="owner", double=lambda x: 2 * x)
        original = owner.double
        seen = []
        tracer = Tracer()
        boundaries = [(owner, "double", "owner.double", "owner.calls",
                       lambda t, args, kwargs, result: seen.append(result))]
        with instrument(tracer, boundaries):
            self.assertEqual(owner.double(4), 8)
            self.assertIsNot(owner.double, original)
        self.assertIs(owner.double, original)
        self.assertEqual(seen, [8])
        self.assertEqual(tracer.counts, {"owner.calls": 1})
        self.assertEqual([s[0] for s in tracer.spans], ["owner.double"])

    def test_instrument_fails_on_a_missing_boundary(self):
        owner = types.SimpleNamespace(__name__="owner", double=lambda x: 2 * x)
        original = owner.double
        boundaries = [(owner, "double", "owner.double", None, None),
                      (owner, "renamed_away", "owner.gone", None, None)]
        with self.assertRaises(AttributeError):
            with instrument(Tracer(), boundaries):
                pass
        self.assertIs(owner.double, original)


class StopwatchTest(unittest.TestCase):
    def test_chunks_are_scaled_by_the_probes_around_them(self):
        import speed

        class Fixed(speed.Probe):
            reference_s = 0.5

            def __init__(self):
                self.times = iter([1.0, 2.0, 1.0])

            def __call__(self):
                return next(self.times)

        watch = speed.Stopwatch(Fixed())
        time.sleep(0.02)
        self.assertEqual(watch.split(), 3.0)
        time.sleep(0.01)
        self.assertEqual(watch.split(), 3.0)
        self.assertEqual(watch.slowdowns, [3.0, 3.0])
        self.assertGreaterEqual(watch.raw_s, 0.03)
        self.assertAlmostEqual(watch.scaled_s, watch.raw_s / 3.0)

    def test_split_at_probes_inside_a_call(self):
        import speed

        class Counting(speed.Probe):
            reference_s = 1.0
            calls = 0

            def __call__(self):
                Counting.calls += 1
                return 1.0

        owner = types.SimpleNamespace(step=lambda: time.sleep(0.01))
        original = owner.step
        watch = speed.Stopwatch(Counting())
        with speed.split_at(watch, [(owner, "step")], every_s=0.005):
            for _ in range(3):
                owner.step()
        self.assertIs(owner.step, original)
        self.assertEqual(Counting.calls, 1 + 2)    # the first step comes too soon
        with self.assertRaises(AttributeError):
            with speed.split_at(watch, [(owner, "renamed_away")]):
                pass

    def test_probes_run(self):
        import speed

        work = os.path.join(ROOT, ".perfbench", f"selftest-probe-{os.getpid()}")
        try:
            for probe in (speed.PythonProbe(), speed.CompilerProbe("cc", ["-O1"], work)):
                self.assertGreater(probe(), 0.0)
        finally:
            shutil.rmtree(work, ignore_errors=True)


class FailedStageTest(unittest.TestCase):
    """A stage that fails fast must never yield `correct: true` with a
    faster time: the run is measured in-process with one CLI command made
    to fail at once in the timed passes (after set-up)."""

    def measure(self, workload, stage, fail_passes):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import run
        import workloads

        real_cli = workloads.run_cli
        state = {"armed": False, "calls": 0}

        def run_cli(argv, tracer=None):
            if state["armed"] and str(argv[0]) == stage:
                state["calls"] += 1
                if state["calls"] <= fail_passes:
                    return 1, "", 0.0
            return real_cli(argv, tracer)

        cls = workloads.WORKLOADS[workload]
        setup = cls.setup

        def armed_setup(wl, k, watch):
            setup(wl, k, watch)
            state["armed"] = True

        work = os.path.join(ROOT, ".perfbench", f"selftest-fail-{os.getpid()}")
        saved_tmp = tempfile.tempdir
        try:
            os.makedirs(os.path.join(work, "tmp"))
            tempfile.tempdir = os.path.join(work, "tmp")
            workloads.run_cli, cls.setup = run_cli, armed_setup
            args = run.parse_args(["--workload", workload, "--seed", str(SEED),
                                   "--seconds", "1", "--trace", "0", "--size", "tiny"])
            with contextlib.redirect_stderr(io.StringIO()):
                result, _ = run.measure(args, work)
        finally:
            workloads.run_cli, cls.setup = real_cli, setup
            tempfile.tempdir = saved_tmp
            shutil.rmtree(work, ignore_errors=True)
        return result

    def test_failing_stage_is_not_correct(self):
        for workload, stage in (("cost-pipeline", "bench"), ("native-label", "label"),
                                ("predict-stream", "predict")):
            with self.subTest(workload=workload):
                result = self.measure(workload, stage, fail_passes=10 ** 6)
                self.assertIs(result["correct"], False)
                self.assertGreater(result["failed"], 0)
                self.assertNotIn("pipeline_s", result["metrics"])

    def test_failed_pass_is_not_timed(self):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import run
        import workloads

        class Flaky(workloads.Workload):
            """Pass 0 fails at once; later passes take 30 ms."""
            name = "flaky"
            SIZES = {"tiny": {}}

            def setup(self, k, watch):
                pass

            def run_pass(self, i, tracer):
                if i == 0:
                    return workloads.PassResult(attempted=2, failed=1)
                time.sleep(0.03)
                return workloads.PassResult(wall_s=0.03, scaled_s=0.03, attempted=2)

        args = types.SimpleNamespace(workload="flaky", seed=SEED, seconds=0.05, trace=0,
                                     size="tiny")
        workloads.WORKLOADS["flaky"] = Flaky
        try:
            result, _ = run.measure(args, os.path.join(ROOT, ".perfbench"))
        finally:
            del workloads.WORKLOADS["flaky"]
        self.assertIs(result["correct"], True)
        self.assertEqual((result["attempted"], result["failed"]), (6, 1))
        self.assertAlmostEqual(result["metrics"]["pipeline_s"], 0.03)


class SmokeTest(unittest.TestCase):
    def check_result(self, result, section):
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(printed, declared)
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertTrue(math.isfinite(m["value"]), name)
            self.assertGreaterEqual(m["value"], 0.0, name)

    def test_untraced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny_run(workload, 0)
                self.check_result(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)

    def test_traced_runs(self):
        nonzero = set()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny_run(workload, 1)
                self.check_result(result, "per_layer")
                nonzero |= {n for n, m in result["metrics"].items() if m["value"] > 0}
                with open(os.path.join(ROOT, ".perfbench", "traces",
                                       f"{workload}-s{SEED}.json")) as fh:
                    check_self_times(self, json.load(fh)["spans"])
                with open(os.path.join(ROOT, ".perfbench", "results",
                                       f"{workload}-s{SEED}-t1.json")) as fh:
                    record = json.load(fh)
                # whatever the run computes is declared, bar the glue spans
                # of the pass itself and of each CLI command
                self.assertEqual([n for n in record["undeclared_metrics"]
                                  if n != "pass_s" and not n.startswith("cli.")], [])
        declared = {m["name"] for m in SPEC["per_layer"]}
        self.assertEqual(declared - nonzero - ZERO_AT_TINY, set())

    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench", f"selftest-bare-{os.getpid()}")
        try:
            os.makedirs(bare)
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
