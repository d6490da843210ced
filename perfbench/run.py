"""Benchmark entry point: one workload at one seed, one line of JSON.

    python3 perfbench/run.py --workload cost-pipeline --seed 99 --seconds 15 --trace 0

Run from the root of a checkout.  The workload is set up several times
(`setup_s` is the median), then timed passes repeat until `--seconds` of
passes have been measured (`pipeline_s` is the median pass in which no
operation failed).  Set-ups and untraced passes are scaled to one machine
speed by the probe in speed.py.  Every pass's outputs are checked after its
clock stops.  `--trace 0` prints the end-to-end metrics of BENCHMARK.json.
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics: self times and counts from the traced passes, the workload's
headline numbers from the untraced ones, and their ratio.

The last line of stdout is the result object; a machine-facts line comes
before it.  The full run record, with per-pass numbers, check findings and
artifact digests, goes to .perfbench/results/ in the checkout, and the
spans of a traced run to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
MAX_FAILED_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=("cost-pipeline", "native-label", "predict-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own self-tests")
    return parser.parse_args(argv)


def pin_threads() -> dict[str, str]:
    """One BLAS thread and one OpenMP thread per process.

    On a small shared machine a second OpenMP thread costs milliseconds of
    wake-up per parallel region, which would make a native pass's time
    depend on how many parallelized schedules a seed happens to draw.
    Must run before numpy is imported."""
    threads = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    os.environ.update(threads)
    return threads


def source_digest() -> str:
    """Digest of the package and benchmark sources, which key stored digests."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "unroll_tuner"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def machine_facts(threads: dict[str, str], probe_dir: str) -> dict:
    import numpy
    from unroll_tuner import backend

    cc = os.environ.get(backend.TOOLCHAIN_ENV_VAR) or backend.DEFAULT_TOOLCHAIN
    try:
        version = subprocess.run([cc, "--version"], capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unavailable"
    probe = os.path.join(probe_dir, "omp_probe.c")
    with open(probe, "w") as fh:
        fh.write("int main(void) { return 0; }\n")
    try:
        openmp = subprocess.run([cc, "-fopenmp", probe, "-o", probe[:-2]],
                                capture_output=True, timeout=60).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        openmp = False
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc,
        "cc_version": version,
        "cc_flags": " ".join(backend.DEFAULT_FLAGS) + " (+ -fopenmp for parallel kernels)",
        "openmp": openmp,
        **threads,
    }


def label_hist(labels) -> dict[str, int]:
    from unroll_tuner.schedule import UNROLL_FACTORS
    return {f"dataset.label_hist.{u}": sum(1 for x in labels if x == u)
            for u in UNROLL_FACTORS}


def measure(args, work: str) -> tuple[dict, dict]:
    """Run one workload; returns (result object, run record)."""
    import workloads
    from speed import Stopwatch
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload](work, args.seed, args.size)
    if isinstance(wl, workloads.CostPipeline):
        wl.digest_store = os.path.join(STATE, "digests.json")
        wl.digest_key = f"{args.seed}:{args.size}:{source_digest()}"

    setup_s, setup_raw_s = [], []
    for k in range(wl.SETUP_REPEATS):
        watch = Stopwatch(wl.probe)
        wl.setup(k, watch)
        watch.split()
        setup_s.append(watch.scaled_s)
        setup_raw_s.append(watch.raw_s)

    tracer = Tracer() if args.trace else None
    passes, untraced, traced = [], [], []
    measured = 0.0
    while True:
        if tracer is not None and len(passes) % 2:
            res = wl.traced_pass(len(passes), tracer)
            traced.append(res)
        else:
            res = wl.run_pass(len(passes), None)
            untraced.append(res)
        passes.append(res)
        wl.check_pass(res)
        measured += res.wall_s
        if measured >= args.seconds and (tracer is None or traced):
            break
        if sum(1 for p in passes if p.failed) >= MAX_FAILED_PASSES:
            break   # a failure can take no time at all, so `measured` may never grow
    wl.final_checks(passes)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # A pass with a failed operation stops early or skips work, so it would
    # read as fast; only passes in which every operation succeeded are timed.
    clean = [p for p in untraced if not p.failed]
    clean_traced = [p for p in traced if not p.failed]
    timed = bool(clean) and (tracer is None or bool(clean_traced))
    metrics = {}
    if tracer is None:
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if timed:
            metrics["pipeline_s"] = statistics.median(p.scaled_s for p in clean)
    else:
        if timed:
            names = {name for p in clean_traced for name in p.layers}
            metrics.update({name: statistics.median(p.layers.get(name, 0) for p in clean_traced)
                            for name in sorted(names)})
            metrics.update(wl.headline(clean))
            metrics["trace.overhead_ratio"] = (
                statistics.median(p.wall_s for p in clean_traced)
                / statistics.median(p.wall_s for p in clean))
        metrics["fail_ratio"] = failed / attempted if attempted else 1.0
        labelled = next((p.labels for p in passes if p.labels), [])
        if labelled:
            metrics.update(label_hist(labelled))
            metrics["dataset.label_agreement"] = workloads.label_agreement(passes)
        metrics.update(next((p.quality for p in passes if p.quality), {}))
        metrics.update(wl.findings)
        tracer.write(os.path.join(STATE, "traces", f"{args.workload}-s{args.seed}.json"))

    if not timed:
        wl.problems.append("no pass completed without a failed operation")
    result = {"correct": not wl.problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "size_config": wl.cfg,
        "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "passes": [{"traced": any(p is t for t in traced), "wall_s": p.wall_s,
                    "scaled_s": p.scaled_s, "slowdown": p.slowdown,
                    "stages": p.stages, "attempted": p.attempted, "failed": p.failed,
                    "warm_predictions": len(p.warm_ms), "cold_predictions": len(p.cold_ms)}
                   for p in passes],
        "problems": wl.problems,
        "findings": wl.findings,
        "digests": getattr(wl, "digests", [])[:1],
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json at {ROOT}: {exc}\n")
        return 2
    if not os.path.isfile(os.path.join(SRC, "unroll_tuner", "__init__.py")):
        sys.stderr.write(f"perfbench: no unroll_tuner sources under {SRC}; "
                         "run from the root of a checkout\n")
        return 2

    threads = pin_threads()
    work = os.path.join(STATE, f"run-{args.workload}-s{args.seed}-{os.getpid()}")
    for d in (os.path.join(work, "tmp"), os.path.join(STATE, "results"),
              os.path.join(STATE, "traces")):
        os.makedirs(d, exist_ok=True)
    # Kernels, compilers and tempfile all write under the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    sys.path.insert(0, SRC)
    try:
        import unroll_tuner
        if os.path.dirname(os.path.dirname(os.path.abspath(unroll_tuner.__file__))) != SRC:
            sys.stderr.write(f"perfbench: imported unroll_tuner from {unroll_tuner.__file__}, "
                             f"not {SRC}\n")
            return 2
        facts = machine_facts(threads, os.path.join(work, "tmp"))
        result, record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[section]}
    undeclared = sorted(set(result["metrics"]) - set(declared))
    result["metrics"] = {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
                         for name, unit in declared.items()}
    record.update(machine=facts, undeclared_metrics=undeclared,
                  why=next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
