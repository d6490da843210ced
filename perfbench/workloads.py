"""The benchmark's workloads: set-up, one timed pass, untimed output checks.

Every workload drives the package as a user does, from one process with
`--jobs` left at its default of 1: through `unroll_tuner.cli.main`, or, for
the warm prediction path, through the same public functions `cmd_predict`
calls.  A pass is the unit a workload repeats and times; its output is
checked after its clock has stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field

from unroll_tuner import backend, cli, dataset, evaluation, mlp
from unroll_tuner.featurize import extract_features
from unroll_tuner.interp import interpret, output_checksum
from unroll_tuner.ir import DataType
from unroll_tuner.mlp import load_model, predict_class
from unroll_tuner.schedule import UNROLL_FACTORS, Unroll, apply_unroll, schedule_program
from unroll_tuner.textfmt import parse_program_text

from speed import CompilerProbe, Probe, PythonProbe, Stopwatch, split_at
from tracing import Tracer, instrument

@dataclass
class PassResult:
    wall_s: float = 0.0                            # raw seconds of the pass's operations
    scaled_s: float = 0.0                          # the same at the reference speed
    slowdown: float = 0.0                          # median probe slowdown during the pass
    attempted: int = 0
    failed: int = 0
    stages: dict = field(default_factory=dict)     # CLI command -> seconds
    outputs: dict = field(default_factory=dict)    # CLI command -> stdout
    warm_ms: list = field(default_factory=list)    # predict-stream, per program
    cold_ms: list = field(default_factory=list)    # predict-stream, per CLI call
    labels: list = field(default_factory=list)     # corpus labels, file order
    quality: dict = field(default_factory=dict)    # untimed numbers from outputs
    layers: dict = field(default_factory=dict)     # traced passes only
    predictions: list = field(default_factory=list)  # predict-stream warm path
    dir: str = ""                                  # where the pass wrote its outputs


def run_cli(argv, tracer: Tracer | None = None):
    """(exit code, stdout, seconds) of one in-process CLI command.

    An exception escaping the CLI counts as a failed command (-1) with its
    traceback on stderr, so one bad stage never ends the run.
    """
    argv = [str(a) for a in argv]
    out = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = -1
    return rc, out.getvalue(), time.perf_counter() - t0


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_labels(csv_path: str) -> list[int]:
    with open(csv_path) as fh:
        return [int(line.rsplit(",", 1)[1]) for line in fh.read().splitlines()[1:] if line]


def read_timings(path: str) -> dict[int, dict[int, float]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        rows[int(parts[0])] = {u: float(v) for u, v in zip(UNROLL_FACTORS, parts[1:])}
    return rows


def check_labels(csv_path: str) -> tuple[list[int], list[str]]:
    """Corpus labels, and problems: a label outside U, a timing that is not
    positive, or a label that is not the argmin of its timings-sidecar row
    (ties go to the smaller factor)."""
    labels = read_labels(csv_path)
    timings = read_timings(csv_path + ".timings.csv")
    problems = []
    if len(timings) != len(labels):
        problems.append(f"{len(labels)} labels but {len(timings)} timing rows")
    for idx, label in enumerate(labels):
        row = timings.get(idx)
        if label not in UNROLL_FACTORS:
            problems.append(f"sample {idx}: label {label} not in U")
        if row is None:
            continue
        if not all(math.isfinite(t) and t > 0 for t in row.values()):
            problems.append(f"sample {idx}: non-positive timing {row}")
        best = min(UNROLL_FACTORS, key=lambda u: (row[u], u))
        if best != label:
            problems.append(f"sample {idx}: label {label} but argmin {best}")
    return labels, problems[:10]


class LayerLog:
    """What the traced pass records beyond span times and counters."""

    def __init__(self):
        self.labels: list[tuple[int, int]] = []       # (innermost extent, label)
        self.kernel_s = 0.0
        self.cvs: list[float] = []
        self.effective: dict[int, set[int]] = {}      # label span -> factors emitted
        self.epochs = 0
        self.model_bytes = 0

    def boundaries(self):
        """The public calls the traced run wraps: (owner, attr, span, counter, hook)."""
        def on_label(tracer, args, kwargs, sample):
            self.labels.append((args[0].innermost_extent, sample.label))

        def on_native(tracer, args, kwargs, result):
            _, sp, u = args[:3]
            self.kernel_s += sum(result.per_run_ms) / 1e3
            if result.runs > 1:
                self.cvs.append(statistics.pstdev(result.per_run_ms) / result.mean_ms)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                effective = apply_unroll(sp, u).unroll
            self.effective.setdefault(tracer.current, set()).add(effective)

        def on_train(tracer, args, kwargs, result):
            self.epochs += len(result[1])

        def on_save(tracer, args, kwargs, result):
            self.model_bytes += os.path.getsize(args[1])

        return [
            (cli, "gen_program", "generator.gen", "generator.programs", None),
            (cli, "gen_schedules", "generator.gen", None, None),
            (cli, "program_to_text", "textfmt.format", None, None),
            (cli, "parse_program_text", "textfmt.parse", None, None),
            (cli, "schedule_program", "schedule.replay", "schedule.replays", None),
            (evaluation, "schedule_program", "schedule.replay", "schedule.replays", None),
            (cli, "validate_schedule", "schedule.validate", None, None),
            (cli, "label_sample", "dataset.label", None, on_label),
            (cli, "extract_features", "featurize.extract", "featurize.extracts", None),
            (dataset, "extract_features", "featurize.extract", "featurize.extracts", None),
            (evaluation, "extract_features", "featurize.extract", "featurize.extracts", None),
            (cli, "save_csv", "dataset.csv_save", None, None),
            (cli, "load_csv", "dataset.csv_load", None, None),
            (cli, "balance_classes", "dataset.balance", None, None),
            (cli, "split_dataset", "dataset.split", None, None),
            (cli, "fit_scaler", "featurize.fit_scaler", None, None),
            (cli, "init_model", "mlp.init", None, None),
            (cli, "train", "mlp.train", None, on_train),
            (cli, "save_model", "mlp.save", None, on_save),
            (cli, "load_model", "mlp.load", None, None),
            (cli, "predict_class", "mlp.predict", None, None),
            (evaluation, "predict_class", "mlp.predict", None, None),
            (cli, "tree_fit", "baselines.tree_fit", None, None),
            (cli, "knn_predict", "baselines.knn", None, None),
            (cli, "run_benchmarks", "evaluation.run_benchmarks", None, None),
            (backend.CostModelBackend, "measure", "backend.cost.measure",
             "backend.cost.measures", None),
            (backend.NativeBackend, "measure", "backend.native.measure",
             "backend.native.measures", on_native),
        ]

    def metrics(self, tracer: Tracer, root: int, counts: dict) -> dict:
        """Per-layer numbers of one traced pass."""
        out = {("dataset.label_self_s" if name == "dataset.label" else f"{name}_s"): secs
               for name, secs in tracer.self_times(root).items()}
        out.update(counts)
        measures = counts.get("backend.native.measures", 0)
        if measures:
            out["backend.native.kernel_s"] = self.kernel_s
            out["backend.native.overhead_s"] = out["backend.native.measure_s"] - self.kernel_s
            out["backend.native.distinct_factor_ratio"] = (
                sum(len(s) for s in self.effective.values()) / measures)
            if self.cvs:
                out["backend.native.cv_median"] = statistics.median(self.cvs)
        if self.epochs:
            out["mlp.epochs"] = self.epochs
            out["mlp.epoch_s"] = out.get("mlp.train_s", 0.0) / self.epochs
        if self.model_bytes:
            out["mlp.model_bytes"] = self.model_bytes
        if self.labels:
            out["dataset.clamped_label_ratio"] = (
                sum(1 for extent, label in self.labels if label > extent) / len(self.labels))
        return out


class Workload:
    """Common base: a workload fills in `setup`, `run_pass` and the checks."""

    name = ""
    SIZES: dict[str, dict] = {}
    SETUP_REPEATS = 3       # `setup_s` is the median set-up

    def __init__(self, work_dir: str, seed: int, size: str):
        self.work = work_dir
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.problems: list[str] = []
        self.findings: dict[str, float] = {}    # run-level numbers from the final checks
        self.probe = self.make_probe()

    def make_probe(self) -> Probe:
        """The speed probe that slows as this workload does."""
        return PythonProbe()

    def stopwatch(self, tracer: Tracer | None) -> Stopwatch:
        """Untraced passes are scaled to the probe's speed; traced ones are raw."""
        return Stopwatch(self.probe if tracer is None else None)

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def setup(self, k: int, watch: Stopwatch) -> None:
        """Set-up number `k`; calls `watch.split()` after each of its steps."""
        raise NotImplementedError

    def run_pass(self, i: int, tracer: Tracer | None) -> PassResult:
        raise NotImplementedError

    def check_pass(self, res: PassResult) -> None:
        """Untimed checks of one pass's outputs; problems go to self.problems."""

    def final_checks(self, passes: list[PassResult]) -> None:
        """Untimed checks that need every pass, run once at the end."""

    def traced_pass(self, i: int, tracer: Tracer) -> PassResult:
        log = LayerLog()
        before = dict(tracer.counts)
        with instrument(tracer, log.boundaries()), tracer.span("pass") as root:
            res = self.run_pass(i, tracer)
        counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
        res.layers = log.metrics(tracer, root, counts)
        return res

    def headline(self, passes: list[PassResult]) -> dict:
        """Untraced per-workload numbers reported beside the layer metrics."""
        return {}


def label_agreement(passes) -> float:
    """Share of (sample, later pass) pairs whose label equals the first pass's.

    Labels of one seed should never change between passes; native timing
    noise makes them change today."""
    labelled = [p.labels for p in passes if p.labels]
    pairs = [a == b for later in labelled[1:] for a, b in zip(labelled[0], later)]
    return sum(pairs) / len(pairs) if pairs else 0.0


def finish(res: PassResult, watch: Stopwatch) -> PassResult:
    res.wall_s, res.scaled_s = watch.raw_s, watch.scaled_s
    res.slowdown = statistics.median(watch.slowdowns) if watch.slowdowns else 0.0
    return res


def _stage_median(passes, stage):
    values = [p.stages[stage] for p in passes if stage in p.stages]
    return statistics.median(values) if values else 0.0


class CostPipeline(Workload):
    name = "cost-pipeline"
    SIZES = {"full": {"programs": 1000, "max_epochs": 10, "warmup_programs": 6},
             "tiny": {"programs": 3, "max_epochs": 1, "warmup_programs": 3}}
    ARTIFACTS = ("corpus.csv", "corpus.csv.timings.csv", "model.json", "report.csv")
    # gen, label, train and baselines each run for seconds in one call, so
    # an untraced pass also probes the machine's speed at these calls
    SPLIT_POINTS = [(cli, "gen_program"), (cli, "label_sample"), (mlp, "adam_step"),
                    (cli, "knn_predict"), (cli, "tree_predict")]

    def __init__(self, work_dir, seed, size):
        super().__init__(work_dir, seed, size)
        self.digests: list[dict] = []
        self.digest_store: str | None = None    # JSON file: digest_key -> digests
        self.digest_key = ""

    def stages(self, d: str, seed: int, programs: int, max_epochs: int):
        corpus, csv = os.path.join(d, "corpus"), os.path.join(d, "corpus.csv")
        model, report = os.path.join(d, "model.json"), os.path.join(d, "report.csv")
        return [
            ["gen", "--count", programs, "--seed", seed, "--out", corpus],
            ["label", "--programs", corpus, "--backend", "cost", "--out", csv],
            ["train", "--data", csv, "--seed", seed, "--max-epochs", max_epochs,
             "--out", model],
            ["predict", os.path.join(corpus, "prog_00000_s01.prog"), "--model", model],
            ["baselines", "--data", csv, "--model", model, "--seed", seed],
            ["bench", "--model", model, "--backend", "cost", "--out", report],
        ]

    def setup(self, k, watch):
        # A small pipeline at another seed: imports, lazy numpy set-up and the
        # file cache are warm before the first timed pass.
        d = self.path(f"setup{k}")
        for argv in self.stages(d, self.seed + 1, self.cfg["warmup_programs"], 1):
            rc = run_cli(argv)[0]
            watch.split()
            if rc != 0:
                self.problems.append(f"warm-up {argv[0]} failed")
                break
        shutil.rmtree(d, ignore_errors=True)

    def run_pass(self, i, tracer):
        d = self.path(f"pass{i}")
        stages = self.stages(d, self.seed, self.cfg["programs"], self.cfg["max_epochs"])
        res = PassResult(attempted=len(stages), dir=d)
        done = 0
        watch = self.stopwatch(tracer)
        with split_at(watch, self.SPLIT_POINTS if tracer is None else []):
            for argv in stages:
                before = watch.scaled_s
                rc, out, _ = run_cli(argv, tracer)
                watch.split()
                res.stages[argv[0]] = watch.scaled_s - before
                res.outputs[argv[0]] = out
                if rc != 0:
                    break       # later stages need this one's output
                done += 1
        res.failed = res.attempted - done
        return finish(res, watch)

    def check_pass(self, res):
        d = res.dir
        if res.failed:     # later stages did not run; there is no output to check
            failed = list(res.stages)[-1]
            self.problems.append(f"pass {os.path.basename(d)}: stage {failed} failed")
            shutil.rmtree(d, ignore_errors=True)
            return
        res.labels, problems = check_labels(os.path.join(d, "corpus.csv"))
        self.problems.extend(problems)

        with open(os.path.join(d, "corpus", "prog_00000_s01.prog")) as fh:
            program, transforms = parse_program_text(fh.read())
        sp = schedule_program(program, [t for t in transforms if not isinstance(t, Unroll)])
        expected = predict_class(load_model(os.path.join(d, "model.json")), extract_features(sp))
        if res.outputs["predict"].strip() != f"unroll_factor={expected}":
            self.problems.append(f"CLI predict printed {res.outputs['predict'].strip()!r}, "
                                 f"in-process predict_class gives {expected}")

        pcs, sps = [], []
        with open(os.path.join(d, "report.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        if not rows:
            self.problems.append("empty bench report")
        for line in rows:
            parts = line.split(",")
            predicted, optimal = int(parts[-7]), int(parts[-6])
            predit_ms, optimal_ms = float(parts[-5]), float(parts[-4])
            if predicted not in UNROLL_FACTORS or optimal not in UNROLL_FACTORS:
                self.problems.append(f"report row {parts[0]}: factor outside U")
            if parts[-2] != f"{optimal_ms / predit_ms:.3f}":
                self.problems.append(f"report row {parts[0]}: pc {parts[-2]} != optimal/predit")
            pcs.append(float(parts[-2]))
            sps.append(float(parts[-1]))

        res.quality = {
            "evaluation.pc_geomean": statistics.geometric_mean(pcs) if pcs else 0.0,
            "evaluation.sp_geomean": statistics.geometric_mean(sps) if sps else 0.0,
        }
        found = re.search(r"test accuracy ([0-9.]+)", res.outputs["train"])
        if found:
            res.quality["mlp.test_acc"] = float(found.group(1))
        for line in res.outputs["baselines"].splitlines():
            found = re.match(r"(knn|decision tree)\s+([0-9.]+)%", line)
            if found:
                key = "baselines.knn_acc" if found.group(1) == "knn" else "baselines.tree_acc"
                res.quality[key] = float(found.group(2)) / 100.0

        digests = {name: sha256_file(os.path.join(d, name)) for name in self.ARTIFACTS}
        digests["corpus/"] = sha256_dir(os.path.join(d, "corpus"))
        if self.digests and digests != self.digests[0]:
            self.problems.append("artifacts differ between passes at one seed")
        self.digests.append(digests)
        shutil.rmtree(d, ignore_errors=True)

    def final_checks(self, passes):
        """Artifacts of one seed must be byte-identical across this run's
        passes (checked per pass) and across runs in this checkout."""
        if not self.digests or not self.digest_store:
            return
        try:
            with open(self.digest_store) as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = {}
        previous = stored.get(self.digest_key)
        if previous is None:
            stored[self.digest_key] = self.digests[0]
            tmp = self.digest_store + f".{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(stored, fh, indent=1)
            os.replace(tmp, self.digest_store)
        elif previous != self.digests[0]:
            self.problems.append("artifacts differ from an earlier run at this seed")

    def headline(self, passes):
        return {
            "label_s": _stage_median(passes, "label"),
            "train_s": _stage_median(passes, "train"),
            "predict_cli_ms": _stage_median(passes, "predict") * 1e3,
        }


NATIVE_GEN_CONFIG = """\
# small nests: depth <= 3, extents 16-64, so that many factors clamp
gen.depth_max = 3
gen.extents = 16,32,64
gen.schedules_per_program = 2
"""


class NativeLabel(Workload):
    name = "native-label"
    SIZES = {"full": {"programs": 30, "runs": 3, "checked_samples": 2},
             "tiny": {"programs": 2, "runs": 2, "checked_samples": 1}}
    SETUP_REPEATS = 7       # a set-up takes about 0.1 s

    def make_probe(self):
        cc = os.environ.get(backend.TOOLCHAIN_ENV_VAR) or backend.DEFAULT_TOOLCHAIN
        return CompilerProbe(cc, backend.DEFAULT_FLAGS, self.path("probe"))

    def setup(self, k, watch):
        d = self.path(f"setup{k}")
        os.makedirs(d)
        config = os.path.join(d, "gen.cfg")
        with open(config, "w") as fh:
            fh.write(NATIVE_GEN_CONFIG)
        generated = os.path.join(d, "generated")
        if run_cli(["gen", "--count", self.cfg["programs"], "--seed", self.seed,
                    "--config", config, "--out", generated])[0] != 0:
            raise RuntimeError("native-label: gen failed")
        watch.split()
        # Schedule 0 of every program is the empty one; keeping only the
        # random schedule makes every sample an independent program, so the
        # pass time depends less on which programs a seed draws.  Each sample
        # gets its own directory and `label` call, so a pass times every
        # sample, and a failing sample fails only its own call.
        self.samples = []
        for name in sorted(os.listdir(generated)):
            if name.endswith("_s01.prog"):
                sample = os.path.join(d, "samples", name[:-len(".prog")])
                os.makedirs(sample)
                os.replace(os.path.join(generated, name), os.path.join(sample, name))
                self.samples.append(sample)
        # One kernel compiled and run, so the toolchain is warm.
        backend.NativeBackend().measure(self.scheduled(self.samples[0]), 0, 1)
        if k:
            shutil.rmtree(self.path(f"setup{k - 1}"))

    @staticmethod
    def scheduled(sample: str):
        """The scheduled program of a sample directory's one .prog file."""
        path = os.path.join(sample, os.listdir(sample)[0])
        with open(path) as fh:
            program, transforms = parse_program_text(fh.read())
        return schedule_program(program, transforms)

    def run_pass(self, i, tracer):
        d = self.path(f"pass{i}")
        os.makedirs(d)
        res = PassResult(attempted=len(self.samples), dir=d)
        watch = self.stopwatch(tracer)
        for k, sample in enumerate(self.samples):
            rc, out, secs = run_cli(["label", "--programs", sample, "--backend", "native",
                                     "--runs", self.cfg["runs"],
                                     "--out", os.path.join(d, f"{k}.csv")], tracer)
            watch.split()
            res.failed += rc != 0
        finish(res, watch)
        res.stages["label"] = res.scaled_s
        return res

    def check_pass(self, res):
        if not res.failed:     # labels of a pass with a gap cannot be compared by index
            for k in range(len(self.samples)):
                labels, problems = check_labels(os.path.join(res.dir, f"{k}.csv"))
                res.labels.extend(labels)
                self.problems.extend(problems)
        shutil.rmtree(res.dir, ignore_errors=True)

    def final_checks(self, passes):
        """Debug-build kernels checked against each other and the interpreter.

        For the samples with the fewest body executions, so the interpreter
        stays cheap, every distinct effective factor is compiled in debug
        mode.  A sample's kernels must all print the same checksum, since
        unrolling replicates the body in order, and it must equal the
        interpreter's.  A float32 mismatch with the interpreter is counted,
        not failed: the interpreter evaluates float32 bodies in double
        precision, so it is not a bit-exact oracle for them.  That known
        defect is reported as `backend.native.interp_mismatch_ratio`."""
        samples = []
        for sample in self.samples:
            sp = self.scheduled(sample)
            samples.append((math.prod(it.extent for it in sp.loops),
                            os.path.basename(sample), sp))
        samples.sort(key=lambda s: s[:2])
        checked = mismatched = 0
        for _, name, sp in samples[:self.cfg["checked_samples"]]:
            expected = output_checksum(interpret(sp).output, sp.base.dtype)
            checksums = {}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for u in UNROLL_FACTORS:
                    unrolled = apply_unroll(sp, u)
                    if unrolled.unroll not in checksums:
                        source = backend.emit_kernel_source(unrolled, runs=1, debug=True)
                        checksums[unrolled.unroll] = (
                            backend.native_measure(source, runs=1).checksum)
            if len(set(checksums.values())) > 1:
                self.problems.append(f"{name}: kernel checksums differ across factors "
                                     f"{ {u: hex(c) for u, c in checksums.items()} }")
            for u, got in checksums.items():
                checked += 1
                if got == expected:
                    continue
                mismatched += 1
                if sp.base.dtype is not DataType.Float32:
                    self.problems.append(f"{name} effective u={u}: kernel checksum {got:#x} "
                                         f"!= interpreter {expected:#x}")
        self.findings["backend.native.interp_mismatch_ratio"] = (
            mismatched / checked if checked else 0.0)

    def headline(self, passes):
        label_s = _stage_median(passes, "label")
        samples = passes[0].attempted if passes else 0
        return {"label_s": label_s,
                "native_samples_per_s": samples / label_s if label_s else 0.0}


class PredictStream(Workload):
    name = "predict-stream"
    WARM_CHUNK = 100        # warm predictions between two speed probes
    SIZES = {"full": {"train_programs": 30, "max_epochs": 2, "stream_programs": 100, "cold": 4},
             "tiny": {"train_programs": 3, "max_epochs": 1, "stream_programs": 1, "cold": 1}}

    def setup(self, k, watch):
        d = self.path(f"setup{k}")
        corpus, csv = os.path.join(d, "train"), os.path.join(d, "train.csv")
        model, stream = os.path.join(d, "model.json"), os.path.join(d, "stream")
        for argv in (
            ["gen", "--count", self.cfg["train_programs"], "--seed", self.seed, "--out", corpus],
            ["label", "--programs", corpus, "--backend", "cost", "--out", csv],
            ["train", "--data", csv, "--seed", self.seed,
             "--max-epochs", self.cfg["max_epochs"], "--out", model],
            # the stream comes from another generator seed than the training corpus
            ["gen", "--count", self.cfg["stream_programs"], "--seed", self.seed + 1,
             "--out", stream],
        ):
            if run_cli(argv)[0] != 0:
                raise RuntimeError(f"predict-stream set-up: {argv[0]} failed")
            watch.split()
        self.files = [os.path.join(stream, name) for name in sorted(os.listdir(stream))]
        self.texts = []
        for path in self.files:
            with open(path) as fh:
                self.texts.append(fh.read())
        self.model_path = model
        self.model = load_model(model)
        step = max(1, len(self.files) // self.cfg["cold"])
        self.cold = list(range(0, len(self.files), step))[:self.cfg["cold"]]
        if k:
            shutil.rmtree(self.path(f"setup{k - 1}"))

    def predict_one(self, text: str) -> int:
        """The warm path: what `cmd_predict` does after its model is loaded."""
        program, transforms = cli.parse_program_text(text)
        kept = [t for t in transforms if not isinstance(t, Unroll)]
        sp = cli.schedule_program(program, kept)
        return cli.predict_class(self.model, cli.extract_features(sp))

    def run_pass(self, i, tracer):
        res = PassResult(attempted=len(self.texts) + len(self.cold))
        clock = time.perf_counter_ns
        watch = self.stopwatch(tracer)
        chunk = []
        for n, text in enumerate(self.texts, 1):
            start = clock()
            try:
                u = self.predict_one(text)
            except Exception:
                traceback.print_exc()
                u = None
                res.failed += 1
            chunk.append((clock() - start) / 1e6)
            res.predictions.append(u)
            if n % self.WARM_CHUNK == 0 or n == len(self.texts):
                slowdown = watch.split()
                res.warm_ms.extend(ms / slowdown for ms in chunk)
                chunk = []
        for idx in self.cold:
            rc, out, secs = run_cli(["predict", self.files[idx], "--model", self.model_path],
                                    tracer)
            res.cold_ms.append(secs * 1e3 / watch.split())
            res.outputs[idx] = out if rc == 0 else None
            res.failed += rc != 0
        return finish(res, watch)

    def check_pass(self, res):
        for idx, out in res.outputs.items():
            if out is not None and out.strip() != f"unroll_factor={res.predictions[idx]}":
                self.problems.append(f"stream item {idx}: CLI printed {out.strip()!r}, "
                                     f"warm path gave {res.predictions[idx]}")

    def headline(self, passes):
        warm = [t for p in passes for t in p.warm_ms]
        cold = [t for p in passes for t in p.cold_ms]
        out = {"predict_cli_ms": statistics.median(cold) if cold else 0.0}
        if warm:
            out["predict_p50_ms"] = statistics.median(warm)
            # p99 needs at least ten samples beyond it
            out["predict_p99_ms"] = (statistics.quantiles(warm, n=100)[98]
                                     if len(warm) >= 1000 else 0.0)
        return out


WORKLOADS = {w.name: w for w in (CostPipeline, NativeLabel, PredictStream)}
