"""Command-line pipeline: gen -> label -> train -> predict / baselines / bench.

Every subcommand is deterministic for a fixed seed (native timing values
aside).  Each setting has one route: run options are flags, whose argparse
declarations hold their defaults; the generator's settings are the `gen.*`
keys of the file that `gen --config` names (flat `key = value` lines with
'#' comments); the native backend's compiler is the environment variable
UNROLL_TUNER_TOOLCHAIN.

Exit codes: 0 success, 1 usage error, 2 pipeline error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import multiprocessing
import os
import sys
import warnings
from collections.abc import Iterable, Iterator

from .backend import DEFAULT_RUNS, CostModelBackend, NativeBackend
from .baselines import KnnConfig, TreeConfig, accuracy_table, knn_predict, tree_fit, tree_predict
from .benchmarks import SIZE_CLASSES, benchmark_suite
from .dataset import balance_classes, label_sample, load_csv, save_csv, split_dataset
from .errors import UnrollTunerError
from .evaluation import accuracy, hit_rate, report_csv, report_table, run_benchmarks
from .featurize import ScalerMode, extract_features, fit_scaler
from .generator import GenConfig, gen_program, gen_schedules
from .ir import DataType, validate_program
from .mlp import TrainConfig, init_model, load_model, predict_class, save_model, train
from .schedule import ScheduledProgram, Unroll, schedule_program
from .schedule import validate_schedule  # noqa: F401  perfbench traces cli.validate_schedule
from .textfmt import format_transform, parse_program_text, program_to_text, read_text


def load_config(path: str) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment; a key is set once."""
    out: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for line_no, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UnrollTunerError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in set_on:
            raise UnrollTunerError(
                f"{path}:{line_no}: key {key!r} is already set on line {set_on[key]}")
        set_on[key] = line_no
        out[key] = value
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage errors exit 1, synopsis on stderr
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _list_of(cast):
    """Config cast for a comma-separated list."""
    return lambda text: tuple(cast(v.strip()) for v in text.split(",") if v.strip())


# The `gen --config` file's keys, each with the cast of its value.
_GEN_KEYS = {
    "gen.depth_min": int,
    "gen.depth_max": int,
    "gen.extents": _list_of(int),
    "gen.max_inputs": int,
    "gen.dtypes": _list_of(DataType),
    "gen.schedules_per_program": int,
    "gen.transforms": _list_of(str),
}


def _gen_config(seed: int, path: str | None) -> GenConfig:
    """The generator settings: `seed`, plus the `gen.*` keys of the file at
    `path`; a key the file does not set keeps GenConfig's default."""
    values = {}
    for key, text in (load_config(path) if path else {}).items():
        if key not in _GEN_KEYS:
            raise UnrollTunerError(f"config key {key!r} is not a generator setting "
                                   f"(the file takes only {', '.join(_GEN_KEYS)})")
        try:
            values[key] = _GEN_KEYS[key](text)
        except ValueError as exc:
            raise UnrollTunerError(f"config key {key!r}: {exc}") from None
    d = GenConfig()
    try:
        return GenConfig(
            seed=seed,
            depth_range=(values.get("gen.depth_min", d.depth_range[0]),
                         values.get("gen.depth_max", d.depth_range[1])),
            extent_choices=values.get("gen.extents", d.extent_choices),
            max_inputs=values.get("gen.max_inputs", d.max_inputs),
            dtype_choices=values.get("gen.dtypes", d.dtype_choices),
            schedules_per_program=values.get("gen.schedules_per_program",
                                             d.schedules_per_program),
            allowed_transforms=values.get("gen.transforms", d.allowed_transforms),
        )
    except ValueError as exc:       # GenConfig's own range checks
        raise UnrollTunerError(f"gen config: {exc}") from None


def _map(fn, payloads: Iterable, jobs: int, chunk: int = 1) -> Iterator:
    """`fn` over `payloads`, yielded in order, on `jobs` worker processes
    that take `chunk` payloads at a time."""
    if jobs == 1:
        yield from map(fn, payloads)
    else:
        with multiprocessing.Pool(jobs) as pool:
            yield from pool.imap(fn, payloads, chunk)


def _gen_worker(payload):
    cfg, index = payload
    p = gen_program(cfg, index)
    report = validate_program(p)
    if not report.ok:
        raise UnrollTunerError(f"generated program {index} invalid: {report.violations}")
    text = program_to_text(p)
    files = []
    for j, sp in enumerate(gen_schedules(cfg, p)):
        schedule = "".join(format_transform(t) + "\n" for t in sp.applied)
        files.append((f"prog_{index:05d}_s{j:02d}.prog", text + schedule))
    return files


def cmd_gen(args) -> int:
    cfg = _gen_config(args.seed, args.config)
    os.makedirs(args.out, exist_ok=True)
    payloads = [(cfg, index) for index in range(args.count)]
    # four chunks per worker, as `Pool.map` makes them
    batches = list(_map(_gen_worker, payloads, args.jobs, -(-args.count // (4 * args.jobs))))
    n_files = 0
    for files in batches:
        for filename, content in files:
            with open(os.path.join(args.out, filename), "w") as fh:
                fh.write(content)
            n_files += 1
    print(f"wrote {n_files} scheduled programs to {args.out}")
    return 0


_BACKENDS = {"cost": CostModelBackend, "native": NativeBackend}


# `.prog` files a worker reads, then labels, at a time.  Reading a chunk
# before labeling it keeps the reads' system calls from interleaving with
# each sample's computation (one file at a time made the cost backend's
# labeling about 7% slower), and a chunk of rows stays small.
_CHUNK = 32


def _schedule_file(path: str, text: str) -> ScheduledProgram:
    """The schedule in `text`, the `.prog` file at `path`, less any `unroll`
    directive, which is ignored with a warning: the factor is chosen from U."""
    program, transforms = parse_program_text(text)
    kept = [t for t in transforms if not isinstance(t, Unroll)]
    if len(kept) != len(transforms):
        warnings.warn(f"{path}: ignoring the unroll directive; the factor is chosen from U")
    return schedule_program(program, kept)


def _label_worker(payload):
    """Read the `.prog` files at `paths`, then label each; the rows in order."""
    paths, backend, runs = payload
    texts = [read_text(path) for path in paths]
    rows = []
    for path, text in zip(paths, texts):
        try:
            rows.append(label_sample(_schedule_file(path, text), backend, runs))
        except UnrollTunerError as exc:     # the class is kept: a KernelError stays one
            raise type(exc)(f"{path}: {exc}") from exc
    return rows


def cmd_label(args) -> int:
    backend = _BACKENDS[args.backend]()
    in_dir = args.programs
    files = sorted(f for f in os.listdir(in_dir) if f.endswith(".prog"))
    if not files:
        raise UnrollTunerError(f"no .prog files under {in_dir}")
    payloads = (([os.path.join(in_dir, name) for name in files[start:start + _CHUNK]],
                 backend, args.runs) for start in range(0, len(files), _CHUNK))
    # timed executions must not overlap
    jobs = 1 if isinstance(backend, NativeBackend) else args.jobs
    counts: dict[int, int] = {}

    def counted(chunks):
        for rows in chunks:
            for row in rows:
                counts[row.label] = counts.get(row.label, 0) + 1
                yield row

    with contextlib.closing(_map(_label_worker, payloads, jobs)) as chunks:
        n_rows = save_csv(counted(chunks), args.out)
    print(f"labeled {n_rows} samples -> {args.out} "
          f"(label counts: {dict(sorted(counts.items()))})")
    return 0


def _prepare_data(args, mode: ScalerMode):
    """Corpus CSV -> class-balanced rows -> split, plus a scaler fitted on
    the training rows (shared by `train` and `baselines`)."""
    corpus = balance_classes(load_csv(args.data), args.min_per_class, seed=args.seed)
    split = split_dataset(corpus, seed=args.seed)
    return split, fit_scaler(split.train.x, mode)


def cmd_train(args) -> int:
    split, scaler = _prepare_data(args, ScalerMode(args.scaler))
    model = init_model(scaler.output_width, seed=args.seed)
    model.scaler = scaler
    model, history = train(model, split, TrainConfig(seed=args.seed,
                                                     max_epochs=args.max_epochs))
    save_model(model, args.out)
    test_acc = accuracy(model, split.test)
    best = min(h["valid_loss"] for h in history)
    print(f"trained {len(history)} epochs (best valid loss {best:.4f}); "
          f"test accuracy {test_acc:.3f}; model -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    text = read_text(args.program_file)
    try:
        sp = _schedule_file(args.program_file, text)
    except UnrollTunerError as exc:
        raise UnrollTunerError(f"{args.program_file}: {exc}") from exc
    model = load_model(args.model)
    print(f"unroll_factor={predict_class(model, extract_features(sp))}")
    return 0


def cmd_baselines(args) -> int:
    model = load_model(args.model)
    if model.scaler is None:
        raise UnrollTunerError(f"{args.model} has no fitted scaler")
    split, scaler = _prepare_data(args, model.scaler.mode)
    if scaler != model.scaler:
        raise UnrollTunerError(
            f"{args.model} was trained on another split of {args.data}; pass the "
            f"--seed and --min-per-class that `train` was given")
    neural = accuracy(model, split.test)
    del model       # the weights need not stay resident while the baselines fit
    x_train = scaler.transform_matrix(split.train.x)
    y_train = split.train.y
    knn_cfg = KnnConfig(k=min(args.k, len(y_train)))
    tree = tree_fit(x_train, y_train, TreeConfig(max_depth=args.max_depth))

    x_test = scaler.transform_matrix(split.test.x)
    # blocks of test rows whose (rows, train rows, features) difference
    # tensor holds about 2**20 values
    block = max(1, (1 << 20) // x_train.size)
    by_knn = []
    for start in range(0, len(x_test), block):
        by_knn += knn_predict(x_train, y_train, knn_cfg, x_test[start:start + block])

    entries = [
        ("neural network", neural),
        ("knn", hit_rate(by_knn, split.test.y)),
        ("decision tree", hit_rate([tree_predict(tree, q) for q in x_test], split.test.y)),
    ]
    print(accuracy_table(entries))
    return 0


def _parse_sizes(text: str) -> dict[str, int]:
    if not text.strip():
        raise UnrollTunerError("--sizes is empty: name a size class, e.g. small:16")
    sizes = {}
    for part in text.split(","):
        name, _, value = part.partition(":")
        name = name.strip()
        if name not in SIZE_CLASSES:
            raise UnrollTunerError(f"unknown size class {name!r}")
        if name in sizes:
            raise UnrollTunerError(f"--sizes {text!r}: size class {name!r} is given twice")
        try:
            size = int(value)
        except ValueError:
            raise UnrollTunerError(f"--sizes {part!r}: size must be an integer") from None
        # the convolution's image side is size // 8, and a zero-extent loop costs nothing
        if size < 8:
            raise UnrollTunerError(f"--sizes {part!r}: size must be at least 8")
        sizes[name] = size
    return sizes


def cmd_bench(args) -> int:
    model = load_model(args.model)
    sizes = None if args.sizes is None else _parse_sizes(args.sizes)
    reports = run_benchmarks(model, _BACKENDS[args.backend](), benchmark_suite(sizes),
                             runs=args.runs)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_csv(reports))
    print(report_table(reports))
    return 0


_SHARED_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--jobs": {"type": int, "default": 1,
               "help": "worker processes (default %(default)s; native labeling uses one)"},
    "--backend": {"choices": tuple(_BACKENDS), "default": "cost"},
    "--runs": {"type": int, "default": DEFAULT_RUNS,
               "help": "timed rounds per native measurement (default %(default)s)"},
    "--min-per-class": {"type": int, "default": 5,
                        "help": "drop classes with fewer rows (default %(default)s)"},
}

# flags whose value must be at least 1; checked after parsing so that a bad
# value is a pipeline error, like every other malformed value
_POSITIVE = ("count", "jobs", "runs", "max_epochs", "k", "max_depth")


def _add_shared(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named shared flags; a subcommand takes only those it reads."""
    for flag in flags:
        sub.add_argument(flag, **_SHARED_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and then reused:
    building it takes a millisecond or two, some forty parses' worth, and
    parsing leaves it unchanged."""
    parser = _Parser(prog="unroll-tuner",
                     description="loop-unrolling factor autotuner")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("gen", help="generate random programs + schedules")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--config", help="file of gen.* generator settings")
    p.add_argument("--out", default="corpus")
    _add_shared(p, "--seed", "--jobs")
    p.set_defaults(func=cmd_gen)

    p = commands.add_parser("label", help="label programs by exhaustive timing over U")
    p.add_argument("--programs", required=True, help="directory of .prog files")
    p.add_argument("--out", default="corpus.csv")
    _add_shared(p, "--jobs", "--backend", "--runs")
    p.set_defaults(func=cmd_label)

    p = commands.add_parser("train", help="fit the MLP on a labeled corpus")
    p.add_argument("--data", required=True, help="corpus CSV")
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--scaler", choices=[m.value for m in ScalerMode],
                   default=ScalerMode.Standardize.value)
    p.add_argument("--out", default="model.json")
    _add_shared(p, "--seed", "--min-per-class")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="predict the factor for one program file")
    p.add_argument("program_file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("baselines", help="KNN / decision-tree / MLP accuracy table")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="trained MLP from `train`")
    p.add_argument("--k", type=int, default=KnnConfig.k)
    p.add_argument("--max-depth", type=int, default=TreeConfig.max_depth)
    _add_shared(p, "--seed", "--min-per-class")
    p.set_defaults(func=cmd_baselines)

    p = commands.add_parser("bench", help="run the benchmark suite end to end")
    p.add_argument("--model", required=True)
    p.add_argument("--sizes", default=None,
                   help='override sizes, e.g. "small:16,medium:32,large:64"')
    p.add_argument("--out", help="also write the report as CSV")
    _add_shared(p, "--backend", "--runs")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in _POSITIVE:
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise UnrollTunerError(f"--{name.replace('_', '-')} must be >= 1, got {value}")
        return args.func(args)
    except (UnrollTunerError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
