"""Command-line pipeline: gen -> label -> train -> predict / baselines / bench.

Every subcommand is deterministic for a fixed seed (native timing values
aside).  Option precedence is flags > config file > built-in defaults; the
config file is flat `key = value` lines with '#' comments.

Exit codes: 0 success, 1 usage error, 2 pipeline error.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import warnings

from .backend import DEFAULT_RUNS, CostModelBackend, NativeBackend
from .baselines import KnnConfig, TreeConfig, accuracy_table, knn_predict, tree_fit, tree_predict
from .benchmarks import SIZE_CLASSES, benchmark_suite
from .dataset import balance_classes, label_sample, load_csv, save_csv, split_dataset
from .errors import UnrollTunerError
from .evaluation import accuracy, report_csv, report_table, run_benchmarks
from .featurize import ScalerMode, extract_features, fit_scaler
from .generator import GenConfig, gen_program, gen_schedules
from .ir import DataType, validate_program
from .mlp import TrainConfig, init_model, load_model, predict_class, save_model, train
from .schedule import UNROLL_FACTORS, Unroll, schedule_program
from .schedule import validate_schedule  # noqa: F401  perfbench traces cli.validate_schedule
from .textfmt import format_transform, parse_program_text, program_to_text


def load_config(path: str) -> dict[str, str]:
    """Flat `key = value` file; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UnrollTunerError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _pick(flag_value, config: dict[str, str], key: str, default, cast=str, minimum=None):
    """Flag, else config value through `cast`, else default.  A config value
    that does not cast, or a value below `minimum`, is an error naming its
    flag or key."""
    if flag_value is not None:
        value, source = flag_value, "--" + key.replace("_", "-")
    elif key in config:
        source = f"config key {key!r}"
        try:
            value = cast(config[key])
        except ValueError as exc:
            raise UnrollTunerError(f"{source}: {exc}") from None
    else:
        return default
    if minimum is not None and value < minimum:
        raise UnrollTunerError(f"{source} must be >= {minimum}, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # usage errors exit 1, synopsis on stderr
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _parse_classes(text: str) -> tuple[int, ...]:
    try:
        classes = tuple(int(v) for v in text.split(","))
    except ValueError:
        classes = ()            # rejected below with every other bad set
    bad = [c for c in classes if c not in UNROLL_FACTORS]
    if bad or len(set(classes)) != len(classes) or 0 not in classes:
        raise UnrollTunerError(
            f"--classes {text!r}: need distinct members of {UNROLL_FACTORS} including 0")
    return tuple(sorted(classes))


def _list_of(cast):
    """Config cast for a comma-separated list."""
    return lambda text: tuple(cast(v.strip()) for v in text.split(",") if v.strip())


def _gen_config(args, config: dict[str, str]) -> GenConfig:
    d = GenConfig()
    try:
        return GenConfig(
            seed=_pick(args.seed, config, "seed", d.seed, int),
            depth_range=(_pick(None, config, "gen.depth_min", d.depth_range[0], int),
                         _pick(None, config, "gen.depth_max", d.depth_range[1], int)),
            extent_choices=_pick(None, config, "gen.extents", d.extent_choices, _list_of(int)),
            max_inputs=_pick(None, config, "gen.max_inputs", d.max_inputs, int),
            dtype_choices=_pick(None, config, "gen.dtypes", d.dtype_choices,
                                _list_of(DataType.from_name)),
            schedules_per_program=_pick(None, config, "gen.schedules_per_program",
                                        d.schedules_per_program, int),
            allowed_transforms=_pick(None, config, "gen.transforms", d.allowed_transforms,
                                     _list_of(str)),
        )
    except ValueError as exc:       # GenConfig's own range checks
        raise UnrollTunerError(f"gen config: {exc}") from None


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


def cmd_gen(args, config: dict[str, str]) -> int:
    cfg = _gen_config(args, config)
    count = _pick(args.count, config, "count", None, int)
    if count is None or count < 1:
        raise UnrollTunerError("gen needs --count >= 1")
    out_dir = _pick(args.out, config, "out", "corpus")
    os.makedirs(out_dir, exist_ok=True)
    jobs = max(1, _pick(args.jobs, config, "jobs", 1, int))
    payloads = [(cfg, index) for index in range(count)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            batches = pool.map(_gen_worker, payloads)
    else:
        batches = [_gen_worker(pl) for pl in payloads]
    n_files = 0
    for files in batches:
        for filename, content in files:
            with open(os.path.join(out_dir, filename), "w") as fh:
                fh.write(content)
            n_files += 1
    print(f"wrote {n_files} scheduled programs to {out_dir}")
    return 0


def _make_backend(name: str, config: dict[str, str]):
    if name == "cost":
        return CostModelBackend()
    if name == "native":
        return NativeBackend(
            toolchain=config.get("toolchain.cmd"),
            flags=tuple(config["toolchain.flags"].split()) if "toolchain.flags" in config else None,
        )
    raise UnrollTunerError(f"unknown backend {name!r} (use cost|native)")


def _runs(args, config: dict[str, str], backend) -> int:
    default = DEFAULT_RUNS if isinstance(backend, NativeBackend) else 1
    return _pick(args.runs, config, "runs", default, int, minimum=1)


def _label_worker(payload):
    path, text, backend, runs, factors = payload
    try:
        program, transforms = parse_program_text(text)
        return label_sample(schedule_program(program, transforms), backend,
                            runs=runs, factors=factors)
    except UnrollTunerError as exc:
        raise UnrollTunerError(f"{path}: {exc}") from exc


def cmd_label(args, config: dict[str, str]) -> int:
    backend = _make_backend(_pick(args.backend, config, "backend", "cost"), config)
    factors = _parse_classes(_pick(args.classes, config, "classes",
                                   ",".join(str(u) for u in UNROLL_FACTORS)))
    in_dir = args.programs
    files = sorted(f for f in os.listdir(in_dir) if f.endswith(".prog"))
    if not files:
        raise UnrollTunerError(f"no .prog files under {in_dir}")
    runs = _runs(args, config, backend)
    payloads = []
    for name in files:
        path = os.path.join(in_dir, name)
        with open(path) as fh:
            payloads.append((path, fh.read(), backend, runs, factors))
    jobs = max(1, _pick(args.jobs, config, "jobs", 1, int))
    if jobs > 1 and not isinstance(backend, NativeBackend):   # timed executions must not overlap
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_label_worker, payloads)
    else:
        rows = [_label_worker(pl) for pl in payloads]

    out_path = _pick(args.out, config, "out", "corpus.csv")
    save_csv(rows, out_path)
    counts: dict[int, int] = {}
    for row in rows:
        counts[row.label] = counts.get(row.label, 0) + 1
    print(f"labeled {len(rows)} samples -> {out_path} "
          f"(label counts: {dict(sorted(counts.items()))})")
    return 0


def _prepare_data(args, config: dict[str, str], seed: int):
    """Corpus CSV -> class-balanced rows -> split, plus a scaler fitted on
    the training rows (shared by `train` and `baselines`)."""
    rows = load_csv(args.data)
    min_per_class = _pick(args.min_per_class, config, "min_per_class", 5, int)
    rows = balance_classes(rows, min_per_class, seed=seed)
    split = split_dataset(rows, seed=seed)
    mode = ScalerMode(_pick(args.scaler, config, "scaler", "standardize", ScalerMode))
    return split, fit_scaler([r.features.to_list() for r in split.train], mode)


def cmd_train(args, config: dict[str, str]) -> int:
    seed = _pick(args.seed, config, "seed", 0, int)
    classes = _parse_classes(_pick(args.classes, config, "classes",
                                   ",".join(str(u) for u in UNROLL_FACTORS)))
    split, scaler = _prepare_data(args, config, seed)
    model = init_model(scaler.output_width, seed=seed, n_classes=len(classes))
    model.scaler = scaler
    model.classes = classes
    cfg = TrainConfig(seed=seed, max_epochs=_pick(args.max_epochs, config, "max_epochs",
                                                  500, int, minimum=1))
    model, history = train(model, split, cfg)
    out_path = _pick(args.out, config, "out", "model.json")
    save_model(model, out_path)
    test_acc = accuracy(model, split.test)
    best = min(h["valid_loss"] for h in history)
    print(f"trained {len(history)} epochs (best valid loss {best:.4f}); "
          f"test accuracy {test_acc:.3f}; model -> {out_path}")
    return 0


def cmd_predict(args, config: dict[str, str]) -> int:
    with open(args.program_file) as fh:
        text = fh.read()
    try:
        program, transforms = parse_program_text(text)
        kept = [t for t in transforms if not isinstance(t, Unroll)]
        if len(kept) != len(transforms):
            warnings.warn("ignoring unroll directive in input; predicting a fresh factor")
        sp = schedule_program(program, kept)
    except UnrollTunerError as exc:
        raise UnrollTunerError(f"{args.program_file}: {exc}") from exc
    model = load_model(args.model)
    print(f"unroll_factor={predict_class(model, extract_features(sp))}")
    return 0


def cmd_baselines(args, config: dict[str, str]) -> int:
    seed = _pick(args.seed, config, "seed", 0, int)
    split, scaler = _prepare_data(args, config, seed)
    x_train = scaler.transform_matrix([r.features.to_list() for r in split.train])
    y_train = [r.label for r in split.train]
    knn_cfg = KnnConfig(k=min(_pick(args.k, config, "k", 5, int, minimum=1), len(y_train)))
    tree = tree_fit(x_train, y_train, TreeConfig(
        max_depth=_pick(args.max_depth, config, "max_depth", 12, int, minimum=1)))

    def knn(fv):
        return knn_predict(x_train, y_train, knn_cfg, scaler.transform(fv.to_list()))

    def by_tree(fv):
        return tree_predict(tree, scaler.transform(fv.to_list()))

    entries = [
        ("neural network", accuracy(load_model(args.model), split.test)),
        ("knn", accuracy(knn, split.test)),
        ("decision tree", accuracy(by_tree, split.test)),
    ]
    print(accuracy_table(entries))
    return 0


def _parse_sizes(text: str) -> dict[str, int]:
    sizes = {}
    for part in text.split(","):
        name, _, value = part.partition(":")
        if name.strip() not in SIZE_CLASSES:
            raise UnrollTunerError(f"unknown size class {name.strip()!r}")
        try:
            sizes[name.strip()] = int(value)
        except ValueError:
            raise UnrollTunerError(f"--sizes {part!r}: size must be an integer") from None
    return sizes


def cmd_bench(args, config: dict[str, str]) -> int:
    model = load_model(args.model)
    backend = _make_backend(_pick(args.backend, config, "backend", "cost"), config)
    runs = _runs(args, config, backend)
    sizes = _parse_sizes(args.sizes) if args.sizes else None
    reports = run_benchmarks(model, backend, benchmark_suite(sizes), runs=runs)
    out_path = _pick(args.out, config, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(report_csv(reports))
    print(report_table(reports))
    return 0


_SHARED_FLAGS = {
    "--seed": {"type": int},
    "--jobs": {"type": int},
    "--backend": {"choices": ("cost", "native")},
    "--config": {},
    "--out": {},
    "--runs": {"type": int, "help": "timed repetitions per measurement (native default 30)"},
    "--classes": {"help": 'factor class set, default "0,2,4,8,16,32,64"'},
}


def _add_shared(sub: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named shared flags; a subcommand takes only those it reads."""
    for flag in flags:
        sub.add_argument(flag, default=None, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unroll-tuner",
                     description="loop-unrolling factor autotuner")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("gen", help="generate random programs + schedules")
    p.add_argument("--count", type=int, default=None)
    _add_shared(p, "--seed", "--jobs", "--config", "--out")
    p.set_defaults(func=cmd_gen)

    p = commands.add_parser("label", help="label programs by exhaustive timing over U")
    p.add_argument("--programs", required=True, help="directory of .prog files")
    _add_shared(p, "--jobs", "--backend", "--config", "--out", "--runs", "--classes")
    p.set_defaults(func=cmd_label)

    p = commands.add_parser("train", help="fit the MLP on a labeled corpus")
    p.add_argument("--data", required=True, help="corpus CSV")
    p.add_argument("--min-per-class", type=int, default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--scaler", choices=("standardize", "normalize"), default=None)
    _add_shared(p, "--seed", "--config", "--out", "--classes")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("predict", help="predict the factor for one program file")
    p.add_argument("program_file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("baselines", help="KNN / decision-tree / MLP accuracy table")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, help="trained MLP from `train`")
    p.add_argument("--min-per-class", type=int, default=None)
    p.add_argument("--scaler", choices=("standardize", "normalize"), default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    _add_shared(p, "--seed", "--config")
    p.set_defaults(func=cmd_baselines)

    p = commands.add_parser("bench", help="run the benchmark suite end to end")
    p.add_argument("--model", required=True)
    p.add_argument("--sizes", default=None,
                   help='override sizes, e.g. "small:16,medium:32,large:64"')
    _add_shared(p, "--backend", "--config", "--out", "--runs")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config) if getattr(args, "config", None) else {}
        return args.func(args, config)
    except UnrollTunerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
