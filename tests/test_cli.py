from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from unroll_tuner import cli, textfmt
from unroll_tuner.cli import load_config, main
from unroll_tuner.benchmarks import mmxm
from unroll_tuner.dataset import LabeledSample, load_csv, save_csv
from unroll_tuner.errors import KernelError
from unroll_tuner.featurize import extract_features
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules
from unroll_tuner.textfmt import program_to_text


def run_cli(*argv) -> int:
    return main(list(argv))


def read(path) -> str:
    with open(path) as fh:
        return fh.read()


def test_gen_needs_count(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("gen", "--seed", "1")
    assert exc.value.code == 1
    assert "--count" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("label")          # missing required --programs
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_backend_exits_2(tmp_path, capsys):
    gen_dir = tmp_path / "progs"
    assert run_cli("gen", "--count", "1", "--seed", "1", "--out", str(gen_dir)) == 0
    code = run_cli("label", "--programs", str(gen_dir), "--backend", "cost",
                   "--out", str(tmp_path / "c.csv"))
    assert code == 0
    capsys.readouterr()
    # bad input dir is a pipeline error
    assert run_cli("label", "--programs", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "c.csv")) == 2


def test_unknown_backend_in_config_exits_2(pipeline, tmp_path, capsys):
    """The backend is a flag only: `gen` rejects the key, and `label` and
    `bench` take no config file."""
    _, progs, _, model = pipeline
    config = tmp_path / "run.cfg"
    config.write_text("backend = gpu\n")
    assert run_cli("gen", "--count", "1", "--config", str(config),
                   "--out", str(tmp_path / "g")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config key 'backend' is not a "
                                                "generator setting"), err
    for argv in (["label", "--programs", str(progs)], ["bench", "--model", str(model)]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--config", str(config))
        assert exc.value.code == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err


ILLEGAL_SCHEDULES = {
    "split 0 3\n": "factor 3 is not a power of two",
    "split 0 256\n": "factor 256 outside [2, 128]",
    "tile2 0 1 3 4\n": "factor 3 is not a power of two",
    "parallelize 0\nparallelize 1\n": "at most one Parallelize per schedule",
}
PROGRAM_TEXT = """program t
iter i0 0 8
iter i1 0 8
input a 2 float64
body a[i0, i1] + a[i1, i0]
output out[i0, i1]
"""


def test_label_rejects_illegal_schedules(tmp_path, monkeypatch, capsys):
    from unroll_tuner import backend

    # the native path must fail while replaying, before anything is compiled
    monkeypatch.setattr(backend, "_compile_and_run",
                        lambda *a, **k: pytest.fail("compiled an illegal schedule"))
    for k, (directives, message) in enumerate(ILLEGAL_SCHEDULES.items()):
        progs = tmp_path / f"p{k}"
        progs.mkdir()
        (progs / "t.prog").write_text(PROGRAM_TEXT + directives)
        for name in ("cost", "native"):
            assert run_cli("label", "--programs", str(progs), "--backend", name,
                           "--out", str(tmp_path / "c.csv")) == 2
            assert capsys.readouterr().err == f"error: {progs / 't.prog'}: {message}\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_label_leaves_previous_output(tmp_path, capsys, jobs):
    progs = tmp_path / "p"
    assert run_cli("gen", "--count", "4", "--seed", "3", "--out", str(progs)) == 0
    bad = progs / "zz_last.prog"        # sorts after every generated file
    bad.write_text(PROGRAM_TEXT + "split 0 3\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "c.csv"
    out.write_bytes(b"an earlier corpus\n")
    capsys.readouterr()
    assert run_cli("label", "--programs", str(progs), "--out", str(out), "--jobs", jobs) == 2
    assert capsys.readouterr().err == f"error: {bad}: factor 3 is not a power of two\n"
    assert out.read_bytes() == b"an earlier corpus\n"
    assert os.listdir(out_dir) == ["c.csv"]     # no sidecar, no temporary file


def test_native_compile_timeout_is_error_line(tmp_path, monkeypatch, capsys):
    from unroll_tuner import backend

    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\nexec sleep 30\n")
    fake.chmod(0o755)
    monkeypatch.setenv(backend.TOOLCHAIN_ENV_VAR, str(fake))
    monkeypatch.setattr(backend, "DEFAULT_TIMEOUT_S", 0.5)
    progs = tmp_path / "p"
    progs.mkdir()
    (progs / "t.prog").write_text(PROGRAM_TEXT)
    assert run_cli("label", "--programs", str(progs), "--backend", "native",
                   "--out", str(tmp_path / "c.csv")) == 2
    err = capsys.readouterr().err
    assert err == f"error: {progs / 't.prog'}: compiler {str(fake)!r} exceeded 0.5 s\n"


class FailingBackend:
    """A backend on which every sample's kernels fail to run."""

    def sweep(self, sp, factors, runs):
        raise KernelError("kernel exited with 3: ")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_label_keeps_the_kernel_error_class(tmp_path, monkeypatch, jobs):
    """`label` prefixes a sample's failure with its path and keeps its class,
    in a worker process too, so `cmd_label` can tell a KernelError apart."""
    monkeypatch.setitem(cli._BACKENDS, "cost", FailingBackend)
    progs = tmp_path / "p"
    progs.mkdir()
    (progs / "t.prog").write_text(PROGRAM_TEXT)
    args = cli.build_parser().parse_args(["label", "--programs", str(progs), "--jobs", jobs,
                                          "--out", str(tmp_path / "c.csv")])
    with pytest.raises(KernelError, match=f"^{re.escape(str(progs / 't.prog'))}: "
                                          "kernel exited with 3: $"):
        args.func(args)


@pytest.mark.parametrize("body, message", [
    ("a[i0, k] + 1.0", "dangling iterator 'k' in body access to a"),
    ("b[i0, i1] + 1.0", "undeclared buffer 'b'"),
    ("a[i0] + 1.0", "rank mismatch: a declared rank 2, indexed with 1 subscripts"),
    ("a[i0+1e3, i1] + 1.0", "subscript offsets must be integer literals"),
])
def test_label_and_predict_reject_invalid_programs(tmp_path, capsys, body, message):
    progs = tmp_path / "p"
    progs.mkdir()
    path = progs / "t.prog"
    path.write_text(PROGRAM_TEXT.replace("a[i0, i1] + a[i1, i0]", body))
    assert run_cli("label", "--programs", str(progs), "--out", str(tmp_path / "c.csv")) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    # the program is parsed before the model is loaded
    assert run_cli("predict", str(path), "--model", str(tmp_path / "m.json")) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def unroll_ignored(path) -> str:
    return f"{path}: ignoring the unroll directive; the factor is chosen from U"


@pytest.mark.parametrize("backend", [
    "cost",
    pytest.param("native", marks=pytest.mark.skipif(shutil.which("cc") is None,
                                                    reason="no C toolchain on PATH")),
])
def test_label_ignores_unroll_directive(tmp_path, backend):
    """`label` times every factor of U, so a file's `unroll` directive is
    ignored, with a warning, as `predict` ignores it."""
    out = {}
    for name, directive in (("plain", ""), ("unrolled", "unroll 4\n")):
        progs = tmp_path / name
        progs.mkdir()
        (progs / "t.prog").write_text(PROGRAM_TEXT + directive)
        out[name] = tmp_path / f"{name}.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("label", "--programs", str(progs), "--backend", backend,
                           "--runs", "1", "--out", str(out[name])) == 0
        assert [str(w.message) for w in caught] == \
            ([unroll_ignored(progs / "t.prog")] if directive else [])
    if backend == "cost":
        for suffix in ("", ".timings.csv"):
            assert read(f"{out['unrolled']}{suffix}") == read(f"{out['plain']}{suffix}")
    else:       # native times differ from run to run; the features do not
        assert load_csv(str(out["unrolled"])).x.tolist() == \
            load_csv(str(out["plain"])).x.tolist()


def test_predict_ignores_unroll_directive(pipeline, tmp_path, capsys):
    _, progs, _, model = pipeline
    sample = progs / sorted(os.listdir(progs))[1]
    unrolled = tmp_path / "unrolled.prog"
    unrolled.write_text(read(sample) + "unroll 4\n")
    assert run_cli("predict", str(sample), "--model", str(model)) == 0
    expected = capsys.readouterr().out
    with pytest.warns(UserWarning) as caught:
        assert run_cli("predict", str(unrolled), "--model", str(model)) == 0
    assert [str(w.message) for w in caught] == [unroll_ignored(unrolled)]
    assert capsys.readouterr().out == expected


def test_train_on_copies_of_one_sample_is_error_line(tmp_path, capsys):
    """No column of the training split varies, though the float std of a
    rescaled load column is not exactly 0."""
    corpus = tmp_path / "c.csv"
    save_csv([LabeledSample(extract_features(mmxm(64)), 8)] * 12, str(corpus))
    assert run_cli("train", "--data", str(corpus), "--out", str(tmp_path / "m.json"),
                   "--min-per-class", "2") == 2
    assert capsys.readouterr().err == "error: no feature column varies across the training set\n"
    assert not (tmp_path / "m.json").exists()


def test_baselines_needs_a_model(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("baselines", "--data", "c.csv")
    assert exc.value.code == 1
    assert "--model" in capsys.readouterr().err


def test_label_replays_each_schedule_once(tmp_path, monkeypatch):
    from unroll_tuner import schedule

    progs = tmp_path / "p"
    assert run_cli("gen", "--count", "2", "--seed", "3", "--out", str(progs)) == 0
    replays = []
    real = schedule.new_schedule
    monkeypatch.setattr(schedule, "new_schedule", lambda p: replays.append(p) or real(p))
    assert run_cli("label", "--programs", str(progs), "--backend", "cost",
                   "--out", str(tmp_path / "c.csv")) == 0
    assert len(replays) == len(os.listdir(progs)) == 20


@pytest.mark.parametrize("argv", [
    ["predict", "x.prog", "--model", "m.json", "--backend", "native"],
    ["baselines", "--data", "c.csv", "--model", "m.json", "--out", "x"],
    ["baselines", "--data", "c.csv", "--model", "m.json", "--scaler", "normalize"],
    ["train", "--data", "c.csv", "--config", "run.cfg"],
    ["label", "--programs", "p", "--classes", "0,x"],
    ["train", "--data", "c.csv", "--classes", "0,2"],
])
def test_unread_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err and "unrecognized arguments" in err


def readme_flag_table() -> dict[str, list[str]]:
    """README's subcommand flag table: subcommand -> its flags in order."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    lines = read(readme).splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, flags = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
        table[command] = flags.split()
    return table


def test_readme_flag_table_matches_parser():
    """Each row of README's flag table lists exactly the flags, and the
    positional arguments (in angle brackets), that its subcommand registers,
    in the order it registers them."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    registered = {
        name: [a.option_strings[0] if a.option_strings else f"<{a.dest}>"
               for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        for name, sub in commands.items()}
    assert readme_flag_table() == registered


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "--count", "10", "--seed", "7", "--out", str(a)) == 0
    assert run_cli("gen", "--count", "10", "--seed", "7", "--out", str(b)) == 0
    files_a = sorted(os.listdir(a))
    assert files_a == sorted(os.listdir(b))
    assert len(files_a) == 100     # 10 programs x 10 schedules
    for name in files_a:
        assert read(a / name) == read(b / name)


def test_gen_files_match_program_to_text():
    cfg = GenConfig(seed=5)
    for index in range(4):
        p = gen_program(cfg, index)
        texts = [text for _, text in cli._gen_worker((cfg, index))]
        assert texts == [program_to_text(p, sp.applied) for sp in gen_schedules(cfg, p)]


def test_label_parse_cache_leaves_outputs_unchanged(tmp_path, monkeypatch):
    progs = tmp_path / "p"
    assert run_cli("gen", "--count", "3", "--seed", "5", "--out", str(progs)) == 0
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run_cli("label", "--programs", str(progs), "--out", str(c1)) == 0
    real = cli.parse_program_text

    def uncached(text):
        textfmt._parse_program_lines.cache_clear()
        return real(text)

    monkeypatch.setattr(cli, "parse_program_text", uncached)
    assert run_cli("label", "--programs", str(progs), "--out", str(c2)) == 0
    assert read(c1) == read(c2)
    assert read(f"{c1}.timings.csv") == read(f"{c2}.timings.csv")


def test_second_label_reparses_every_program(tmp_path):
    count = 20
    cache = textfmt._parse_program_lines
    assert cache.cache_info().maxsize < count
    progs = tmp_path / "p"
    assert run_cli("gen", "--count", str(count), "--seed", "5", "--out", str(progs)) == 0
    cache.cache_clear()
    for _ in range(2):
        before = cache.cache_info()
        assert run_cli("label", "--programs", str(progs), "--out", str(tmp_path / "c.csv")) == 0
        after = cache.cache_info()
        assert after.misses - before.misses == count
        assert after.hits - before.hits == count * 9     # 10 sibling files per program


def test_config_file_and_flag_precedence(tmp_path, capsys):
    """No precedence to resolve: the file sets only gen.* keys, flags set
    the rest, and a flag's setting in the file is an error."""
    cfg = tmp_path / "tuner.cfg"
    cfg.write_text("gen.schedules_per_program = 4\n")
    out = tmp_path / "gen"
    assert run_cli("gen", "--config", str(cfg), "--count", "2", "--seed", "3",
                   "--out", str(out)) == 0
    assert len(os.listdir(out)) == 8
    cfg.write_text("gen.schedules_per_program = 4\ncount = 2\n")
    assert run_cli("gen", "--config", str(cfg), "--count", "1", "--out", str(out)) == 2
    assert "config key 'count'" in capsys.readouterr().err


def test_load_config_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is not a key value line\n")
    from unroll_tuner.errors import UnrollTunerError
    with pytest.raises(UnrollTunerError):
        load_config(str(bad))


def test_repeated_config_key_is_error_line(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("gen.extents = 16, 32\n# wider\ngen.max_inputs = 2\ngen.extents = 64\n")
    out = tmp_path / "gen"
    assert run_cli("gen", "--config", str(cfg), "--count", "1", "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}:4: key 'gen.extents' is already set on line 1"]
    assert not out.exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> label -> train once; shared by the CLI behavior tests."""
    root = tmp_path_factory.mktemp("pipeline")
    progs = root / "progs"
    corpus = root / "corpus.csv"
    model = root / "model.json"
    assert run_cli("gen", "--count", "40", "--seed", "11", "--out", str(progs)) == 0
    assert run_cli("label", "--programs", str(progs), "--backend", "cost",
                   "--out", str(corpus)) == 0
    assert run_cli("train", "--data", str(corpus), "--out", str(model),
                   "--seed", "11", "--min-per-class", "2", "--max-epochs", "12") == 0
    return root, progs, corpus, model


def test_label_output_loads(pipeline):
    _, progs, corpus, _ = pipeline
    rows = load_csv(str(corpus))
    assert len(rows) == len(os.listdir(progs))
    # one timings-sidecar row per sample, in corpus order
    timings = read(f"{corpus}.timings.csv").splitlines()[1:]
    assert [line.split(",")[0] for line in timings] == [str(i) for i in range(len(rows))]


def test_predict_prints_factor(pipeline, capsys):
    root, progs, corpus, model = pipeline
    sample = sorted(os.listdir(progs))[0]
    assert run_cli("predict", str(progs / sample), "--model", str(model)) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("unroll_factor=")
    assert int(out.split("=")[1]) in (0, 2, 4, 8, 16, 32, 64)


_PREDICT_ONLY = """
import sys
from unroll_tuner import cli

assert cli.main(["predict", sys.argv[1], "--model", sys.argv[2]]) == 0
print("concurrent.futures" in sys.modules)
"""


def test_predict_does_not_load_the_training_executor(pipeline):
    """`concurrent.futures` is imported only when `mlp.train` runs, so a
    process that only predicts does not pay for loading it."""
    _, progs, _, model = pipeline
    sample = sorted(os.listdir(progs))[0]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _PREDICT_ONLY, str(progs / sample), str(model)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    factor, loaded = proc.stdout.splitlines()
    assert factor.startswith("unroll_factor=")
    assert loaded == "False"


def test_predict_rejects_model_of_another_width(pipeline, tmp_path, capsys):
    from unroll_tuner.featurize import fit_scaler
    from unroll_tuner.mlp import init_model, save_model

    _, progs, _, _ = pipeline
    narrow = tmp_path / "narrow.json"
    m = init_model(3, seed=0, hidden=(4,), dropout=(0.0,))
    m.scaler = fit_scaler([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
    m.trained = True
    save_model(m, str(narrow))
    sample = sorted(os.listdir(progs))[0]
    assert run_cli("predict", str(progs / sample), "--model", str(narrow)) == 2
    assert capsys.readouterr().err == "error: expected 3 columns, got 45\n"


def test_baselines_refuses_model_of_another_split(pipeline, capsys):
    _, _, corpus, model = pipeline
    assert run_cli("baselines", "--data", str(corpus), "--model", str(model),
                   "--seed", "12", "--min-per-class", "2") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "trained on another split" in err[0], err
    assert "--seed" in err[0] and "--min-per-class" in err[0]


def test_baselines_rejects_model_without_scaler(pipeline, tmp_path, capsys):
    from unroll_tuner.mlp import init_model, save_model

    _, _, corpus, _ = pipeline
    bare = tmp_path / "bare.json"
    save_model(init_model(4, seed=0), str(bare))
    assert run_cli("baselines", "--data", str(corpus), "--model", str(bare)) == 2
    assert capsys.readouterr().err == f"error: {bare} has no fitted scaler\n"


def test_baselines_table(pipeline, capsys):
    root, progs, corpus, model = pipeline
    assert run_cli("baselines", "--data", str(corpus), "--model", str(model),
                   "--seed", "11", "--min-per-class", "2") == 0
    out = capsys.readouterr().out
    assert "neural network" in out
    assert "knn" in out
    assert "decision tree" in out


def test_bench_cost_backend(pipeline, tmp_path, capsys):
    root, progs, corpus, model = pipeline
    report = tmp_path / "report.csv"
    assert run_cli("bench", "--model", str(model), "--backend", "cost",
                   "--sizes", "small:8,medium:16,large:32",
                   "--out", str(report)) == 0
    text = read(report)
    assert text.splitlines()[0] == \
        "case,size,schedule,predicted,optimal,predit_ms,optimal_ms,sans_ms,pc,sp"
    assert len(text.strip().splitlines()) == 16
    assert "MMxM" in capsys.readouterr().out


def test_label_parallel_jobs_deterministic(tmp_path):
    progs = tmp_path / "p"
    assert run_cli("gen", "--count", "6", "--seed", "3", "--out", str(progs)) == 0
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert run_cli("label", "--programs", str(progs), "--out", str(c1), "--jobs", "1") == 0
    assert run_cli("label", "--programs", str(progs), "--out", str(c2), "--jobs", "2") == 0
    assert read(c1) == read(c2)
    assert read(f"{c1}.timings.csv") == read(f"{c2}.timings.csv")


def test_label_memory_does_not_grow_with_corpus(tmp_path):
    """Samples are read, labeled, written and freed a small chunk at a time:
    labeling ten times the programs peaks within 1 MiB of the smaller run."""
    dirs = {}
    for count in (20, 200):
        dirs[count] = tmp_path / f"p{count}"
        assert run_cli("gen", "--count", str(count), "--seed", "9",
                       "--out", str(dirs[count])) == 0
    # imports and caches are warm before anything is measured
    assert run_cli("label", "--programs", str(dirs[20]), "--out", str(tmp_path / "w.csv")) == 0
    peaks = {}
    for count, progs in dirs.items():
        tracemalloc.start()
        try:
            assert run_cli("label", "--programs", str(progs),
                           "--out", str(tmp_path / f"c{count}.csv")) == 0
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] - peaks[20] < 1 << 20, peaks


@pytest.mark.parametrize("argv, content", [
    ("gen --count 1 --config {bad} --out {tmp}/g", b"gen.max_inputs = 2 # caf\xe9\n"),
    ("label --programs {tmp}/in --out {tmp}/c.csv", b"program caf\xe9\n"),
    ("predict {bad} --model {model}", b"program caf\xe9\n"),
    ("train --data {bad} --out {tmp}/m.json", b"caf\xe9\n"),
    ("baselines --data {bad} --model {model}", b"caf\xe9\n"),
], ids=["gen", "label", "predict", "train", "baselines"])
def test_file_not_utf8_is_pipeline_error(pipeline, tmp_path, capsys, argv, content):
    _, _, _, model = pipeline
    bad = tmp_path / "in" / "bad.prog"
    bad.parent.mkdir()
    bad.write_bytes(content)
    argv = argv.format(bad=bad, tmp=tmp_path, model=model)
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: not UTF-8 text (byte {content.index(0xE9)}: "
                   "invalid continuation byte)"], err


@pytest.mark.parametrize("argv, config_text, named", [
    ("gen --count 1 --config {cfg} --out {tmp}/g", "seed = abc", "config key 'seed'"),
    ("gen --count 1 --config {cfg} --out {tmp}/g", "gen.extents = 16,x",
     "config key 'gen.extents'"),
    ("gen --count 1 --config {cfg} --out {tmp}/g", "gen.depth_max = 9", "gen config: depth"),
    ("bench --model {model} --sizes small:abc", "", "--sizes 'small:abc'"),
    ("bench --model {model} --sizes small:4", "", "--sizes 'small:4': size must be at least 8"),
    ("bench --model {model} --sizes small:8,medium:0", "", "--sizes 'medium:0'"),
    ("bench --model {model} --sizes large:-8", "", "--sizes 'large:-8'"),
    ("bench --model {model} --sizes small:16,small:32", "",
     "--sizes 'small:16,small:32': size class 'small' is given twice"),
    ("bench --model {model} --sizes=", "", "--sizes is empty"),
    ("label --programs {progs} --runs 0 --out {tmp}/c.csv", "", "--runs must be >= 1"),
    ("train --data {corpus} --max-epochs 0 --out {tmp}/m.json", "",
     "--max-epochs must be >= 1"),
    ("baselines --data {corpus} --model {model} --k 0", "", "--k must be >= 1, got 0"),
    ("gen --count 1 --jobs 0 --out {tmp}/g", "", "--jobs must be >= 1, got 0"),
    ("label --programs {progs} --jobs -2 --out {tmp}/c.csv", "", "--jobs must be >= 1, got -2"),
])
def test_malformed_value_is_pipeline_error(pipeline, tmp_path, capsys, argv, config_text,
                                           named):
    _, progs, corpus, model = pipeline
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text + "\n")
    argv = argv.format(cfg=cfg, tmp=tmp_path, progs=progs, corpus=corpus, model=model)
    assert run_cli(*argv.split()) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0], err
