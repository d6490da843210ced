"""The traced benchmark run (`perfbench/`) wraps package functions by name.

A rename or deletion in the package must fail here, in the unit suite,
rather than only when `perfbench/run.py --trace 1` next runs.
"""

from __future__ import annotations

import inspect
import os
import sys

import pytest

from unroll_tuner import backend

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
    finally:
        sys.path.remove(PERFBENCH)
    return workloads


def test_benchmark_bindings_resolve(workloads):
    bindings = [b[:2] for b in workloads.LayerLog().boundaries()]
    bindings += workloads.CostPipeline.SPLIT_POINTS
    # NativeLabel.final_checks builds and runs one-variant sweep binaries
    bindings += [(backend, "emit_kernel_source"), (backend, "native_measure")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in bindings
               if getattr(owner, attr, None) is None]
    assert not missing


@pytest.mark.parametrize("call, args, kwargs", [
    # NativeLabel's set-up probe and its final checks
    (backend.NativeBackend().measure, ("sp", 0, 1), {}),
    (backend.emit_kernel_source, ("sp",), {"runs": 1, "debug": True}),
    (backend.native_measure, ("source",), {"runs": 1}),
], ids=["NativeBackend.measure", "emit_kernel_source", "native_measure"])
def test_benchmark_native_calls_bind(call, args, kwargs):
    """The arguments perfbench passes still bind, so a dropped parameter
    fails here and not only in the native workload's final check."""
    inspect.signature(call).bind(*args, **kwargs)


def test_split_points_are_called(workloads, tmp_path, monkeypatch, capsys):
    """The cost pipeline's untraced passes probe the machine's speed at each
    `CostPipeline.SPLIT_POINTS` call; a point the CLI stops calling would
    leave its stage unprobed, though its name still resolves."""
    from unroll_tuner import cli

    calls = {}
    for owner, attr in workloads.CostPipeline.SPLIT_POINTS:
        name = f"{owner.__name__}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    corpus, csv, model = tmp_path / "corpus", tmp_path / "c.csv", tmp_path / "m.json"
    for argv in (["gen", "--count", 3, "--seed", 5, "--out", corpus],
                 ["label", "--programs", corpus, "--out", csv],
                 ["train", "--data", csv, "--seed", 5, "--max-epochs", 1, "--out", model],
                 ["baselines", "--data", csv, "--model", model, "--seed", 5]):
        assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr()
    assert calls and all(n >= 1 for n in calls.values()), calls


def test_benchmark_argv_parses(workloads, tmp_path, monkeypatch):
    """Every CLI call of the cost pipeline and the native workload's `gen
    --config` call parse, and the generator accepts that call's config
    file, so a flag or config key the benchmark uses cannot be removed."""
    from unroll_tuner import cli

    argvs = list(workloads.CostPipeline(str(tmp_path), 7, "tiny").stages(
        str(tmp_path), 7, 3, 1))
    captured = []

    def refuse(argv, tracer=None):
        captured.append([str(a) for a in argv])
        return 1, "", 0.0

    # NativeLabel's set-up writes its config file and calls `gen`; a failed
    # call ends the set-up there, before anything is compiled
    monkeypatch.setattr(workloads, "run_cli", refuse)
    monkeypatch.setattr(workloads.NativeLabel, "make_probe", lambda self: None)
    with pytest.raises(RuntimeError, match="gen failed"):
        workloads.NativeLabel(str(tmp_path), 7, "tiny").setup(0, None)
    assert len(captured) == 1 and captured[0][0] == "gen"
    argvs += captured

    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args([str(a) for a in argv])
    args = parser.parse_args(captured[0])
    with open(args.config) as fh:
        assert fh.read() == workloads.NATIVE_GEN_CONFIG
    cfg = cli._gen_config(args.seed, args.config)
    assert cfg.depth_range[1] == 3 and cfg.extent_choices == (16, 32, 64)
    assert cfg.schedules_per_program == 2
