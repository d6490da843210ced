from __future__ import annotations

import os
import re
import shutil
import subprocess
import time

import pytest

from conftest import F64, chain_body, load, make_program
from unroll_tuner import backend as backend_mod
from unroll_tuner.backend import (
    CostModelBackend,
    CostModelParams,
    ExecResult,
    NativeBackend,
    cost_model_evaluate,
    emit_kernel_source,
    emit_sweep_source,
    native_measure,
    native_sweep,
)
from unroll_tuner.dataset import label_sample
from unroll_tuner.errors import (
    CompileError,
    CompileTimeout,
    InvalidFactor,
    KernelMismatch,
    KernelRunError,
)
from unroll_tuner.interp import interpret, output_checksum
from unroll_tuner.ir import BinOp, BinOpKind, Constant, DataType
from unroll_tuner.schedule import (
    UNROLL_FACTORS,
    Parallelize,
    Tile2,
    apply_unroll,
    new_schedule,
    schedule_program,
)

HAVE_CC = shutil.which("cc") is not None
HAVE_OBJDUMP = shutil.which("objdump") is not None


def set_cpus(monkeypatch, n: int) -> None:
    """Make the native backend see `n` usable CPUs."""
    monkeypatch.setattr(backend_mod.os, "sched_getaffinity", lambda pid: set(range(n)))


def fake_toolchain(monkeypatch, tmp_path, script: str) -> None:
    """Point the native backend at a shell script as its compiler."""
    fake = tmp_path / "fake-cc"
    fake.write_text("#!/bin/sh\n" + script)
    fake.chmod(0o755)
    monkeypatch.setenv(backend_mod.TOOLCHAIN_ENV_VAR, str(fake))


def ops_program(total_ops: int):
    """1-d program whose histogram totals `total_ops` (loads+adds+store)."""
    n_loads = (total_ops - 1 + 1) // 2      # loads + (loads-1) adds + 1 store
    body = chain_body(n_loads)
    return make_program(f"ops{total_ops}", [("i0", 64)], body, ("i0",), [("a", 1)])


def test_exec_result_invariants(vecadd):
    r = ExecResult(per_run_ms=(1.0, 3.0))
    assert r.runs == 2 and r.mean_ms == 2.0
    for bad in ((), (0.0,), (1.0, -2.0)):
        with pytest.raises(ValueError):
            ExecResult(per_run_ms=bad)
    sp = schedule_program(vecadd, [Parallelize(0)])
    for u in UNROLL_FACTORS:
        res = cost_model_evaluate(sp, u)
        assert res.runs == 1 and res.mean_ms == res.per_run_ms[0]


def test_cost_params_validated():
    with pytest.raises(ValueError):
        CostModelParams(c_body=0.0)
    with pytest.raises(ValueError):
        CostModelParams(icache_capacity=0)


def test_cost_no_unroll_beats_nothing(vecadd):
    """u=0 costs strictly more than u=2 while the icache term stays zero."""
    sp = new_schedule(vecadd)
    assert cost_model_evaluate(sp, 0).mean_ms > cost_model_evaluate(sp, 2).mean_ms


def test_cost_icache_penalty_bounds_optimum():
    p = ops_program(10)
    sp = new_schedule(p)
    params = CostModelParams(icache_capacity=320)
    costs = {u: cost_model_evaluate(sp, u, params).mean_ms for u in UNROLL_FACTORS}
    # 64*10 = 640 > 320 incurs the penalty; 16*10 = 160 does not
    assert costs[64] > costs[16]
    best = min(UNROLL_FACTORS, key=lambda u: (costs[u], u))
    assert best < 64
    assert len([u for u in UNROLL_FACTORS if costs[u] == costs[best]]) == 1


def test_distinct_ops_distinct_optimum():
    params = CostModelParams()

    def argmin(p):
        sp = new_schedule(p)
        costs = {u: cost_model_evaluate(sp, u, params).mean_ms for u in UNROLL_FACTORS}
        return min(UNROLL_FACTORS, key=lambda u: (costs[u], u))

    assert argmin(ops_program(5)) != argmin(ops_program(41))


def test_cost_model_bit_identical(vecadd):
    sp = schedule_program(vecadd, [Parallelize(0)])
    first = cost_model_evaluate(sp, 8).mean_ms
    assert all(cost_model_evaluate(sp, 8).mean_ms == first for _ in range(10_000))


def test_cost_parallel_divisor(vecadd):
    plain = cost_model_evaluate(new_schedule(vecadd), 4).mean_ms
    par = cost_model_evaluate(schedule_program(vecadd, [Parallelize(0)]), 4).mean_ms
    assert par == pytest.approx(plain / CostModelParams().parallel_divisor)


def test_cost_sweep_matches_evaluate(matmul4, vecadd):
    backend = CostModelBackend()
    for sp in (new_schedule(matmul4), schedule_program(vecadd, [Parallelize(0)])):
        swept = backend.sweep(sp, UNROLL_FACTORS)
        assert list(swept) == list(UNROLL_FACTORS)
        assert all(swept[u] == cost_model_evaluate(sp, u, backend.params)
                   for u in UNROLL_FACTORS)


def test_cost_invalid_factor(vecadd):
    with pytest.raises(InvalidFactor):
        cost_model_evaluate(new_schedule(vecadd), 3)


# --- emission -------------------------------------------------------------------

def kernel_section(source: str) -> str:
    start = re.search(r"^void kernel_\d+\(void\) \{", source, re.M).start()
    end = source.index("static uint64_t out_checksum")
    return source[start:end]


def test_emit_unroll_replicates_body(matmul4):
    sp = apply_unroll(new_schedule(matmul4), 4)
    src = emit_kernel_source(sp)
    section = kernel_section(src)
    assert section.count("const int64_t i2 = i2_blk +") == 4   # replicated bodies
    assert re.search(r"for \(int64_t i2 = 4; i2 < 4; \+\+i2\)", section)  # remainder loop


def test_emit_parallel_pragma(matmul4):
    src = emit_kernel_source(schedule_program(matmul4, [Parallelize(0)]))
    section = kernel_section(src)
    assert "#pragma omp parallel for" in section
    assert section.index("#pragma") < section.index("for (int64_t i0")


def test_emit_no_unroll_loop_count(matmul4):
    sp = schedule_program(matmul4, [Tile2(0, 1, 2, 2)])
    section = kernel_section(emit_kernel_source(sp))
    assert len(re.findall(r"for \(int64_t i", section)) == len(sp.loops) == 5


def test_emit_operator_symbols():
    body = BinOp(BinOpKind.Sub,
                 BinOp(BinOpKind.Add, load("a", "i0"),
                       BinOp(BinOpKind.Mul, load("a", "i0"), load("a", "i0"))),
                 BinOp(BinOpKind.Div, load("a", "i0"), Constant(2.0, F64)))
    p = make_program("ops", [("i0", 8)], body, ("i0",), [("a", 1)])
    src = emit_sweep_source({0: apply_unroll(new_schedule(p), 0)}, runs=1)
    assert "buf_out[(i0)] = ((buf_a[(i0)] + (buf_a[(i0)] * buf_a[(i0)]))" \
        " - (buf_a[(i0)] / ((elem_t)2.0)));" in src


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain on PATH")
class TestNative:
    def test_measure_runs_30(self):
        p = make_program("tiny", [("i0", 16), ("i1", 16)],
                         BinOp(BinOpKind.Add, load("a", "i0", "i1"), Constant(1.0, F64)),
                         ("i0", "i1"), [("a", 2)])
        res = native_measure(emit_kernel_source(new_schedule(p)), runs=30)
        assert res.runs == 30 and len(res.per_run_ms) == 30
        assert res.mean_ms > 0

    def test_runs_1_single_sample(self, vecadd):
        res = native_measure(emit_kernel_source(new_schedule(vecadd)), runs=1)
        assert len(res.per_run_ms) == 1
        assert res.per_run_ms[0] == res.mean_ms

    def test_broken_source_compile_error(self):
        with pytest.raises(CompileError) as err:
            native_measure("int main(void { return 0; }", runs=1)
        assert err.value.diagnostics

    @pytest.mark.parametrize("source, message", [
        ("int main(void) { return 3; }", "kernel exited with 3"),
        ("int main(void) { return 0; }", "unexpected kernel output"),
        # a valid unit, but two variants for `native_measure` and not (0, 2)
        pytest.param(emit_sweep_source({u: apply_unroll(new_schedule(ops_program(3)), u)
                                        for u in (2, 4)}, runs=1),
                     "unexpected kernel output", id="two-variant unit"),
    ])
    def test_run_fault_is_not_compile_error(self, source, message):
        for run in (lambda: native_measure(source, runs=1),
                    lambda: native_sweep(source, (0, 2), runs=1)):
            with pytest.raises(KernelRunError, match=message):
                run()

    def test_emitted_kernel_matches_interpreter_checksum(self, matmul4):
        for dtype in (DataType.Float64, DataType.Int32):
            p = make_program(
                "chk",
                [("i0", 6), ("i1", 5)],
                BinOp(BinOpKind.Sub,
                      BinOp(BinOpKind.Mul, load("a", "i0", "i1", dtype=dtype),
                            load("b", ("i1", 1), dtype=dtype)),
                      Constant(3.0 if dtype.is_float else 3, dtype)),
                ("i0", "i1"),
                [("a", 2), ("b", 1)],
                dtype=dtype,
            )
            tiled = schedule_program(p, [Tile2(0, 1, 2, 2)])
            sp = apply_unroll(tiled, 2)
            expected = output_checksum(interpret(sp).output, dtype)
            # the call shape of perfbench's NativeLabel.final_checks
            got = native_measure(emit_kernel_source(sp, runs=1, debug=True), runs=1).checksum
            assert got == expected
            assert got == NativeBackend().sweep(tiled, (2,), 1)[2].checksum

    def test_backend_object(self, matmul4):
        backend = NativeBackend()
        res = backend.measure(new_schedule(matmul4), 4, runs=2)
        assert res.runs == 2


def checksum_program(dtype: DataType):
    return make_program(
        "chk",
        [("i0", 6), ("i1", 5)],
        BinOp(BinOpKind.Sub,
              BinOp(BinOpKind.Mul, load("a", "i0", "i1", dtype=dtype),
                    load("b", ("i1", 1), dtype=dtype)),
              Constant(3.0 if dtype.is_float else 3, dtype)),
        ("i0", "i1"),
        [("a", 2), ("b", 1)],
        dtype=dtype,
    )


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain on PATH")
class TestNativeSweep:
    def test_clamped_factors_compiled_once(self, monkeypatch):
        p = make_program("narrow", [("i0", 8), ("i1", 2)],
                         BinOp(BinOpKind.Add, load("a", "i0", "i1"), Constant(1.0, F64)),
                         ("i0", "i1"), [("a", 2)])
        sp = new_schedule(p)
        sources = []
        real_sweep = backend_mod.native_sweep

        def spy(source, *args, **kwargs):
            sources.append(source)
            return real_sweep(source, *args, **kwargs)

        monkeypatch.setattr(backend_mod, "native_sweep", spy)
        results = NativeBackend().sweep(sp, UNROLL_FACTORS, runs=2)
        assert len(sources) == 1
        # innermost extent 2: factors 4..64 clamp to 2, so two kernels in all
        assert re.findall(r"^void (kernel_\d+)\(void\) \{", sources[0], re.M) == \
            ["kernel_0", "kernel_2"]
        assert list(results) == list(UNROLL_FACTORS)
        assert all(results[u] == results[2] for u in (4, 8, 16, 32, 64))
        assert results[0].runs == results[2].runs == 2

        row = label_sample(sp, NativeBackend(), runs=2)
        assert row.label in (0, 2)
        assert all(row.timing[u] == row.timing[2] for u in (4, 8, 16, 32, 64))

    def test_sweep_checksum_matches_interpreter(self, monkeypatch):
        for cpus in (1, 2):       # one unit, then parts compiled apart and linked
            set_cpus(monkeypatch, cpus)
            for dtype in (DataType.Int32, DataType.Float64):
                for transforms in ([], [Tile2(0, 1, 2, 2)]):
                    sp = schedule_program(checksum_program(dtype), transforms)
                    expected = output_checksum(interpret(sp).output, dtype)
                    results = NativeBackend().sweep(sp, UNROLL_FACTORS, runs=1)
                    assert {r.checksum for r in results.values()} == {expected}

    def test_differing_variant_raises_mismatch(self, monkeypatch, matmul4):
        real_emit = backend_mod.emit_sweep_source

        def corrupt(variants, runs):
            source = real_emit(variants, runs)
            start = source.index("\nvoid kernel_4(void) {")
            end = source.index("\n}\n", start)
            return source[:end] + "\n    buf_out[0] += (elem_t)1;" + source[end:]

        monkeypatch.setattr(backend_mod, "emit_sweep_source", corrupt)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(KernelMismatch, match="u=4"):
                NativeBackend().sweep(new_schedule(matmul4), UNROLL_FACTORS, runs=1)

    def test_split_build_compiler_calls(self, monkeypatch, tmp_path):
        """One call with one CPU or one kernel; else one call per part and a link."""
        log = tmp_path / "argv.log"
        fake_toolchain(monkeypatch, tmp_path, f'echo "$@" >> "{log}"\nexec cc "$@"\n')
        sp = new_schedule(checksum_program(DataType.Float64))   # kernels 0, 2 and 4
        for cpus, factors, compiles in ((1, UNROLL_FACTORS, 1), (2, (4,), 1),
                                        (2, UNROLL_FACTORS, 2), (3, UNROLL_FACTORS, 3),
                                        (8, UNROLL_FACTORS, 3)):
            set_cpus(monkeypatch, cpus)
            log.write_text("")
            NativeBackend().sweep(sp, factors, runs=1)
            argvs = [line.split() for line in log.read_text().splitlines()]
            if compiles == 1:
                assert len(argvs) == 1 and "-c" not in argvs[0]
                continue
            parts, link = argvs[:-1], argvs[-1]
            assert len(parts) == compiles and all("-c" in argv for argv in parts)
            assert "-c" not in link and sum(arg.endswith(".o") for arg in link) == compiles
            sections = sorted(arg for argv in parts for arg in argv if arg.startswith("-DWITH_"))
            assert sections == ["-DWITH_harness", "-DWITH_kernel_0", "-DWITH_kernel_2",
                                "-DWITH_kernel_4"]

    @pytest.mark.skipif(not HAVE_OBJDUMP, reason="no objdump on PATH")
    def test_split_build_same_instructions(self, monkeypatch, tmp_path):
        """Every kernel compiles to the same instructions whole and in parts."""
        kept = []
        real_run = subprocess.run

        def keep_binary(argv, *args, **kwargs):
            kept.append(shutil.copy(argv[0], tmp_path / f"build{len(kept)}"))
            return real_run(argv, *args, **kwargs)

        p = make_program("wide", [("i0", 12), ("i1", 64)],
                         BinOp(BinOpKind.Mul, load("a", "i0", "i1"), load("b", ("i1", 1))),
                         ("i0", "i1"), [("a", 2), ("b", 1)])
        schedules = ([], [Parallelize(0)])
        monkeypatch.setattr(subprocess, "run", keep_binary)
        cpu_counts = (1, 2, 8)      # whole; two parts; one part per kernel
        for transforms in schedules:
            for cpus in cpu_counts:
                set_cpus(monkeypatch, cpus)
                NativeBackend().sweep(schedule_program(p, transforms), UNROLL_FACTORS, runs=1)
        monkeypatch.setattr(subprocess, "run", real_run)

        builds = iter(kept)
        for transforms in schedules:
            whole, *splits = (kernel_instructions(next(builds)) for _ in cpu_counts)
            assert len([name for name in whole if "omp_fn" not in name]) == len(UNROLL_FACTORS)
            assert any("omp_fn" in name for name in whole) == bool(transforms)
            for split in splits:
                assert sorted(whole) == sorted(split)
                for name, instructions in whole.items():
                    assert instructions and split[name] == instructions, name


def kernel_instructions(binary: str) -> dict[str, list[str]]:
    """The instructions of each `kernel_*` function of `binary` (with the
    outlined OpenMP bodies), without addresses and symbol offsets."""
    text = subprocess.run(["objdump", "-d", "--no-show-raw-insn", binary],
                          capture_output=True, text=True, check=True).stdout
    functions: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        line = re.sub(r"\._omp_fn\.\d+", "._omp_fn", line)   # numbered per unit
        header = re.match(r"^[0-9a-f]+ <(.+)>:$", line)
        if header:
            current = header.group(1) if header.group(1).startswith("kernel_") else None
            if current:
                functions[current] = []
        elif current and "\t" in line:
            insn = line.split("\t", 1)[1]
            insn = re.sub(r"-?0x[0-9a-f]+\(%rip\)", "(%rip)", insn)
            insn = re.sub(r"\b[0-9a-f]+ <([^>+]+)(\+0x[0-9a-f]+)?>", r"<\1>", insn)
            functions[current].append(insn.strip())
    return functions


def test_failed_compile_retried_only_without_openmp(monkeypatch, tmp_path):
    log = tmp_path / "argv.log"
    set_cpus(monkeypatch, 2)
    variants = {u: apply_unroll(schedule_program(checksum_program(DataType.Float64),
                                                 [Parallelize(0)]), u) for u in (0, 2, 4)}
    split_source = emit_sweep_source(variants, runs=1)
    # A section of the part compiled last: the parts before it compile (so
    # none is killed before it logs), that one fails.
    failing = backend_mod._split_plan(split_source)[-1][0]
    fake_toolchain(monkeypatch, tmp_path,
                   f'echo "$@" >> "{log}"\n'
                   f'case " $* " in *" -DWITH_{failing} "*) ;; *" -c "*) exit 0;; esac\n'
                   'echo broken >&2\nexit 1\n')
    serial = "int main(void) { return 0; }\n"
    parallel = "#pragma omp parallel\n" + serial
    for source, compiles in ((serial, 1), (parallel, 2)):
        log.write_text("")
        with pytest.raises(CompileError) as err:
            native_measure(source, runs=1)
        argvs = log.read_text().splitlines()
        assert len(argvs) == compiles
        assert err.value.diagnostics.count("broken") == compiles
        assert "-fopenmp" not in argvs[-1].split()
    assert "-fopenmp" in argvs[0].split()

    # a split build: one part fails, so every part is compiled again without -fopenmp
    log.write_text("")
    with pytest.raises(CompileError) as err:
        native_sweep(split_source, (0, 2, 4), runs=1)
    argvs = log.read_text().splitlines()
    assert len(argvs) == 4
    first, retry = argvs[:2], argvs[2:]
    assert all("-fopenmp" in argv.split() and "-c" in argv.split() for argv in first)
    assert sorted(argv.replace(" -fopenmp", "") for argv in first) == sorted(retry)
    assert err.value.diagnostics.count("broken") == 2
    assert "--- retry ---" in err.value.diagnostics


def process_gone(pid: int) -> bool:
    """Whether `pid` has exited (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_compile_timeout_kills_every_compiler(monkeypatch, tmp_path):
    pids = tmp_path / "pids"
    # each compiler is a shell waiting on a child of its own
    fake_toolchain(monkeypatch, tmp_path, f'sleep 30 &\necho $$ $! >> "{pids}"\nwait\n')
    monkeypatch.setattr(backend_mod, "DEFAULT_TIMEOUT_S", 1.0)
    source = emit_sweep_source({u: apply_unroll(new_schedule(checksum_program(F64)), u)
                                for u in (0, 2, 4)}, runs=1)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        pids.write_text("")
        with pytest.raises(CompileTimeout, match="exceeded 1.0 s"):
            native_sweep(source, (0, 2, 4), runs=1)
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 2 * cpus
        deadline = time.monotonic() + 10.0
        while not all(map(process_gone, started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(process_gone, started))


def test_toolchain_env_var_overrides(monkeypatch, vecadd):
    from unroll_tuner.backend import TOOLCHAIN_ENV_VAR
    from unroll_tuner.errors import ToolchainMissing

    monkeypatch.setenv(TOOLCHAIN_ENV_VAR, "definitely-not-a-compiler")
    with pytest.raises(ToolchainMissing, match="definitely-not-a-compiler"):
        native_measure(emit_kernel_source(new_schedule(vecadd)), runs=1)
