from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import pytest

from conftest import F64, chain_body, load, make_program
from unroll_tuner import backend as backend_mod
from unroll_tuner import cli
from unroll_tuner.backend import (
    PARALLEL_DIVISOR,
    CostModelBackend,
    ExecResult,
    NativeBackend,
    cost_model_evaluate,
    emit_kernel_source,
    emit_sweep_source,
    native_measure,
    native_sweep,
)
from unroll_tuner.dataset import label_sample
from unroll_tuner.errors import KernelError, UnrollTunerError
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
from unroll_tuner.textfmt import parse_program_text

HAVE_CC = shutil.which("cc") is not None
HAVE_OBJDUMP = shutil.which("objdump") is not None


def set_cpus(monkeypatch, n: int) -> None:
    """Make the native backend see `n` usable CPUs."""
    monkeypatch.setattr(backend_mod.os, "sched_getaffinity", lambda pid: set(range(n)))


# a fake compiler's first line: it hands the runner's build to `cc`
PASS_RUNNER_BUILD = 'case "$*" in *runner.c*) exec cc "$@";; esac\n'


def fake_toolchain(monkeypatch, tmp_path, script: str, name: str = "fake-cc") -> None:
    """Point the native backend at a shell script as its compiler."""
    fake = tmp_path / name
    fake.write_text("#!/bin/sh\n" + script)
    fake.chmod(0o755)
    monkeypatch.setenv(backend_mod.TOOLCHAIN_ENV_VAR, str(fake))


def ops_program(total_ops: int):
    """1-d program whose histogram totals `total_ops` (loads+adds+store)."""
    n_loads = (total_ops - 1 + 1) // 2      # loads + (loads-1) adds + 1 store
    body = chain_body(n_loads)
    return make_program(f"ops{total_ops}", [("i0", 64)], body, ("i0",), [("a", 1)])


def exiting_unit(status: int) -> str:
    """A one-kernel unit that builds, but whose kernel exits with `status`."""
    source = emit_kernel_source(new_schedule(ops_program(3)), runs=1)
    return source.replace("    reset_output();", f"    void exit(int); exit({status});", 1)


def byte_printing_unit(byte: int) -> str:
    """A one-kernel unit whose kernel also writes `byte` to stdout."""
    source = emit_kernel_source(new_schedule(ops_program(3)), runs=1)
    return source.replace("    reset_output();",
                          f"    int putchar(int); putchar({byte}); reset_output();", 1)


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


def test_cost_no_unroll_beats_nothing(vecadd):
    """u=0 costs strictly more than u=2 while the icache term stays zero."""
    sp = new_schedule(vecadd)
    assert cost_model_evaluate(sp, 0).mean_ms > cost_model_evaluate(sp, 2).mean_ms


def test_cost_icache_penalty_bounds_optimum():
    p = ops_program(10)
    sp = new_schedule(p)
    costs = {u: cost_model_evaluate(sp, u).mean_ms for u in UNROLL_FACTORS}
    # ICACHE_CAPACITY is 320: 64*10 = 640 > 320 incurs the penalty; 16*10 = 160 does not
    assert costs[64] > costs[16]
    best = min(UNROLL_FACTORS, key=lambda u: (costs[u], u))
    assert best < 64
    assert len([u for u in UNROLL_FACTORS if costs[u] == costs[best]]) == 1


def test_distinct_ops_distinct_optimum():
    def argmin(p):
        sp = new_schedule(p)
        costs = {u: cost_model_evaluate(sp, u).mean_ms for u in UNROLL_FACTORS}
        return min(UNROLL_FACTORS, key=lambda u: (costs[u], u))

    assert argmin(ops_program(5)) != argmin(ops_program(41))


def test_cost_model_bit_identical(vecadd):
    sp = schedule_program(vecadd, [Parallelize(0)])
    first = cost_model_evaluate(sp, 8).mean_ms
    assert all(cost_model_evaluate(sp, 8).mean_ms == first for _ in range(10_000))


def test_cost_parallel_divisor(vecadd):
    plain = cost_model_evaluate(new_schedule(vecadd), 4).mean_ms
    par = cost_model_evaluate(schedule_program(vecadd, [Parallelize(0)]), 4).mean_ms
    assert par == pytest.approx(plain / PARALLEL_DIVISOR)


def test_cost_sweep_matches_evaluate(matmul4, vecadd):
    backend = CostModelBackend()
    for sp in (new_schedule(matmul4), schedule_program(vecadd, [Parallelize(0)])):
        swept = backend.sweep(sp, UNROLL_FACTORS)
        assert list(swept) == list(UNROLL_FACTORS)
        assert all(swept[u] == cost_model_evaluate(sp, u) for u in UNROLL_FACTORS)


def test_cost_invalid_factor(vecadd):
    with pytest.raises(UnrollTunerError, match=r"^unroll factor 3 not in \(0, 2, 4"):
        cost_model_evaluate(new_schedule(vecadd), 3)


# --- emission -------------------------------------------------------------------

def kernel_section(source: str) -> str:
    start = re.search(r"^void kernel_\d+\(void\) \{", source, re.M).start()
    end = source.index("\n}\n", start)
    return source[start:end]


def test_emit_unroll_replicates_body(matmul4):
    sp = apply_unroll(new_schedule(matmul4), 4)
    src = emit_kernel_source(sp)
    section = kernel_section(src)
    assert section.count("const int64_t i2 = blk +") == 4   # replicated bodies
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
                 BinOp(BinOpKind.Div, load("a", "i0"), Constant(2.0)))
    p = make_program("ops", [("i0", 8)], body, ("i0",), [("a", 1)])
    src = emit_sweep_source({0: apply_unroll(new_schedule(p), 0)}, runs=1)
    # buffer 0 is the input a, buffer 1 the output
    assert "buf1[(i0)] = ((buf0[(i0)] + (buf0[(i0)] * buf0[(i0)]))" \
        " - (buf0[(i0)] / ((elem_t)2.0)));" in src
    p = make_program("int", [("i0", 8)], BinOp(BinOpKind.Mul, load("a", "i0"), Constant(3)),
                     ("i0",), [("a", 1)])
    src = emit_sweep_source({0: apply_unroll(new_schedule(p), 0)}, runs=1)
    assert "buf1[(i0)] = (buf0[(i0)] * ((elem_t)3));" in src


RENAMED_PROGRAM = """program {program}
iter {0} 0 6
iter {1} 0 5
iter {2} 0 7
input a 2 float64
input b 1 float64
body out[{0}, {1}] + a[{0}, {2}] * b[{2}+1]
output out[{0}, {1}]
"""


@pytest.mark.parametrize("schedule", ["", "tile2 0 1 4 4\n", "parallelize 1\n"],
                         ids=["untiled", "tile2 with guards", "parallel"])
@pytest.mark.parametrize("loops", [("int", "elem_t", "buf_a"), ("for", "blk", "i1"),
                                   ("i2", "i0", "i1")], ids="-".join)
def test_emitted_unit_holds_no_program_name(schedule, loops):
    """Renaming the program and every loop leaves the sweep unit
    byte-identical: every C name is the emitter's own."""
    def unit(program: str, names) -> str:
        p, transforms = parse_program_text(RENAMED_PROGRAM.format(*names, program=program)
                                           + schedule)
        sp = schedule_program(p, transforms)
        return emit_sweep_source({u: apply_unroll(sp, u) for u in (0, 2, 4)}, runs=1)

    reference = unit("reference_program", ("loop_p", "loop_q", "loop_r"))
    assert ("if (" in reference) == schedule.startswith("tile2")
    assert ("#pragma omp" in reference) == schedule.startswith("parallelize")
    assert not re.search(r"reference_program|loop_[pqr]", reference)
    assert unit("renamed", loops) == reference


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain on PATH")
class TestNative:
    def test_measure_runs_30(self):
        p = make_program("tiny", [("i0", 16), ("i1", 16)],
                         BinOp(BinOpKind.Add, load("a", "i0", "i1"), Constant(1.0)),
                         ("i0", "i1"), [("a", 2)])
        res = native_measure(emit_kernel_source(new_schedule(p)), runs=30)
        assert res.runs == 30 and len(res.per_run_ms) == 30
        assert res.mean_ms > 0

    def test_runs_1_single_sample(self, vecadd):
        res = native_measure(emit_kernel_source(new_schedule(vecadd), runs=1), runs=1)
        assert len(res.per_run_ms) == 1
        assert res.per_run_ms[0] == res.mean_ms

    def test_broken_source_compile_error(self):
        with pytest.raises(KernelError, match="^kernel compilation failed:\n") as err:
            native_measure("int main(void { return 0; }", runs=1)
        assert str(err.value).partition("\n")[2].strip()      # the compiler's diagnostics

    @pytest.mark.parametrize("source, message", [
        pytest.param(exiting_unit(3), "kernel exited with 3", id="unit exits 3"),
        pytest.param(exiting_unit(0), "unexpected kernel output", id="unit exits 0"),
        pytest.param(byte_printing_unit(0xFE), "unexpected kernel output",
                     id="unit prints a non-UTF-8 byte"),
        pytest.param("int main(void) { return 0; }", "kernel exited with 3: runner: no unit_layout",
                     id="no unit layout"),
        # a valid unit, but two variants for `native_measure` and not (0, 2)
        pytest.param(emit_sweep_source({u: apply_unroll(new_schedule(ops_program(3)), u)
                                        for u in (2, 4)}, runs=1),
                     "unexpected kernel output", id="two-variant unit"),
    ])
    def test_run_fault_is_not_compile_error(self, source, message):
        for run in (lambda: native_measure(source, runs=1),
                    lambda: native_sweep(source, (0, 2), runs=1)):
            with pytest.raises(KernelError, match=message):
                run()

    def test_emitted_kernel_matches_interpreter_checksum(self, matmul4):
        for dtype in (DataType.Float64, DataType.Int32):
            p = make_program(
                "chk",
                [("i0", 6), ("i1", 5)],
                BinOp(BinOpKind.Sub,
                      BinOp(BinOpKind.Mul, load("a", "i0", "i1"), load("b", ("i1", 1))),
                      Constant(3.0 if dtype.is_float else 3)),
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
              BinOp(BinOpKind.Mul, load("a", "i0", "i1"), load("b", ("i1", 1))),
              Constant(3.0 if dtype.is_float else 3)),
        ("i0", "i1"),
        [("a", 2), ("b", 1)],
        dtype=dtype,
    )


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain on PATH")
class TestNativeSweep:
    def test_clamped_factors_compiled_once(self, monkeypatch):
        p = make_program("narrow", [("i0", 8), ("i1", 2)],
                         BinOp(BinOpKind.Add, load("a", "i0", "i1"), Constant(1.0)),
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
        for cpus in (1, 2):       # one part, then two parts loaded together
            set_cpus(monkeypatch, cpus)
            for dtype in (DataType.Int32, DataType.Float64):
                for transforms in ([], [Tile2(0, 1, 2, 2)]):
                    sp = schedule_program(checksum_program(dtype), transforms)
                    expected = output_checksum(interpret(sp).output, dtype)
                    results = NativeBackend().sweep(sp, UNROLL_FACTORS, runs=1)
                    assert {r.checksum for r in results.values()} == {expected}

    def test_label_loops_named_like_c_identifiers(self, monkeypatch, tmp_path):
        """Loops named like a C type, the emitter's element type and a
        buffer pointer label natively, and every variant's checksum equals
        the interpreter's."""
        text = ("program names\niter int 0 4\niter elem_t 0 6\niter buf_a 0 8\n"
                "input a 2 float64\nbody out[int, elem_t] + a[int, buf_a] * a[buf_a, elem_t]\n"
                "output out[int, elem_t]\n")
        (tmp_path / "progs").mkdir()
        (tmp_path / "progs" / "names.prog").write_text(text)
        expected = output_checksum(interpret(new_schedule(parse_program_text(text)[0])).output,
                                   DataType.Float64)
        swept = []
        real_sweep = backend_mod.native_sweep

        def spy(*args, **kwargs):
            swept.append(real_sweep(*args, **kwargs))
            return swept[-1]

        monkeypatch.setattr(backend_mod, "native_sweep", spy)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            assert cli.main(["label", "--programs", str(tmp_path / "progs"), "--backend",
                             "native", "--runs", "1", "--out", str(tmp_path / "c.csv")]) == 0
            assert {r.checksum for r in swept.pop().values()} == {expected}

    @pytest.mark.parametrize("name", ["int", "elem_t", "buf_a", "int64_t", "for", "double",
                                      "static"])
    def test_label_first_loop_named_like_c(self, tmp_path, name):
        (tmp_path / "t.prog").write_text(
            f"program t\niter {name} 0 4\niter j 0 8\ninput a 2 float64\n"
            f"body a[{name}, j] * 2.0\noutput out[{name}, j]\n")
        assert cli.main(["label", "--programs", str(tmp_path), "--backend", "native",
                         "--runs", "1", "--out", str(tmp_path / "c.csv")]) == 0

    def test_differing_variant_raises_mismatch(self, monkeypatch, matmul4):
        real_emit = backend_mod.emit_sweep_source

        def corrupt(variants, runs):
            source = real_emit(variants, runs)
            start = source.index("\nvoid kernel_4(void) {")
            end = source.index("\n}\n", start)
            # buffer 0 is the output, which the body loads first as its accumulator
            return source[:end] + "\n    buf0[0] += (elem_t)1;" + source[end:]

        monkeypatch.setattr(backend_mod, "emit_sweep_source", corrupt)
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            with pytest.raises(KernelError, match="^unrolled variants disagree on the "
                                                  "output checksum: .*u=4"):
                NativeBackend().sweep(new_schedule(matmul4), UNROLL_FACTORS, runs=1)

    def test_split_build_compiler_calls(self, monkeypatch, tmp_path):
        """One shared object per part, and a part per CPU up to one per
        kernel; no link call, and one runner build for all the sweeps."""
        log = tmp_path / "argv.log"
        fake_toolchain(monkeypatch, tmp_path, f'echo "$@" >> "{log}"\nexec cc "$@"\n')
        sp = new_schedule(checksum_program(DataType.Float64))   # kernels 0, 2 and 4
        runner_builds = []
        for cpus, factors, parts in ((1, UNROLL_FACTORS, 1), (2, (4,), 1),
                                     (2, UNROLL_FACTORS, 2), (3, UNROLL_FACTORS, 3),
                                     (8, UNROLL_FACTORS, 3)):
            set_cpus(monkeypatch, cpus)
            log.write_text("")
            NativeBackend().sweep(sp, factors, runs=1)
            argvs = [line.split() for line in log.read_text().splitlines()]
            builds = [argv for argv in argvs if "-shared" in argv]
            runner_builds += [argv for argv in argvs if argv not in builds]
            assert len(builds) == parts
            assert all("-c" not in argv and argv[-1].endswith(".so") for argv in builds)
            sections = sorted(arg for argv in builds for arg in argv
                              if arg.startswith("-DWITH_"))
            assert sections == (["-DWITH_kernel_4"] if factors == (4,) else
                                ["-DWITH_kernel_0", "-DWITH_kernel_2", "-DWITH_kernel_4"])
        assert len(runner_builds) == 1
        assert any(arg.endswith("runner.c") for arg in runner_builds[0])

    def test_split_plan_weighs_a_section_beyond_its_text(self, monkeypatch):
        """A section weighs a base weight plus its text, so one long kernel
        does not leave every short kernel to the other part."""
        set_cpus(monkeypatch, 2)
        sizes = {"kernel_64": 2 * backend_mod._SECTION_BASE_WEIGHT,
                 **{f"kernel_{u}": 50 for u in (0, 2, 4, 8)}}
        source = "".join(f"{backend_mod._PART_GUARD.format(name)}\n{'x' * size}\n#endif\n"
                         for name, size in sizes.items())
        plan = backend_mod._split_plan(source)
        assert sorted(map(sorted, plan)) == [["kernel_0", "kernel_2", "kernel_4"],
                                             ["kernel_64", "kernel_8"]]

    @pytest.mark.skipif(not HAVE_OBJDUMP, reason="no objdump on PATH")
    def test_split_build_same_instructions(self, monkeypatch, tmp_path):
        """Every kernel compiles to the same instructions whole and in parts."""
        kept = []
        real_run = subprocess.run

        def keep_parts(argv, *args, **kwargs):
            kept.append([shutil.copy(part, tmp_path / f"build{len(kept)}_{k}.so")
                         for k, part in enumerate(argv[1:])])
            return real_run(argv, *args, **kwargs)

        p = make_program("wide", [("i0", 12), ("i1", 64)],
                         BinOp(BinOpKind.Mul, load("a", "i0", "i1"), load("b", ("i1", 1))),
                         ("i0", "i1"), [("a", 2), ("b", 1)])
        schedules = ([], [Parallelize(0)])
        monkeypatch.setattr(subprocess, "run", keep_parts)
        cpu_counts = (1, 2, 8)      # whole; two parts; one part per kernel
        for transforms in schedules:
            for cpus in cpu_counts:
                set_cpus(monkeypatch, cpus)
                NativeBackend().sweep(schedule_program(p, transforms), UNROLL_FACTORS, runs=1)
        monkeypatch.setattr(subprocess, "run", real_run)

        assert [len(parts) for parts in kept] == [*cpu_counts[:2], len(UNROLL_FACTORS)] * 2
        builds = iter(kept)
        for transforms in schedules:
            whole, *splits = (kernel_instructions(*next(builds)) for _ in cpu_counts)
            assert len([name for name in whole if "omp_fn" not in name]) == len(UNROLL_FACTORS)
            assert any("omp_fn" in name for name in whole) == bool(transforms)
            for split in splits:
                assert sorted(whole) == sorted(split)
                for name, instructions in whole.items():
                    assert instructions and split[name] == instructions, name


def kernel_instructions(*objects: str) -> dict[str, list[str]]:
    """The instructions of each `kernel_*` function of `objects` (with the
    outlined OpenMP bodies), without addresses, symbol offsets and objdump's
    `# <symbol>` comments (which name whatever symbol lies nearest)."""
    functions: dict[str, list[str]] = {}
    for obj in objects:
        text = subprocess.run(["objdump", "-d", "--no-show-raw-insn", obj],
                              capture_output=True, text=True, check=True).stdout
        current = None
        for line in text.splitlines():
            line = re.sub(r"\._omp_fn\.\d+", "._omp_fn", line)   # numbered per unit
            header = re.match(r"^[0-9a-f]+ <(.+)>:$", line)
            if header:
                current = header.group(1) if header.group(1).startswith("kernel_") else None
                if current:
                    functions[current] = []
            elif current and "\t" in line:
                insn = line.split("\t", 1)[1].split("#", 1)[0]
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
                   f'{PASS_RUNNER_BUILD}echo "$@" >> "{log}"\n'
                   f'case " $* " in *" -DWITH_{failing} "*) ;; *" -DWITH_"*) exit 0;; esac\n'
                   'echo broken >&2\nexit 1\n')
    serial = "int main(void) { return 0; }\n"
    parallel = "#pragma omp parallel\n" + serial
    for source, compiles in ((serial, 1), (parallel, 2)):
        log.write_text("")
        with pytest.raises(KernelError, match="^kernel compilation failed:\n") as err:
            native_measure(source, runs=1)
        argvs = log.read_text().splitlines()
        assert len(argvs) == compiles
        assert str(err.value).count("broken") == compiles
        assert "-fopenmp" not in argvs[-1].split()
    assert "-fopenmp" in argvs[0].split()

    # a split build: one part fails, so every part is compiled again without -fopenmp
    log.write_text("")
    with pytest.raises(KernelError, match="^kernel compilation failed:\n") as err:
        native_sweep(split_source, (0, 2, 4), runs=1)
    argvs = log.read_text().splitlines()
    assert len(argvs) == 4
    first, retry = argvs[:2], argvs[2:]
    assert all("-fopenmp" in argv.split() and "-shared" in argv.split() for argv in first)
    assert sorted(argv.replace(" -fopenmp", "") for argv in first) == sorted(retry)
    assert str(err.value).count("broken") == 2
    assert "--- retry ---" in str(err.value)


def test_compiler_diagnostics_not_utf8(monkeypatch, tmp_path):
    fake_toolchain(monkeypatch, tmp_path, "printf 'bad \\376 byte\\n' >&2\nexit 1\n")
    with pytest.raises(KernelError, match="^kernel compilation failed:\n") as err:
        native_measure(emit_kernel_source(new_schedule(ops_program(3)), runs=1), runs=1)
    assert "bad \ufffd byte" in str(err.value)


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
    fake_toolchain(monkeypatch, tmp_path,
                   f'{PASS_RUNNER_BUILD}sleep 30 &\necho $$ $! >> "{pids}"\nwait\n')
    monkeypatch.setattr(backend_mod, "DEFAULT_TIMEOUT_S", 1.0)
    source = emit_sweep_source({u: apply_unroll(new_schedule(checksum_program(F64)), u)
                                for u in (0, 2, 4)}, runs=1)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        pids.write_text("")
        with pytest.raises(KernelError, match="^compiler '.*' exceeded 1.0 s$"):
            native_sweep(source, (0, 2, 4), runs=1)
        started = [int(pid) for pid in pids.read_text().split()]
        assert len(started) == 2 * cpus
        deadline = time.monotonic() + 10.0
        while not all(map(process_gone, started)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(process_gone, started))


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain on PATH")
def test_runner_built_once_per_compiler(monkeypatch, tmp_path, vecadd):
    """A runner per process and compiler command, built again only when its
    file has gone; each sweep removes its own parts."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    log = tmp_path / "argv.log"
    for name in ("cc-a", "cc-b"):
        fake_toolchain(monkeypatch, tmp_path, f'echo "$0 $@" >> "{log}"\nexec cc "$@"\n', name)
    sp = new_schedule(vecadd)

    def runner_builds(name: str) -> int:
        """The runner builds `name` has made so far, after a sweep with it."""
        monkeypatch.setenv(backend_mod.TOOLCHAIN_ENV_VAR, str(tmp_path / name))
        NativeBackend().sweep(sp, (0, 2), runs=1)
        return sum(line.startswith(str(tmp_path / name)) and "runner.c" in line
                   for line in log.read_text().splitlines())

    def runner(name: str) -> str:
        return backend_mod._runners[str(tmp_path / name)]

    assert [runner_builds(name) for name in ("cc-a", "cc-a", "cc-b", "cc-a")] == [1, 1, 1, 1]
    # only the runners' directories are left: every sweep removed its parts
    assert sorted(os.listdir(tmp)) == sorted(os.path.basename(os.path.dirname(runner(name)))
                                             for name in ("cc-a", "cc-b"))
    first = runner("cc-a")
    os.remove(first)
    assert runner_builds("cc-a") == 2 and runner("cc-a") == first
    shutil.rmtree(os.path.dirname(first))
    assert runner_builds("cc-a") == 3 and os.path.exists(runner("cc-a"))
    assert runner_builds("cc-b") == 1
    assert len(os.listdir(tmp)) == 2


RUNNER_AT_EXIT = """
import os, shutil, sys
from unroll_tuner.backend import NativeBackend
from unroll_tuner.schedule import new_schedule
from unroll_tuner.textfmt import parse_program_text

program, _ = parse_program_text(
    "program t\\niter i0 0 8\\ninput a 1 int32\\nbody a[i0]\\noutput out[i0]\\n")
NativeBackend().sweep(new_schedule(program), (0, 2), runs=1)
assert [name.startswith("unroll_tuner_runner_") for name in os.listdir(sys.argv[1])] == [True]
if sys.argv[2] == "delete":
    shutil.rmtree(sys.argv[1])
"""


@pytest.mark.skipif(not HAVE_CC, reason="no C toolchain on PATH")
def test_runner_directory_removed_at_exit(tmp_path):
    """Also when TMPDIR itself has gone before the process exits."""
    for mode in ("keep", "delete"):
        tmp = tmp_path / mode
        tmp.mkdir()
        src = os.path.dirname(os.path.dirname(backend_mod.__file__))
        env = {**os.environ, "TMPDIR": str(tmp),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", RUNNER_AT_EXIT, str(tmp), mode],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert not tmp.exists() if mode == "delete" else os.listdir(tmp) == []


def test_toolchain_env_var_overrides(monkeypatch, vecadd):
    from unroll_tuner.backend import TOOLCHAIN_ENV_VAR

    monkeypatch.setenv(TOOLCHAIN_ENV_VAR, "definitely-not-a-compiler")
    with pytest.raises(UnrollTunerError,
                       match="^toolchain 'definitely-not-a-compiler' not found on PATH$"):
        native_measure(emit_kernel_source(new_schedule(vecadd), runs=1), runs=1)


# --- the KernelError contract ------------------------------------------------------

def fake_runner_toolchain(monkeypatch, tmp_path, parts: str, runner: str) -> None:
    """A fake compiler: a part's call runs `parts`, and the runner's build
    writes `runner` as the runner, a shell script."""
    body = tmp_path / "runner-body"
    body.write_text("#!/bin/sh\n" + runner)
    fake_toolchain(monkeypatch, tmp_path,
                   'case "$*" in *runner.c*)\n'
                   '  for a; do [ "$prev" = -o ] && out=$a; prev=$a; done\n'
                   f'  cp "{body}" "$out" && chmod +x "$out"; exit 0;;\nesac\n' + parts)


# the checksums of u=0 and u=2 differ, each with one round
MISMATCHED = ("echo checksum_0=1; echo checksum_2=2; "
              "echo run_ms_0=1.0 >&2; echo run_ms_2=1.0 >&2\n")


@pytest.mark.parametrize("parts, runner, message", [
    pytest.param("echo broken >&2; exit 1\n", "", "^kernel compilation failed:\nbroken",
                 id="compile error"),
    pytest.param("exec sleep 30\n", "", "^compiler '.*' exceeded 1.0 s$", id="compile timeout"),
    pytest.param("exit 0\n", "exit 3\n", "^kernel exited with 3: $", id="run exits non-zero"),
    pytest.param("exit 0\n", "echo hello\n", "^unexpected kernel output:\nhello",
                 id="unparseable output"),
    pytest.param("exit 0\n", MISMATCHED,
                 "^unrolled variants disagree on the output checksum: u=0: 0+1, u=2: 0+2$",
                 id="checksum mismatch"),
    pytest.param("exit 0\n", "exec sleep 30\n", "^kernel exceeded 1.0 s$", id="run timeout"),
])
def test_kernel_failures_raise_kernel_error(monkeypatch, tmp_path, parts, runner, message):
    """Every way one sample's kernels can fail is a KernelError, which
    `label` may tell apart from the pipeline's other errors."""
    fake_runner_toolchain(monkeypatch, tmp_path, parts, runner)
    monkeypatch.setattr(backend_mod, "DEFAULT_TIMEOUT_S", 1.0)
    source = emit_sweep_source({u: apply_unroll(new_schedule(ops_program(3)), u)
                                for u in (0, 2)}, runs=1)
    with pytest.raises(KernelError, match=message):
        native_sweep(source, (0, 2), runs=1)


def test_setup_failures_are_not_kernel_errors(monkeypatch, vecadd):
    """A missing toolchain or a nest the emitter cannot take is no fault of
    one sample's kernels."""
    deep = make_program("deep", [(f"i{k}", 2) for k in range(4)], Constant(1.0),
                        tuple(f"i{k}" for k in range(4)), [])
    sp = schedule_program(deep, [Tile2(0, 1, 2, 2), Tile2(2, 3, 2, 2)])
    with pytest.raises(UnrollTunerError, match="^nest depth 8 exceeds 7$") as err:
        NativeBackend().sweep(sp, (0, 2), runs=1)
    assert not isinstance(err.value, KernelError)
    monkeypatch.setenv(backend_mod.TOOLCHAIN_ENV_VAR, "definitely-not-a-compiler")
    with pytest.raises(UnrollTunerError, match="not found on PATH") as err:
        NativeBackend().sweep(new_schedule(vecadd), (0, 2), runs=1)
    assert not isinstance(err.value, KernelError)


def test_round_count_mismatch_fails_before_compiling(monkeypatch, tmp_path, vecadd):
    """`runs` must be the round count in the unit's `unit_layout`; another
    count fails, naming both, before any compiler is called."""
    log = tmp_path / "calls"
    fake_toolchain(monkeypatch, tmp_path, f'echo "$@" >> "{log}"\nexit 1\n')
    single = emit_kernel_source(new_schedule(vecadd), runs=3)
    sweep = emit_sweep_source({u: apply_unroll(new_schedule(vecadd), u) for u in (0, 2)},
                              runs=3)
    for run, runs in ((lambda n: native_measure(single, runs=n), 30),
                      (lambda n: native_sweep(sweep, (0, 2), runs=n), 1)):
        with pytest.raises(ValueError, match=rf"runs={runs}, .* emitted with 3 rounds"):
            run(runs)
    assert not log.exists()
