"""Execution-time evaluation f(program, unroll factor).

Two interchangeable backends, each with `measure(sp, u, runs)` for one
factor and `sweep(sp, factors, runs)` for a set of factors:

* `CostModelBackend` — a deterministic synthetic model (the default for
  tests/CI): per-trip body cost, loop-control overhead shrinking with the
  unroll factor, and an instruction-cache penalty once the replicated body
  outgrows the modeled capacity.
* `NativeBackend` — emits C for the scheduled nest, compiles it with
  $UNROLL_TUNER_TOOLCHAIN (else `cc`) and the fixed DEFAULT_FLAGS, and
  parses the timing output.  A sweep emits one function per distinct
  effective factor into a single translation unit, so a sample costs one
  compile and one process.

There is one binary format (`emit_sweep_source`): it prints
`checksum_<u>=<hex>` on stdout for every variant u and one
`run_ms_<u>=<float>` line per variant and round on stderr.  A single kernel
(`emit_kernel_source`, `native_measure`) is a one-variant sweep.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import subprocess
import tempfile
import warnings
from dataclasses import dataclass

from .errors import (
    CompileError,
    DepthExceedsMax,
    InvalidFactor,
    KernelMismatch,
    KernelRunError,
    RunTimeout,
    ToolchainMissing,
)
from .interp import (
    FILL_MODULUS,
    FILL_PRIMES,
    FILL_SHIFT,
    buffer_salt,
    buffer_shapes,
    row_major_strides,
)
from .ir import Access, Constant, DataType, op_histogram
from .schedule import UNROLL_FACTORS, ScheduledProgram, apply_unroll

DEFAULT_RUNS = 30
DEFAULT_TIMEOUT_S = 60.0
DEFAULT_TOOLCHAIN = "cc"
# -O1 keeps codegen predictable; the compiler's own unroller is switched off
# so the measured effect is our transformation's, not the vendor's.
DEFAULT_FLAGS = ("-O1", "-fno-unroll-loops")
TOOLCHAIN_ENV_VAR = "UNROLL_TUNER_TOOLCHAIN"


@dataclass(frozen=True)
class ExecResult:
    per_run_ms: tuple[float, ...]
    checksum: int | None = None   # output checksum of a native kernel

    def __post_init__(self):
        if not self.per_run_ms or min(self.per_run_ms) <= 0.0:
            raise ValueError("need at least one run, and all run times positive")

    @property
    def runs(self) -> int:
        return len(self.per_run_ms)

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.per_run_ms)


@dataclass(frozen=True)
class CostModelParams:
    c_body: float = 1.0
    c_loop: float = 2.0
    c_icache: float = 0.01
    icache_capacity: int = 320
    parallel_divisor: float = 4.0

    def __post_init__(self):
        if min(self.c_body, self.c_loop, self.c_icache, self.parallel_divisor) <= 0:
            raise ValueError("cost model parameters must be strictly positive")
        if self.icache_capacity < 1:
            raise ValueError("icache_capacity must be >= 1")


def cost_model_evaluate(sp: ScheduledProgram, u: int,
                        params: CostModelParams | None = None) -> ExecResult:
    """Deterministic synthetic time for running `sp` unrolled by `u`.

    cost = T*ops*c_body + (T/u')*c_loop + T*c_icache*max(0, u'*ops - capacity)
    with u' = max(u, 1) and T the total innermost trip count of the current
    (padded) nest; divided by parallel_divisor when a level is parallelized.
    """
    if u not in UNROLL_FACTORS:
        raise InvalidFactor(f"unroll factor {u} not in {UNROLL_FACTORS}")
    params = params or CostModelParams()
    trips = math.prod(it.extent for it in sp.loops)
    ops = op_histogram(sp.base).total()
    u_eff = max(u, 1)
    cost = (
        trips * ops * params.c_body
        + (trips / u_eff) * params.c_loop
        + trips * params.c_icache * max(0, u_eff * ops - params.icache_capacity)
    )
    if sp.parallel_level is not None:
        cost /= params.parallel_divisor
    return ExecResult(per_run_ms=(cost,))


# --- kernel emission ----------------------------------------------------------

_C_TYPES = {
    DataType.Int32: "int32_t",
    DataType.Int64: "int64_t",
    DataType.Float32: "float",
    DataType.Float64: "double",
}


def _c_const(value) -> str:
    if isinstance(value, float):
        return f"((elem_t){value!r})"
    return f"((elem_t){value})"


def _dim_text(sp: ScheduledProgram, dim) -> str:
    parts = []
    const = dim.offset
    for it_name in dim.iterators:
        expr = sp.index_exprs[it_name]
        for name, coef in expr.terms:
            parts.append(name if coef == 1 else f"{coef}*{name}")
        const += expr.const
    if const != 0 or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def _access_text(sp: ScheduledProgram, access, strides) -> str:
    st = strides[access.buffer]
    dims = []
    for d, dim in enumerate(access.index_iterators):
        idx = f"({_dim_text(sp, dim)})"
        dims.append(idx if st[d] == 1 else f"{idx}*{st[d]}")
    return f"buf_{access.buffer}[{' + '.join(dims)}]"


def _expr_text(sp: ScheduledProgram, node, strides) -> str:
    if isinstance(node, Constant):
        return _c_const(node.value)
    if isinstance(node, Access):
        return _access_text(sp, node.access, strides)
    return (f"({_expr_text(sp, node.left, strides)} {node.kind.value} "
            f"{_expr_text(sp, node.right, strides)})")


def emit_sweep_source(variants: dict[int, ScheduledProgram],
                      runs: int = DEFAULT_RUNS) -> str:
    """One translation unit timing several unrolled variants of one schedule.

    `variants` maps each effective unroll factor u to its schedule, emitted
    as `static void kernel_<u>(void)`.  Each variant runs once untimed and
    prints `checksum_<u>=<hex>` on stdout; then RUNS rounds time every
    variant once per round, printing `run_ms_<u>=<float>` on stderr.
    Interleaving the rounds spreads machine noise over all variants alike.
    RUNS is a macro so `native_sweep` can override it at compile time.

    Padded split iterations are masked by guards; the unrolled body is
    literally replicated with an epilogue loop for the remainder.
    """
    for sp in variants.values():
        if sp.depth > 7:
            raise DepthExceedsMax(f"nest depth {sp.depth} exceeds 7")
    p = next(iter(variants.values())).base
    shapes = buffer_shapes(p)
    strides = {name: row_major_strides(shape) for name, shape in shapes.items()}
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    out = p.output.buffer

    lines: list[str] = []
    emit = lines.append
    emit(f"/* generated kernel: {p.name} */")
    emit("#include <stdint.h>")
    emit("#include <stdio.h>")
    emit("#include <stdlib.h>")
    emit("#include <string.h>")
    emit("#include <time.h>")
    emit("")
    emit("#ifndef RUNS")
    emit(f"#define RUNS {runs}")
    emit("#endif")
    emit("")
    emit(f"typedef {_C_TYPES[p.dtype]} elem_t;")
    emit("")
    emit("static double now_ms(void) {")
    emit("    struct timespec ts;")
    emit("    clock_gettime(CLOCK_MONOTONIC, &ts);")
    emit("    return (double)ts.tv_sec * 1000.0 + (double)ts.tv_nsec / 1.0e6;")
    emit("}")
    emit("")
    for name, size in sizes.items():
        emit(f"static elem_t *buf_{name};")
    emit("")
    emit("static void alloc_and_fill(void) {")
    for name, size in sizes.items():
        emit(f"    buf_{name} = (elem_t *)malloc(sizeof(elem_t) * {size});")
        emit(f"    if (!buf_{name}) {{ fprintf(stderr, \"alloc failed\\n\"); exit(3); }}")
    for name, shape in shapes.items():
        if name == out:
            continue
        salt = buffer_salt(name)
        st = strides[name]
        indent = "    "
        for d, dim in enumerate(shape):
            emit(f"{indent}for (int64_t q{d} = 0; q{d} < {dim}; ++q{d})")
            indent += "    "
        fill_terms = [str(salt)] + [
            f"q{d}*{FILL_PRIMES[d % len(FILL_PRIMES)]}" for d in range(len(shape))
        ]
        flat = " + ".join(f"q{d}*{st[d]}" if st[d] != 1 else f"q{d}"
                          for d in range(len(shape)))
        emit(f"{indent}buf_{name}[{flat}] = "
             f"(elem_t)(({' + '.join(fill_terms)}) % {FILL_MODULUS} - {FILL_SHIFT});")
    emit("}")
    emit("")
    emit("static void reset_output(void) {")
    emit(f"    for (int64_t q = 0; q < {sizes[out]}; ++q) buf_{out}[q] = (elem_t)0;")
    emit("}")
    emit("")
    for u, sp in variants.items():
        _emit_kernel(sp, f"kernel_{u}", strides, emit)
        emit("")
    emit("static uint64_t out_checksum(void) {")
    emit("    uint64_t h = 0xCBF29CE484222325ULL;")
    emit(f"    for (int64_t q = 0; q < {sizes[out]}; ++q) {{")
    emit("        unsigned char bytes[sizeof(elem_t)];")
    emit(f"        memcpy(bytes, &buf_{out}[q], sizeof(elem_t));")
    emit("        for (size_t b = 0; b < sizeof(elem_t); ++b) {")
    emit("            h ^= (uint64_t)bytes[b];")
    emit("            h *= 0x100000001B3ULL;")
    emit("        }")
    emit("    }")
    emit("    return h;")
    emit("}")
    emit("")
    emit("int main(void) {")
    emit("    alloc_and_fill();")
    for u in variants:
        emit(f"    kernel_{u}();  /* warm-up, excluded from the timings */")
        emit(f"    printf(\"checksum_{u}=%016llx\\n\", (unsigned long long)out_checksum());")
    emit("    for (int r = 0; r < RUNS; ++r) {")
    emit("        double t0, t1;")
    for u in variants:
        emit(f"        t0 = now_ms(); kernel_{u}(); t1 = now_ms();")
        emit(f"        fprintf(stderr, \"run_ms_{u}=%.9f\\n\", t1 - t0);")
    emit("    }")
    emit("    return 0;")
    emit("}")
    return "\n".join(lines) + "\n"


def _emit_kernel(sp: ScheduledProgram, fn_name: str, strides, emit) -> None:
    p = sp.base
    guard_terms = []
    for g in sp.guards:
        text = " + ".join(f"{coef}*{name}" if coef != 1 else name
                          for name, coef in g.expr.terms)
        if g.expr.const:
            text += f" + {g.expr.const}"
        guard_terms.append(f"({text} < {g.bound})")
    store = f"{_access_text(sp, p.output, strides)} = {_expr_text(sp, p.body, strides)};"
    body_stmt = f"if ({' && '.join(guard_terms)}) {store}" if guard_terms else store

    emit(f"static void {fn_name}(void) {{")
    emit("    reset_output();")
    indent = "    "
    inner = sp.loops[-1]
    for pos, it in enumerate(sp.loops[:-1] if sp.unroll else sp.loops):
        if sp.parallel_level == pos:
            emit(f"{indent}#pragma omp parallel for")
        emit(f"{indent}for (int64_t {it.name} = 0; {it.name} < {it.extent}; ++{it.name}) {{")
        indent += "    "
    if sp.unroll:
        u = sp.unroll
        main_end = sp.main_trips * u
        if sp.parallel_level == sp.depth - 1:
            emit(f"{indent}#pragma omp parallel for")
        emit(f"{indent}for (int64_t {inner.name}_blk = 0; {inner.name}_blk < {main_end}; "
             f"{inner.name}_blk += {u}) {{")
        for k in range(u):
            emit(f"{indent}    {{ const int64_t {inner.name} = {inner.name}_blk + {k}; "
                 f"{body_stmt} }}")
        emit(f"{indent}}}")
        emit(f"{indent}for (int64_t {inner.name} = {main_end}; "
             f"{inner.name} < {inner.extent}; ++{inner.name}) {{ {body_stmt} }}")
    else:
        emit(f"{indent}{body_stmt}")
    for pos in range(len(sp.loops[:-1] if sp.unroll else sp.loops)):
        indent = indent[:-4]
        emit(f"{indent}}}")
    emit("}")


def emit_kernel_source(sp: ScheduledProgram, runs: int = DEFAULT_RUNS,
                       debug: bool = False) -> str:
    """A one-variant sweep unit for `sp`, emitted as `kernel_<sp.unroll>`.

    `debug` changes nothing: every binary prints its output checksum.
    """
    return emit_sweep_source({sp.unroll: sp}, runs)


def _compile_and_run(source: str, runs: int) -> subprocess.CompletedProcess:
    """Compile `source` with -DRUNS=`runs`, run the binary once, return its output.

    The compiler is $UNROLL_TUNER_TOOLCHAIN, else `cc`, with DEFAULT_FLAGS
    plus -fopenmp for a parallel kernel.  A failed compile with -fopenmp is
    retried once without it, so parallel kernels degrade to serial rather
    than fail on toolchains without OpenMP.
    """
    cmd = os.environ.get(TOOLCHAIN_ENV_VAR) or DEFAULT_TOOLCHAIN
    if shutil.which(cmd) is None:
        raise ToolchainMissing(f"toolchain {cmd!r} not found on PATH")
    openmp = "#pragma omp" in source

    with tempfile.TemporaryDirectory(prefix="unroll_tuner_") as tmp:
        src_path = os.path.join(tmp, "kernel.c")
        bin_path = os.path.join(tmp, "kernel")
        with open(src_path, "w") as fh:
            fh.write(source)

        def compile_with(*extra: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [cmd, *DEFAULT_FLAGS, *extra, f"-DRUNS={runs}", src_path, "-o", bin_path],
                capture_output=True, text=True, timeout=DEFAULT_TIMEOUT_S,
            )

        proc = compile_with("-fopenmp") if openmp else compile_with()
        if proc.returncode != 0:
            if not openmp:
                raise CompileError(proc.stderr)
            retry = compile_with()
            if retry.returncode != 0:
                raise CompileError(proc.stderr + "\n--- retry ---\n" + retry.stderr)

        try:
            run = subprocess.run([bin_path], capture_output=True, text=True,
                                 timeout=DEFAULT_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise RunTimeout(f"kernel exceeded {DEFAULT_TIMEOUT_S} s") from exc
    if run.returncode != 0:
        raise KernelRunError(f"kernel exited with {run.returncode}: {run.stderr}")
    return run


def _unexpected_output(run: subprocess.CompletedProcess) -> KernelRunError:
    return KernelRunError(f"unexpected kernel output:\n{run.stdout}\n{run.stderr}")


def _tagged_values(text: str, prefix: str) -> dict[int, list[str]]:
    """Values of the `<prefix><u>=<value>` lines of `text`, grouped by u."""
    out: dict[int, list[str]] = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.startswith(prefix) and key[len(prefix):].isdigit():
            out.setdefault(int(key[len(prefix):]), []).append(value)
    return out


def _parse_sweep_output(run: subprocess.CompletedProcess,
                        runs: int) -> dict[int, ExecResult]:
    """One result per variant of a sweep binary's output.

    The variants' output checksums must agree bit for bit, because unrolling
    replicates the body in order; otherwise `KernelMismatch` is raised.
    """
    checksums = _tagged_values(run.stdout, "checksum_")
    per_run = _tagged_values(run.stderr, "run_ms_")
    if not checksums or set(checksums) != set(per_run) \
            or any(len(checksums[u]) != 1 or len(per_run[u]) != runs for u in checksums):
        raise _unexpected_output(run)
    try:
        sums = {u: int(checksums[u][0], 16) for u in checksums}
        times = {u: tuple(max(float(v), 1e-9) for v in per_run[u]) for u in checksums}
    except ValueError as exc:
        raise _unexpected_output(run) from exc
    if len(set(sums.values())) > 1:
        raise KernelMismatch("unrolled variants disagree on the output checksum: "
                             + ", ".join(f"u={u}: {c:016x}" for u, c in sums.items()))
    return {u: ExecResult(per_run_ms=times[u], checksum=sums[u]) for u in checksums}


def native_sweep(source: str, factors: tuple[int, ...],
                 runs: int = DEFAULT_RUNS) -> dict[int, ExecResult]:
    """Compile and run a unit from `emit_sweep_source` once; one result per factor."""
    run = _compile_and_run(source, runs)
    results = _parse_sweep_output(run, runs)
    if set(results) != set(factors):
        raise _unexpected_output(run)
    return {u: results[u] for u in factors}


def native_measure(source: str, runs: int = DEFAULT_RUNS) -> ExecResult:
    """Compile and run a one-variant unit from `emit_kernel_source`."""
    run = _compile_and_run(source, runs)
    results = _parse_sweep_output(run, runs)
    if len(results) != 1:
        raise _unexpected_output(run)
    return next(iter(results.values()))


# --- backend objects ----------------------------------------------------------

class CostModelBackend:
    """Deterministic backend; safe for concurrent use."""

    def __init__(self, params: CostModelParams | None = None):
        self.params = params or CostModelParams()

    def measure(self, sp: ScheduledProgram, u: int, runs: int = 1) -> ExecResult:
        return cost_model_evaluate(sp, u, self.params)

    def sweep(self, sp: ScheduledProgram, factors: tuple[int, ...],
              runs: int = 1) -> dict[int, ExecResult]:
        return {u: self.measure(sp, u, runs) for u in factors}


class NativeBackend:
    """Compiles emitted kernels with the system toolchain and times them."""

    def measure(self, sp: ScheduledProgram, u: int, runs: int = DEFAULT_RUNS) -> ExecResult:
        return self.sweep(sp, (u,), runs)[u]

    def sweep(self, sp: ScheduledProgram, factors: tuple[int, ...],
              runs: int = DEFAULT_RUNS) -> dict[int, ExecResult]:
        """Time every factor from one compiled binary.

        Factors that clamp to the same effective factor share one kernel, so
        they get the same result.  Raises `KernelMismatch` when the variants'
        output checksums differ.
        """
        effective: dict[int, int] = {}
        variants: dict[int, ScheduledProgram] = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # clamping is routine in a sweep
            for u in factors:
                unrolled = apply_unroll(sp, u)
                effective[u] = unrolled.unroll
                variants.setdefault(unrolled.unroll, unrolled)
        results = native_sweep(emit_sweep_source(variants, runs=runs), tuple(variants), runs)
        return {u: results[effective[u]] for u in factors}
