"""Execution-time evaluation f(program, unroll factor).

Two interchangeable backends, each with `measure(sp, u, runs)` for one
factor and `sweep(sp, factors, runs)` for a set of factors:

* `CostModelBackend` — a deterministic synthetic model (the default for
  tests/CI): per-trip body cost, loop-control overhead shrinking with the
  unroll factor, and an instruction-cache penalty once the replicated body
  outgrows the modeled capacity.
* `NativeBackend` — emits C for the scheduled nest, compiles it with
  $UNROLL_TUNER_TOOLCHAIN (else `cc`) and the fixed DEFAULT_FLAGS, and
  parses the timing output.  A sweep emits one unit with one function per
  distinct effective factor, and no `main`; the emitter names every C
  identifier by position, so no name of the program reaches the C.  Every
  unit is compiled in parts at the same time, one part per usable CPU but
  at most one per kernel, each straight to a shared object, so a sample
  costs one parallel build and one process.

The process is the runner (`_RUNNER_SOURCE`), one fixed C program built
once per process and compiler, which loads the parts and times them as
`emit_sweep_source` describes.  The round count is written into the unit
when it is emitted, and `native_sweep`/`native_measure` refuse another
`runs` before compiling.  A single kernel (`emit_kernel_source`,
`native_measure`) is a one-variant sweep.  A sample whose kernels fail to
build, run or agree raises `KernelError`.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass

from .errors import KernelError, UnrollTunerError
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

# The sections of an emitted unit, which a build compiles in parts:
# `#ifdef WITH_<section>` guards each kernel, and a part is compiled with
# -DWITH_<section> for each of its sections.
_SECTION_MACRO = "WITH_"
_PART_GUARD = f"#ifdef {_SECTION_MACRO}{{}}"
# What a section costs to compile besides its text, in characters of text.
# With `cc -O1` on a 2-CPU Xeon, a kernel of the 30 seed-99 `native-label`
# samples took about 13 ms plus 5.7-6.4 ms per 1000 characters (two fits,
# which put the base at 2000 and 2300 characters).
_SECTION_BASE_WEIGHT = 2000


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
        runs = self.per_run_ms
        return runs[0] if len(runs) == 1 else statistics.fmean(runs)   # fmean((t,)) == t


# The cost model's parameters: per-op body cost, per-iteration loop-control
# cost, the icache penalty per op beyond the modeled capacity, and the
# speed-up of a parallelized nest.
C_BODY = 1.0
C_LOOP = 2.0
C_ICACHE = 0.01
ICACHE_CAPACITY = 320
PARALLEL_DIVISOR = 4.0


@dataclass(frozen=True)
class CostTerms:
    """The factor-independent quantities of one schedule's cost."""
    trips: int          # total innermost trip count of the (padded) nest
    ops: int            # operations in the body
    parallel: bool      # whether a level is parallelized

    @classmethod
    def of(cls, sp: ScheduledProgram) -> CostTerms:
        return cls(math.prod([it.extent for it in sp.loops]), op_histogram(sp.base).total(),
                   sp.parallel_level is not None)


def cost_model_evaluate(sp: ScheduledProgram, u: int,
                        terms: CostTerms | None = None) -> ExecResult:
    """Deterministic synthetic time for running `sp` unrolled by `u`.

    cost = T*ops*C_BODY + (T/u')*C_LOOP + T*C_ICACHE*max(0, u'*ops - ICACHE_CAPACITY)
    with u' = max(u, 1) and T the total innermost trip count of the current
    (padded) nest; divided by PARALLEL_DIVISOR when a level is parallelized.
    `terms`, when given, must be `CostTerms.of(sp)`.
    """
    return ExecResult(per_run_ms=(_costs(terms or CostTerms.of(sp), (u,))[0],))


def _costs(terms: CostTerms, factors) -> list[float]:
    """The cost of each factor of `factors`, as `cost_model_evaluate` defines it."""
    trips, ops = terms.trips, terms.ops
    body = trips * ops * C_BODY            # the first term, the same for every u
    out = []
    for u in factors:
        if u not in UNROLL_FACTORS:
            raise UnrollTunerError(f"unroll factor {u} not in {UNROLL_FACTORS}")
        u_eff = max(u, 1)
        cost = (
            body
            + (trips / u_eff) * C_LOOP
            + trips * C_ICACHE * max(0, u_eff * ops - ICACHE_CAPACITY)
        )
        if terms.parallel:
            cost /= PARALLEL_DIVISOR
        out.append(cost)
    return out


# --- kernel emission ----------------------------------------------------------

_C_TYPES = {
    DataType.Int32: "int32_t",
    DataType.Int64: "int64_t",
    DataType.Float32: "float",
    DataType.Float64: "double",
}


def _sum_text(names, terms, const: int) -> str:
    """C text of const + sum(coef * loop) over `terms`, each loop by its C name."""
    parts = [names[name] if coef == 1 else f"{coef}*{names[name]}" for name, coef in terms]
    if const != 0 or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def _access_text(sp: ScheduledProgram, names, buffers, access) -> str:
    c_name, strides = buffers[access.buffer]
    dims = []
    for dim, stride in zip(access.index_iterators, strides):
        exprs = [sp.index_exprs[it_name] for it_name in dim.iterators]
        idx = _sum_text(names, [term for e in exprs for term in e.terms],
                        dim.offset + sum(e.const for e in exprs))
        dims.append(f"({idx})" if stride == 1 else f"({idx})*{stride}")
    return f"{c_name}[{' + '.join(dims)}]"


def _expr_text(sp: ScheduledProgram, names, buffers, node) -> str:
    if isinstance(node, Constant):
        return f"((elem_t){node.value})"      # a float's str() is its round-trip repr()
    if isinstance(node, Access):
        return _access_text(sp, names, buffers, node.access)
    return (f"({_expr_text(sp, names, buffers, node.left)} {node.kind.value} "
            f"{_expr_text(sp, names, buffers, node.right)})")


def emit_sweep_source(variants: dict[int, ScheduledProgram],
                      runs: int = DEFAULT_RUNS) -> str:
    """One C unit timing several unrolled variants of one schedule.

    `variants` maps each effective unroll factor u to its schedule, emitted
    as `void kernel_<u>(void)`.  The unit has no `main` and includes no
    header (`int64_t` and `int32_t` come from the compiler's predefined
    types): the runner loads it as shared objects.  The runner reads
    `unit_layout` (`runs`, the element type, the factors in timing order,
    the output buffer, and each buffer's fill salt and extents), allocates
    and fills the buffers, and hands them to each part's `bind_buffers`.
    Each variant then runs once untimed and prints `checksum_<u>=<hex>` on
    stdout; then `runs` rounds time every variant once per round, printing
    `run_ms_<u>=<float>` on stderr.  Interleaving the rounds spreads machine
    noise over all variants alike.

    The text is every part of a build: each kernel is a section under
    `#ifdef WITH_<section>`, and a part defines `WITH_<section>` for each
    of its sections (see `_split_plan`).  Every part keeps its own static
    buffer pointers.

    Every C name is positional: loop k of the nest (the same in every
    variant) is `i<k>`, the unrolled loop's block variable `blk`, and
    buffer k in `buffer_shapes` order `buf<k>`.  Padded split iterations
    are masked by guards; the unrolled body is literally replicated with an
    epilogue loop for the remainder.
    """
    first = next(iter(variants.values()))
    if first.depth > 7:
        raise UnrollTunerError(f"nest depth {first.depth} exceeds 7")
    p = first.base
    shapes = buffer_shapes(p)
    names = {it.name: f"i{k}" for k, it in enumerate(first.loops)}
    buffers = {name: (f"buf{k}", row_major_strides(shape))
               for k, (name, shape) in enumerate(shapes.items())}
    out = list(shapes).index(p.output.buffer)
    # the loop body, the same in every variant
    guards = [f"({_sum_text(names, g.expr.terms, g.expr.const)} < {g.bound})"
              for g in first.guards]
    store = (f"{_access_text(first, names, buffers, p.output)} = "
             f"{_expr_text(first, names, buffers, p.body)};")
    body = f"if ({' && '.join(guards)}) {store}" if guards else store

    lines: list[str] = []
    emit = lines.append
    emit("/* generated kernel */")
    emit("typedef __INT64_TYPE__ int64_t;")
    emit("typedef __INT32_TYPE__ int32_t;")
    emit("")
    emit(f"typedef {_C_TYPES[p.dtype]} elem_t;")
    emit("")
    for k in range(len(shapes)):
        emit(f"static elem_t *buf{k};")
    emit("")
    emit("/* rounds, element size, floating?; the kernels; the buffers and the output")
    emit("   buffer's index; then per buffer its fill salt, rank and extents */")
    emit("const int64_t unit_layout[] = {")
    emit(f"    {runs}, sizeof(elem_t), {int(p.dtype.is_float)},")
    emit(f"    {len(variants)}, {', '.join(map(str, variants))},")
    emit(f"    {len(shapes)}, {out},")
    for name, shape in shapes.items():
        emit(f"    {buffer_salt(name)}, {len(shape)}, {', '.join(map(str, shape))},")
    emit("};")
    emit("")
    emit("void bind_buffers(void *const *buffers) {")
    for k in range(len(shapes)):
        emit(f"    buf{k} = buffers[{k}];")
    emit("}")
    emit("")
    # A part of a unit with several kernels may hold just one of them and
    # would inline this call; out of line, each kernel compiles the same
    # whichever part holds it.
    if len(variants) > 1:
        emit("__attribute__((noinline))")
    emit("static void reset_output(void) {")
    emit(f"    for (int64_t q = 0; q < {math.prod(shapes[p.output.buffer])}; ++q) "
         f"buf{out}[q] = (elem_t)0;")
    emit("}")
    for u, sp in variants.items():
        emit("")
        emit(_PART_GUARD.format(f"kernel_{u}"))
        _emit_kernel(sp, f"kernel_{u}", names, body, emit)
        emit("#endif")
    return "\n".join(lines) + "\n"


def _emit_kernel(sp: ScheduledProgram, fn_name: str, names, body: str, emit) -> None:
    emit(f"void {fn_name}(void) {{")
    emit("    reset_output();")
    indent = "    "
    outer = sp.loops[:-1] if sp.unroll else sp.loops
    for pos, it in enumerate(outer):
        var = names[it.name]
        if sp.parallel_level == pos:
            emit(f"{indent}#pragma omp parallel for")
        emit(f"{indent}for (int64_t {var} = 0; {var} < {it.extent}; ++{var}) {{")
        indent += "    "
    if sp.unroll:
        u = sp.unroll
        main_end = sp.main_trips * u
        inner = names[sp.loops[-1].name]
        if sp.parallel_level == sp.depth - 1:
            emit(f"{indent}#pragma omp parallel for")
        emit(f"{indent}for (int64_t blk = 0; blk < {main_end}; blk += {u}) {{")
        for k in range(u):
            emit(f"{indent}    {{ const int64_t {inner} = blk + {k}; {body} }}")
        emit(f"{indent}}}")
        emit(f"{indent}for (int64_t {inner} = {main_end}; "
             f"{inner} < {sp.innermost_extent}; ++{inner}) {{ {body} }}")
    else:
        emit(f"{indent}{body}")
    for depth in range(len(outer), 0, -1):
        emit("    " * depth + "}")
    emit("}")


def emit_kernel_source(sp: ScheduledProgram, runs: int = DEFAULT_RUNS,
                       debug: bool = False) -> str:
    """A one-variant sweep unit for `sp`, emitted as `kernel_<sp.unroll>`.

    `debug` changes nothing: every run prints its output checksum.
    """
    return emit_sweep_source({sp.unroll: sp}, runs)


def _split_plan(source: str) -> list[list[str]]:
    """The sections of each part of a build of `source`.

    There is one part per usable CPU, but at most one per kernel, and at
    least one: a source without part guards is one part with no sections.
    Sections go heaviest first to the lightest part.  A section weighs a
    fixed `_SECTION_BASE_WEIGHT` plus the length of its text, so a part of
    many small kernels is not the one that finishes last.
    """
    prefix = _PART_GUARD.format("")
    weights: dict[str, int] = {}
    section = None
    for line in source.splitlines():
        if line.startswith(prefix):
            section = line[len(prefix):]
            weights[section] = _SECTION_BASE_WEIGHT
        elif section is not None:
            weights[section] += len(line) + 1
    n_parts = max(min(len(os.sched_getaffinity(0)), len(weights)), 1)
    parts: list[list[str]] = [[] for _ in range(n_parts)]
    load = [0] * n_parts
    for section in sorted(weights, key=weights.get, reverse=True):
        k = load.index(min(load))
        parts[k].append(section)
        load[k] += weights[section]
    return parts


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill `proc` and the processes it started, unless it has been reaped
    (then its id may belong to another process)."""
    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _run_compilers(argvs: list[list[str]]) -> str | None:
    """Run the compiler calls `argvs` at the same time.

    Returns None when every call succeeds, else the diagnostics of the first
    failed call.  Raises `KernelError` when the calls outlast
    DEFAULT_TIMEOUT_S.  No compiler outlives the call: after a failure or a
    timeout the others are killed with their children, and all are reaped.
    """
    with contextlib.ExitStack() as stack:
        procs = []
        for argv in argvs:
            # a session of its own, so a kill reaches the compiler's children
            proc = stack.enter_context(subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                errors="replace", start_new_session=True))
            stack.callback(_kill_group, proc)
            procs.append(proc)
        deadline = time.monotonic() + DEFAULT_TIMEOUT_S
        # Each reads its own pipe to the end, so a compiler blocked on a full
        # pipe only waits for its turn.
        for proc in procs:
            try:
                _, diagnostics = proc.communicate(
                    timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                raise KernelError(f"compiler {proc.args[0]!r} exceeded "
                                  f"{DEFAULT_TIMEOUT_S} s") from None
            if proc.returncode != 0:
                return diagnostics
    return None


# The runner: loads the parts named on its command line, allocates and
# fills the buffers that `unit_layout` describes, binds them in every part
# and times the kernels (see `emit_sweep_source`).  Its fill equals the
# interpreter's, and its checksum is FNV-1a over the output's bytes.
_RUNNER_SOURCE = r"""
#include <dlfcn.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

typedef void (*kernel_fn)(void);

static void fail(const char *what, const char *detail) {
    fprintf(stderr, "runner: %s %s\n", what, detail);
    exit(3);
}

static double now_ms(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec * 1000.0 + (double)ts.tv_nsec / 1.0e6;
}

/* element f, at row-major index q: (salt + sum_d q_d * prime_d) % modulus - shift */
static void fill(void *buf, int64_t elem_size, int64_t is_float, int64_t salt,
                 int64_t rank, const int64_t *extents, int64_t size) {
    static const int64_t primes[] = {FILL_PRIMES};
    const int64_t n_primes = sizeof primes / sizeof primes[0];
    int64_t *q = calloc(rank + 1, sizeof *q);
    int64_t acc = salt;
    if (!q) fail("alloc failed", "");
    for (int64_t f = 0; f < size; ++f) {
        int64_t v = acc % FILL_MODULUS - FILL_SHIFT;
        if (is_float && elem_size == 4) ((float *)buf)[f] = (float)v;
        else if (is_float) ((double *)buf)[f] = (double)v;
        else if (elem_size == 4) ((int32_t *)buf)[f] = (int32_t)v;
        else ((int64_t *)buf)[f] = v;
        for (int64_t d = rank - 1; d >= 0; --d) {
            acc += primes[d % n_primes];
            if (++q[d] < extents[d]) break;
            acc -= primes[d % n_primes] * extents[d];
            q[d] = 0;
        }
    }
    free(q);
}

static uint64_t checksum(const unsigned char *bytes, int64_t n) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (int64_t b = 0; b < n; ++b) {
        h ^= bytes[b];
        h *= 0x100000001B3ULL;
    }
    return h;
}

int main(int argc, char **argv) {
    int n_parts = argc - 1;
    void **parts = calloc(argc, sizeof *parts);
    if (!parts) fail("alloc failed", "");
    if (n_parts < 1) fail("usage:", "runner PART...");
    for (int k = 0; k < n_parts; ++k)
        if (!(parts[k] = dlopen(argv[k + 1], RTLD_NOW | RTLD_LOCAL))) fail("dlopen:", dlerror());
    const int64_t *layout = dlsym(parts[0], "unit_layout");
    if (!layout) fail("no unit_layout in", argv[1]);
    int64_t runs = *layout++, elem_size = *layout++, is_float = *layout++;
    int64_t n_kernels = *layout++;
    const int64_t *factors = layout;
    layout += n_kernels;
    int64_t n_buffers = *layout++, output = *layout++, out_bytes = 0;
    void **buffers = calloc(n_buffers, sizeof *buffers);
    kernel_fn *kernels = calloc(n_kernels, sizeof *kernels);
    if (!buffers || !kernels) fail("alloc failed", "");
    for (int64_t b = 0; b < n_buffers; ++b) {
        int64_t salt = *layout++, rank = *layout++, size = 1;
        for (int64_t d = 0; d < rank; ++d) size *= layout[d];
        if (!(buffers[b] = malloc(elem_size * size))) fail("alloc failed", "");
        if (b == output) out_bytes = elem_size * size;
        else fill(buffers[b], elem_size, is_float, salt, rank, layout, size);
        layout += rank;
    }
    for (int k = 0; k < n_parts; ++k) {
        void (*bind)(void *const *) = (void (*)(void *const *))dlsym(parts[k], "bind_buffers");
        if (!bind) fail("no bind_buffers in", argv[k + 1]);
        bind(buffers);
    }
    for (int64_t i = 0; i < n_kernels; ++i) {
        char name[32];
        snprintf(name, sizeof name, "kernel_%lld", (long long)factors[i]);
        for (int k = 0; k < n_parts && !kernels[i]; ++k)
            kernels[i] = (kernel_fn)dlsym(parts[k], name);
        if (!kernels[i]) fail("no part defines", name);
    }
    for (int64_t i = 0; i < n_kernels; ++i) {
        kernels[i]();  /* warm-up, excluded from the timings */
        printf("checksum_%lld=%016llx\n", (long long)factors[i],
               (unsigned long long)checksum(buffers[output], out_bytes));
    }
    for (int64_t r = 0; r < runs; ++r)
        for (int64_t i = 0; i < n_kernels; ++i) {
            double t0 = now_ms();
            kernels[i]();
            double t1 = now_ms();
            fprintf(stderr, "run_ms_%lld=%.9f\n", (long long)factors[i], t1 - t0);
        }
    return 0;
}
"""

# compiler command -> path of the runner it builds; one per process, shared
# by every sweep, so only a process's first sample pays for the build
_runners: dict[str, str] = {}


def _runner(cmd: str) -> tuple[str, list[str] | None]:
    """The runner built with `cmd`, and the compiler call that builds it to
    `<runner>.new` when no runner file exists (not built yet, a failed
    build, or deleted).  Its directory is removed at exit."""
    path = _runners.get(cmd)
    if path is not None and os.path.exists(path):
        return path, None
    if path is None or not os.path.isdir(os.path.dirname(path)):
        directory = tempfile.mkdtemp(prefix="unroll_tuner_runner_")
        atexit.register(shutil.rmtree, directory, ignore_errors=True)
        path = _runners[cmd] = os.path.join(directory, "runner")
    with open(path + ".c", "w") as fh:
        fh.write(f"#define FILL_PRIMES {', '.join(map(str, FILL_PRIMES))}\n"
                 f"#define FILL_MODULUS {FILL_MODULUS}\n"
                 f"#define FILL_SHIFT {FILL_SHIFT}\n" + _RUNNER_SOURCE)
    return path, [cmd, *DEFAULT_FLAGS, path + ".c", "-o", path + ".new", "-ldl"]


def _compile_and_run(source: str) -> subprocess.CompletedProcess:
    """Compile `source`, run it once, return the output.

    The compiler is $UNROLL_TUNER_TOOLCHAIN, else `cc`, with DEFAULT_FLAGS
    plus -fopenmp for a parallel kernel.  Each part of `_split_plan` is
    compiled straight to a shared object, all at the same time, and the
    runner loads them; when this compiler has no runner yet, it is built
    alongside them.  A failed build with -fopenmp is retried once without
    it, so parallel kernels degrade to serial rather than fail on
    toolchains without OpenMP.
    """
    cmd = os.environ.get(TOOLCHAIN_ENV_VAR) or DEFAULT_TOOLCHAIN
    if shutil.which(cmd) is None:
        raise UnrollTunerError(f"toolchain {cmd!r} not found on PATH")
    openmp = "#pragma omp" in source
    defines = [[f"-D{_SECTION_MACRO}{section}" for section in part]
               for part in _split_plan(source)]
    runner, runner_build = _runner(cmd)

    with tempfile.TemporaryDirectory(prefix="unroll_tuner_") as tmp:
        src_path = os.path.join(tmp, "kernel.c")
        with open(src_path, "w") as fh:
            fh.write(source)
        objects = [os.path.join(tmp, f"part{k}.so") for k in range(len(defines))]

        def build(*extra: str) -> str | None:
            """Diagnostics of the first failed compiler call, else None."""
            argvs = [[cmd, *DEFAULT_FLAGS, *extra, *part_defines,
                      "-fPIC", "-shared", src_path, "-o", obj]
                     for part_defines, obj in zip(defines, objects)]
            return _run_compilers(argvs + [runner_build] if runner_build else argvs)

        failed = build("-fopenmp") if openmp else build()
        if failed is not None and openmp:
            retry = build()
            failed = None if retry is None else failed + "\n--- retry ---\n" + retry
        if failed is not None:
            raise KernelError(f"kernel compilation failed:\n{failed}")
        if runner_build:
            os.replace(runner + ".new", runner)

        try:
            run = subprocess.run([runner, *objects], capture_output=True, text=True,
                                 errors="replace", timeout=DEFAULT_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise KernelError(f"kernel exceeded {DEFAULT_TIMEOUT_S} s") from exc
    if run.returncode != 0:
        raise KernelError(f"kernel exited with {run.returncode}: {run.stderr}")
    return run


def _unexpected_output(run: subprocess.CompletedProcess) -> KernelError:
    return KernelError(f"unexpected kernel output:\n{run.stdout}\n{run.stderr}")


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
    """One result per variant of a sweep's output.

    The variants' output checksums must agree bit for bit, because unrolling
    replicates the body in order; otherwise `KernelError` is raised.
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
        raise KernelError("unrolled variants disagree on the output checksum: "
                          + ", ".join(f"u={u}: {c:016x}" for u, c in sums.items()))
    return {u: ExecResult(per_run_ms=times[u], checksum=sums[u]) for u in checksums}


def _check_rounds(source: str, runs: int) -> None:
    """Raise ValueError, before anything is compiled, when `source` is a
    unit whose `unit_layout` holds another round count than `runs`.  A
    source without a `unit_layout` is left to the build and the runner."""
    _, found, layout = source.partition("unit_layout[] = {")
    emitted = layout.partition(",")[0].strip()
    if found and emitted != str(runs):
        raise ValueError(f"runs={runs}, but the unit was emitted with "
                         f"{emitted} rounds in its unit_layout")


def native_sweep(source: str, factors: tuple[int, ...],
                 runs: int = DEFAULT_RUNS) -> dict[int, ExecResult]:
    """Compile and run a unit from `emit_sweep_source` once; one result per
    factor, each of the `runs` rounds the unit was emitted with."""
    _check_rounds(source, runs)
    run = _compile_and_run(source)
    results = _parse_sweep_output(run, runs)
    if set(results) != set(factors):
        raise _unexpected_output(run)
    return {u: results[u] for u in factors}


def native_measure(source: str, runs: int = DEFAULT_RUNS) -> ExecResult:
    """Compile and run a one-variant unit from `emit_kernel_source`, which
    was emitted with `runs` rounds."""
    _check_rounds(source, runs)
    run = _compile_and_run(source)
    results = _parse_sweep_output(run, runs)
    if len(results) != 1:
        raise _unexpected_output(run)
    return next(iter(results.values()))


# --- backend objects ----------------------------------------------------------

class CostModelBackend:
    """Deterministic backend; safe for concurrent use."""

    def measure(self, sp: ScheduledProgram, u: int, runs: int = 1,
                terms: CostTerms | None = None) -> ExecResult:
        return cost_model_evaluate(sp, u, terms)

    def sweep(self, sp: ScheduledProgram, factors: tuple[int, ...],
              runs: int = 1) -> dict[int, ExecResult]:
        costs = _costs(CostTerms.of(sp), factors)
        return {u: ExecResult(per_run_ms=(cost,)) for u, cost in zip(factors, costs)}


class NativeBackend:
    """Compiles emitted kernels with the system toolchain and times them."""

    def measure(self, sp: ScheduledProgram, u: int, runs: int = DEFAULT_RUNS) -> ExecResult:
        return self.sweep(sp, (u,), runs)[u]

    def sweep(self, sp: ScheduledProgram, factors: tuple[int, ...],
              runs: int = DEFAULT_RUNS) -> dict[int, ExecResult]:
        """Time every factor from one compiled unit.

        Factors that clamp to the same effective factor share one kernel, so
        they get the same result.  Raises `KernelError` when the kernels fail
        to build or run, or the variants' output checksums differ.
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
