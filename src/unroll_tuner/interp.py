"""Reference interpreter for (scheduled) programs.

Executes the loop nest point by point with the exact semantics the native
backend compiles to: deterministic input fill, C-style integer wrap/truncation
per data type, guard-masked padded iterations, and the unrolled main/epilogue
structure.  Slow by design; it is the ground truth the transforms and the
emitted kernels are checked against.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .errors import UnrollTunerError
from .ir import (
    Access,
    BinOpKind,
    Constant,
    DataType,
    Program,
    walk_expr,
)
from .schedule import ScheduledProgram, new_schedule

# Per-dimension multipliers of the input fill pattern; the kernel emitter
# embeds the same constants so compiled and interpreted buffers agree.
FILL_PRIMES = (31, 37, 41, 43, 47, 53, 59)
FILL_MODULUS = 17
FILL_SHIFT = 8

_INT_BITS = {DataType.Int32: 32, DataType.Int64: 64}
_PACK_FMT = {
    DataType.Int32: "<i",
    DataType.Int64: "<q",
    DataType.Float32: "<f",
    DataType.Float64: "<d",
}


def buffer_salt(name: str) -> int:
    """Small deterministic per-buffer constant mixed into the fill pattern."""
    acc = len(name)
    for ch in name.encode():
        acc = (acc * 131 + ch) % 1009
    return acc


def fill_value(salt: int, idx: tuple[int, ...]) -> int:
    """Deterministic input element: integer in [-8, 8]."""
    acc = salt
    for k, v in enumerate(idx):
        acc += v * FILL_PRIMES[k % len(FILL_PRIMES)]
    return acc % FILL_MODULUS - FILL_SHIFT


def _wrap_int(v: int, bits: int) -> int:
    v &= (1 << bits) - 1
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise UnrollTunerError("integer division by zero during interpretation")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def buffer_shapes(p: Program) -> dict[str, tuple[int, ...]]:
    """Allocation extents per buffer, covering every constant access offset."""
    shapes: dict[str, list[int]] = {}
    accesses = [n.access for n in walk_expr(p.body) if isinstance(n, Access)]
    accesses.append(p.output)
    for acc in accesses:
        dims = shapes.setdefault(acc.buffer, [0] * len(acc.index_iterators))
        for d, dim in enumerate(acc.index_iterators):
            lo = sum(p.iterator(n).lower for n in dim.iterators) + dim.offset
            hi = sum(p.iterator(n).upper - 1 for n in dim.iterators) + dim.offset
            if lo < 0:
                raise UnrollTunerError(
                    f"negative subscript reachable on {acc.buffer} dim {d}")
            dims[d] = max(dims[d], hi + 1)
    return {name: tuple(dims) for name, dims in shapes.items()}


def row_major_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return tuple(strides)


def allocate_buffers(p: Program) -> dict[str, list]:
    """Inputs deterministically filled, output zeroed; flat row-major lists."""
    is_float = p.dtype.is_float
    buffers: dict[str, list] = {}
    for name, shape in buffer_shapes(p).items():
        size = math.prod(shape)
        if name == p.output.buffer:
            buffers[name] = [0.0 if is_float else 0] * size
            continue
        salt = buffer_salt(name)
        strides = row_major_strides(shape)
        flat = [0] * size
        idx = [0] * len(shape)
        for pos in range(size):
            rem = pos
            for d, s in enumerate(strides):
                idx[d], rem = divmod(rem, s)
            v = fill_value(salt, tuple(idx))
            flat[pos] = float(v) if is_float else v
        buffers[name] = flat
    return buffers


@dataclass
class InterpResult:
    output: list
    body_executions: int
    store_trace: list | None = None


def interpret(target: Program | ScheduledProgram, trace_stores: bool = False) -> InterpResult:
    """Run the nest; returns the output buffer and the body-execution count."""
    sp = target if isinstance(target, ScheduledProgram) else new_schedule(target)
    p = sp.base
    buffers = allocate_buffers(p)
    shapes = buffer_shapes(p)
    strides = {name: row_major_strides(shape) for name, shape in shapes.items()}
    is_float = p.dtype.is_float
    int_bits = None if is_float else _INT_BITS[p.dtype]

    loop_names = [it.name for it in sp.loops]
    extents = [it.extent for it in sp.loops]
    depth = len(loop_names)
    env: dict[str, int] = {}
    counter = [0]
    trace: list | None = [] if trace_stores else None

    def flat_index(access) -> int:
        st = strides[access.buffer]
        pos = 0
        for d, dim in enumerate(access.index_iterators):
            idx = dim.offset
            for it_name in dim.iterators:
                idx += sp.index_exprs[it_name].evaluate(env)
            pos += idx * st[d]
        return pos

    def eval_expr(node) -> float | int:
        if isinstance(node, Constant):
            return node.value
        if isinstance(node, Access):
            return buffers[node.access.buffer][flat_index(node.access)]
        a = eval_expr(node.left)
        b = eval_expr(node.right)
        if node.kind is BinOpKind.Add:
            v = a + b
        elif node.kind is BinOpKind.Sub:
            v = a - b
        elif node.kind is BinOpKind.Mul:
            v = a * b
        elif is_float:
            if b == 0.0:
                raise UnrollTunerError("float division by zero during interpretation")
            v = a / b
        else:
            return _wrap_int(_trunc_div(a, b), int_bits)
        return v if is_float else _wrap_int(v, int_bits)

    def body() -> None:
        for g in sp.guards:
            if not g.holds(env):
                return
        counter[0] += 1
        value = eval_expr(p.body)
        pos = flat_index(p.output)
        buffers[p.output.buffer][pos] = value
        if trace is not None:
            trace.append((pos, value))

    def run(level: int) -> None:
        if level == depth - 1 and sp.unroll > 0:
            name = loop_names[level]
            u = sp.unroll
            for block in range(sp.main_trips):
                for off in range(u):            # replicated body
                    env[name] = block * u + off
                    body()
            for rest in range(sp.main_trips * u, extents[level]):
                env[name] = rest                # epilogue
                body()
            return
        if level == depth:
            body()
            return
        name = loop_names[level]
        for v in range(extents[level]):
            env[name] = v
            run(level + 1)

    run(0)
    return InterpResult(
        output=buffers[p.output.buffer],
        body_executions=counter[0],
        store_trace=trace,
    )


def outputs_equal(a: list, b: list, dtype: DataType, tol: float = 1e-12) -> bool:
    """Exact for integer dtypes, within `tol` for floats."""
    if len(a) != len(b):
        return False
    if dtype.is_float:
        return all(math.isclose(x, y, rel_tol=0.0, abs_tol=tol) for x, y in zip(a, b))
    return a == b


def output_checksum(output: list, dtype: DataType) -> int:
    """FNV-1a 64-bit over the little-endian storage bytes of each element."""
    fmt = _PACK_FMT[dtype]
    h = 0xCBF29CE484222325
    for v in output:
        for byte in struct.pack(fmt, v):
            h ^= byte
            h = (h * 0x100000001B3) & ((1 << 64) - 1)
    return h
