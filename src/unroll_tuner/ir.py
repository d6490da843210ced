"""Affine loop-nest IR for the target program class.

A `Program` is one perfectly nested loop nest with constant bounds and a
single computation: one expression tree evaluated at the innermost level and
stored to one output buffer.  Accesses subscript buffers with
(iterator, constant offset) pairs, so all control and all subscripts are
affine with constant parameters.

The accumulator idiom (matmul-style reductions) is expressed by letting the
body load from the output buffer, provided the load uses exactly the output
subscript.  Everything else must load from declared input buffers.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field


class DataType(enum.Enum):
    Int32 = "int32"
    Int64 = "int64"
    Float32 = "float32"
    Float64 = "float64"

    @property
    def is_float(self) -> bool:
        return self in (DataType.Float32, DataType.Float64)

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        for dt in cls:
            if dt.value == name:
                return dt
        raise ValueError(f"unknown dtype {name!r}")


class BinOpKind(enum.Enum):
    Add = "add"
    Sub = "sub"
    Mul = "mul"
    Div = "div"


class AccessMode(enum.Enum):
    Load = "load"
    Store = "store"


@dataclass(frozen=True)
class Iterator:
    """One loop: half-open range [lower, upper); its level is its nest position."""

    name: str
    lower: int
    upper: int

    @property
    def extent(self) -> int:
        return self.upper - self.lower


@dataclass(frozen=True)
class Subscript:
    """One buffer dimension: a sum of iterators plus a constant offset.

    Almost always a single iterator (`A[i, j+1]`); convolution-style kernels
    sum two (`in[y1+ky]`).
    """

    iterators: tuple[str, ...]
    offset: int = 0

    @classmethod
    def of(cls, name: str, offset: int = 0) -> "Subscript":
        return cls((name,), offset)


def subs(*dims) -> tuple[Subscript, ...]:
    """Subscript tuple from 'i0' / ('i1', 1) / ('y1', 'ky') style shorthands."""
    out = []
    for dim in dims:
        if isinstance(dim, Subscript):
            out.append(dim)
        elif isinstance(dim, str):
            out.append(Subscript.of(dim))
        else:
            names = tuple(d for d in dim if isinstance(d, str))
            offsets = [d for d in dim if isinstance(d, int)]
            out.append(Subscript(names, sum(offsets)))
    return tuple(out)


@dataclass(frozen=True)
class BufferAccess:
    """Subscripted buffer reference, one Subscript per buffer dimension."""

    buffer: str
    dtype: DataType
    index_iterators: tuple[Subscript, ...]
    mode: AccessMode

    @property
    def iterator_names(self) -> tuple[str, ...]:
        return tuple(name for dim in self.index_iterators for name in dim.iterators)


@dataclass(frozen=True)
class Constant:
    value: float | int
    dtype: DataType


@dataclass(frozen=True)
class Access:
    access: BufferAccess


@dataclass(frozen=True)
class BinOp:
    kind: BinOpKind
    left: "Expr"
    right: "Expr"


Expr = Constant | Access | BinOp


@dataclass(frozen=True)
class BufferDecl:
    name: str
    rank: int
    dtype: DataType


@dataclass(frozen=True)
class Program:
    name: str
    iterators: tuple[Iterator, ...]          # outer -> inner
    body: Expr
    output: BufferAccess                     # the single Store
    inputs: tuple[BufferDecl, ...]
    dtype: DataType = DataType.Float64       # declared element type

    def iterator(self, name: str) -> Iterator:
        for it in self.iterators:
            if it.name == name:
                return it
        raise KeyError(name)

    @property
    def depth(self) -> int:
        return len(self.iterators)

    @functools.cached_property
    def _op_histogram(self) -> "OpHistogram":
        # stored in the instance __dict__: no field, so == and hash ignore it
        return _count_ops(self)


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)


def walk_expr(expr: Expr):
    """Yield every node of the tree, parents before children."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinOp):
            stack.append(node.right)
            stack.append(node.left)


def load_accesses(p: Program) -> list[BufferAccess]:
    """All Load accesses of the body, in tree order."""
    return [n.access for n in walk_expr(p.body) if isinstance(n, Access)]


def validate_program(p: Program) -> ValidationReport:
    """Structural checks; returns a report instead of raising."""
    report = ValidationReport()
    names = [it.name for it in p.iterators]
    if len(set(names)) != len(names):
        report.add("duplicate iterator names")
    for it in p.iterators:
        if it.extent < 1:
            report.add(f"non-positive extent: iterator {it.name} [{it.lower}, {it.upper})")

    ranks = {decl.name: decl.rank for decl in p.inputs}
    dtypes = {decl.name: decl.dtype for decl in p.inputs}
    if p.output.buffer in ranks:
        report.add(f"output buffer {p.output.buffer!r} shadows an input declaration")
    # The output buffer is addressable from the body only as an accumulator.
    ranks[p.output.buffer] = len(p.output.index_iterators)
    dtypes[p.output.buffer] = p.output.dtype

    def check_access(acc: BufferAccess, where: str) -> None:
        for dim in acc.index_iterators:
            if not dim.iterators:
                report.add(f"empty subscript in {where} access to {acc.buffer}")
            for it_name in dim.iterators:
                if it_name not in names:
                    report.add(
                        f"dangling iterator {it_name!r} in {where} access to {acc.buffer}")
        if acc.buffer in ranks and len(acc.index_iterators) != ranks[acc.buffer]:
            report.add(
                f"rank mismatch: {acc.buffer} declared rank {ranks[acc.buffer]}, "
                f"indexed with {len(acc.index_iterators)} subscripts"
            )

    check_access(p.output, "output")
    if p.output.mode is not AccessMode.Store:
        report.add("output access must be a Store")
    if p.output.dtype is not p.dtype:
        report.add(f"output dtype {p.output.dtype.value} != program dtype {p.dtype.value}")

    for node in walk_expr(p.body):
        if isinstance(node, Access):
            acc = node.access
            if acc.mode is not AccessMode.Load:
                report.add(f"body access to {acc.buffer} must be a Load")
            check_access(acc, "body")
            if acc.buffer == p.output.buffer:
                if acc.index_iterators != p.output.index_iterators:
                    report.add(
                        f"output-buffer load {acc.buffer} must use the output subscript "
                        "(accumulator idiom)"
                    )
            elif acc.buffer not in {decl.name for decl in p.inputs}:
                report.add(f"undeclared buffer {acc.buffer!r}")
            if acc.buffer in dtypes and acc.dtype is not dtypes[acc.buffer]:
                report.add(f"access dtype conflict on buffer {acc.buffer}")
            if acc.dtype is not p.dtype:
                report.add(f"dtype conflict: load of {acc.buffer} is {acc.dtype.value}")
        elif isinstance(node, Constant):
            if node.dtype is not p.dtype:
                report.add(f"dtype conflict: constant {node.value} is {node.dtype.value}")
        elif isinstance(node, BinOp):
            if node.kind is BinOpKind.Div and isinstance(node.right, Constant) \
                    and node.right.value == 0:
                report.add("division by constant zero")
    return report


@dataclass
class OpHistogram:
    """Static op counts per single innermost iteration.

    Rows are op kinds (Add/Sub/Mul/Div/Load/Store), columns are data types.
    `op_histogram` shares one instance per `Program`: treat it as read-only.
    """

    counts: dict[tuple[object, DataType], int]

    def count(self, kind, dtype: DataType | None = None) -> int:
        if dtype is not None:
            return self.counts.get((kind, dtype), 0)
        return sum(v for (k, _), v in self.counts.items() if k == kind)

    def total(self) -> int:
        return sum(self.counts.values())


def op_histogram(p: Program) -> OpHistogram:
    """The op counts of `p`, computed once per `Program` instance."""
    return p._op_histogram


def _count_ops(p: Program) -> OpHistogram:
    counts: dict[tuple[object, DataType], int] = {}

    def bump(kind, dtype: DataType) -> None:
        counts[(kind, dtype)] = counts.get((kind, dtype), 0) + 1

    for node in walk_expr(p.body):
        if isinstance(node, BinOp):
            bump(node.kind, p.dtype)
        elif isinstance(node, Access):
            bump(AccessMode.Load, node.access.dtype)
    bump(AccessMode.Store, p.output.dtype)
    return OpHistogram(counts)
