"""Affine loop-nest IR for the target program class.

A `Program` is one perfectly nested loop nest with constant bounds and a
single computation: one expression tree evaluated at the innermost level and
stored to one output buffer.  Accesses subscript buffers with
(iterator, constant offset) pairs, so all control and all subscripts are
affine with constant parameters.

The accumulator idiom (matmul-style reductions) is expressed by letting the
body load from the output buffer, provided the load uses exactly the output
subscript.  Everything else must load from declared input buffers.

Each fact is stated once.  A program has one element type, `Program.dtype`,
which every buffer and constant shares.  An access's role is its position:
`Program.output` is the store, and every `Access` in the body is a load.
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


class BinOpKind(enum.Enum):
    """Binary operators; each value is its symbol in `.prog` text and in C."""

    Add = "+"
    Sub = "-"
    Mul = "*"
    Div = "/"


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


@dataclass(frozen=True)
class BufferAccess:
    """Subscripted buffer reference, one Subscript per buffer dimension."""

    buffer: str
    index_iterators: tuple[Subscript, ...]

    @property
    def iterator_names(self) -> tuple[str, ...]:
        return tuple(name for dim in self.index_iterators for name in dim.iterators)


@dataclass(frozen=True)
class Constant:
    value: float | int


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


@dataclass(frozen=True)
class Program:
    name: str
    iterators: tuple[Iterator, ...]          # outer -> inner
    body: Expr
    output: BufferAccess                     # the single store
    inputs: tuple[BufferDecl, ...]
    dtype: DataType                          # element type of all buffers and constants

    def iterator(self, name: str) -> Iterator:
        for it in self.iterators:
            if it.name == name:
                return it
        raise KeyError(name)

    @functools.cached_property
    def _op_histogram(self) -> "OpHistogram":
        # stored in the instance __dict__: no field, so == and hash ignore it
        return _count_ops(self)

    @functools.cached_property
    def _load_iterator_sets(self) -> tuple[tuple[frozenset[str], int], ...]:
        counts: dict[frozenset[str], int] = {}
        for acc in load_accesses(self):
            names = frozenset(acc.iterator_names)
            counts[names] = counts.get(names, 0) + 1
        return tuple(counts.items())


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
    """All accesses of the body (each a load), in tree order."""
    return [n.access for n in walk_expr(p.body) if isinstance(n, Access)]


def validate_program(p: Program) -> ValidationReport:
    """Structural checks; returns a report instead of raising."""
    report = ValidationReport()
    names = [it.name for it in p.iterators]
    known = set(names)
    if len(known) != len(names):
        report.add("duplicate iterator names")
    for it in p.iterators:
        if it.extent < 1:
            report.add(f"non-positive extent: iterator {it.name} [{it.lower}, {it.upper})")

    output = p.output
    ranks = {decl.name: decl.rank for decl in p.inputs}
    if output.buffer in ranks:
        report.add(f"output buffer {output.buffer!r} shadows an input declaration")
    # The output buffer is addressable from the body only as an accumulator.
    ranks[output.buffer] = len(output.index_iterators)

    def check_access(acc: BufferAccess, where: str) -> None:
        for dim in acc.index_iterators:
            if not dim.iterators:
                report.add(f"empty subscript in {where} access to {acc.buffer}")
            for it_name in dim.iterators:
                if it_name not in known:
                    report.add(
                        f"dangling iterator {it_name!r} in {where} access to {acc.buffer}")
        if acc.buffer in ranks and len(acc.index_iterators) != ranks[acc.buffer]:
            report.add(
                f"rank mismatch: {acc.buffer} declared rank {ranks[acc.buffer]}, "
                f"indexed with {len(acc.index_iterators)} subscripts"
            )

    check_access(output, "output")
    for node in walk_expr(p.body):
        if isinstance(node, Access):
            acc = node.access
            check_access(acc, "body")
            if acc.buffer == output.buffer:
                if acc.index_iterators != output.index_iterators:
                    report.add(
                        f"output-buffer load {acc.buffer} must use the output subscript "
                        "(accumulator idiom)"
                    )
            elif acc.buffer not in ranks:      # the inputs, past the output buffer
                report.add(f"undeclared buffer {acc.buffer!r}")
        elif isinstance(node, BinOp):
            if node.kind is BinOpKind.Div and isinstance(node.right, Constant) \
                    and node.right.value == 0:
                report.add("division by constant zero")
    return report


@dataclass(frozen=True)
class OpHistogram:
    """Static op counts per single innermost iteration: binary ops by kind
    (every kind present) and loads; each iteration also stores once.

    `op_histogram` shares one instance per `Program`: treat it as read-only.
    """

    ops: dict[BinOpKind, int]
    loads: int

    def total(self) -> int:
        return sum(self.ops.values()) + self.loads + 1


def op_histogram(p: Program) -> OpHistogram:
    """The op counts of `p`, computed once per `Program` instance."""
    return p._op_histogram


def load_iterator_sets(p: Program) -> tuple[tuple[frozenset[str], int], ...]:
    """(iterator names, number of loads subscripted by exactly those
    names) per distinct name set, in order of first appearance; computed
    once per `Program` instance."""
    return p._load_iterator_sets


_BINOP_KINDS = tuple(BinOpKind)


def _count_ops(p: Program) -> OpHistogram:
    kinds = []
    loads = 0
    for node in walk_expr(p.body):
        if isinstance(node, BinOp):
            kinds.append(node.kind)
        elif isinstance(node, Access):
            loads += 1
    # `list.count` matches members by identity; counting into a dict would
    # hash an enum member, in Python, twice per operator
    return OpHistogram({kind: kinds.count(kind) for kind in _BINOP_KINDS}, loads)
