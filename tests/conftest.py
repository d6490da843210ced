from __future__ import annotations

import numpy as np
import pytest

from unroll_tuner.dataset import Corpus
from unroll_tuner.ir import (
    Access,
    BinOp,
    BinOpKind,
    BufferAccess,
    BufferDecl,
    DataType,
    Iterator,
    Program,
    Subscript,
)

F64 = DataType.Float64


def subs(*dims) -> tuple[Subscript, ...]:
    """Subscript tuple from 'i0' / ('i1', 1) / ('y1', 'ky') style shorthands."""
    out = []
    for dim in dims:
        if isinstance(dim, str):
            out.append(Subscript.of(dim))
        else:
            names = tuple(d for d in dim if isinstance(d, str))
            offsets = [d for d in dim if isinstance(d, int)]
            out.append(Subscript(names, sum(offsets)))
    return tuple(out)


def load(buffer: str, *dims) -> Access:
    return Access(BufferAccess(buffer, subs(*dims)))


def make_program(name, iterators, body, out_dims, inputs, dtype=F64) -> Program:
    """Compact program builder: iterators as (name, extent) pairs."""
    its = tuple(Iterator(n, 0, e) for n, e in iterators)
    return Program(
        name=name,
        iterators=its,
        body=body,
        output=BufferAccess("out", subs(*out_dims)),
        inputs=tuple(BufferDecl(n, r) for n, r in inputs),
        dtype=dtype,
    )


@pytest.fixture
def matmul4() -> Program:
    """4x4 matrix product in the accumulator idiom."""
    body = BinOp(
        BinOpKind.Add,
        load("out", "i0", "i1"),
        BinOp(BinOpKind.Mul, load("M1", "i0", "i2"), load("M2", "i2", "i1")),
    )
    return make_program(
        "matmul4",
        [("i0", 4), ("i1", 4), ("i2", 4)],
        body,
        ("i0", "i1"),
        [("M1", 2), ("M2", 2)],
    )


@pytest.fixture
def vecadd() -> Program:
    """1-d elementwise a + b, extent 100."""
    body = BinOp(BinOpKind.Add, load("a", "i0"), load("b", "i0"))
    return make_program("vecadd", [("i0", 100)], body, ("i0",), [("a", 1), ("b", 1)])


def chain_body(n_loads: int, buffer: str = "a"):
    """Left-leaning Add chain over n_loads loads of a 1-d buffer."""
    expr = load(buffer, "i0")
    for _ in range(n_loads - 1):
        expr = BinOp(BinOpKind.Add, expr, load(buffer, "i0"))
    return expr


def corpus_of(samples) -> Corpus:
    """The in-memory Corpus of `samples`, each with `features` (anything with
    `to_list`, a FeatureVector or a test's own point) and `label`, in order."""
    return Corpus(x=np.array([s.features.to_list() for s in samples]),
                  y=np.array([s.label for s in samples]))
