"""The five evaluation kernels and their 3-size benchmark suite.

Kernels: matrix product (accumulator idiom), scaled matrix sum, RGB-to-gray
conversion, a 3-tap horizontal blur, and a CNN convolution layer.  Sizes
follow the small=256 / medium=1024 / large=2048 grid; the convolution
instead varies its batch size over {64, 32, 8} with C=4 input channels,
H=W=size/8 and 16 3x3 filters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Access,
    BinOp,
    BinOpKind,
    BufferAccess,
    BufferDecl,
    Constant,
    DataType,
    Iterator,
    Program,
    subs,
)
from .schedule import Interchange, Parallelize, Tile2, Transform

SIZE_CLASSES = {"small": 256, "medium": 1024, "large": 2048}
CONV_BATCH = {"small": 64, "medium": 32, "large": 8}

F64 = DataType.Float64


def _iters(*pairs) -> tuple[Iterator, ...]:
    return tuple(Iterator(name, 0, extent) for name, extent in pairs)


def _load(buffer: str, *dims) -> Access:
    return Access(BufferAccess(buffer, subs(*dims)))


def mmxm(msize: int) -> Program:
    """Square matrix product: out[i0,i1] accumulates M1[i0,i2]*M2[i2,i1]."""
    out = BufferAccess("mul", subs("i0", "i1"))
    body = BinOp(
        BinOpKind.Add,
        _load("mul", "i0", "i1"),
        BinOp(BinOpKind.Mul, _load("M1", "i0", "i2"), _load("M2", "i2", "i1")),
    )
    return Program(
        name="mmxm",
        iterators=_iters(("i0", msize), ("i1", msize), ("i2", msize)),
        body=body,
        output=out,
        inputs=(BufferDecl("M1", 2), BufferDecl("M2", 2)),
        dtype=F64,
    )


def smm(msize: int, alpha: float = 2.0, beta: float = 3.0) -> Program:
    """Scaled matrix sum alpha*M1 + beta*M2."""
    body = BinOp(
        BinOpKind.Add,
        BinOp(BinOpKind.Mul, Constant(alpha), _load("M1", "i0", "i1")),
        BinOp(BinOpKind.Mul, Constant(beta), _load("M2", "i0", "i1")),
    )
    return Program(
        name="smm",
        iterators=_iters(("i0", msize), ("i1", msize)),
        body=body,
        output=BufferAccess("add", subs("i0", "i1")),
        inputs=(BufferDecl("M1", 2), BufferDecl("M2", 2)),
        dtype=F64,
    )


def rgb_gray(isize: int) -> Program:
    """Weighted sum of the three color planes (standard luma weights)."""
    body = BinOp(
        BinOpKind.Add,
        BinOp(
            BinOpKind.Add,
            BinOp(BinOpKind.Mul, Constant(0.299), _load("r_input", "x", "y")),
            BinOp(BinOpKind.Mul, Constant(0.587), _load("g_input", "x", "y")),
        ),
        BinOp(BinOpKind.Mul, Constant(0.114), _load("b_input", "x", "y")),
    )
    return Program(
        name="rgb_gray",
        iterators=_iters(("x", isize), ("y", isize)),
        body=body,
        output=BufferAccess("griser", subs("x", "y")),
        inputs=(
            BufferDecl("r_input", 2),
            BufferDecl("g_input", 2),
            BufferDecl("b_input", 2),
        ),
        dtype=F64,
    )


def blur(isize: int) -> Program:
    """Horizontal 3-tap average over a 3-d image volume."""
    body = BinOp(
        BinOpKind.Div,
        BinOp(
            BinOpKind.Add,
            BinOp(
                BinOpKind.Add,
                _load("b_input", "x", "y", "c"),
                _load("b_input", ("x", 1), "y", "c"),
            ),
            _load("b_input", ("x", 2), "y", "c"),
        ),
        Constant(3.0),
    )
    return Program(
        name="blur",
        iterators=_iters(("x", isize), ("y", isize), ("c", isize)),
        body=body,
        output=BufferAccess("blur_x", subs("x", "y", "c")),
        inputs=(BufferDecl("b_input", 3),),
        dtype=F64,
    )


def conv_layer(batch: int, cin: int = 4, height: int = 32, width: int = 32,
               cout: int = 16, kh: int = 3, kw: int = 3) -> Program:
    """Direct convolution: out[n,z,y1,x1] += filter[z,kz,ky,kx]*in[n,kz,y1+ky,x1+kx]."""
    out = BufferAccess("conv", subs("n", "z", "y1", "x1"))
    body = BinOp(
        BinOpKind.Add,
        _load("conv", "n", "z", "y1", "x1"),
        BinOp(
            BinOpKind.Mul,
            _load("filter", "z", "kz", "ky", "kx"),
            _load("c_input", "n", "kz", ("y1", "ky"), ("x1", "kx")),
        ),
    )
    return Program(
        name="conv_layer",
        iterators=_iters(("n", batch), ("z", cout), ("y1", height), ("x1", width),
                         ("kz", cin), ("ky", kh), ("kx", kw)),
        body=body,
        output=out,
        inputs=(BufferDecl("c_input", 4), BufferDecl("filter", 4)),
        dtype=F64,
    )


@dataclass(frozen=True)
class BenchmarkCase:
    name: str
    size_class: str            # small | medium | large
    program: Program
    transforms: tuple[Transform, ...]


# Tile2 factors of (MMxM, SMM, RGB_gray) per size class; 0 leaves a kernel untiled.
_TILE2_FACTORS = {"small": (16, 0, 0), "medium": (0, 16, 32), "large": (32, 32, 64)}


def _tile2(factor: int) -> tuple[Transform, ...]:
    return (Tile2(0, 1, factor, factor),) if factor else ()


def benchmark_suite(sizes: dict[str, int] | None = None) -> list[BenchmarkCase]:
    """All five kernels at the three size classes (15 instances)."""
    sizes = sizes or SIZE_CLASSES
    cases: list[BenchmarkCase] = []
    for size_class, size in sizes.items():
        mmxm_tile, smm_tile, rgb_tile = _TILE2_FACTORS[size_class]
        # untiled SMM runs with no schedule at all
        smm_schedule = (*_tile2(smm_tile), Interchange(1, 2), Parallelize(0)) if smm_tile else ()
        cases += [
            BenchmarkCase("MMxM", size_class, mmxm(size), (*_tile2(mmxm_tile), Parallelize(0))),
            BenchmarkCase("SMM", size_class, smm(size), smm_schedule),
            BenchmarkCase("RGB_gray", size_class, rgb_gray(size),
                          (*_tile2(rgb_tile), Parallelize(0))),
            BenchmarkCase("Blur", size_class, blur(size), (Parallelize(0),)),
            BenchmarkCase(
                "Conv_layer", size_class,
                conv_layer(CONV_BATCH[size_class], height=size // 8, width=size // 8),
                (Parallelize(0),),
            ),
        ]
    return cases
