"""The five evaluation kernels and their 3-size benchmark suite.

Kernels: matrix product (accumulator idiom), scaled matrix sum, RGB-to-gray
conversion, a 3-tap horizontal blur, and a CNN convolution layer.  Sizes
follow the small=256 / medium=1024 / large=2048 grid; the convolution
instead varies its batch size over {64, 32, 8} with C=4 input channels,
H=W=size/8 and 16 3x3 filters.  Each kernel is written in `.prog` notation
(see `textfmt`) and parsed, so it is validated like any program file.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Program
from .schedule import Interchange, Parallelize, Tile2, Transform
from .textfmt import parse_program_text

SIZE_CLASSES = {"small": 256, "medium": 1024, "large": 2048}
CONV_BATCH = {"small": 64, "medium": 32, "large": 8}


def mmxm(msize: int) -> Program:
    """Square matrix product: out[i0,i1] accumulates M1[i0,i2]*M2[i2,i1]."""
    return parse_program_text(f"""
        program mmxm
        iter i0 0 {msize}
        iter i1 0 {msize}
        iter i2 0 {msize}
        input M1 2 float64
        input M2 2 float64
        body mul[i0, i1] + M1[i0, i2] * M2[i2, i1]
        output mul[i0, i1]
    """)[0]


def smm(msize: int, alpha: float = 2.0, beta: float = 3.0) -> Program:
    """Scaled matrix sum alpha*M1 + beta*M2."""
    return parse_program_text(f"""
        program smm
        iter i0 0 {msize}
        iter i1 0 {msize}
        input M1 2 float64
        input M2 2 float64
        body {alpha!r} * M1[i0, i1] + {beta!r} * M2[i0, i1]
        output add[i0, i1]
    """)[0]


def rgb_gray(isize: int) -> Program:
    """Weighted sum of the three color planes (standard luma weights)."""
    return parse_program_text(f"""
        program rgb_gray
        iter x 0 {isize}
        iter y 0 {isize}
        input r_input 2 float64
        input g_input 2 float64
        input b_input 2 float64
        body 0.299 * r_input[x, y] + 0.587 * g_input[x, y] + 0.114 * b_input[x, y]
        output griser[x, y]
    """)[0]


def blur(isize: int) -> Program:
    """Horizontal 3-tap average over a 3-d image volume."""
    return parse_program_text(f"""
        program blur
        iter x 0 {isize}
        iter y 0 {isize}
        iter c 0 {isize}
        input b_input 3 float64
        body (b_input[x, y, c] + b_input[x+1, y, c] + b_input[x+2, y, c]) / 3.0
        output blur_x[x, y, c]
    """)[0]


def conv_layer(batch: int, cin: int = 4, height: int = 32, width: int = 32,
               cout: int = 16, kh: int = 3, kw: int = 3) -> Program:
    """Direct convolution: out[n,z,y1,x1] += filter[z,kz,ky,kx]*in[n,kz,y1+ky,x1+kx]."""
    return parse_program_text(f"""
        program conv_layer
        iter n 0 {batch}
        iter z 0 {cout}
        iter y1 0 {height}
        iter x1 0 {width}
        iter kz 0 {cin}
        iter ky 0 {kh}
        iter kx 0 {kw}
        input c_input 4 float64
        input filter 4 float64
        body conv[n, z, y1, x1] + filter[z, kz, ky, kx] * c_input[n, kz, y1+ky, x1+kx]
        output conv[n, z, y1, x1]
    """)[0]


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
