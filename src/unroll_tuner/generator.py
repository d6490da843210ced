"""Random generation of target-class programs and legal schedules.

Programs are perfectly nested single-computation nests with power-of-two
extents and load-heavy random expression bodies; schedules draw from
tile2/tile3/interchange/parallelize with power-of-two factors, mirroring the
corpus-generation protocol (10 random schedules per program, the first one
always empty; unrolling is explored later by the labeler, never here).

Everything is a pure function of (seed, index): program `index` is generated
from its own splitmix stream, and schedule sampling is keyed by the program
text, so distinct workers can generate disjoint index ranges concurrently.
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
    Expr,
    Iterator,
    Program,
    Subscript,
)
from .rng import SplitMix64, fnv1a64, mix64
from .schedule import (
    Interchange,
    Parallelize,
    ScheduledProgram,
    Tile2,
    Tile3,
    Transform,
    new_schedule,
    schedule_program,
)
from .textfmt import program_to_text

ALLOWED_TRANSFORM_NAMES = ("tile2", "tile3", "interchange", "parallelize")
_TILE_FACTOR_POOL = (2, 4, 8, 16, 32, 64, 128)
_LOAD_BIAS = 0.65   # chance that an expression leaf is a load, not a constant


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    depth_range: tuple[int, int] = (1, 4)
    extent_choices: tuple[int, ...] = (16, 32, 64, 128, 256)
    max_inputs: int = 4
    dtype_choices: tuple[DataType, ...] = (
        DataType.Int32, DataType.Int64, DataType.Float32, DataType.Float64,
    )
    schedules_per_program: int = 10
    allowed_transforms: tuple[str, ...] = ALLOWED_TRANSFORM_NAMES
    max_leaves: int = 16

    def __post_init__(self):
        lo, hi = self.depth_range
        if not 1 <= lo <= hi <= 4:
            raise ValueError(f"depth_range must lie within [1, 4], got {self.depth_range}")
        if not self.extent_choices:
            raise ValueError("extent_choices must be non-empty")
        for e in self.extent_choices:
            if e < 2 or e > 2048 or e & (e - 1):
                raise ValueError(f"extents must be powers of two in [2, 2048], got {e}")
        if self.max_inputs < 1:
            raise ValueError("max_inputs must be >= 1")
        if not self.dtype_choices:
            raise ValueError("dtype_choices must be non-empty")
        if self.schedules_per_program < 1:
            raise ValueError("schedules_per_program must be >= 1")
        for name in self.allowed_transforms:
            if name not in ALLOWED_TRANSFORM_NAMES:
                raise ValueError(f"unknown transform {name!r}")
        if self.max_leaves < 1:
            raise ValueError("max_leaves must be >= 1")


def _random_constant(rng: SplitMix64, dtype: DataType) -> Constant:
    value = rng.randint(-8, 8)
    return Constant(float(value) if dtype.is_float else value)


def _nonzero_constant(rng: SplitMix64, dtype: DataType) -> Constant:
    value = rng.choice((2, 3, 5, 7))
    return Constant(float(value) if dtype.is_float else value)


def _random_access(rng: SplitMix64, decls, iterators) -> Access:
    decl = rng.choice(decls)
    picked = rng.sample_indices(len(iterators), decl.rank)
    dims = []
    for level in picked:
        offset = rng.choice((1, 2)) if rng.random() < 0.15 else 0
        dims.append(Subscript.of(iterators[level].name, offset))
    return Access(BufferAccess(decl.name, tuple(dims)))


def _random_expr(rng: SplitMix64, n_leaves: int, decls, iterators,
                 dtype: DataType) -> Expr:
    if n_leaves <= 1:
        if decls and rng.random() < _LOAD_BIAS:
            return _random_access(rng, decls, iterators)
        return _random_constant(rng, dtype)
    roll = rng.random()
    if roll < 0.40:
        kind = BinOpKind.Add
    elif roll < 0.70:
        kind = BinOpKind.Mul
    elif roll < 0.90:
        kind = BinOpKind.Sub
    else:
        kind = BinOpKind.Div
    if kind is BinOpKind.Div:
        # divisors are nonzero constants only, so generated nests never trap
        left = _random_expr(rng, n_leaves - 1, decls, iterators, dtype)
        return BinOp(kind, left, _nonzero_constant(rng, dtype))
    n_left = rng.randint(1, n_leaves - 1)
    left = _random_expr(rng, n_left, decls, iterators, dtype)
    right = _random_expr(rng, n_leaves - n_left, decls, iterators, dtype)
    return BinOp(kind, left, right)


def gen_program(cfg: GenConfig, index: int) -> Program:
    """Deterministic random program for (cfg.seed, index)."""
    rng = SplitMix64.stream(cfg.seed, index)
    depth = rng.randint(*cfg.depth_range)
    iterators = tuple(
        Iterator(f"i{k}", 0, rng.choice(cfg.extent_choices)) for k in range(depth)
    )
    dtype = rng.choice(cfg.dtype_choices)
    n_inputs = rng.randint(1, cfg.max_inputs)
    decls = tuple(
        BufferDecl(f"in{k}", rng.randint(1, depth)) for k in range(n_inputs)
    )
    n_leaves = rng.randint(2, cfg.max_leaves)
    body = _random_expr(rng, n_leaves, decls, iterators, dtype)
    output = BufferAccess("out", tuple(Subscript.of(it.name) for it in iterators))
    return Program(
        name=f"gen_{index:05d}",
        iterators=iterators,
        body=body,
        output=output,
        inputs=decls,
        dtype=dtype,
    )


def _factor_for(rng: SplitMix64, extent: int) -> int | None:
    pool = [f for f in _TILE_FACTOR_POOL if f <= extent]
    return rng.choice(pool) if pool else None


def _random_schedule(rng: SplitMix64, p: Program, allowed: set[str]) -> list[Transform]:
    transforms: list[Transform] = []
    depth = len(p.iterators)
    extents = [it.extent for it in p.iterators]
    cur_depth = depth

    want_tile3 = "tile3" in allowed and depth >= 3 and depth + 3 <= 7 and rng.random() < 0.25
    want_tile2 = not want_tile3 and "tile2" in allowed and depth >= 2 \
        and depth + 2 <= 7 and rng.random() < 0.6
    if want_tile3:
        start = rng.randint(0, depth - 3)
        factors = [_factor_for(rng, extents[start + j]) for j in range(3)]
        if all(factors):
            transforms.append(Tile3(start, start + 1, start + 2, *factors))
            cur_depth += 3
    elif want_tile2:
        start = rng.randint(0, depth - 2)
        factors = [_factor_for(rng, extents[start + j]) for j in range(2)]
        if all(factors):
            transforms.append(Tile2(start, start + 1, *factors))
            cur_depth += 2

    if "interchange" in allowed and cur_depth >= 2 and rng.random() < 0.4:
        a = rng.randint(0, cur_depth - 2)
        b = rng.randint(a + 1, cur_depth - 1)
        transforms.append(Interchange(a, b))

    if "parallelize" in allowed and rng.random() < 0.7:
        transforms.append(Parallelize(0))
    return transforms


def gen_schedules(cfg: GenConfig, p: Program) -> list[ScheduledProgram]:
    """schedules_per_program legal schedules; candidate 0 is always empty."""
    key = fnv1a64(program_to_text(p).encode())
    rng = SplitMix64(mix64((cfg.seed & ((1 << 64) - 1)) ^ key))
    allowed = set(cfg.allowed_transforms)
    out = [new_schedule(p)]
    while len(out) < cfg.schedules_per_program:
        out.append(schedule_program(p, _random_schedule(rng, p, allowed)))
    return out


def generate(cfg: GenConfig, count: int):
    """Yield (program, schedules) for indices 0..count-1."""
    for index in range(count):
        p = gen_program(cfg, index)
        yield p, gen_schedules(cfg, p)
