"""Loop transformations: split, interchange, tile, unroll, parallelize.

A `ScheduledProgram` tracks the current loop nest (post-transform iterators,
outer to inner) together with an affine map from each *original* iterator to
the current loop variables.  Splitting a loop of extent N by s produces an
outer loop of extent ceil(N/s) and an inner loop of extent s, rewriting the
original index as outer*s + inner; when s does not divide N the padded points
are masked by a guard (epilogue semantics) instead of rejecting the factor.

All operations are pure: they return a new ScheduledProgram.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

from .errors import (
    FactorNotPowerOfTwo,
    FactorOutOfRange,
    InvalidFactor,
    UnknownLevel,
    UnrollTunerError,
)
from .ir import Iterator, Program, ValidationReport

UNROLL_FACTORS = (0, 2, 4, 8, 16, 32, 64)
TILE_FACTOR_MIN = 2
TILE_FACTOR_MAX = 128


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# --- transforms --------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    level: int
    factor: int


@dataclass(frozen=True)
class Interchange:
    level_a: int
    level_b: int


@dataclass(frozen=True)
class Tile2:
    level_a: int
    level_b: int
    fa: int
    fb: int


@dataclass(frozen=True)
class Tile3:
    level_a: int
    level_b: int
    level_c: int
    fa: int
    fb: int
    fc: int


@dataclass(frozen=True)
class Unroll:
    factor: int


@dataclass(frozen=True)
class Parallelize:
    level: int


Transform = Split | Interchange | Tile2 | Tile3 | Unroll | Parallelize


# --- affine index bookkeeping -------------------------------------------------

@dataclass(frozen=True)
class AffineExpr:
    """const + sum(coef * loop_var) over current loop variables."""

    terms: tuple[tuple[str, int], ...]
    const: int = 0

    @classmethod
    def var(cls, name: str, const: int = 0) -> "AffineExpr":
        return cls(terms=((name, 1),), const=const)

    def coefficients(self) -> dict[str, int]:
        return dict(self.terms)

    def evaluate(self, env: dict[str, int]) -> int:
        return self.const + sum(coef * env[name] for name, coef in self.terms)

    def substitute(self, var: str, outer: str, inner: str, factor: int) -> "AffineExpr":
        """Replace `var` with factor*outer + inner."""
        coefs = self.coefficients()
        if var not in coefs:
            return self
        k = coefs.pop(var)
        coefs[outer] = coefs.get(outer, 0) + k * factor
        coefs[inner] = coefs.get(inner, 0) + k
        return AffineExpr(terms=tuple(sorted(coefs.items())), const=self.const)

    def variables(self) -> set[str]:
        return {name for name, _ in self.terms}


@dataclass(frozen=True)
class Guard:
    """Constraint `expr < bound` masking padded split iterations."""

    expr: AffineExpr
    bound: int

    def holds(self, env: dict[str, int]) -> bool:
        return self.expr.evaluate(env) < self.bound


@dataclass(frozen=True)
class ScheduledProgram:
    base: Program
    applied: tuple[Transform, ...] = ()
    loops: tuple[Iterator, ...] = ()                 # current nest, outer -> inner
    index_exprs: dict[str, AffineExpr] = field(default_factory=dict)
    guards: tuple[Guard, ...] = ()
    unroll: int = 0                                  # 0 = not applied
    parallel_level: int | None = None
    tile_factors: dict[str, int] = field(default_factory=dict)

    @property
    def depth(self) -> int:
        return len(self.loops)

    @property
    def innermost_extent(self) -> int:
        return self.loops[-1].extent

    @property
    def main_trips(self) -> int:
        """Innermost main-loop trip count (full unrolled blocks)."""
        if self.unroll == 0:
            return self.innermost_extent
        return self.innermost_extent // self.unroll

    @property
    def remainder_extent(self) -> int:
        """Innermost epilogue trip count (iterations after the unrolled blocks)."""
        if self.unroll == 0:
            return 0
        return self.innermost_extent % self.unroll

    @property
    def interchange_applied(self) -> bool:
        return any(isinstance(t, Interchange) for t in self.applied)


def new_schedule(p: Program) -> ScheduledProgram:
    """Empty schedule: current nest equals the base nest."""
    loops = tuple(Iterator(it.name, 0, it.extent) for it in p.iterators)
    exprs = {it.name: AffineExpr.var(it.name, const=it.lower) for it in p.iterators}
    return ScheduledProgram(base=p, loops=loops, index_exprs=exprs)


def _check_tile_factor(f: int) -> None:
    if f < TILE_FACTOR_MIN or f > TILE_FACTOR_MAX:
        raise FactorOutOfRange(f"factor {f} outside [{TILE_FACTOR_MIN}, {TILE_FACTOR_MAX}]")
    if not is_power_of_two(f):
        raise FactorNotPowerOfTwo(f"factor {f} is not a power of two")


def _fresh_names(sp: ScheduledProgram, target: str) -> tuple[str, str]:
    taken = {it.name for it in sp.loops}
    o = f"{target}_o"
    i = f"{target}_i"
    while o in taken:
        o += "_"
    taken.add(o)
    while i in taken:
        i += "_"
    return o, i


def _split(sp: ScheduledProgram, level: int, factor: int) -> ScheduledProgram:
    if not 0 <= level < sp.depth:
        raise UnknownLevel(f"no loop level {level} in a depth-{sp.depth} nest")
    _check_tile_factor(factor)
    target = sp.loops[level]
    o_name, i_name = _fresh_names(sp, target.name)
    n = target.extent
    outer = Iterator(o_name, 0, -(-n // factor))
    inner = Iterator(i_name, 0, factor)

    exprs = {
        orig: e.substitute(target.name, o_name, i_name, factor)
        for orig, e in sp.index_exprs.items()
    }
    guards = tuple(
        Guard(g.expr.substitute(target.name, o_name, i_name, factor), g.bound)
        for g in sp.guards
    )
    if n % factor != 0:
        padded = AffineExpr(terms=((i_name, 1), (o_name, factor)))
        guards = guards + (Guard(padded, n),)

    loops = list(sp.loops)
    loops[level: level + 1] = [outer, inner]
    tile_factors = {**sp.tile_factors, o_name: factor, i_name: factor}
    return replace(sp, loops=tuple(loops), index_exprs=exprs, guards=guards,
                   tile_factors=tile_factors)


def _interchange(sp: ScheduledProgram, a: int, b: int) -> ScheduledProgram:
    for lvl in (a, b):
        if not 0 <= lvl < sp.depth:
            raise UnknownLevel(f"no loop level {lvl} in a depth-{sp.depth} nest")
    loops = list(sp.loops)
    loops[a], loops[b] = loops[b], loops[a]
    return replace(sp, loops=tuple(loops))


def _tile(sp: ScheduledProgram, levels: tuple[int, ...], factors: tuple[int, ...]) -> ScheduledProgram:
    k = len(levels)
    if sorted(levels) != list(range(min(levels), min(levels) + k)):
        raise UnrollTunerError(f"tile levels must be adjacent, got {levels}")
    base = min(levels)
    # Strip-mine each level (each split shifts the ones below it by one), then
    # permute the 2k produced loops so all outer (block) loops come first.
    for j, f in enumerate(factors):
        sp = _split(sp, base + 2 * j, f)
    produced = list(sp.loops[base: base + 2 * k])      # [o0, i0, o1, i1, ...]
    blocked = produced[0::2] + produced[1::2]          # [o0, o1, ..., i0, i1, ...]
    loops = list(sp.loops)
    loops[base: base + 2 * k] = blocked
    return replace(sp, loops=tuple(loops))


def apply_transform(sp: ScheduledProgram, t: Transform) -> ScheduledProgram:
    """Apply one transform, returning the new schedule state."""
    if sp.unroll != 0 and not isinstance(t, (Unroll, Parallelize)):
        raise UnrollTunerError("nest transforms cannot follow unroll")
    if isinstance(t, Split):
        out = _split(sp, t.level, t.factor)
    elif isinstance(t, Interchange):
        if t.level_a == t.level_b:
            raise UnknownLevel("interchange needs two distinct levels")
        out = _interchange(sp, t.level_a, t.level_b)
    elif isinstance(t, Tile2):
        out = _tile(sp, (t.level_a, t.level_b), (t.fa, t.fb))
    elif isinstance(t, Tile3):
        out = _tile(sp, (t.level_a, t.level_b, t.level_c), (t.fa, t.fb, t.fc))
    elif isinstance(t, Parallelize):
        if not 0 <= t.level < sp.depth:
            raise UnknownLevel(f"no loop level {t.level} in a depth-{sp.depth} nest")
        if sp.parallel_level is not None:
            raise UnrollTunerError("at most one Parallelize per schedule")
        out = replace(sp, parallel_level=t.level)
    elif isinstance(t, Unroll):
        return apply_unroll(sp, t.factor)
    else:
        raise UnrollTunerError(f"unknown transform {t!r}")
    return replace(out, applied=sp.applied + (t,))


def apply_unroll(sp: ScheduledProgram, u: int) -> ScheduledProgram:
    """Unroll the innermost loop by u; u=0 leaves the schedule unchanged.

    Factors above the innermost extent are clamped to the largest power of
    two that fits (a clamp below 2 drops the unroll entirely).
    """
    if u not in UNROLL_FACTORS:
        raise InvalidFactor(f"unroll factor {u} not in {UNROLL_FACTORS}")
    if u == 0:
        return sp
    if sp.unroll != 0:
        raise UnrollTunerError("at most one Unroll per schedule")
    n = sp.innermost_extent
    eff = u
    if eff > n:
        eff = 1 << (n.bit_length() - 1)
        if eff < 2:
            warnings.warn(f"unroll factor {u} dropped: innermost extent {n} too small")
            return replace(sp, applied=sp.applied + (Unroll(u),))
        warnings.warn(f"unroll factor {u} clamped to {eff} (innermost extent {n})")
    return replace(sp, applied=sp.applied + (Unroll(u),), unroll=eff)


def schedule_program(p: Program, transforms=()) -> ScheduledProgram:
    """Build a ScheduledProgram by folding `transforms` over the base nest."""
    sp = new_schedule(p)
    for t in transforms:
        sp = apply_transform(sp, t)
    return sp


def validate_schedule(sp: ScheduledProgram) -> ValidationReport:
    """Replay a schedule's transform log and check that it rebuilds `sp`.

    The report never raises: an illegal transform becomes its violation.
    """
    report = ValidationReport()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            replayed = schedule_program(sp.base, sp.applied)
    except UnrollTunerError as exc:
        report.add(str(exc))
        return report
    if replayed.loops != sp.loops or replayed.index_exprs != sp.index_exprs \
            or replayed.guards != sp.guards or replayed.unroll != sp.unroll \
            or replayed.parallel_level != sp.parallel_level:
        report.add("loop nest inconsistent with the transform log")
    return report
