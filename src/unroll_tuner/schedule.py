"""Loop transformations: split, interchange, tile, unroll, parallelize.

A `ScheduledProgram` tracks the current loop nest (post-transform iterators,
outer to inner) together with an affine map from each *original* iterator to
the current loop variables.  Splitting a loop of extent N by s produces an
outer loop of extent ceil(N/s) and an inner loop of extent s, rewriting the
original index as outer*s + inner; when s does not divide N the padded points
are masked by a guard (epilogue semantics) instead of rejecting the factor.

The public operations are pure: they return a new ScheduledProgram.  Each
replays its transforms on one mutable `_Nest`, frozen once at the end.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field

from .errors import UnrollTunerError
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
        for name, _ in self.terms:
            if name == var:
                break
        else:
            return self
        coefs = self.coefficients()
        k = coefs.pop(var)
        coefs[outer] = coefs.get(outer, 0) + k * factor
        coefs[inner] = coefs.get(inner, 0) + k
        return AffineExpr(terms=tuple(sorted(coefs.items())), const=self.const)


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
    """Empty schedule: current nest equals the base nest.

    The schedule refers to `p`, so `p` keeps only a weak reference to it,
    in its `__dict__` (no field, so == and hash ignore it): the same
    schedule comes back while someone holds it (the parse cache does), and
    no reference cycle leaves a dropped program to the cyclic collector.  A
    replay copies its lists and rebinds, never writes, its dicts.
    """
    ref = p.__dict__.get("_empty_schedule")
    sp = ref() if ref is not None else None
    if sp is None:
        loops = tuple(Iterator(it.name, 0, it.extent) for it in p.iterators)
        exprs = {it.name: AffineExpr.var(it.name, const=it.lower) for it in p.iterators}
        sp = ScheduledProgram(base=p, loops=loops, index_exprs=exprs)
        p.__dict__["_empty_schedule"] = weakref.ref(sp)
    return sp


def _check_tile_factor(f: int) -> None:
    if f < TILE_FACTOR_MIN or f > TILE_FACTOR_MAX:
        raise UnrollTunerError(f"factor {f} outside [{TILE_FACTOR_MIN}, {TILE_FACTOR_MAX}]")
    if not is_power_of_two(f):
        raise UnrollTunerError(f"factor {f} is not a power of two")


class _Nest:
    """A schedule's state while transforms are applied to it, in place.

    Each step below is the one implementation of its transform.  `loops`,
    `guards` and `applied` are lists the nest owns; the two dicts are
    rebound, never written, because frozen schedules share them.
    """

    __slots__ = ("base", "applied", "loops", "index_exprs", "guards", "unroll",
                 "parallel_level", "tile_factors")

    def __init__(self, sp: ScheduledProgram):
        self.base = sp.base
        self.applied = list(sp.applied)
        self.loops = list(sp.loops)
        self.index_exprs = sp.index_exprs
        self.guards = list(sp.guards)
        self.unroll = sp.unroll
        self.parallel_level = sp.parallel_level
        self.tile_factors = sp.tile_factors

    def freeze(self) -> ScheduledProgram:
        return ScheduledProgram(
            base=self.base, applied=tuple(self.applied), loops=tuple(self.loops),
            index_exprs=self.index_exprs, guards=tuple(self.guards), unroll=self.unroll,
            parallel_level=self.parallel_level, tile_factors=self.tile_factors)

    def check_level(self, level: int) -> None:
        if not 0 <= level < len(self.loops):
            raise UnrollTunerError(f"no loop level {level} in a depth-{len(self.loops)} nest")

    def apply(self, t: Transform) -> None:
        if self.unroll != 0 and not isinstance(t, (Unroll, Parallelize)):
            raise UnrollTunerError("nest transforms cannot follow unroll")
        if isinstance(t, Split):
            self.split(t.level, t.factor)
        elif isinstance(t, Interchange):
            if t.level_a == t.level_b:
                raise UnrollTunerError("interchange needs two distinct levels")
            for lvl in (t.level_a, t.level_b):
                self.check_level(lvl)
            loops = self.loops
            loops[t.level_a], loops[t.level_b] = loops[t.level_b], loops[t.level_a]
        elif isinstance(t, Tile2):
            self.tile((t.level_a, t.level_b), (t.fa, t.fb))
        elif isinstance(t, Tile3):
            self.tile((t.level_a, t.level_b, t.level_c), (t.fa, t.fb, t.fc))
        elif isinstance(t, Parallelize):
            self.check_level(t.level)
            if self.parallel_level is not None:
                raise UnrollTunerError("at most one Parallelize per schedule")
            self.parallel_level = t.level
        elif isinstance(t, Unroll):
            self.unroll_by(t.factor)
            return
        else:
            raise UnrollTunerError(f"unknown transform {t!r}")
        self.applied.append(t)

    def split(self, level: int, factor: int) -> None:
        self.check_level(level)
        _check_tile_factor(factor)
        target = self.loops[level]
        taken = {it.name for it in self.loops}
        o_name, i_name = f"{target.name}_o", f"{target.name}_i"
        while o_name in taken:
            o_name += "_"
        taken.add(o_name)
        while i_name in taken:
            i_name += "_"
        n = target.extent
        self.index_exprs = {
            orig: e.substitute(target.name, o_name, i_name, factor)
            for orig, e in self.index_exprs.items()
        }
        self.guards = [Guard(g.expr.substitute(target.name, o_name, i_name, factor), g.bound)
                       for g in self.guards]
        if n % factor != 0:
            self.guards.append(Guard(AffineExpr(terms=((i_name, 1), (o_name, factor))), n))
        self.loops[level: level + 1] = [Iterator(o_name, 0, -(-n // factor)),
                                        Iterator(i_name, 0, factor)]
        self.tile_factors = {**self.tile_factors, o_name: factor, i_name: factor}

    def tile(self, levels: tuple[int, ...], factors: tuple[int, ...]) -> None:
        k = len(levels)
        if sorted(levels) != list(range(min(levels), min(levels) + k)):
            raise UnrollTunerError(f"tile levels must be adjacent, got {levels}")
        base = min(levels)
        # Strip-mine each level (each split shifts the ones below it by one), then
        # permute the 2k produced loops so all outer (block) loops come first.
        for j, f in enumerate(factors):
            self.split(base + 2 * j, f)
        produced = self.loops[base: base + 2 * k]          # [o0, i0, o1, i1, ...]
        self.loops[base: base + 2 * k] = produced[0::2] + produced[1::2]

    def unroll_by(self, u: int) -> None:
        """Unroll the innermost loop by u; u=0 leaves the nest unchanged.

        Factors above the innermost extent are clamped to the largest power
        of two that fits (a clamp below 2 drops the unroll entirely).
        """
        if u not in UNROLL_FACTORS:
            raise UnrollTunerError(f"unroll factor {u} not in {UNROLL_FACTORS}")
        if u == 0:
            return
        if self.unroll != 0:
            raise UnrollTunerError("at most one Unroll per schedule")
        n = self.loops[-1].extent
        eff = u
        if eff > n:
            eff = 1 << (n.bit_length() - 1)
            if eff < 2:
                warnings.warn(f"unroll factor {u} dropped: innermost extent {n} too small")
                eff = 0
            else:
                warnings.warn(f"unroll factor {u} clamped to {eff} (innermost extent {n})")
        self.applied.append(Unroll(u))
        self.unroll = eff


def apply_transform(sp: ScheduledProgram, t: Transform) -> ScheduledProgram:
    """Apply one transform, returning the new schedule state."""
    nest = _Nest(sp)
    nest.apply(t)
    return nest.freeze()


def apply_unroll(sp: ScheduledProgram, u: int) -> ScheduledProgram:
    """Unroll the innermost loop by u (see `_Nest.unroll_by`); u=0 returns
    `sp` itself."""
    nest = _Nest(sp)
    nest.unroll_by(u)
    return nest.freeze() if u else sp


def schedule_program(p: Program, transforms=()) -> ScheduledProgram:
    """Build a ScheduledProgram by folding `transforms` over the base nest,
    in place on one `_Nest`, frozen once at the end."""
    nest = _Nest(new_schedule(p))
    for t in transforms:
        nest.apply(t)
    return nest.freeze()


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
