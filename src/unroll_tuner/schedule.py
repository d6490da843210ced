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

    def evaluate(self, env: dict[str, int]) -> int:
        return self.const + sum(coef * env[name] for name, coef in self.terms)

    def substitute(self, splits: dict[str, tuple[str, str, int]]) -> "AffineExpr":
        """Replace each variable v of `splits` with factor*outer + inner,
        where splits[v] = (outer, inner, factor); no outer or inner name is
        among the terms' variables.  Returns `self` when no term changes."""
        for name, _ in self.terms:
            if name in splits:
                break
        else:
            return self
        terms = []
        for name, coef in self.terms:
            if name in splits:
                outer, inner, factor = splits[name]
                terms += ((outer, coef * factor), (inner, coef))
            else:
                terms.append((name, coef))
        terms.sort()
        return AffineExpr(tuple(terms), self.const)


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
        return Interchange in map(type, self.applied)


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
        # an iterator that starts at 0 is its own loop
        loops = tuple(it if it.lower == 0 else Iterator(it.name, 0, it.extent)
                      for it in p.iterators)
        exprs = {it.name: AffineExpr(((it.name, 1),), it.lower) for it in p.iterators}
        sp = ScheduledProgram(base=p, loops=loops, index_exprs=exprs)
        p.__dict__["_empty_schedule"] = weakref.ref(sp)
    return sp


def _check_level(level: int, depth: int) -> None:
    if not 0 <= level < depth:
        raise UnrollTunerError(f"no loop level {level} in a depth-{depth} nest")


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
        return ScheduledProgram(       # positional, in field order
            self.base, tuple(self.applied), tuple(self.loops), self.index_exprs,
            tuple(self.guards), self.unroll, self.parallel_level, self.tile_factors)

    def apply(self, t: Transform) -> None:
        if self.unroll != 0 and not isinstance(t, (Unroll, Parallelize)):
            raise UnrollTunerError("nest transforms cannot follow unroll")
        if isinstance(t, Split):
            self.tile((t.level,), (t.factor,))
        elif isinstance(t, Interchange):
            if t.level_a == t.level_b:
                raise UnrollTunerError("interchange needs two distinct levels")
            for lvl in (t.level_a, t.level_b):
                _check_level(lvl, len(self.loops))
            loops = self.loops
            loops[t.level_a], loops[t.level_b] = loops[t.level_b], loops[t.level_a]
        elif isinstance(t, Tile2):
            self.tile((t.level_a, t.level_b), (t.fa, t.fb))
        elif isinstance(t, Tile3):
            self.tile((t.level_a, t.level_b, t.level_c), (t.fa, t.fb, t.fc))
        elif isinstance(t, Parallelize):
            _check_level(t.level, len(self.loops))
            if self.parallel_level is not None:
                raise UnrollTunerError("at most one Parallelize per schedule")
            self.parallel_level = t.level
        elif isinstance(t, Unroll):
            self.unroll_by(t.factor)
            return
        else:
            raise UnrollTunerError(f"unknown transform {t!r}")
        self.applied.append(t)

    def tile(self, levels: tuple[int, ...], factors: tuple[int, ...]) -> None:
        """Strip-mine the adjacent `levels`, the j-th from the top by
        `factors[j]`, into outer (block) and inner loops, and put all the
        outer loops first: [o0, o1, ..., i0, i1, ...].  A one-level tile is
        a split.

        One pass gives the names, errors and result of one split per level
        in turn, each of which shifts the loops below it by one: a split
        loop is an original loop of the nest, so no split renames another's
        loops, and each takes the names free at its turn.
        """
        k = len(levels)
        base = min(levels)
        if sorted(levels) != list(range(base, base + k)):
            raise UnrollTunerError(f"tile levels must be adjacent, got {levels}")
        loops = self.loops
        depth = len(loops)
        taken = {it.name for it in loops}
        splits: dict[str, tuple[str, str, int]] = {}
        outer_loops, inner_loops, new_guards = [], [], []
        tile_factors = dict(self.tile_factors)
        for j, factor in enumerate(factors):
            _check_level(base + 2 * j, depth + j)
            _check_tile_factor(factor)
            var, n = loops[base + j].name, loops[base + j].extent
            o_name, i_name = var + "_o", var + "_i"
            while o_name in taken:
                o_name += "_"
            taken.add(o_name)
            while i_name in taken:
                i_name += "_"
            taken.add(i_name)
            taken.remove(var)
            splits[var] = (o_name, i_name, factor)
            outer_loops.append(Iterator(o_name, 0, -(-n // factor)))
            inner_loops.append(Iterator(i_name, 0, factor))
            if n % factor != 0:
                new_guards.append(Guard(AffineExpr(((i_name, 1), (o_name, factor))), n))
            tile_factors[o_name] = tile_factors[i_name] = factor
        self.index_exprs = {orig: e.substitute(splits) for orig, e in self.index_exprs.items()}
        self.guards = [g if (expr := g.expr.substitute(splits)) is g.expr else Guard(expr, g.bound)
                       for g in self.guards] + new_guards
        loops[base: base + k] = outer_loops + inner_loops
        self.tile_factors = tile_factors

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
    in place on one `_Nest`, frozen once at the end; no transforms give
    `new_schedule(p)` itself."""
    if not transforms:
        return new_schedule(p)
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
