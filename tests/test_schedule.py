from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from conftest import load, make_program
from unroll_tuner.errors import UnrollTunerError
from unroll_tuner.interp import interpret, outputs_equal
from unroll_tuner.ir import BinOp, BinOpKind, Constant
from unroll_tuner.rng import SplitMix64
from unroll_tuner.schedule import (
    Interchange,
    Parallelize,
    Split,
    Tile2,
    Tile3,
    Unroll,
    apply_transform,
    apply_unroll,
    new_schedule,
    schedule_program,
    validate_schedule,
)


def test_split_extent_100_factor_4(vecadd):
    sp = apply_transform(new_schedule(vecadd), Split(0, 4))
    assert [(it.name, it.extent) for it in sp.loops] == [("i0_o", 25), ("i0_i", 4)]
    # index rewritten as outer*factor + inner
    expr = sp.index_exprs["i0"]
    assert dict(expr.terms) == {"i0_o": 4, "i0_i": 1}
    assert expr.const == 0
    assert sp.guards == ()   # 4 divides 100


def test_split_non_divisible_emits_guard(vecadd):
    sp = apply_transform(new_schedule(vecadd), Split(0, 8))
    assert [it.extent for it in sp.loops] == [13, 8]   # ceil(100/8), 8
    assert len(sp.guards) == 1
    assert sp.guards[0].bound == 100
    assert interpret(sp).body_executions == 100


def test_split_errors(vecadd):
    sp = new_schedule(vecadd)
    with pytest.raises(UnrollTunerError, match="^no loop level 3 in a depth-1 nest$"):
        apply_transform(sp, Split(3, 4))
    with pytest.raises(UnrollTunerError, match="^factor 6 is not a power of two$"):
        apply_transform(sp, Split(0, 6))
    with pytest.raises(UnrollTunerError, match=r"^factor 256 outside \[2, "):
        apply_transform(sp, Split(0, 256))


def test_interchange_is_involution(matmul4):
    sp = new_schedule(matmul4)
    once = apply_transform(sp, Interchange(0, 2))
    twice = apply_transform(once, Interchange(0, 2))
    assert [it.name for it in twice.loops] == [it.name for it in sp.loops]


def test_tile2_visits_same_points():
    body = BinOp(BinOpKind.Add, load("a", "i0", "i1"), Constant(1.0))
    p = make_program("t", [("i0", 8), ("i1", 8)], body, ("i0", "i1"), [("a", 2)])
    base = interpret(p, trace_stores=True)
    tiled = interpret(schedule_program(p, [Tile2(0, 1, 4, 4)]), trace_stores=True)
    assert sorted(base.store_trace) == sorted(tiled.store_trace)
    assert base.store_trace != tiled.store_trace   # block traversal reorders
    assert tiled.output == base.output


def test_tile2_loop_structure(matmul4):
    sp = schedule_program(matmul4, [Tile2(0, 1, 2, 2)])
    assert [it.name for it in sp.loops] == ["i0_o", "i1_o", "i0_i", "i1_i", "i2"]
    assert [it.extent for it in sp.loops] == [2, 2, 2, 2, 4]
    assert sp.tile_factors == {"i0_o": 2, "i0_i": 2, "i1_o": 2, "i1_i": 2}


def test_tile3_loop_structure(matmul4):
    sp = schedule_program(matmul4, [Tile3(0, 1, 2, 2, 2, 2)])
    assert [it.name for it in sp.loops] == \
        ["i0_o", "i1_o", "i2_o", "i0_i", "i1_i", "i2_i"]


def test_tile_levels_must_be_adjacent(matmul4):
    with pytest.raises(UnrollTunerError, match="adjacent"):
        schedule_program(matmul4, [Tile2(0, 2, 4, 4)])


def test_unroll_100_by_2(vecadd):
    sp = apply_unroll(new_schedule(vecadd), 2)
    assert sp.main_trips == 50
    assert sp.remainder_extent == 0
    assert sp.unroll == 2


def test_unroll_zero_is_identity(vecadd):
    sp = new_schedule(vecadd)
    assert apply_unroll(sp, 0) is sp


def test_unroll_100_by_8_has_remainder(vecadd):
    sp = apply_unroll(new_schedule(vecadd), 8)
    assert sp.main_trips == 12
    assert sp.remainder_extent == 4
    base = interpret(new_schedule(vecadd), trace_stores=True)
    unrolled = interpret(sp, trace_stores=True)
    assert unrolled.store_trace == base.store_trace


def test_unroll_invalid_factor(vecadd):
    with pytest.raises(UnrollTunerError, match=r"^unroll factor 3 not in \(0, 2, 4"):
        apply_unroll(new_schedule(vecadd), 3)


def test_unroll_clamps_to_innermost_extent():
    p = make_program("small", [("i0", 4), ("i1", 5)], load("a", "i1"),
                     ("i0", "i1"), [("a", 1)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sp = apply_unroll(new_schedule(p), 16)
    assert sp.unroll == 4
    assert sp.main_trips * sp.unroll + sp.remainder_extent == 5
    assert any("clamped" in str(w.message) for w in caught)


def test_unroll_arithmetic_identity(vecadd):
    for n in range(1, 64):
        p = make_program("n", [("i0", n)], load("a", "i0"), ("i0",), [("a", 1)])
        for u in (2, 4, 8, 16, 32, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sp = apply_unroll(new_schedule(p), u)
            eff = max(sp.unroll, 1)
            assert sp.main_trips * eff + sp.remainder_extent == n


def test_at_most_one_unroll(vecadd):
    sp = apply_unroll(new_schedule(vecadd), 2)
    with pytest.raises(UnrollTunerError, match="one Unroll"):
        apply_unroll(sp, 4)


def test_transforms_rejected_after_unroll(vecadd):
    sp = apply_unroll(new_schedule(vecadd), 2)
    with pytest.raises(UnrollTunerError, match="unroll"):
        apply_transform(sp, Split(0, 4))


def test_validate_schedule_ok(matmul4):
    sp = schedule_program(matmul4, [Tile2(0, 1, 2, 2), Parallelize(0), Unroll(2)])
    report = validate_schedule(sp)
    assert report.ok, report.violations


def test_validate_transforms_bad_unroll_factor(matmul4):
    with pytest.raises(UnrollTunerError, match=r"^unroll factor 3 not in \(0, 2, 4"):
        schedule_program(matmul4, [Unroll(3)])


def test_validate_transforms_two_unrolls(matmul4):
    with pytest.raises(UnrollTunerError, match="one Unroll"):
        schedule_program(matmul4, [Unroll(2), Unroll(4)])


def test_validate_transforms_bad_tile_factor(matmul4):
    with pytest.raises(UnrollTunerError, match="^factor 3 is not a power of two$"):
        schedule_program(matmul4, [Tile2(0, 1, 3, 4)])


def test_validate_schedule_reports_log_that_does_not_replay(matmul4):
    sp = schedule_program(matmul4, [Split(0, 2)])
    illegal = validate_schedule(replace(sp, applied=(Split(0, 3),)))
    assert any("power of two" in v for v in illegal.violations)
    stale = validate_schedule(replace(sp, applied=()))
    assert stale.violations == ["loop nest inconsistent with the transform log"]


def test_transform_application_deterministic(matmul4):
    a = schedule_program(matmul4, [Tile2(0, 1, 2, 2), Interchange(0, 3)])
    b = schedule_program(matmul4, [Tile2(0, 1, 2, 2), Interchange(0, 3)])
    assert a == b


def test_semantic_preservation_random_schedules():
    """Interpreting a legally scheduled nest matches the base nest exactly."""
    from unroll_tuner.generator import GenConfig, gen_program, gen_schedules

    cfg = GenConfig(seed=5, depth_range=(1, 3), extent_choices=(2, 4, 8),
                    max_inputs=2, schedules_per_program=4)
    rng = SplitMix64(17)
    for index in range(25):
        p = gen_program(cfg, index)
        base = interpret(p)
        for sp in gen_schedules(cfg, p)[1:]:
            u = rng.choice((0, 2, 4, 8))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sp = apply_unroll(sp, u)
            scheduled = interpret(sp)
            tol = 1e-12 if p.dtype.is_float else 0.0
            assert outputs_equal(scheduled.output, base.output, p.dtype, tol)


def _replay_cases():
    """(program, transforms) of every schedule `gen_schedules` draws for 40
    programs at two seeds, and of the 15 benchmark cases."""
    from unroll_tuner.benchmarks import benchmark_suite
    from unroll_tuner.generator import GenConfig, gen_program, gen_schedules

    cases = []
    for seed in (5, 23):
        cfg = GenConfig(seed=seed)
        for index in range(40):
            cases += [(sp.base, sp.applied)
                      for sp in gen_schedules(cfg, gen_program(cfg, index))]
    cases += [(case.program, case.transforms) for case in benchmark_suite()]
    return cases


def test_schedule_program_equals_folding_apply_transform():
    """`schedule_program` replays on one mutable nest; folding the frozen
    single steps gives an equal schedule, and no step changes its input,
    whose dicts later schedules share."""
    cases = _replay_cases()
    assert len(cases) == 2 * 40 * 10 + 15
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # Unroll(8) clamps on short loops
        for p, transforms in cases:
            # a split and an unroll after the drawn schedule exercise every step
            for ts in (tuple(transforms), (*transforms, Split(0, 4), Unroll(8))):
                states = [new_schedule(p)]
                snapshots = [replace(states[0], index_exprs=dict(states[0].index_exprs),
                                     tile_factors=dict(states[0].tile_factors))]
                for t in ts:
                    states.append(apply_transform(states[-1], t))
                    snapshots.append(replace(states[-1],
                                             index_exprs=dict(states[-1].index_exprs),
                                             tile_factors=dict(states[-1].tile_factors)))
                assert schedule_program(p, ts) == states[-1]
                assert states == snapshots


def test_replay_leaves_the_cached_base_nest_unchanged():
    """A program's empty schedule is built once, and no replay changes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")        # Unroll(8) clamps on short loops
        for p, transforms in _replay_cases():
            base = new_schedule(p)
            fresh = new_schedule(replace(p))   # an equal program, built apart
            assert fresh is not base and fresh == base
            for ts in (tuple(transforms), (*transforms, Split(0, 4), Unroll(8))):
                schedule_program(p, ts)
                apply_unroll(base, 8)
            assert new_schedule(p) is base and base == fresh
