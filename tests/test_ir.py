from __future__ import annotations

import dataclasses
import math

from conftest import load, make_program
from unroll_tuner.interp import interpret
from unroll_tuner.ir import (
    BinOp,
    BinOpKind,
    BufferAccess,
    Constant,
    Iterator,
    Program,
    op_histogram,
    validate_program,
)
from unroll_tuner.rng import SplitMix64


def test_matmul_program_validates(matmul4):
    report = validate_program(matmul4)
    assert report.ok, report.violations


def test_dangling_iterator_reported(matmul4):
    bad_body = BinOp(BinOpKind.Add, load("M1", "i0", "k"), Constant(1.0))
    p = make_program("bad", [("i0", 4), ("i1", 4)], bad_body, ("i0", "i1"), [("M1", 2)])
    report = validate_program(p)
    assert not report.ok
    assert any("dangling iterator" in v for v in report.violations)


def test_non_positive_extent_reported():
    p = make_program("empty", [("i0", 4)], load("a", "i0"), ("i0",), [("a", 1)])
    degenerate = Program(
        name=p.name,
        iterators=(Iterator("i0", 5, 5),),
        body=p.body,
        output=p.output,
        inputs=p.inputs,
        dtype=p.dtype,
    )
    report = validate_program(degenerate)
    assert any("non-positive extent" in v for v in report.violations)


def test_rank_mismatch_reported():
    p = make_program("rank", [("i0", 4), ("i1", 4)],
                     load("M1", "i0"), ("i0", "i1"), [("M1", 2)])
    report = validate_program(p)
    assert any("rank mismatch" in v for v in report.violations)


def test_accumulator_load_must_match_output_subscript():
    body = BinOp(BinOpKind.Add, load("out", "i1", "i0"), Constant(1.0))
    p = make_program("acc", [("i0", 4), ("i1", 4)], body, ("i0", "i1"), [])
    report = validate_program(p)
    assert any("accumulator" in v for v in report.violations)


def test_matmul_histogram(matmul4):
    hist = op_histogram(matmul4)
    assert hist.ops == {BinOpKind.Add: 1, BinOpKind.Sub: 0, BinOpKind.Mul: 1, BinOpKind.Div: 0}
    assert hist.loads == 3
    assert hist.total() == 6        # two ops, three loads and the store


def test_constant_store_histogram():
    p = make_program("konst", [("i0", 8)], Constant(2.0), ("i0",), [])
    hist = op_histogram(p)
    assert hist.total() == 1        # the store
    assert hist.loads == 0 and not any(hist.ops.values())


def test_smm_histogram():
    body = BinOp(
        BinOpKind.Add,
        BinOp(BinOpKind.Mul, Constant(2.0), load("M1", "i0", "i1")),
        BinOp(BinOpKind.Mul, Constant(3.0), load("M2", "i0", "i1")),
    )
    p = make_program("smm", [("i0", 4), ("i1", 4)], body, ("i0", "i1"),
                     [("M1", 2), ("M2", 2)])
    hist = op_histogram(p)
    assert hist.ops[BinOpKind.Add] == 1
    assert hist.ops[BinOpKind.Mul] == 2
    assert hist.loads == 2
    assert hist.total() == 6


def test_histogram_invariant_under_child_commutation(matmul4):
    swapped_body = BinOp(
        BinOpKind.Add,
        BinOp(BinOpKind.Mul, load("M2", "i2", "i1"), load("M1", "i0", "i2")),
        load("out", "i0", "i1"),
    )
    swapped = Program(
        name=matmul4.name, iterators=matmul4.iterators, body=swapped_body,
        output=matmul4.output, inputs=matmul4.inputs, dtype=matmul4.dtype,
    )
    assert op_histogram(matmul4) == op_histogram(swapped)


def test_trip_count_matches_interpreted_body_executions():
    rng = SplitMix64(99)
    for _ in range(20):
        depth = rng.randint(1, 3)
        extents = [(f"i{k}", rng.randint(1, 8)) for k in range(depth)]
        p = make_program("r", extents, Constant(1.0),
                         tuple(n for n, _ in extents), [])
        assert interpret(p).body_executions == math.prod(e for _, e in extents)


def test_empty_subscript_rejected():
    from unroll_tuner.ir import Access, Subscript
    bad = BufferAccess("a", (Subscript((), 0),))
    p = make_program("e", [("i0", 4)], Access(bad), ("i0",), [("a", 1)])
    report = validate_program(p)
    assert any("empty subscript" in v for v in report.violations)


def test_output_shadowing_input_rejected():
    p = make_program("shadow", [("i0", 4)], load("a", "i0"), ("i0",), [("a", 1)])
    shadowed = Program(
        name=p.name, iterators=p.iterators, body=p.body,
        output=BufferAccess("a", p.output.index_iterators),
        inputs=p.inputs, dtype=p.dtype,
    )
    report = validate_program(shadowed)
    assert any("shadows" in v for v in report.violations)


def test_op_histogram_memoized_per_program(matmul4):
    hist = op_histogram(matmul4)
    assert op_histogram(matmul4) is hist
    copy = dataclasses.replace(matmul4)
    assert copy == matmul4 and hash(copy) == hash(matmul4)
    assert op_histogram(copy) is not hist
    assert op_histogram(copy) == hist
