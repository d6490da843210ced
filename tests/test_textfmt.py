from __future__ import annotations

import pytest

from unroll_tuner import textfmt
from unroll_tuner.errors import ParseError
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules
from unroll_tuner.ir import BinOpKind, DataType, validate_program
from unroll_tuner.schedule import Parallelize, Tile2, Unroll
from unroll_tuner.textfmt import format_expr, parse_program_text, program_to_text

MATMUL_TEXT = """\
program matmul
iter i0 0 16
iter i1 0 16
iter i2 0 16
input M1 2 float64
input M2 2 float64
body mul[i0, i1] + M1[i0, i2] * M2[i2, i1]
output mul[i0, i1]
tile2 0 1 4 4
parallelize 0
unroll 4
"""


def test_parse_matmul_roundtrip():
    program, transforms = parse_program_text(MATMUL_TEXT)
    assert program.name == "matmul"
    assert [it.name for it in program.iterators] == ["i0", "i1", "i2"]
    assert program.dtype is DataType.Float64
    assert validate_program(program).ok
    assert transforms == [Tile2(0, 1, 4, 4), Parallelize(0), Unroll(4)]
    assert program_to_text(program, transforms) == MATMUL_TEXT


def test_parse_precedence():
    text = """\
program prec
iter i 0 8
input a 1 float64
body a[i] + a[i] * a[i] - a[i] / 2.0
output o[i]
"""
    program, _ = parse_program_text(text)
    # + and - associate left; * and / bind tighter
    assert program.body.kind is BinOpKind.Sub
    assert program.body.left.kind is BinOpKind.Add
    assert program.body.left.right.kind is BinOpKind.Mul
    assert program.body.right.kind is BinOpKind.Div


def test_parse_parentheses_and_negative_constants():
    text = """\
program parens
iter i 0 8
input a 1 float64
body (a[i] + -1.5) * a[i+1]
output o[i]
"""
    program, _ = parse_program_text(text)
    assert program.body.kind is BinOpKind.Mul
    assert program.body.left.right.value == -1.5
    assert program.body.right.access.index_iterators[0].offset == 1


def test_parse_multi_iterator_subscript():
    text = """\
program conv1d
iter y 0 8
iter k 0 3
input a 1 float64
body a[y+k+1]
output o[y, k]
"""
    program, _ = parse_program_text(text)
    dim = program.body.access.index_iterators[0]
    assert dim.iterators == ("y", "k")
    assert dim.offset == 1
    assert validate_program(program).ok


def test_unknown_directive_rejected():
    with pytest.raises(ParseError, match="unknown directive"):
        parse_program_text("program x\niter i 0 4\nvectorize 4\nbody a[i]\noutput o[i]\n")


def test_missing_sections_rejected():
    with pytest.raises(ParseError):
        parse_program_text("program x\n")
    with pytest.raises(ParseError):
        parse_program_text("iter i 0 4\nbody a[i]\noutput o[i]\n")


def test_mixed_input_dtypes_rejected():
    text = """\
program mix
iter i 0 4
input a 1 float64
input b 1 int32
body a[i] + b[i]
output o[i]
"""
    with pytest.raises(ParseError, match="one dtype"):
        parse_program_text(text)


def test_int_program_constants():
    text = """\
program ints
iter i 0 4
input a 1 int32
body a[i] * 3
output o[i]
"""
    program, _ = parse_program_text(text)
    assert program.dtype is DataType.Int32
    assert program.body.right.value == 3
    with pytest.raises(ParseError, match="non-integer"):
        parse_program_text(text.replace("* 3", "* 3.5"))


def test_generated_programs_roundtrip():
    cfg = GenConfig(seed=11, depth_range=(1, 4), extent_choices=(4, 8, 16))
    for index in range(30):
        p = gen_program(cfg, index)
        for sp in gen_schedules(cfg, p):
            text = program_to_text(p, sp.applied)
            p2, transforms2 = parse_program_text(text)
            assert p2 == p
            assert tuple(transforms2) == sp.applied
            assert program_to_text(p2, transforms2) == text


def test_format_expr_parenthesizes_mixed_precedence(matmul4):
    text = format_expr(matmul4.body)
    assert text == "out[i0, i1] + M1[i0, i2] * M2[i2, i1]"


def test_split_and_tile3_directives():
    from unroll_tuner.schedule import Split, Tile3

    text = """\
program deep
iter i0 0 16
iter i1 0 16
iter i2 0 16
input a 3 float64
body a[i0, i1, i2] * 2.0
output o[i0, i1, i2]
split 2 4
tile3 0 1 2 2 2 2
"""
    _, transforms = parse_program_text(text)
    assert transforms == [Split(2, 4), Tile3(0, 1, 2, 2, 2, 2)]


def test_sibling_files_share_one_program():
    sibling = MATMUL_TEXT.replace("unroll 4\n", "split 2 4\n")
    a, _ = parse_program_text(MATMUL_TEXT)
    b, transforms = parse_program_text(sibling)
    assert b is a
    textfmt._parse_program_lines.cache_clear()
    fresh, fresh_transforms = parse_program_text(sibling)
    assert fresh is not a and fresh == a
    assert transforms == fresh_transforms


@pytest.mark.parametrize("text, message", [
    # a bad program line after schedule lines keeps its own line number
    ("unroll 4\nsplit 0 2\nprogram x\niter i 0 four\nbody a[i]\noutput o[i]\n", "line 4: "),
    # the first bad line in the file is the one reported
    ("program x\niter i 0 four\nunroll x\nbody a[i]\noutput o[i]\n", "line 2: "),
    ("program x\nunroll x\niter i 0 four\nbody a[i]\noutput o[i]\n", "line 2: "),
    ("program x\niter i 0 four\nvectorize 4\nbody a[i]\noutput o[i]\n", "line 2: "),
])
def test_parse_error_line_numbers(text, message):
    textfmt._parse_program_lines.cache_clear()
    with pytest.raises(ParseError) as exc:
        parse_program_text(text)
    assert str(exc.value).startswith(message)
