from __future__ import annotations

import re

import pytest

from unroll_tuner import textfmt
from unroll_tuner.errors import UnrollTunerError
from unroll_tuner.generator import GenConfig, gen_program, gen_schedules
from unroll_tuner.ir import BinOpKind, DataType, validate_program, walk_expr
from unroll_tuner.schedule import Interchange, Parallelize, Split, Tile2, Tile3, Unroll
from unroll_tuner.textfmt import (
    format_expr,
    format_transform,
    parse_program_text,
    program_to_text,
)

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
    with pytest.raises(UnrollTunerError, match="^unknown directive 'vectorize'$"):
        parse_program_text("program x\niter i 0 4\nvectorize 4\nbody a[i]\noutput o[i]\n")


def test_missing_sections_rejected():
    with pytest.raises(UnrollTunerError, match="^program needs at least one 'iter' line$"):
        parse_program_text("program x\n")
    with pytest.raises(UnrollTunerError, match="^missing 'program' line$"):
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
    with pytest.raises(UnrollTunerError, match="^all input declarations must share one dtype$"):
        parse_program_text(text)
    with pytest.raises(UnrollTunerError, match="^all input declarations must share one dtype$"):
        parse_program_text(text.replace("a 1 float64", "a 1 int32")
                           .replace("b 1 int32", "b 1 float32"))


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
    with pytest.raises(UnrollTunerError, match="^non-integer constant '3.5' in int32 program$"):
        parse_program_text(text.replace("* 3", "* 3.5"))
    with pytest.raises(UnrollTunerError, match="^non-integer constant '1e400' in int32 program$"):
        parse_program_text(text.replace("* 3", "* 1e400"))


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
    # a line that may appear once names its first appearance
    ("program x\niter i 0 4\nbody a[i]\nprogram y\noutput o[i]\n",
     "line 4: a second 'program' line; the first is line 1"),
    ("program x\niter i 0 4\nbody a[i]\noutput o[i]\nbody a[i] + 1.0\n",
     "line 5: a second 'body' line; the first is line 3"),
    ("program x\niter i 0 4\nbody a[i]\noutput o[i]\nunroll 2\noutput p[i]\n",
     "line 6: a second 'output' line; the first is line 4"),
])
def test_parse_error_line_numbers(text, message):
    textfmt._parse_program_lines.cache_clear()
    with pytest.raises(UnrollTunerError, match=f"^{re.escape(message)}"):
        parse_program_text(text)


OPS_TEXT = """\
program ops
iter i 0 8
input a 1 float64
body a[i] + a[i] * a[i] - a[i] / 2.0
output o[i]
"""


def test_operator_symbols_roundtrip():
    program, _ = parse_program_text(OPS_TEXT)
    kinds = {node.kind for node in walk_expr(program.body) if hasattr(node, "kind")}
    assert kinds == set(BinOpKind)
    assert program_to_text(program) == OPS_TEXT


@pytest.mark.parametrize("transform, text", [
    (Split(2, 4), "split 2 4"),
    (Interchange(0, 2), "interchange 0 2"),
    (Tile2(0, 1, 4, 8), "tile2 0 1 4 8"),
    (Tile3(0, 1, 2, 2, 4, 8), "tile3 0 1 2 2 4 8"),
    (Parallelize(1), "parallelize 1"),
    (Unroll(16), "unroll 16"),
])
def test_transform_directive_text(transform, text):
    assert format_transform(transform) == text
    _, transforms = parse_program_text(OPS_TEXT + text + "\n")
    assert transforms == [transform]


@pytest.mark.parametrize("line, message", [
    ("split 2", "line 6: split takes 2 integers, got 1"),
    ("unroll", "line 6: unroll takes 1 integer, got 0"),
    ("tile3 0 1 2 2 2 2 2", "line 6: tile3 takes 6 integers, got 7"),
])
def test_directive_argument_count(line, message):
    with pytest.raises(UnrollTunerError, match=f"^{re.escape(message)}$"):
        parse_program_text(OPS_TEXT + line + "\n")


def test_format_transform_rejects_non_transforms():
    with pytest.raises(ValueError):
        format_transform(object())


@pytest.mark.parametrize("body, message", [
    ("a[i] $ 2.0", "bad expression syntax near ' $ 2.0'"),
    ("(a[i] + 1.0", "unexpected end of expression"),
    ("a[i] +", "unexpected end of expression"),
    ("a[i] * (", "unexpected end of expression"),
    ("a[i] a[i]", "trailing tokens in expression"),
    ("-a[i]", "unary minus only allowed on numeric literals"),
    ("a + 1.0", "bare identifier 'a'; accesses need subscripts"),
    ("a[i] * )", "unexpected token ')' in expression"),
    ("(a[i] + 1.0]", "expected ')', got ']'"),
    ("a[1]", "subscript must start with an iterator, got '1'"),
    ("a[i-i]", "iterators may only be added in subscripts"),
    ("a[i+1.5]", "subscript offsets must be integer literals"),
    ("a[i+1e3]", "subscript offsets must be integer literals"),
    ("a[i)", "expected ',' or ']' in subscript, got ')'"),
])
def test_expression_parse_errors(body, message):
    with pytest.raises(UnrollTunerError, match=f"^{re.escape(message)}"):
        parse_program_text(OPS_TEXT.replace("a[i] + a[i] * a[i] - a[i] / 2.0", body))


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400 + ".0"])
def test_float_program_rejects_non_finite_constant(literal):
    with pytest.raises(UnrollTunerError,
                       match=f"^non-finite constant '{literal}' in float64 program$"):
        parse_program_text(OPS_TEXT.replace("a[i] + a[i] * a[i] - a[i] / 2.0",
                                            f"a[i] * {literal}"))


def test_bad_literal_reported_before_later_syntax_error():
    text = OPS_TEXT.replace("float64", "int32")
    with pytest.raises(UnrollTunerError, match="^non-integer constant '3.5' in int32 program$"):
        parse_program_text(text.replace("a[i] + a[i] * a[i] - a[i] / 2.0", "a[i] * 3.5 + )"))


def test_output_must_be_an_access():
    with pytest.raises(UnrollTunerError, match="^output line must be a single buffer subscript$"):
        parse_program_text(OPS_TEXT.replace("output o[i]", "output 1.0"))


LITERAL_TEXT = """\
program lits
iter i 0 4
input a 1 {dtype}
body a[i] + {literal}
output o[i]
"""


@pytest.mark.parametrize("dtype, literal", [
    ("int32", "-2147483648"),
    ("int32", "2147483647"),
    ("int64", "-9223372036854775808"),
    ("int64", "9223372036854775807"),
    ("int64", "9007199254740993"),       # not a double: 2**53 + 1
])
def test_integer_literal_round_trips_exactly(dtype, literal):
    program, _ = parse_program_text(LITERAL_TEXT.format(dtype=dtype, literal=literal))
    assert program.body.right.value == int(literal)
    assert f"body a[i] + {literal}\n" in program_to_text(program)


def test_float32_literal_up_to_largest_finite_value():
    text = LITERAL_TEXT.format(dtype="float32", literal="3.4028234663852886e38")
    program, _ = parse_program_text(text)
    assert program.body.right.value == 3.4028234663852886e38


@pytest.mark.parametrize("dtype, literal", [
    ("int32", "2147483648"),
    ("int32", "2147483649"),
    ("int32", "-2147483649"),
    ("int32", "3e9"),
    ("int64", str(2**63)),
    ("int64", str(-2**63 - 1)),
    ("float32", "3.5e38"),
    ("float32", "-3.5e38"),
])
def test_literal_outside_dtype_range_rejected(dtype, literal):
    what = "non-finite" if dtype.startswith("float") else "out-of-range"
    with pytest.raises(UnrollTunerError,
                       match=f"^{what} constant '{literal}' in {dtype} program$"):
        parse_program_text(LITERAL_TEXT.format(dtype=dtype, literal=literal))


def test_input_lines_carry_the_program_dtype():
    text = """\
program ints
iter i 0 4
input a 1 int32
input b 1 int32
body a[i] + b[i]
output o[i]
"""
    program, _ = parse_program_text(text)
    inputs = [line for line in program_to_text(program).splitlines()
              if line.startswith("input ")]
    assert inputs == ["input a 1 int32", "input b 1 int32"]
    with pytest.raises(UnrollTunerError, match="^line 4: 'int16' is not a valid DataType$"):
        parse_program_text(text.replace("b 1 int32", "b 1 int16"))
