"""Line-oriented text format for programs and their schedules.

    program <name>
    iter <name> <lower> <upper>        # outer -> inner order
    input <buffer> <rank> <dtype>
    body <expression>                  # accesses written buf[i0, i1+1]
    output <buffer>[i0, i1]
    tile2 <la> <lb> <fa> <fb>          # optional schedule directives
    tile3 <la> <lb> <lc> <fa> <fb> <fc>
    interchange <la> <lb>
    split <l> <f>
    parallelize <l>
    unroll <f>

The program's element type is the (single) dtype of its input declarations;
programs without inputs default to float64.  Unknown directives are rejected,
and so is a program that fails `validate_program`.
"""

from __future__ import annotations

import functools
import re

from .errors import ParseError
from .ir import (
    Access,
    AccessMode,
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
    validate_program,
)
from .schedule import (
    Interchange,
    Parallelize,
    Split,
    Tile2,
    Tile3,
    Transform,
    Unroll,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[+\-*/()\[\],]))"
)

_BINOPS = {"+": BinOpKind.Add, "-": BinOpKind.Sub, "*": BinOpKind.Mul, "/": BinOpKind.Div}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad expression syntax near {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("num", "ident", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
    return tokens


class _ExprParser:
    """Recursive-descent parser; buffers are resolved after the full file."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, expect: str | None = None):
        kind, val = self.peek()
        if kind is None:
            raise ParseError("unexpected end of expression")
        if expect is not None and val != expect:
            raise ParseError(f"expected {expect!r}, got {val!r}")
        self.pos += 1
        return kind, val

    def parse(self):
        node = self.expr()
        if self.peek()[0] is not None:
            raise ParseError(f"trailing tokens in expression: {self.tokens[self.pos:]}")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op = self.take()
            node = ("binop", _BINOPS[op], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op = self.take()
            node = ("binop", _BINOPS[op], node, self.factor())
        return node

    def factor(self):
        kind, val = self.peek()
        if val == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if val == "-":
            self.take()
            kind, val = self.take()
            if kind != "num":
                raise ParseError("unary minus only allowed on numeric literals")
            return ("const", "-" + val)
        if kind == "num":
            self.take()
            return ("const", val)
        if kind == "ident":
            self.take()
            if self.peek()[1] != "[":
                raise ParseError(f"bare identifier {val!r}; accesses need subscripts")
            subs = self.subscripts()
            return ("access", val, subs)
        raise ParseError(f"unexpected token {val!r} in expression")

    def subscripts(self):
        self.take("[")
        dims = []
        while True:
            kind, name = self.take()
            if kind != "ident":
                raise ParseError(f"subscript must start with an iterator, got {name!r}")
            names = [name]
            offset = 0
            while self.peek()[1] in ("+", "-"):
                _, sign = self.take()
                kind, tok = self.take()
                if kind == "ident":
                    if sign == "-":
                        raise ParseError("iterators may only be added in subscripts")
                    names.append(tok)
                elif kind == "num" and "." not in tok:
                    offset += int(tok) if sign == "+" else -int(tok)
                else:
                    raise ParseError("subscript offsets must be integer literals")
            dims.append(Subscript(tuple(names), offset))
            _, sep = self.take()
            if sep == "]":
                return tuple(dims)
            if sep != ",":
                raise ParseError(f"expected ',' or ']' in subscript, got {sep!r}")


def _literal_value(text: str, dtype: DataType):
    if dtype.is_float:
        return float(text)
    value = float(text)
    if value != int(value):
        raise ParseError(f"non-integer constant {text!r} in {dtype.value} program")
    return int(value)


def _build_expr(node, dtype: DataType, buffer_dtypes: dict[str, DataType]) -> Expr:
    tag = node[0]
    if tag == "const":
        return Constant(_literal_value(node[1], dtype), dtype)
    if tag == "access":
        _, buf, subs = node
        return Access(BufferAccess(
            buffer=buf,
            dtype=buffer_dtypes.get(buf, dtype),
            index_iterators=subs,
            mode=AccessMode.Load,
        ))
    _, kind, left, right = node
    return BinOp(kind, _build_expr(left, dtype, buffer_dtypes),
                 _build_expr(right, dtype, buffer_dtypes))


_PROGRAM_DIRECTIVES = frozenset(("program", "iter", "input", "body", "output"))


def _parse_transform(directive: str, rest: str) -> Transform:
    if directive == "split":
        level, factor = rest.split()
        return Split(int(level), int(factor))
    if directive == "interchange":
        a, b = rest.split()
        return Interchange(int(a), int(b))
    if directive == "tile2":
        la, lb, fa, fb = rest.split()
        return Tile2(int(la), int(lb), int(fa), int(fb))
    if directive == "tile3":
        la, lb, lc, fa, fb, fc = rest.split()
        return Tile3(int(la), int(lb), int(lc), int(fa), int(fb), int(fc))
    if directive == "parallelize":
        return Parallelize(int(rest))
    if directive == "unroll":
        return Unroll(int(rest))
    raise ParseError(f"unknown directive {directive!r}")


def _program_fields(lines):
    """Line-level parse of (line number, directive, rest) program lines."""
    name = None
    iterators: list[Iterator] = []
    inputs: list[BufferDecl] = []
    body_src = None
    output_src = None
    for line_no, directive, rest in lines:
        try:
            if directive == "program":
                name = rest
            elif directive == "iter":
                it_name, lo, hi = rest.split()
                iterators.append(Iterator(it_name, int(lo), int(hi)))
            elif directive == "input":
                buf, rank, dtype = rest.split()
                inputs.append(BufferDecl(buf, int(rank), DataType.from_name(dtype)))
            elif directive == "body":
                body_src = rest
            else:
                output_src = rest
        except ValueError as exc:
            raise ParseError(f"line {line_no}: {exc}") from exc
    return name, iterators, inputs, body_src, output_src


# Sibling files of one program repeat its lines and differ only in their
# schedule lines; `label` reads them in sorted order, so consecutive siblings
# hit the cache.  The bound is small on purpose: a corpus cycles through it.
@functools.lru_cache(maxsize=16)
def _parse_program_lines(lines: tuple[tuple[int, str, str], ...]) -> Program:
    name, iterators, inputs, body_src, output_src = _program_fields(lines)
    if name is None:
        raise ParseError("missing 'program' line")
    if not iterators:
        raise ParseError("program needs at least one 'iter' line")
    if body_src is None or output_src is None:
        raise ParseError("program needs 'body' and 'output' lines")

    dtypes = {decl.dtype for decl in inputs}
    if len(dtypes) > 1:
        raise ParseError("all input declarations must share one dtype")
    dtype = dtypes.pop() if dtypes else DataType.Float64

    out_node = _ExprParser(output_src).parse()
    if out_node[0] != "access":
        raise ParseError("output line must be a single buffer subscript")
    output = BufferAccess(out_node[1], dtype, out_node[2], AccessMode.Store)

    buffer_dtypes = {decl.name: decl.dtype for decl in inputs}
    buffer_dtypes[output.buffer] = dtype
    body = _build_expr(_ExprParser(body_src).parse(), dtype, buffer_dtypes)

    program = Program(
        name=name,
        iterators=tuple(iterators),
        body=body,
        output=output,
        inputs=tuple(inputs),
        dtype=dtype,
    )
    report = validate_program(program)
    if not report.ok:
        raise ParseError("; ".join(report.violations))
    return program


def parse_program_text(text: str) -> tuple[Program, list[Transform]]:
    """Parse one program file; returns the program and its schedule lines.

    Files whose program lines match (same text on the same line numbers)
    share one frozen `Program` while they stay in a small parse cache; the
    schedule lines are parsed per file.
    """
    program_lines = []
    transforms: list[Transform] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, _, rest = line.partition(" ")
        rest = rest.strip()
        if directive in _PROGRAM_DIRECTIVES:
            program_lines.append((line_no, directive, rest))
            continue
        try:
            transforms.append(_parse_transform(directive, rest))
        except (ParseError, ValueError) as exc:
            _program_fields(program_lines)     # an earlier bad program line is reported first
            if isinstance(exc, ValueError):
                raise ParseError(f"line {line_no}: {exc}") from exc
            raise
    return _parse_program_lines(tuple(program_lines)), transforms


def _format_const(c: Constant) -> str:
    return repr(c.value)


def _format_subscripts(access: BufferAccess) -> str:
    parts = []
    for dim in access.index_iterators:
        text = "+".join(dim.iterators)
        if dim.offset > 0:
            text += f"+{dim.offset}"
        elif dim.offset < 0:
            text += f"-{-dim.offset}"
        parts.append(text)
    return f"{access.buffer}[{', '.join(parts)}]"


_PRECEDENCE = {BinOpKind.Add: 1, BinOpKind.Sub: 1, BinOpKind.Mul: 2, BinOpKind.Div: 2}
_OP_TEXT = {BinOpKind.Add: "+", BinOpKind.Sub: "-", BinOpKind.Mul: "*", BinOpKind.Div: "/"}


def format_expr(expr: Expr) -> str:
    if isinstance(expr, Constant):
        return _format_const(expr)
    if isinstance(expr, Access):
        return _format_subscripts(expr.access)
    prec = _PRECEDENCE[expr.kind]
    left = format_expr(expr.left)
    right = format_expr(expr.right)
    if isinstance(expr.left, BinOp) and _PRECEDENCE[expr.left.kind] < prec:
        left = f"({left})"
    # parsing is left-associative, so a right-hand operand of equal precedence
    # must keep its parentheses for the tree to round-trip structurally
    if isinstance(expr.right, BinOp) and _PRECEDENCE[expr.right.kind] <= prec:
        right = f"({right})"
    return f"{left} {_OP_TEXT[expr.kind]} {right}"


def format_transform(t: Transform) -> str:
    if isinstance(t, Split):
        return f"split {t.level} {t.factor}"
    if isinstance(t, Interchange):
        return f"interchange {t.level_a} {t.level_b}"
    if isinstance(t, Tile2):
        return f"tile2 {t.level_a} {t.level_b} {t.fa} {t.fb}"
    if isinstance(t, Tile3):
        return f"tile3 {t.level_a} {t.level_b} {t.level_c} {t.fa} {t.fb} {t.fc}"
    if isinstance(t, Parallelize):
        return f"parallelize {t.level}"
    if isinstance(t, Unroll):
        return f"unroll {t.factor}"
    raise ValueError(f"unknown transform {t!r}")


def program_to_text(p: Program, transforms=()) -> str:
    lines = [f"program {p.name}"]
    for it in p.iterators:
        lines.append(f"iter {it.name} {it.lower} {it.upper}")
    for decl in p.inputs:
        lines.append(f"input {decl.name} {decl.rank} {decl.dtype.value}")
    lines.append(f"body {format_expr(p.body)}")
    lines.append(f"output {_format_subscripts(p.output)}")
    for t in transforms:
        lines.append(format_transform(t))
    return "\n".join(lines) + "\n"
