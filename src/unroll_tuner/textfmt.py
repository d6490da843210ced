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

A schedule directive is its transform's class name in lower case followed by
its fields in declaration order.  The program's element type is the (single)
dtype of its input declarations; programs without inputs default to float64.
A literal must be a value of that type.  Unknown directives are rejected,
and so is a program that fails `validate_program`.
"""

from __future__ import annotations

import functools
import re
import sys
from dataclasses import fields

from .errors import UnrollTunerError
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
    validate_program,
)
from .schedule import (
    Interchange,
    Parallelize,
    ScheduledProgram,
    Split,
    Tile2,
    Tile3,
    Transform,
    Unroll,
    new_schedule,
)

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[+\-*/()\[\],])"
    r"|(?P<bad>\S))"
)
_END = (None, None)         # the token after the last one
_BINOPS = {kind.value: kind for kind in BinOpKind}

# The values each element type holds; a literal outside them is rejected.
_LITERAL_RANGE = {
    DataType.Int32: (-2**31, 2**31 - 1),
    DataType.Int64: (-2**63, 2**63 - 1),
    DataType.Float32: (-3.4028234663852886e38, 3.4028234663852886e38),
    DataType.Float64: (-sys.float_info.max, sys.float_info.max),
}

_TRANSFORMS = {cls.__name__.lower(): cls
               for cls in (Split, Interchange, Tile2, Tile3, Parallelize, Unroll)}
_ARITY = {name: len(fields(cls)) for name, cls in _TRANSFORMS.items()}


def _tokenize(text: str) -> list[tuple[str | None, str | None]]:
    """The tokens of `text`, then `_END`."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup          # the one named group that matched
        if kind == "bad":
            raise UnrollTunerError(f"bad expression syntax near {text[m.start():]!r}")
        tokens.append((kind, m[kind]))
    tokens.append(_END)
    return tokens


class _ExprParser:
    """Recursive-descent parser from expression text to IR nodes; each
    literal must be a value of the program's element type `dtype`."""

    def __init__(self, text: str, dtype: DataType):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dtype = dtype

    def peek(self):
        return self.tokens[self.pos]

    def take(self, expect: str | None = None):
        kind, val = self.peek()
        if kind is None:
            raise UnrollTunerError("unexpected end of expression")
        if expect is not None and val != expect:
            raise UnrollTunerError(f"expected {expect!r}, got {val!r}")
        self.pos += 1
        return kind, val

    def parse(self) -> Expr:
        node = self.expr()
        if self.peek()[0] is not None:
            raise UnrollTunerError(f"trailing tokens in expression: {self.tokens[self.pos:-1]}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[1] in ("+", "-"):
            _, op = self.take()
            node = BinOp(_BINOPS[op], node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op = self.take()
            node = BinOp(_BINOPS[op], node, self.factor())
        return node

    def factor(self) -> Expr:
        kind, val = self.take()
        if val == "(":
            node = self.expr()
            self.take(")")
            return node
        if val == "-":
            kind, val = self.take()
            if kind != "num":
                raise UnrollTunerError("unary minus only allowed on numeric literals")
            return self.constant("-" + val)
        if kind == "num":
            return self.constant(val)
        if kind == "ident":
            if self.peek()[1] != "[":
                raise UnrollTunerError(f"bare identifier {val!r}; accesses need subscripts")
            return Access(BufferAccess(val, self.subscripts()))
        raise UnrollTunerError(f"unexpected token {val!r} in expression")

    def constant(self, text: str) -> Constant:
        if self.dtype.is_float:
            value = float(text)
        elif text.lstrip("-").isdigit():
            value = int(text)                      # exact, however many digits
        else:
            value = float(text)
            if not value.is_integer():             # also false for an overflowed inf
                raise UnrollTunerError(f"non-integer constant {text!r} in {self.dtype.value} program")
            value = int(value)
        lo, hi = _LITERAL_RANGE[self.dtype]
        if not lo <= value <= hi:
            what = "non-finite" if self.dtype.is_float else "out-of-range"
            raise UnrollTunerError(f"{what} constant {text!r} in {self.dtype.value} program")
        return Constant(value)

    def subscripts(self) -> tuple[Subscript, ...]:
        self.take("[")
        dims = []
        while True:
            kind, name = self.take()
            if kind != "ident":
                raise UnrollTunerError(f"subscript must start with an iterator, got {name!r}")
            names = [name]
            offset = 0
            while self.peek()[1] in ("+", "-"):
                _, sign = self.take()
                kind, tok = self.take()
                if kind == "ident":
                    if sign == "-":
                        raise UnrollTunerError("iterators may only be added in subscripts")
                    names.append(tok)
                elif tok.isdigit():
                    offset += int(tok) if sign == "+" else -int(tok)
                else:
                    raise UnrollTunerError("subscript offsets must be integer literals")
            dims.append(Subscript(tuple(names), offset))
            _, sep = self.take()
            if sep == "]":
                return tuple(dims)
            if sep != ",":
                raise UnrollTunerError(f"expected ',' or ']' in subscript, got {sep!r}")


_PROGRAM_DIRECTIVES = frozenset(("program", "iter", "input", "body", "output"))


def _parse_transform(directive: str, rest: str) -> Transform:
    cls = _TRANSFORMS.get(directive)
    if cls is None:
        raise UnrollTunerError(f"unknown directive {directive!r}")
    args = rest.split()
    arity = _ARITY[directive]
    if len(args) != arity:
        raise ValueError(
            f"{directive} takes {arity} integer{'s' * (arity > 1)}, got {len(args)}")
    return cls(*map(int, args))


def _program_fields(lines):
    """Line-level parse of (line number, directive, rest) program lines;
    a `program`, `body` or `output` line may appear once."""
    name = None
    iterators: list[Iterator] = []
    inputs: list[BufferDecl] = []
    dtypes: set[DataType] = set()
    body_src = None
    output_src = None
    set_on: dict[str, int] = {}
    for line_no, directive, rest in lines:
        if directive in set_on:
            raise UnrollTunerError(f"line {line_no}: a second {directive!r} line; "
                                   f"the first is line {set_on[directive]}")
        if directive in ("program", "body", "output"):
            set_on[directive] = line_no
        try:
            if directive == "program":
                name = rest
            elif directive == "iter":
                it_name, lo, hi = rest.split()
                iterators.append(Iterator(it_name, int(lo), int(hi)))
            elif directive == "input":
                buf, rank, dtype = rest.split()
                inputs.append(BufferDecl(buf, int(rank)))
                dtypes.add(DataType(dtype))
            elif directive == "body":
                body_src = rest
            else:
                output_src = rest
        except ValueError as exc:
            raise UnrollTunerError(f"line {line_no}: {exc}") from exc
    return name, iterators, inputs, dtypes, body_src, output_src


# Sibling files of one program repeat its lines and differ only in their
# schedule lines; `label` reads them in sorted order, so consecutive siblings
# hit the cache.  The bound is small on purpose: a corpus cycles through it.
# An entry is the program's empty schedule, which `new_schedule` holds only
# weakly: the cache keeps it alive, so the siblings' replays share it.
@functools.lru_cache(maxsize=16)
def _parse_program_lines(lines: tuple[tuple[int, str, str], ...]) -> ScheduledProgram:
    name, iterators, inputs, dtypes, body_src, output_src = _program_fields(lines)
    if name is None:
        raise UnrollTunerError("missing 'program' line")
    if not iterators:
        raise UnrollTunerError("program needs at least one 'iter' line")
    if body_src is None or output_src is None:
        raise UnrollTunerError("program needs 'body' and 'output' lines")

    if len(dtypes) > 1:
        raise UnrollTunerError("all input declarations must share one dtype")
    dtype = dtypes.pop() if dtypes else DataType.Float64

    out_node = _ExprParser(output_src, dtype).parse()
    if not isinstance(out_node, Access):
        raise UnrollTunerError("output line must be a single buffer subscript")
    body = _ExprParser(body_src, dtype).parse()

    program = Program(
        name=name,
        iterators=tuple(iterators),
        body=body,
        output=out_node.access,
        inputs=tuple(inputs),
        dtype=dtype,
    )
    report = validate_program(program)
    if not report.ok:
        raise UnrollTunerError("; ".join(report.violations))
    return new_schedule(program)


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
        except (UnrollTunerError, ValueError) as exc:
            _program_fields(program_lines)     # an earlier bad program line is reported first
            if isinstance(exc, ValueError):
                raise UnrollTunerError(f"line {line_no}: {exc}") from exc
            raise
    return _parse_program_lines(tuple(program_lines)).base, transforms


def read_text(path: str) -> str:
    """The text of the UTF-8 file at `path` (a `.prog` file, a corpus CSV
    or a config file); bytes that are not UTF-8 raise UnrollTunerError
    naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise UnrollTunerError(f"{path}: not UTF-8 text (byte {exc.start}: "
                                   f"{exc.reason})") from None


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
    return f"{left} {expr.kind.value} {right}"


def format_transform(t: Transform) -> str:
    name = type(t).__name__.lower()
    if _TRANSFORMS.get(name) is not type(t):
        raise ValueError(f"unknown transform {t!r}")
    return " ".join([name, *(str(getattr(t, f.name)) for f in fields(t))])


def program_to_text(p: Program, transforms=()) -> str:
    lines = [f"program {p.name}"]
    for it in p.iterators:
        lines.append(f"iter {it.name} {it.lower} {it.upper}")
    for decl in p.inputs:
        lines.append(f"input {decl.name} {decl.rank} {p.dtype.value}")
    lines.append(f"body {format_expr(p.body)}")
    lines.append(f"output {_format_subscripts(p.output)}")
    for t in transforms:
        lines.append(format_transform(t))
    return "\n".join(lines) + "\n"
