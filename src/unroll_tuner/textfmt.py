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
import string
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

# A token is an operator, an identifier, a number or, where none of these
# starts, one character of any other kind: a bad token.  The three forms
# start with distinct characters, so their order only sets which the
# regex tries first: the most frequent.
_TOKEN_RE = re.compile(
    r"\s*([+\-*/()\[\],]"
    r"|[A-Za-z_]\w*"
    r"|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?"
    r"|\S)"
)
_END = ""                   # the token after the last one
_IDENT_START = frozenset(string.ascii_letters + "_")
_OPERATORS = frozenset("+-*/()[],")
# One-character tokens that are not bad; a bad token is one character.
_GOOD_CHARS = _IDENT_START | _OPERATORS | frozenset(string.digits)
_BINOPS = {kind.value: kind for kind in BinOpKind}
_DTYPES = {dtype.value: dtype for dtype in DataType}

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


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, then `_END`."""
    tokens = _TOKEN_RE.findall(text)
    # past the good characters, a one-character token is bad unless a digit
    if any(len(t) == 1 and not t.isdecimal() for t in set(tokens) - _GOOD_CHARS):
        m = next(m for m in _TOKEN_RE.finditer(text) if _is_bad(m[1]))
        raise UnrollTunerError(f"bad expression syntax near {text[m.start():]!r}")
    tokens.append(_END)
    return tokens


def _is_bad(token: str) -> bool:
    """Whether `token` matched none of the number, identifier and operator
    forms: a one-character token that starts none of them (a lone '.' too)."""
    return len(token) == 1 and not (token in _GOOD_CHARS or token.isdecimal())


def _is_num(token: str) -> bool:
    return token[0].isdecimal() or token[0] == "."    # `\d` is a decimal character


def _kind(token: str) -> str:
    return "ident" if token[0] in _IDENT_START else "num" if _is_num(token) else "op"


def _unexpected_end() -> UnrollTunerError:
    return UnrollTunerError("unexpected end of expression")


class _ExprParser:
    """Recursive-descent parser from expression text to IR nodes; each
    literal must be a value of the program's element type `dtype`.

    `tokens[pos]` is the next token.  The factor and subscript loops, which
    see most tokens, step through them directly rather than through `take`.
    """

    def __init__(self, text: str, dtype: DataType):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dtype = dtype
        self.is_float = dtype.is_float
        self.lo, self.hi = _LITERAL_RANGE[dtype]

    def take(self, expect: str | None = None) -> str:
        token = self.tokens[self.pos]
        if token == _END:
            raise _unexpected_end()
        if expect is not None and token != expect:
            raise UnrollTunerError(f"expected {expect!r}, got {token!r}")
        self.pos += 1
        return token

    def parse(self) -> Expr:
        node = self.expr()
        if self.tokens[self.pos] != _END:
            trailing = [(_kind(t), t) for t in self.tokens[self.pos:-1]]
            raise UnrollTunerError(f"trailing tokens in expression: {trailing}")
        return node

    def expr(self) -> Expr:
        node = self.term()
        tokens = self.tokens
        while (op := tokens[self.pos]) == "+" or op == "-":
            self.pos += 1
            node = BinOp(_BINOPS[op], node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos]) == "*" or op == "/":
            self.pos += 1
            node = BinOp(_BINOPS[op], node, self.factor())
        return node

    def factor(self) -> Expr:
        tokens = self.tokens
        token = tokens[self.pos]
        if token == _END:
            raise _unexpected_end()
        self.pos += 1
        if token[0] in _IDENT_START:
            if tokens[self.pos] != "[":
                raise UnrollTunerError(f"bare identifier {token!r}; accesses need subscripts")
            return Access(BufferAccess(token, self.subscripts()))
        if _is_num(token):
            return self.constant(token)
        if token == "(":
            node = self.expr()
            self.take(")")
            return node
        if token == "-":
            token = self.take()
            if not _is_num(token):
                raise UnrollTunerError("unary minus only allowed on numeric literals")
            return self.constant("-" + token)
        raise UnrollTunerError(f"unexpected token {token!r} in expression")

    def constant(self, text: str) -> Constant:
        if self.is_float:
            value = float(text)
        elif text.lstrip("-").isdigit():
            value = int(text)                      # exact, however many digits
        else:
            value = float(text)
            if not value.is_integer():             # also false for an overflowed inf
                raise UnrollTunerError(f"non-integer constant {text!r} in {self.dtype.value} program")
            value = int(value)
        if not self.lo <= value <= self.hi:
            what = "non-finite" if self.is_float else "out-of-range"
            raise UnrollTunerError(f"{what} constant {text!r} in {self.dtype.value} program")
        return Constant(value)

    def subscripts(self) -> tuple[Subscript, ...]:
        """An access's dimensions, from its '[' through its ']'."""
        tokens = self.tokens
        pos = self.pos + 1                         # past the '['
        dims = []
        while True:
            name = tokens[pos]
            if name == _END:
                raise _unexpected_end()
            if name[0] not in _IDENT_START:
                raise UnrollTunerError(f"subscript must start with an iterator, got {name!r}")
            pos += 1
            if tokens[pos] == "+" or tokens[pos] == "-":
                self.pos = pos
                dims.append(self.subscript_sum(name))
                pos = self.pos
            else:
                dims.append(Subscript((name,)))
            sep = tokens[pos]
            if sep == _END:
                raise _unexpected_end()
            pos += 1
            if sep == "]":
                self.pos = pos
                return tuple(dims)
            if sep != ",":
                raise UnrollTunerError(f"expected ',' or ']' in subscript, got {sep!r}")

    def subscript_sum(self, name: str) -> Subscript:
        """One dimension that adds iterators or offsets to its first iterator `name`."""
        tokens = self.tokens
        names = [name]
        offset = 0
        while (sign := tokens[self.pos]) == "+" or sign == "-":
            self.pos += 1
            token = self.take()
            if token[0] in _IDENT_START:
                if sign == "-":
                    raise UnrollTunerError("iterators may only be added in subscripts")
                names.append(token)
            elif token.isdigit():
                offset += int(token) if sign == "+" else -int(token)
            else:
                raise UnrollTunerError("subscript offsets must be integer literals")
        return Subscript(tuple(names), offset)


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


def _program_fields(lines: str):
    """Line-level parse of `lines`, a file's program lines on their line
    numbers, its other lines empty; a `program`, `body` or `output` line
    may appear once."""
    name = None
    iterators: list[Iterator] = []
    inputs: list[BufferDecl] = []
    dtypes: dict[str, DataType] = {}       # by name: a member would hash in Python
    body_src = None
    output_src = None
    set_on: dict[str, int] = {}
    for line_no, line in enumerate(lines.split("\n"), start=1):
        if not line:
            continue
        words = line.split(None, 1)
        directive = words[0]
        rest = words[1].rstrip() if len(words) == 2 else ""
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
                dtypes[dtype] = _DTYPES.get(dtype) or DataType(dtype)   # or raise its error
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
# The key is one string (see `_program_fields`), hashed and compared in one
# step.  An entry is the program's empty schedule, which `new_schedule`
# holds only weakly: the cache keeps it alive, so the siblings' replays
# share it.
@functools.lru_cache(maxsize=16)
def _parse_program_lines(lines: str) -> ScheduledProgram:
    name, iterators, inputs, dtypes, body_src, output_src = _program_fields(lines)
    if name is None:
        raise UnrollTunerError("missing 'program' line")
    if not iterators:
        raise UnrollTunerError("program needs at least one 'iter' line")
    if body_src is None or output_src is None:
        raise UnrollTunerError("program needs 'body' and 'output' lines")

    if len(dtypes) > 1:
        raise UnrollTunerError("all input declarations must share one dtype")
    dtype = next(iter(dtypes.values())) if dtypes else DataType.Float64

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
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    transforms: list[Transform] = []
    for i, line in enumerate(lines):
        words = line.split(None, 1)         # the directive ends at any whitespace
        if words and words[0] in _PROGRAM_DIRECTIVES:
            continue
        lines[i] = ""
        if not words:
            continue
        try:
            transforms.append(_parse_transform(words[0], words[1] if len(words) == 2 else ""))
        except (UnrollTunerError, ValueError) as exc:
            _program_fields("\n".join(lines[:i]))     # an earlier bad program line is reported first
            if isinstance(exc, ValueError):
                raise UnrollTunerError(f"line {i + 1}: {exc}") from exc
            raise
    return _parse_program_lines("\n".join(lines).rstrip("\n")).base, transforms


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
