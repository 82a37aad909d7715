"""Parsing and evaluation of coefficient expressions from config files.

Config files supply diffusion/drift coefficients a(y), b(y), integral
kernels K(y, tau), interior loads f(t, y) and boundary data as plain
strings.  The grammar is a small calculator language:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?            # right associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

'^' binds tighter than unary minus, so -y^2 means -(y^2).  Functions:
sin, cos, exp, sqrt, abs.  Constants pi and e are folded into literals
at parse time.  Evaluation is elementwise over numpy arrays so sampled
grids evaluate in one call.  parse counts nesting levels as it reads
(a parenthesis, call argument, unary minus or exponent opens one, at
two stack frames at most) and stops past MAX_DEPTH of them; it also
rejects a syntax tree deeper than MAX_DEPTH nodes, so parsing,
evaluating and rendering never exhaust the stack.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "ParseError", "UnknownVariable", "EvalError",
    "parse", "eval_expr", "pretty", "MAX_DEPTH",
]

MAX_DEPTH = 200  # nodes on the longest root-to-leaf path parse accepts

FUNCTION_NAMES = ("sin", "cos", "exp", "sqrt", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Rejected input; carries the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class UnknownVariable(ParseError):
    """A name that is neither a declared variable, function nor constant."""

    def __init__(self, name: str, offset: int, allowed: tuple = ()):
        self.name = name
        super().__init__(f"unknown variable {name!r}", offset, allowed)


class EvalError(ArithmeticError):
    """Division by zero, sqrt of a negative value, or an unbound variable."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]
_CHILDREN = {Neg: ("operand",), Call: ("arg",), BinOp: ("left", "right")}

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_ATOM_EXPECTED = ("number", "name", "'('", "'-'")


def _tokenize(src: str) -> list:
    """Return (kind, text, offset) triples; kinds: num, name, op, lpar, rpar, end."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER_RE.match(src, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(src, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("lpar", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(("rpar", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list, allowed_vars: frozenset):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self, depth: int = 1) -> Expr:
        """Sums of products; depth is the nesting level of this expression.

        Both precedence levels are loops here, so a nesting level (a
        parenthesis or call) costs two frames: this one and factor's.
        """
        node = None
        add_op = None
        while True:
            prod = self.factor(depth)
            kind, text, _ = self.peek()
            while kind == "op" and text in "*/":
                self.advance()
                prod = BinOp(text, prod, self.factor(depth))
                kind, text, _ = self.peek()
            node = prod if add_op is None else BinOp(add_op, node, prod)
            if kind == "op" and text in "+-":
                self.advance()
                add_op = text
            else:
                return node

    def factor(self, depth: int) -> Expr:
        """'-' factor | atom ('^' factor)?, right associative.

        Parentheses, call arguments, unary minus and exponents each nest
        one level deeper; past MAX_DEPTH levels parse stops.
        """
        kind, text, offset = self.advance()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression is deeper than {MAX_DEPTH} levels", offset)
        if kind == "op" and text == "-":
            return Neg(self.factor(depth + 1))
        if kind == "num":
            node = Num(float(text))
        elif kind == "name" and text in FUNCTION_NAMES:
            if self.peek()[0] != "lpar":
                raise ParseError(f"function {text!r} needs an argument list",
                                 offset, ("'('",))
            self.advance()
            node = Call(text, self.closed(self.expr(depth + 1), "unclosed function argument"))
        elif kind == "name" and text in CONSTANTS:
            node = Num(CONSTANTS[text])
        elif kind == "name" and text in self.allowed:
            node = Var(text)
        elif kind == "name":
            raise UnknownVariable(text, offset, tuple(sorted(self.allowed)))
        elif kind == "lpar":
            node = self.closed(self.expr(depth + 1), "unclosed parenthesis")
        else:
            raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input",
                             offset, _ATOM_EXPECTED)
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # the exponent may carry a unary minus
            return BinOp("^", node, self.factor(depth + 1))
        return node

    def closed(self, node: Expr, message: str) -> Expr:
        kind, _, offset = self.advance()
        if kind != "rpar":
            raise ParseError(message, offset, ("')'",))
        return node


def parse(src: str, allowed_vars=()) -> Expr:
    """Parse ``src`` into an Expr; names outside ``allowed_vars`` are rejected."""
    tokens = _tokenize(src)
    parser = _Parser(tokens, frozenset(allowed_vars))
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.peek()[2]) from None
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", offset, ("operator", "end"))
    stack = [(node, 1)]  # depth-first walk without recursion
    while stack:
        e, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise ParseError(f"expression is deeper than {MAX_DEPTH} levels", 0)
        stack += [(getattr(e, f), depth + 1) for f in _CHILDREN.get(type(e), ())]
    return node


def eval_expr(e: Expr, bindings: Mapping[str, object] = ()):
    """Evaluate with IEEE double semantics, elementwise over array bindings.

    Overflow to inf is tolerated; division by zero, sqrt of a negative
    value, a power producing NaN, and unbound variables raise EvalError.
    """
    bind = dict(bindings) if bindings else {}
    with np.errstate(all="ignore"):
        return _eval(e, bind)


def _eval(e: Expr, bind: dict):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return bind[e.name]
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.operand, bind)
    if isinstance(e, Call):
        v = _eval(e.arg, bind)
        if e.func == "sqrt":
            if np.any(np.asarray(v) < 0):
                raise EvalError("sqrt of negative value")
            return np.sqrt(v)
        if e.func == "abs":
            return np.abs(v)
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp}[e.func](v)
    if isinstance(e, BinOp):
        lhs = _eval(e.left, bind)
        rhs = _eval(e.right, bind)
        if e.op == "+":
            return lhs + rhs
        if e.op == "-":
            return lhs - rhs
        if e.op == "*":
            return lhs * rhs
        if e.op == "/":
            if np.any(np.asarray(rhs) == 0):
                raise EvalError("division by zero")
            return lhs / rhs
        if e.op == "^":
            base = np.asarray(lhs)
            if base.dtype.kind in "iub":
                base = base.astype(float)
            out = base ** rhs
            if np.any(np.isnan(out)):
                raise EvalError("power produced a non-real result")
            if np.ndim(out) == 0:
                return out.item()
            return out
    raise TypeError(f"not an Expr node: {e!r}")


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return {"+": _PREC_ADD, "-": _PREC_ADD,
                "*": _PREC_MUL, "/": _PREC_MUL, "^": _PREC_POW}[e.op]
    if isinstance(e, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def pretty(e: Expr) -> str:
    """Render with minimal parentheses; reparsing gives an equal-valued Expr."""
    return _render(e, 0)


def _render(e: Expr, min_prec: int) -> str:
    p = _prec(e)
    if isinstance(e, Num):
        v = e.value
        if v < 0 or (v == 0 and math.copysign(1.0, v) < 0):
            s = "(-" + repr(-v) + ")"
            return s
        s = repr(v)
    elif isinstance(e, Var):
        s = e.name
    elif isinstance(e, Call):
        s = f"{e.func}({_render(e.arg, 0)})"
    elif isinstance(e, Neg):
        s = "-" + _render(e.operand, _PREC_NEG)
    elif isinstance(e, BinOp):
        if e.op == "^":
            s = _render(e.left, _PREC_POW + 1) + "^" + _render(e.right, _PREC_POW)
        else:
            s = (_render(e.left, p) + e.op + _render(e.right, p + 1))
    else:
        raise TypeError(f"not an Expr node: {e!r}")
    if p < min_prec:
        return "(" + s + ")"
    return s
