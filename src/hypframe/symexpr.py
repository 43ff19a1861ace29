"""Closed-form expression DSL in one variable t with exact symbolic derivatives.

Grammar (whitespace insignificant, ^ binds tighter than unary minus,
then * /, then + -; same-precedence binary operators associate left):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*
    exponent := '-'? INTEGER | '(' expr ')'     (must fold to an integer)
    atom     := NUMBER | 't' | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := a name of FUNCTIONS
    NUMBER and INTEGER are written with the ASCII digits 0-9 only

An expression is a graph of `Expr` nodes, one class whose `kind` names
the op that the node compiles to.  Only light simplification is applied
when expressions are built (constant folding plus 0/1 identities).  The
smart constructors intern their results (hash-consing), so each distinct
sub-expression exists once.  `compile` turns a list of roots into one
straight-line program with one op per distinct node, of the node's kind
(and a check before each division's numerator); its replay
follows IEEE semantics with domain violations as NaN, or, at one t,
reported against the first offending sub-expression.
"""

from __future__ import annotations

import math
import re
import struct
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HypframeError, NumericError

__all__ = [
    "Expr", "parse_expr", "diff_expr", "eval_expr", "to_source", "vectorized",
    "compile", "Program", "power",
    "ExprSyntaxError", "UnknownIdentifierError", "NonIntegerExponentError",
    "ExprDomainError",
    "add", "sub", "mul", "div", "neg", "pow_", "fun", "num",
    "T", "ZERO", "ONE",
]


class ExprSyntaxError(HypframeError, ValueError):
    """Parse failure; `column` is the 1-based offset into the source."""

    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnknownIdentifierError(ExprSyntaxError):
    pass


class NonIntegerExponentError(ExprSyntaxError):
    pass


class ExprDomainError(NumericError):
    """Evaluation hit a domain violation; carries the offending sub-expression
    and, where the caller names it, the t that the evaluation was at."""

    def __init__(self, message, subexpr, t=None):
        at = "" if t is None else f" at t={float(t)!r}"
        super().__init__(f"{message} in {to_source(subexpr)!r}{at}")
        self.message, self.subexpr = message, subexpr


# ---------------------------------------------------------------------------
# AST


class _Memo:
    # _d1 and _program memoize the derivative and the single-root program
    # on the node itself, so they live exactly as long as the node does;
    # _depth is the longest path to a leaf, in nodes
    __slots__ = ("__weakref__", "_d1", "_program", "_depth")


# A dataclass, not a tuple, which would equal any tuple of the same items:
# perfbench's expression_counts walks its fields with dataclasses.fields
@dataclass(frozen=True, slots=True)
class Expr(_Memo):
    """One node: `kind` is the op it compiles to.  A num keeps its value in
    a; var has no operand; neg reads a; add, sub, mul and div read a and b;
    pow raises a to the integer b; fun applies the function named b to a."""

    kind: str
    a: object = None
    b: object = None

    def __call__(self, t):
        return eval_expr(self, t)

    def __str__(self):
        return to_source(self)


class _Function(NamedTuple):
    """One DSL function f.  `numpy` is the ufunc that gives f's value, the
    same bits over an array as at each element alone; `outside(x)` is true
    off f's domain, where the replay gives NaN and evaluation at one t
    raises with `text` formatted with x."""

    numpy: Callable              # a NumPy ufunc
    derivative: Callable[[Expr], Expr]   # u -> d/du f(u)
    outside: Callable = lambda x: False
    text: str = ""


# every DSL function, by name; the derivative rules build their
# expressions with the smart constructors defined below
_TABLE = {
    "sin": _Function(np.sin, lambda u: fun("cos", u)),
    "cos": _Function(np.cos, lambda u: neg(fun("sin", u))),
    "tan": _Function(np.tan, lambda u: add(ONE, pow_(fun("tan", u), 2))),
    "sinh": _Function(np.sinh, lambda u: fun("cosh", u)),
    "cosh": _Function(np.cosh, lambda u: fun("sinh", u)),
    "tanh": _Function(np.tanh, lambda u: sub(ONE, pow_(fun("tanh", u), 2))),
    "exp": _Function(np.exp, lambda u: fun("exp", u)),
    "log": _Function(np.log, lambda u: div(ONE, u),
                     lambda x: x <= 0.0, "log of non-positive value {!r}"),
    "sqrt": _Function(np.sqrt, lambda u: div(ONE, mul(num(2), fun("sqrt", u))),
                      lambda x: x < 0.0, "sqrt of negative value {!r}"),
    "atan": _Function(np.arctan, lambda u: div(ONE, add(ONE, pow_(u, 2)))),
    "artanh": _Function(np.arctanh, lambda u: div(ONE, sub(ONE, pow_(u, 2))),
                        lambda x: abs(x) >= 1.0, "artanh of value {!r} outside (-1, 1)"),
}
FUNCTIONS = tuple(_TABLE)


# ---------------------------------------------------------------------------
# Smart constructors: constant folding and 0/1 identities only.
#
# Every constructor returns an interned node (hash-consing): the key is
# the node's kind, then its children by identity, so structurally equal
# expressions built from interned parts are one object, and the whole
# graph has one node per distinct sub-expression.  Floats are keyed by
# their bit pattern, keeping 0.0 and -0.0 apart.  The table holds nodes
# weakly: an interned node lives as long as something else refers to it.

_INTERNED = weakref.WeakValueDictionary()


def _intern(key, a, b=None):
    node = _INTERNED.get(key)
    if node is None:
        node = _INTERNED[key] = Expr(key[0], a, b)
        depth = max((_depth(f) for f in (a, b) if isinstance(f, Expr)), default=0)
        object.__setattr__(node, "_depth", depth + 1)
    return node


def _depth(e: Expr) -> int:
    return getattr(e, "_depth", 1)


def num(v) -> Expr:
    v = float(v)
    return _intern(("num", struct.pack("<d", v)), v)


T = Expr("var")
ZERO = num(0.0)
ONE = num(1.0)


def _is_const(e, v):
    return e.kind == "num" and e.a == v


def add(x: Expr, y: Expr) -> Expr:
    if x.kind == y.kind == "num":
        return num(x.a + y.a)
    if _is_const(x, 0.0):
        return y
    if _is_const(y, 0.0):
        return x
    return _intern(("add", id(x), id(y)), x, y)


def sub(x: Expr, y: Expr) -> Expr:
    if x.kind == y.kind == "num":
        return num(x.a - y.a)
    if _is_const(y, 0.0):
        return x
    if _is_const(x, 0.0):
        return neg(y)
    return _intern(("sub", id(x), id(y)), x, y)


def mul(x: Expr, y: Expr) -> Expr:
    if x.kind == y.kind == "num":
        return num(x.a * y.a)
    if _is_const(x, 0.0) or _is_const(y, 0.0):
        return ZERO
    if _is_const(x, 1.0):
        return y
    if _is_const(y, 1.0):
        return x
    if _is_const(x, -1.0):
        return neg(y)
    if _is_const(y, -1.0):
        return neg(x)
    return _intern(("mul", id(x), id(y)), x, y)


def div(x: Expr, y: Expr) -> Expr:
    if x.kind == y.kind == "num" and y.a != 0.0:
        return num(x.a / y.a)
    if _is_const(y, 1.0):
        return x
    if _is_const(x, 0.0) and not _is_const(y, 0.0):
        return ZERO
    return _intern(("div", id(x), id(y)), x, y)


def neg(x: Expr) -> Expr:
    if x.kind == "num":
        return num(-x.a)
    if x.kind == "neg":
        return x.a
    return _intern(("neg", id(x)), x)


def pow_(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if base.kind == "num" and not (base.a == 0.0 and exponent < 0):
        return num(power(base.a, exponent))
    return _intern(("pow", id(base), exponent), base, exponent)


def fun(name: str, arg: Expr) -> Expr:
    f = _TABLE.get(name)
    if f is None:
        raise ValueError(f"unknown function {name!r}")
    if arg.kind == "num" and not f.outside(arg.a):  # else evaluation reports it
        return num(_fun_cols(name, arg.a))
    return _intern(("fun", id(arg), name), arg, name)


# ---------------------------------------------------------------------------
# Tokenizer / parser


# kind -> (operator, precedence, constructor) of each binary node: the parser's and the printer's
_BINARY = {"add": ("+", 1, add), "sub": ("-", 1, sub), "mul": ("*", 2, mul), "div": ("/", 2, div)}
_PREC_NEG, _PREC_POW, _PREC_ATOM = 3, 4, 5
_OPERATORS = {(op, prec): make for op, prec, make in _BINARY.values()}

# whitespace, a NUMBER in ASCII digits (\d would take '²' and '٣'), a word (an identifier
# if it starts with a letter or '_', as \w takes '²' too), an operator, or any other character
_TOKEN = re.compile(r"(?P<space>\s+)"
                    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<ident>\w+)|(?P<op>[-+*/^()])|.", re.S)


def _tokenize(source: str) -> list:
    """(kind, text, column) of each token, an operator's kind being its text, then the
    end token, "end of input": the whole source, so a lexical error wins over any syntax error."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, text, column = m.lastgroup, m.group(), m.start() + 1
        if kind is None or (kind == "ident" and not (text[0].isalpha() or text[0] == "_")):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", column)
        if kind != "space":
            tokens.append((text if kind == "op" else kind, text, column))
    tokens.append(("end", "end of input", len(source) + 1))
    return tokens


# The deepest tree, and the deepest nesting of parentheses, that a source
# may hold.  Differentiating, compiling and printing recurse through a
# whole tree, and the Frenet expressions differentiate the input several
# times: a nested quotient (t+3)/((t+3)/(...)) of depth 52 already passes
# Python's recursion limit there, one of depth 40 runs.
MAX_DEPTH = 40


class _Parser:
    """Recursive descent over the tokens of _tokenize, one method per rule of the
    module docstring's grammar: binary(1) parses its expr, binary(2) its term."""
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.level = 0  # parentheses and function calls open at pos

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def accept(self, kind) -> bool:
        """Advance past the next token if it is of `kind`, and say whether it was."""
        found = self.peek()[0] == kind
        self.pos += found
        return found

    def expect(self, kind):
        if not self.accept(kind):
            _, text, column = self.peek()
            raise ExprSyntaxError(f"expected {kind!r}, found {text!r}", column)

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, column = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", column)
        if _depth(e) > MAX_DEPTH:
            raise ExprSyntaxError(f"expression tree deeper than {MAX_DEPTH} levels", 1)
        return e

    def expr(self) -> Expr:
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprSyntaxError(f"nesting deeper than {MAX_DEPTH} levels", self.peek()[2])
        e = self.binary(1)
        self.level -= 1
        return e

    def binary(self, prec: int) -> Expr:
        """Operands of the next precedence joined left to right by those of prec."""
        if prec == _PREC_NEG:
            return self.unary()
        e = self.binary(prec + 1)
        while (make := _OPERATORS.get((self.peek()[0], prec))) is not None:
            self.pos += 1
            e = make(e, self.binary(prec + 1))
        return e

    def unary(self) -> Expr:
        signs = 0
        while self.accept("-"):
            signs += 1
        e = self.power()
        return neg(e) if signs % 2 else e  # neg(neg(e)) is e

    def power(self) -> Expr:
        e = self.atom()
        while self.accept("^"):
            e = pow_(e, self.exponent())
        return e

    def exponent(self) -> int:
        sign = -1 if self.accept("-") else 1
        _, text, column = self.peek()
        if text.isdigit() and self.accept("number"):
            return sign * int(float(text))  # read as a float, like every NUMBER
        if self.accept("("):
            inner = self.closed()
            if inner.kind == "num" and float(inner.a).is_integer():
                return sign * int(inner.a)
            raise NonIntegerExponentError(
                "exponent must fold to an integer literal", column)
        raise NonIntegerExponentError(f"exponent must be an integer, found {text!r}", column)

    def atom(self) -> Expr:
        _, text, column = self.peek()
        if self.accept("number"):
            return num(text)
        if self.accept("ident"):
            if text == "t":
                return T
            if text in _TABLE:
                self.expect("(")
                return fun(text, self.closed())
            raise UnknownIdentifierError(f"unknown identifier {text!r}", column)
        if self.accept("("):
            return self.closed()
        raise ExprSyntaxError(f"expected expression, found {text!r}", column)

    def closed(self) -> Expr:
        """An expr, and the ')' that closes its parenthesis or function call."""
        e = self.expr()
        self.expect(")")
        return e


def parse_expr(source: str) -> Expr:
    """Parse a DSL expression in the variable t."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Differentiation


def _diff1(e: Expr) -> Expr:
    d = getattr(e, "_d1", None)
    if d is None:
        d = _diff_rule(e)
        object.__setattr__(e, "_d1", d)
    return d


def _diff_rule(e: Expr) -> Expr:
    match e:
        case Expr("num"):
            return ZERO
        case Expr("var"):
            return ONE
        case Expr("neg", u):
            return neg(_diff1(u))
        case Expr("add", x, y):
            return add(_diff1(x), _diff1(y))
        case Expr("sub", x, y):
            return sub(_diff1(x), _diff1(y))
        case Expr("mul", x, y):
            return add(mul(_diff1(x), y), mul(x, _diff1(y)))
        case Expr("div", x, y):
            return div(sub(mul(_diff1(x), y), mul(x, _diff1(y))), pow_(y, 2))
        case Expr("pow", u, k):
            return mul(mul(num(k), pow_(u, k - 1)), _diff1(u))
        case Expr("fun", u, name):
            return mul(_TABLE[name].derivative(u), _diff1(u))
    raise TypeError(f"not an Expr: {e!r}")


def diff_expr(e: Expr, order: int = 1) -> Expr:
    """The order-th symbolic derivative with respect to t (order >= 1)."""
    if order < 1:
        raise ValueError("derivative order must be >= 1")
    for _ in range(order):
        e = _diff1(e)
    return e


# ---------------------------------------------------------------------------
# Evaluation.  A list of roots compiles to one straight-line program with
# one op per distinct node (plus a check before each division's
# numerator).  One loop replays the op list over a NumPy array, or over
# one float with the same bits, and gives NaN where an op would raise; at
# one t, the first such op in op order gives the located domain error.


def _fun_cols(name: str, x):
    """f at x, a float or an array, by the table's ufunc; NaN off f's domain."""
    f = _TABLE[name]
    with np.errstate(all="ignore"):
        return np.where(f.outside(x), math.nan, f.numpy(x))


def power(x, k: int):
    """x ** k for the integer k, a float or an array x: the product of
    repeated squares of x, then, for a negative k, one reciprocal, with
    NaN where zero meets a negative k."""
    n, out, square = abs(k), 1.0, x
    while n:
        if n & 1:
            out = out * square
        n >>= 1
        if n:
            square = square * square
    if k >= 0:
        return out
    with np.errstate(all="ignore"):
        return np.where(x == 0.0, math.nan, np.divide(1.0, out))


# One op, by kind: v holds the values of the ops before, node is the op's
# node, and a and b are its node's a and b, with each operand node
# replaced by the index of its op.  Each gives the same bits at a float
# as at that element of an array, and NaN where the op raises at one t.
# A den op checks the denominator of its div, the value at index a.
_OPS = {
    "num": lambda v, t, node, a, b: a,
    "var": lambda v, t, node, a, b: t,
    "neg": lambda v, t, node, a, b: -v[a],
    "add": lambda v, t, node, a, b: v[a] + v[b],
    "sub": lambda v, t, node, a, b: v[a] - v[b],
    "mul": lambda v, t, node, a, b: v[a] * v[b],
    "den": lambda v, t, node, a, b: None,
    "div": lambda v, t, node, a, b: np.where(v[b] == 0.0, math.nan, np.divide(v[a], v[b])),
    "pow": lambda v, t, node, a, b: power(v[a], b),
    "fun": lambda v, t, node, a, b: _fun_cols(b, v[a]),
}


# how many of an op's (a, b) are operand indices, by kind
_OPERANDS = {"neg": 1, "add": 2, "sub": 2, "mul": 2, "den": 1, "div": 2, "pow": 1, "fun": 1}


# The error text of each kind of op that can raise, at its operand x;
# false where it does not raise
_RAISES = {
    "den": lambda x, b: x == 0.0 and "division by zero",
    "pow": lambda x, b: x == 0.0 and b < 0 and "zero raised to a negative power",
    "fun": lambda x, b: _TABLE[b].outside(x) and _TABLE[b].text.format(x),
}


class Program:
    """Straight-line code evaluating several roots together.

    `ops` are (kind, node, a, b) in the order in which the recursive walk
    of each root in turn first reaches a node: operands left to right,
    except that a div evaluates and checks its denominator before its
    numerator.  Replaying them over an array gives that walk's value at
    each element, or NaN where it raises; at one t, the first op that
    would raise is where the walk raises, with the same message.
    """

    def __init__(self, ops, outputs):
        self.ops = ops
        self.outputs = outputs
        # after op k, the values that neither a later op nor an output reads
        last = {i: k for k, (kind, _, a, b) in enumerate(ops)
                for i in (a, b)[:_OPERANDS.get(kind, 0)]}
        self._dead = [[] for _ in ops]
        for i, k in last.items():
            if i not in outputs:
                self._dead[k].append(i)

    def _replay(self, t, free: bool = False) -> list:
        """The value of each op at t; with `free`, each value is dropped (None)
        once read for the last time, so that an array replay holds only the
        values still to be read."""
        v = []
        for kind, node, a, b in self.ops:
            v.append(_OPS[kind](v, t, node, a, b))
            if free:
                for i in self._dead[len(v) - 1]:
                    v[i] = None
        return v

    def array(self, t) -> tuple:
        """Values of the roots over the array t, each of t's shape: at each
        element, the recursive walk's value at that t, bit for bit, or NaN
        where an op that the root reads would raise there."""
        with np.errstate(all="ignore"):
            v = self._replay(t, free=True)
        return tuple(np.broadcast_to(v[i], np.shape(t)) for i in self.outputs)

    def at(self, t, name_t: bool = False) -> tuple:
        """Values of the roots at the float t, as floats, from the replay
        there; where an op would raise at t, the ExprDomainError of the
        first such op instead, naming t with `name_t`."""
        with np.errstate(all="ignore"):
            v = self._replay(float(t))
        for kind, node, a, b in self.ops:
            text = kind in _RAISES and _RAISES[kind](float(v[a]), b)
            if text:
                raise ExprDomainError(text, node, t if name_t else None)
        return tuple(float(v[i]) for i in self.outputs)


def compile(roots) -> Program:
    """Compile the roots into one program: one op per distinct node."""
    ops = []
    index = {}  # id(node) -> index of the op computing it

    def visit(e):
        i = index.get(id(e))
        if i is not None:
            return i
        if not isinstance(e, Expr):
            raise TypeError(f"not an Expr: {e!r}")
        a, b = e.a, e.b
        if e.kind == "div":
            b = visit(b)
            ops.append(("den", e, b, None))
        if isinstance(a, Expr):
            a = visit(a)
        if isinstance(b, Expr):
            b = visit(b)
        i = index[id(e)] = len(ops)
        ops.append((e.kind, e, a, b))
        return i

    outputs = [visit(root) for root in roots]
    return Program(ops, outputs)


def _single(e) -> Program:
    """The program of e alone, kept on the node."""
    program = getattr(e, "_program", None)
    if program is None:
        program = compile([e])
        object.__setattr__(e, "_program", program)
    return program


def eval_expr(e, t, name_t: bool = False):
    """Evaluate at the scalar t; deterministic for identical expression and t.

    An Expr gives a float; a compiled Program gives the tuple of its
    roots' values: Program.at(t, name_t), which raises the located
    ExprDomainError.  At an ndarray t, each value is an array of t's
    shape: Program.array(t).
    """
    program = e if isinstance(e, Program) else _single(e)
    values = program.array(t) if isinstance(t, np.ndarray) else program.at(t, name_t)
    return values if isinstance(e, Program) else values[0]


def vectorized(e: Expr):
    """Callable over scalars or arrays: Program.array of e, so each value is
    eval_expr's at that t, bit for bit.

    Domain violations surface as NaN; callers that need a located error
    evaluate the offending point through eval_expr.
    """
    program = _single(e)

    def call(t):
        arr = np.asarray(t, dtype=float)
        out = program.array(arr)[0]
        return out if arr.ndim else float(out)

    return call


# ---------------------------------------------------------------------------
# Canonical printing (parse -> print -> parse is structurally idempotent)


def _prec(e: Expr) -> int:
    if e.kind in _BINARY:
        return _BINARY[e.kind][1]
    if e.kind == "neg" or (e.kind == "num" and _fmt_num(e.a).startswith("-")):
        return _PREC_NEG
    return _PREC_POW if e.kind == "pow" else _PREC_ATOM


def _fmt_num(v: float) -> str:
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return f"{v:.0f}"  # exact, and keeps the sign of -0
    if math.isfinite(v):
        return repr(v)
    # no literal spells inf or NaN: exp(1000) folds to inf, sin(exp(1000)) to the platform's NaN
    text = "exp(1000)" if math.isinf(v) else "sin(exp(1000))"
    return ("" if math.copysign(1.0, v) == math.copysign(1.0, parse_expr(text).a) else "-") + text


def to_source(e: Expr) -> str:
    """Canonical DSL text for the tree."""

    def paren(child, minimum):
        s = to_source(child)
        return f"({s})" if _prec(child) < minimum else s

    kind, x, y = e.kind, e.a, e.b
    if kind in _BINARY:
        op, prec, _ = _BINARY[kind]
        return f"{paren(x, prec)}{op}{paren(y, prec + 1)}"
    if kind == "num":
        return _fmt_num(x)
    if kind == "var":
        return "t"
    if kind == "neg":
        return "-" + paren(x, _PREC_NEG)
    if kind == "pow":
        return f"{paren(x, _PREC_ATOM)}^{y if y >= 0 else f'({y})'}"
    if kind == "fun":
        return f"{y}({to_source(x)})"
    raise TypeError(f"not an Expr: {e!r}")
