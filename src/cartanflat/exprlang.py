"""Symbolic scalar expressions over chart coordinates.

A tiny closed-form language: constants, named variables, ``+ - * / ^`` (the
exponent of ``^`` must be constant), unary minus, and the functions
sin, cos, tan, sinh, cosh, tanh, exp, log, sqrt, atan.

AST nodes are immutable and interned (hash-consed): every constructor looks
its node up in one weak table first, so two nodes equal in structure are one
object, wherever and however often they were built, and ``==`` and ``hash``
are identity.  Constants key on their value and its sign bit, so ``Const(0.0)``
and ``Const(-0.0)`` stay two nodes, as their bits differ; variables on their
name; operators on their op and the identities of their children.  Each node
caches its derivatives by variable, so a derivative is taken once while the
node lives, and the compiler, which evaluates each distinct node once,
evaluates each distinct subexpression once.  The table holds nodes weakly: a
node goes when nothing else uses it.

The printer/parser pair is a round trip: ``parse(to_text(e), vars) is e``
for any AST built by the parser or the smart constructors (a negative zero
prints as ``-0``).  The parser is the one pass that recurses, once per
level, so :func:`parse` refuses text more than :data:`MAX_DEPTH` levels
deep; every other pass (printing, evaluation, differentiation, rewriting,
compilation) is a loop over one iterative post-order of the distinct
nodes, and takes expressions built through the API at any depth.
Simplification is deliberately conservative (constant folding plus 0/1
identities); nothing here reorders sums or rewrites powers, so printed
formulas stay recognizable.

Evaluation is pure and deterministic.  Out-of-domain input (log of a
non-positive value, division by zero, overflow) raises
:class:`~cartanflat.errors.ExpressionDomainError` instead of returning NaN.

Three evaluation routes exist and are kept bit-identical:

- :func:`evaluate`, an interpreter over Python floats: the reference;
- :func:`compile_expressions`, which generates one straight-line Python
  function for a batch of expressions and calls it on one point:
  integrators and small scans use it.  A ``+``, ``-``, ``*`` or negation
  used by one consumer only is written into that consumer's expression (at
  most :data:`INLINE_DEPTH` levels deep); every other distinct node, shared
  or guarded, gets one assignment, in the order a post-order walk meets it.
  The four inlined operations cannot raise, so the same IEEE operations run
  on the same operands, and the guarded ones (``/``, ``^``, the functions)
  still run in post-order, where the first to fail is the one the
  interpreter meets first;
- the same compiled function called on an ``(m, dim)`` stack of points: the
  same generated code object runs once over columns of the stack, one numpy
  array per node.  Grid scans use it.

Bit identity of the stacked route rests on which operations it hands to
numpy.  Only the correctly rounded IEEE operations go there: ``+ - *``,
negation, ``/`` once no divisor is zero, and ``sqrt`` once no argument is
negative.  numpy's transcendental ufuncs are vectorized approximations:
``exp``, ``log``, ``tan``, ``atan``, the hyperbolic functions and ``power``
differ from the C library's in the last bits on a sizable share of inputs
(even ``x * x``, numpy's ``x ** 2``, differs from C's ``pow(x, 2.0)``), and
nothing promises that ``sin`` and ``cos`` agree.  So every other function,
and ``^``, maps the ``math`` function the scalar route calls over the
elements.

Failures stay the scalar route's too: when anything goes wrong in a stacked
call (a guard trips, a ``math`` function raises, an output is not finite),
the scalar function runs over the stack's points in order and raises what
it meets first.  Stacks of fewer than :data:`STACK_MIN_POINTS` points run
point by point, which is faster below that size.
"""

from __future__ import annotations

import itertools
import math
import types
import weakref
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ExpressionDomainError, ParseError, UnknownIdentifierError

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "FUNCTION_NAMES",
    "parse",
    "to_text",
    "evaluate",
    "differentiate",
    "simplify",
    "substitute",
    "variables_of",
    "compile_expressions",
    "STACK_MIN_POINTS",
    "MAX_DEPTH",
    "INLINE_DEPTH",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "call",
]


# ---------------------------------------------------------------------------
# guarded primitives (shared by the interpreter and compiled code, so both
# routes produce bit-identical values and bit-identical failures)
# ---------------------------------------------------------------------------


def _guard_log(x: float) -> float:
    if x <= 0.0:
        raise ExpressionDomainError(f"log of non-positive value {x!r}")
    return math.log(x)


def _guard_sqrt(x: float) -> float:
    if x < 0.0:
        raise ExpressionDomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def _guard_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise ExpressionDomainError(f"overflow in exp({x!r})") from None


def _guard_sinh(x: float) -> float:
    try:
        return math.sinh(x)
    except OverflowError:
        raise ExpressionDomainError(f"overflow in sinh({x!r})") from None


def _guard_cosh(x: float) -> float:
    try:
        return math.cosh(x)
    except OverflowError:
        raise ExpressionDomainError(f"overflow in cosh({x!r})") from None


def _guard_div(a: float, b: float) -> float:
    if b == 0.0:
        raise ExpressionDomainError("division by zero")
    return a / b


def _guard_pow(a: float, b: float) -> float:
    try:
        value = a ** b
    except OverflowError:
        raise ExpressionDomainError(f"overflow in {a!r} ^ {b!r}") from None
    except ZeroDivisionError:
        raise ExpressionDomainError("zero raised to a negative exponent") from None
    if isinstance(value, complex):
        raise ExpressionDomainError(
            f"{a!r} ^ {b!r} leaves the real domain (negative base, fractional exponent)"
        )
    return value


_FUNCTION_IMPL: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": _guard_sinh,
    "cosh": _guard_cosh,
    "tanh": math.tanh,
    "exp": _guard_exp,
    "log": _guard_log,
    "sqrt": _guard_sqrt,
    "atan": math.atan,
}

FUNCTION_NAMES = tuple(sorted(_FUNCTION_IMPL))

_BINARY_OPS = ("+", "-", "*", "/", "^")


def _apply_function(name: str, x: float) -> float:
    return _FUNCTION_IMPL[name](x)


def _apply_binary(op: str, a: float, b: float) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return _guard_div(a, b)
    return _guard_pow(a, b)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


#: Every live node, under its key: ``(class, value, sign of value)`` for a
#: constant, ``(class, name)`` for a variable, ``(class, op, *child ids)``
#: otherwise.  Nodes are held weakly, so one lives as long as something
#: else uses it.  A live node keeps its children, and so their ids, alive;
#: keys hold ids rather than the children, so a derivative cached on the
#: node it contains (d exp(u) = exp(u) du) is a cycle gc can free.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Expression:
    """Base node.  Nodes are immutable and interned: building a node equal in
    structure to a live one returns the live one, so ``==`` and ``hash`` are
    by identity.  ``depth`` counts the nodes on the longest path to a leaf.

    Arithmetic operators build (lightly simplified) trees, so geometry code
    can write ``(a * b - c) / d`` with floats auto-wrapped."""

    __slots__ = ("depth", "_derivatives", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__name__}({fields})"

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, other):
        return power(self, _coerce(other))

    def __neg__(self):
        return neg(self)


_set = object.__setattr__


def _new_node(cls, key, depth: int, *fields) -> Expression:
    """A node of ``cls`` with ``fields`` in its slots, entered under ``key``."""
    node = object.__new__(cls)
    _set(node, "depth", depth)
    _set(node, "_derivatives", None)
    for name, value in zip(cls.__slots__, fields):
        _set(node, name, value)
    _INTERNED[key] = node
    return node


class Const(Expression):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)
        # 0.0 == -0.0, so the sign is part of the key: constants are equal
        # only when their bits are
        key = (cls, value, math.copysign(1.0, value))
        node = _INTERNED.get(key)
        if node is None:
            if not math.isfinite(value):
                raise ValueError("constants must be finite")
            node = _new_node(cls, key, 1, value)
        return node


class Var(Expression):
    __slots__ = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        node = _INTERNED.get(key)
        if node is None:
            node = _new_node(cls, key, 1, name)
        return node


class Unary(Expression):
    __slots__ = ("op", "operand")  # op: "neg" or a function name

    def __new__(cls, op, operand):
        key = (cls, op, id(operand))
        node = _INTERNED.get(key)
        if node is None:
            if op != "neg" and op not in _FUNCTION_IMPL:
                raise ValueError(f"unknown unary op {op!r}")
            node = _new_node(cls, key, operand.depth + 1, op, operand)
        return node


class Binary(Expression):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op, left, right):
        key = (cls, op, id(left), id(right))
        node = _INTERNED.get(key)
        if node is None:
            if op not in _BINARY_OPS:
                raise ValueError(f"unknown binary op {op!r}")
            depth = max(left.depth, right.depth) + 1
            node = _new_node(cls, key, depth, op, left, right)
        return node


def _coerce(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


# ---------------------------------------------------------------------------
# smart constructors: constant folding and 0/1 identities only
# ---------------------------------------------------------------------------


def _fold_binary(op: str, a: Const, b: Const) -> Const | None:
    try:
        value = _apply_binary(op, a.value, b.value)
    except ExpressionDomainError:
        return None
    if not math.isfinite(value):
        return None
    return Const(value)


def _is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def add(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold_binary("+", a, b)
        if folded is not None:
            return folded
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def sub(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold_binary("-", a, b)
        if folded is not None:
            return folded
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Binary("-", a, b)


def mul(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold_binary("*", a, b)
        if folded is not None:
            return folded
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a, -1.0):
        return neg(b)
    if _is_const(b, -1.0):
        return neg(a)
    return Binary("*", a, b)


def div(a, b) -> Expression:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = _fold_binary("/", a, b)
        if folded is not None:
            return folded
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, -1.0):
        return neg(a)
    return Binary("/", a, b)


def neg(a) -> Expression:
    a = _coerce(a)
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.operand
    return Unary("neg", a)


def power(a, exponent) -> Expression:
    a = _coerce(a)
    exponent = _coerce(exponent)
    if isinstance(a, Const) and isinstance(exponent, Const):
        folded = _fold_binary("^", a, exponent)
        if folded is not None:
            return folded
    if _is_const(exponent, 1.0):
        return a
    if _is_const(exponent, 0.0):
        return Const(1.0)
    return Binary("^", a, exponent)


def call(name: str, arg) -> Expression:
    arg = _coerce(arg)
    if name not in _FUNCTION_IMPL:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        try:
            value = _apply_function(name, arg.value)
        except ExpressionDomainError:
            value = None
        if value is not None and math.isfinite(value):
            return Const(value)
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# the walk: the one order every pass but the parser runs over
# ---------------------------------------------------------------------------


def _post_order(
    roots: Sequence[Expression], done: Callable[[Expression], bool] | None = None
) -> list[Expression]:
    """The distinct nodes under ``roots`` in post-order: left subtree, right
    subtree, node, one root after another, the order in which a memoized
    recursive walk meets them.  ``done`` is asked of each distinct node once,
    as the walk enters it; a node for which it holds is left out, with all
    that only it leads to."""
    order: list[Expression] = []
    seen: set[int] = set()
    # a node, then None above it, then its children, the left one on top:
    # popping the None means the children are done and the node comes next
    stack: list = list(reversed(roots))
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is None:
            order.append(pop())
            continue
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        if done is not None and done(node):
            continue
        kind = type(node)
        if kind is Binary:
            push((node, None, node.right, node.left))
        elif kind is Unary:
            push((node, None, node.operand))
        else:
            order.append(node)
    return order


def _consumers(roots: Sequence[Expression], order: list[Expression]) -> dict[int, int]:
    """How many consumers each node in ``order`` has, by id.  A consumer is
    an operand slot of a distinct node or a root's place in ``roots``, so
    ``x * x`` counts twice for ``x``."""
    consumers: dict[int, int] = {}
    count = consumers.get
    for root in roots:
        consumers[id(root)] = count(id(root), 0) + 1
    for node in order:
        kind = type(node)
        if kind is Binary:
            left, right = id(node.left), id(node.right)
            consumers[left] = count(left, 0) + 1
            consumers[right] = count(right, 0) + 1
        elif kind is Unary:
            operand = id(node.operand)
            consumers[operand] = count(operand, 0) + 1
    return consumers


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ParseError(f"malformed number {lexeme!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number {lexeme!r} is beyond the float range", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


#: Deepest expression :func:`parse` accepts, in levels: one per operator on
#: the longest path from the root to a leaf, and one per bracket, function
#: call, unary minus or exponent the parser descends into.  The bound is the
#: parser's, which recurses once per level; no other pass recurses.
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


class _Parser:
    def __init__(self, tokens, variables: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.nesting = 0

    def bounded(self, node: Expression, offset: int) -> Expression:
        if node.depth > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, offset)
        return node

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    # expr := term (('+' | '-') term)*
    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = self.bounded(Binary(value, node, self.parse_term()), offset)
            else:
                return node

    # term := unary (('*' | '/') unary)*
    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = self.bounded(Binary(value, node, self.parse_unary()), offset)
            else:
                return node

    # unary := '-' unary | power     (so ^ binds tighter than unary minus)
    # (every descent passes through here, so here nesting and depth are
    # checked before and after it)
    def parse_unary(self) -> Expression:
        kind, value, offset = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, offset)
        if kind == "op" and value == "-":
            self.advance()
            operand = self.parse_unary()
            # fold a negated literal so "-2" round-trips as Const(-2.0)
            node = Const(-operand.value) if isinstance(operand, Const) else Unary("neg", operand)
        else:
            node = self.parse_power()
        self.nesting -= 1
        return self.bounded(node, offset)

    # power := primary ('^' unary)?  with a constant exponent, right-assoc
    def parse_power(self) -> Expression:
        base = self.parse_primary()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.parse_unary()
            if variables_of(exponent):
                raise ParseError("exponent must be constant", offset)
            return Binary("^", base, exponent)
        return base

    def parse_primary(self) -> Expression:
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "name":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "op" and nxt_value == "(":
                if value not in _FUNCTION_IMPL:
                    raise UnknownIdentifierError(value, offset)
                self.advance()
                argument = self.parse_expr()
                self.expect_op(")")
                return Unary(value, argument)
            if value in _FUNCTION_IMPL:
                raise ParseError(f"function {value!r} needs parentheses", offset)
            if value not in self.variables:
                raise UnknownIdentifierError(value, offset)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {value!r}", offset)


def parse(text: str, variables: Iterable[str]) -> Expression:
    """Parse ``text`` against the declared variable names.

    Raises :class:`ParseError` with the character offset on syntax errors,
    on numbers beyond the float range and on expressions deeper than
    :data:`MAX_DEPTH`, and
    :class:`UnknownIdentifierError` for undeclared names.
    """
    parser = _Parser(_tokenize(text), frozenset(variables))
    node = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r} after expression", offset)
    return node


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 25
_PREC_POW = 30
_PREC_ATOM = 100


def _const_text(value: float) -> str:
    if value == 0.0:  # str(int(-0.0)) would drop the sign the parser reads back
        return "-0" if math.copysign(1.0, value) < 0 else "0"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_text(expression: Expression) -> str:
    """Print an AST so that re-parsing yields a structurally identical AST."""
    order = _post_order((expression,))
    uses = _consumers((expression,), order)
    printed: dict[int, tuple[str, int]] = {}  # text and precedence, by id

    def take(child: Expression) -> tuple[str, int]:
        # dropped after its last consumer: a deep chain keeps one long text
        key = id(child)
        uses[key] -= 1
        return printed.pop(key) if uses[key] == 0 else printed[key]

    for node in order:
        kind = type(node)
        if kind is Const:
            prec = _PREC_NEG if math.copysign(1.0, node.value) < 0 else _PREC_ATOM
            entry = _const_text(node.value), prec
        elif kind is Var:
            entry = node.name, _PREC_ATOM
        elif kind is Unary:
            text, prec = take(node.operand)
            if node.op != "neg":
                entry = f"{node.op}({text})", _PREC_ATOM
            else:
                entry = (f"-({text})" if prec < _PREC_NEG else f"-{text}"), _PREC_NEG
        else:
            (left, lp), (right, rp) = take(node.left), take(node.right)
            if node.op == "^":
                if lp <= _PREC_POW:
                    left = f"({left})"
                if rp < _PREC_POW:
                    right = f"({right})"
                entry = f"{left}^{right}", _PREC_POW
            else:
                mine = _PREC_ADD if node.op in "+-" else _PREC_MUL
                if lp < mine:
                    left = f"({left})"
                if rp <= mine:
                    right = f"({right})"
                entry = f"{left} {node.op} {right}", mine
        printed[id(node)] = entry
    return printed[id(expression)][0]


# ---------------------------------------------------------------------------
# evaluation / differentiation / rewriting
# ---------------------------------------------------------------------------


def evaluate(expression: Expression, point: Mapping[str, float]) -> float:
    """Evaluate at a point given as a name -> value mapping.

    Missing variables raise KeyError; out-of-domain arithmetic raises
    ExpressionDomainError.  The result is always a finite float.
    """
    values: dict[int, float] = {}
    for node in _post_order((expression,)):
        kind = type(node)
        if kind is Const:
            value = node.value
        elif kind is Var:
            value = float(point[node.name])
        elif kind is Unary:
            inner = values[id(node.operand)]
            value = -inner if node.op == "neg" else _apply_function(node.op, inner)
        else:
            value = _apply_binary(node.op, values[id(node.left)], values[id(node.right)])
        values[id(node)] = value
    value = values[id(expression)]
    if not math.isfinite(value):
        raise ExpressionDomainError("expression value is not finite")
    return value


def variables_of(expression: Expression) -> frozenset[str]:
    return frozenset(node.name for node in _post_order((expression,)) if type(node) is Var)


def _exponent_value(exponent: Expression) -> float:
    if isinstance(exponent, Const):
        return exponent.value
    try:
        return evaluate(exponent, {})
    except KeyError:
        raise ExpressionDomainError("power exponent is not constant") from None


def differentiate(expression: Expression, variable: str) -> Expression:
    """Exact partial derivative, lightly simplified (constant folding and
    0/1 identities happen as the result is built).  Every node keeps its
    derivatives by variable, so each is taken once while the node lives."""
    derivatives = expression._derivatives
    if derivatives is not None and variable in derivatives:  # most calls
        return derivatives[variable]
    exponents: dict[int, float] = {}

    def cached(node: Expression) -> bool:
        derivatives = node._derivatives
        if derivatives is not None and variable in derivatives:
            return True
        if type(node) is Binary and node.op == "^":
            # d(a^c) needs c first: a bad exponent fails before its base
            exponents[id(node)] = _exponent_value(node.right)
        return False

    for node in _post_order((expression,), cached):
        kind = type(node)
        if kind is Const:
            result = Const(0.0)
        elif kind is Var:
            result = Const(1.0) if node.name == variable else Const(0.0)
        elif kind is Unary:
            du = node.operand._derivatives[variable]
            u = node.operand
            op = node.op
            if op == "neg":
                result = neg(du)
            elif op == "sin":
                result = mul(call("cos", u), du)
            elif op == "cos":
                result = neg(mul(call("sin", u), du))
            elif op == "tan":
                result = div(du, power(call("cos", u), 2.0))
            elif op == "sinh":
                result = mul(call("cosh", u), du)
            elif op == "cosh":
                result = mul(call("sinh", u), du)
            elif op == "tanh":
                result = div(du, power(call("cosh", u), 2.0))
            elif op == "exp":
                result = mul(call("exp", u), du)
            elif op == "log":
                result = div(du, u)
            elif op == "sqrt":
                result = div(du, mul(2.0, call("sqrt", u)))
            else:  # atan
                result = div(du, add(1.0, power(u, 2.0)))
        else:
            a, b = node.left, node.right
            da = a._derivatives[variable]
            if node.op == "^":
                c = exponents[id(node)]
                result = mul(mul(Const(c), power(a, c - 1.0)), da)
            else:
                db = b._derivatives[variable]
                if node.op == "+":
                    result = add(da, db)
                elif node.op == "-":
                    result = sub(da, db)
                elif node.op == "*":
                    result = add(mul(da, b), mul(a, db))
                else:
                    result = div(sub(mul(da, b), mul(a, db)), power(b, 2.0))
        if node._derivatives is None:
            _set(node, "_derivatives", {})
        node._derivatives[variable] = result
    return expression._derivatives[variable]


def simplify(expression: Expression) -> Expression:
    """Rebuild bottom-up through the smart constructors."""
    return substitute(expression, {})


_REBUILD = {"+": add, "-": sub, "*": mul, "/": div, "^": power}


def substitute(expression: Expression, bindings: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions (used e.g. to reverse a curve's
    parameter).  Unbound variables pass through."""
    results: dict[int, Expression] = {}
    for node in _post_order((expression,)):
        kind = type(node)
        if kind is Const:
            result = node
        elif kind is Var:
            result = bindings.get(node.name, node)
        elif kind is Unary:
            inner = results[id(node.operand)]
            result = neg(inner) if node.op == "neg" else call(node.op, inner)
        else:
            result = _REBUILD[node.op](results[id(node.left)], results[id(node.right)])
        results[id(node)] = result
    return results[id(expression)]


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

_COMPILE_NAMESPACE = {
    "_dv": _guard_div,
    "_pw": _guard_pow,
    **{f"_fn_{name}": impl for name, impl in _FUNCTION_IMPL.items()},
}


#: Deepest nesting of inlined operations in one generated expression; a
#: deeper chain gets a line of its own every this many levels, so the
#: generated source stays far from CPython's parser and compiler limits.
INLINE_DEPTH = 12


def compile_expressions(
    expressions: Sequence[Expression], variables: Sequence[str]
) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile a batch of expressions into one function ``p -> tuple``.

    ``p`` is indexed positionally in the order of ``variables``.  Each node
    is evaluated once, and nodes are interned, so every common subexpression
    (say, a factor of a symbolic inverse metric) is evaluated a single time.
    Raises KeyError at compile time for variables not in the list.

    A ``+``, ``-``, ``*`` or negation with exactly one consumer (a root
    counts as one) is written into its consumer's expression, up to
    :data:`INLINE_DEPTH` levels deep; every other node gets an assignment
    of its own, in post-order.  Those four operations cannot raise, on
    floats or on numpy columns with errors ignored, so the function still
    makes the same IEEE operations on the same operands as :func:`evaluate`
    and meets the guarded operations (``/``, ``^`` and the functions) in
    the same order, raising the error the scalar route meets first.

    Called on an ``(m, len(variables))`` array of points, the function
    returns an ``(m, len(expressions))`` array whose row ``k`` is
    bit-identical to the tuple for point ``k`` (see the module docstring).
    """
    index = {name: i for i, name in enumerate(variables)}
    order = _post_order(expressions)
    consumers = _consumers(expressions, order)
    lines: list[str] = []
    text: dict[int, str] = {}  # what a consumer writes for the node, by id
    nesting: dict[int, int] = {}  # levels of inlined operations in that text
    level = nesting.get
    for node in order:
        key = id(node)
        kind = type(node)
        if kind is Binary:
            op = node.op
            left, right = id(node.left), id(node.right)
            if op == "/":
                code = f"_dv({text[left]}, {text[right]})"
            elif op == "^":
                code = f"_pw({text[left]}, {text[right]})"
            else:
                depth = max(level(left, 0), level(right, 0)) + 1
                if depth <= INLINE_DEPTH and consumers[key] == 1:
                    text[key] = f"({text[left]} {op} {text[right]})"
                    nesting[key] = depth
                    continue
                code = f"{text[left]} {op} {text[right]}"
        elif kind is Unary:
            operand = id(node.operand)
            if node.op != "neg":
                code = f"_fn_{node.op}({text[operand]})"
            else:
                depth = level(operand, 0) + 1
                if depth <= INLINE_DEPTH and consumers[key] == 1:
                    text[key] = f"(-{text[operand]})"
                    nesting[key] = depth
                    continue
                code = f"-{text[operand]}"
        elif kind is Const:
            value = node.value
            text[key] = f"({value!r})" if value < 0 else repr(value)
            continue
        else:
            if node.name not in index:
                raise KeyError(f"variable {node.name!r} not among {tuple(index)}")
            text[key] = f"p[{index[node.name]}]"
            continue
        name = text[key] = f"t{len(lines)}"
        lines.append(f"    {name} = {code}")

    roots = [text[id(e)] for e in expressions]
    tail = ", ".join(roots) + ("," if len(roots) == 1 else "")
    source = "def _compiled(p):\n" + "\n".join(lines) + f"\n    return ({tail})\n"
    namespace = dict(_COMPILE_NAMESPACE)
    exec(source, namespace)  # noqa: S102 - generated from our own AST only
    inner = namespace["_compiled"]
    # the same code object, run with numpy columns for p: no second codegen
    inner_stack = types.FunctionType(inner.__code__, dict(_STACK_NAMESPACE))
    isfinite = math.isfinite
    count = len(roots)

    def point_by_point(points: np.ndarray) -> np.ndarray:
        values = [compiled(row) for row in points.tolist()]
        return np.array(values, dtype=float).reshape(len(values), count)

    def stacked(points: np.ndarray) -> np.ndarray:
        points = points.astype(float, copy=False)
        if len(points) < STACK_MIN_POINTS:
            return point_by_point(points)
        out = np.empty((len(points), count))
        try:
            with np.errstate(all="ignore"):
                for j, column in enumerate(inner_stack([c.copy() for c in points.T])):
                    out[:, j] = column
            # abs and max rather than isfinite: kernels a process has used
            # already, and each new one adds to its resident memory
            if not np.abs(out).max() < math.inf:
                raise ExpressionDomainError("expression value is not finite")
        except _STACK_ERRORS:
            return point_by_point(points)  # raises the scalar route's error
        return out

    def compiled(p):
        if isinstance(p, np.ndarray) and p.ndim == 2:
            return stacked(p)
        out = inner(p)
        for value in out:
            if not isfinite(value):
                raise ExpressionDomainError("expression value is not finite")
        return out

    return compiled


#: Stacks with fewer points run point by point: per generated line, a numpy
#: call costs about as much as 32 to 64 scalar evaluations of that line.
STACK_MIN_POINTS = 32

_STACK_ERRORS = (ExpressionDomainError, ArithmeticError, ValueError)


def _stack_map(fn: Callable[[float], float]):
    """``fn`` over every element of a column, or on a constant operand."""

    def apply(x):
        if isinstance(x, np.ndarray):
            return np.fromiter(map(fn, x.tolist()), float, len(x))
        return fn(x)

    return apply


def _stack_sqrt(x):
    if not isinstance(x, np.ndarray):
        return _guard_sqrt(x)
    if (x < 0.0).any():
        raise ExpressionDomainError("sqrt of negative value")
    return np.sqrt(x)  # correctly rounded, like math.sqrt


def _stack_div(a, b):
    if np.any(b == 0.0):
        raise ExpressionDomainError("division by zero")
    return a / b


def _stack_pow(a, b):
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _guard_pow(a, b)
    m = len(a) if isinstance(a, np.ndarray) else len(b)
    a, b = (x.tolist() if isinstance(x, np.ndarray) else itertools.repeat(x) for x in (a, b))
    return np.fromiter(map(math.pow, a, b), float, m)


# The scalar guards only translate the math functions' own exceptions, and
# any exception sends a stack back to the scalar route, so the stacked
# functions map the math functions directly.
_STACK_NAMESPACE = {
    "_dv": _stack_div,
    "_pw": _stack_pow,
    **{f"_fn_{name}": _stack_map(getattr(math, name)) for name in _FUNCTION_IMPL},
    "_fn_sqrt": _stack_sqrt,
}
