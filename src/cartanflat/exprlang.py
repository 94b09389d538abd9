"""Symbolic scalar expressions over chart coordinates.

A tiny closed-form language: constants, named variables, ``+ - * / ^`` (the
exponent of ``^`` must be constant), unary minus, and the functions
sin, cos, tan, sinh, cosh, tanh, exp, log, sqrt, atan.

AST nodes are immutable and interned (hash-consed): every constructor looks
its node up in one table first, a dict of weak entries keyed by structure, so
two nodes equal in structure are one object, wherever and however often they
were built, and ``==`` and ``hash`` are identity.  Constants key on their
value and its sign bit, so ``Const(0.0)`` and ``Const(-0.0)`` stay two nodes,
as their bits differ; variables on their name; operators on their op and the
identities of their children.  Each node caches its derivatives by variable,
so a derivative is taken once while the node lives, and the compiler, which
evaluates each distinct node once, evaluates each distinct subexpression
once.  The table holds nodes weakly: a node goes when nothing else uses it,
and a callback on its entry drops its key, unless an equal node has been
entered under that key since.

The printer/parser pair is a round trip: ``parse(to_text(e), vars) is e``
for any AST built by the parser or the smart constructors (a negative zero
prints as ``-0``).  The parser is the one pass that recurses, once per
level, so :func:`parse` refuses text more than :data:`MAX_DEPTH` levels
deep; every other pass (printing, evaluation, differentiation, rewriting,
compilation) is a loop over one iterative post-order of the distinct
nodes, keeps its side tables keyed on the nodes themselves, and takes
expressions built through the API at any depth.
Simplification is deliberately conservative (constant folding plus 0/1
identities); nothing here reorders sums or rewrites powers, so printed
formulas stay recognizable.

Evaluation is pure and deterministic.  Out-of-domain input (log of a
non-positive value, sqrt of a negative one, division by zero, sin, cos or
tan of an infinite value, overflow, a negative base with a fractional
exponent, zero raised to a negative exponent) raises
:class:`~cartanflat.errors.ExpressionDomainError` instead of returning NaN.

The two evaluation routes are kept bit-identical:

- :func:`evaluate`, an interpreter over Python floats: the reference;
- :func:`compile_expressions`, which returns one function for a batch of
  expressions, called on one point (integrators, small scans) or on an
  ``(m, dim)`` stack of points, one numpy column per node (grid scans).
  It runs a tape: one step per distinct operation node, in the post-order
  the interpreter walks, calling the functions the interpreter calls.  So
  both routes make the same IEEE operations on the same operands and meet
  the guarded ones (``/``, ``^``, the functions) in the same order, where
  the first to fail is the one the interpreter meets first.

Bit identity rests on one set of kernels.  Each function, and ``^``, is a
numpy ufunc in every route: the stacked tape calls it once on a whole
column, and the interpreter, constant folding and the scalar tape call the
same ufunc on a float and take ``float`` of the result.  The rest
(``+ - * /`` and negation) are correctly rounded IEEE operations, the same
in Python and numpy.  The values are numpy's, not the C library's: numpy's
``exp``, ``log``, ``tan``, ``atan``, hyperbolic functions and ``power``
differ from :mod:`math` in the last bits on some inputs.  numpy picks its
kernels by the CPU's SIMD extensions at run time, so these bits may differ
on another CPU, as those of its ``matmul`` and ``einsum`` may.

The guards decide from the kernels' own results.  A scalar guard calls its
ufunc as it is where the ufunc raises no floating-point flag, and
elsewhere calls it with the flags ignored and checks the value.  The
stacked tape checks a guarded column once: its values finite (every value
a guard refuses is NaN or infinite), or for ``/``, no divisor zero.
Failures stay the scalar route's: when a column fails its check, or
anything else goes wrong in a stacked call, the scalar function runs over
the stack's points in order and raises what it meets first.  Stacks of
fewer than :data:`STACK_MIN_POINTS` points run point by point, which is
faster below that size.
"""

from __future__ import annotations

import math
import operator
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
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "call",
]


# ---------------------------------------------------------------------------
# guarded primitives (shared by the interpreter, constant folding and
# compiled code, so every route computes each value with the same kernel and
# refuses the same inputs with the same message)
# ---------------------------------------------------------------------------


def _kernel(ufunc, low: float, high: float, refuse=None):
    """A function's scalar guard and its stacked twin, both calling ``ufunc``.

    On ``low < x < high`` the ufunc raises no floating-point flag that numpy
    would warn about, so the guard calls it as it is; elsewhere it calls it
    with the flags ignored, and ``refuse(x, value)`` is the message for an
    argument out of the domain, or false.  The value at every argument
    ``refuse`` names is NaN or infinite, so the twin calls the ufunc once on
    a column and checks only that the column is finite."""

    def guarded(x: float) -> float:
        if low < x < high:
            return float(ufunc(x))
        with np.errstate(all="ignore"):
            value = float(ufunc(x))
        message = refuse is not None and refuse(x, value)
        if message:
            raise ExpressionDomainError(message)
        return value

    def stacked(x):
        if not isinstance(x, np.ndarray):
            return guarded(x)
        return ufunc(x) if refuse is None else _finite(ufunc(x))

    return guarded, stacked


def _infinite_argument(name: str):
    return lambda x, value: math.isinf(x) and f"{name} of non-finite value {x!r}"


def _overflow(name: str):
    return lambda x, value: math.isinf(value) and math.isfinite(x) and f"overflow in {name}({x!r})"


def _guard_div(a: float, b: float) -> float:
    if b == 0.0:
        raise ExpressionDomainError("division by zero")
    return a / b


def _guard_pow(a: float, b: float) -> float:
    """``a ^ b`` in every route: ``np.power``, here on floats."""
    # with |a| = m 2^e, 1/2 <= m < 1, |a|^b < 2^1023 while |b| (|e| + 1) <
    # 1023; so with a positive base or an integer exponent, and no zero
    # raised to a power that is not positive, no flag but underflow rises
    if abs(b) * (abs(math.frexp(a)[1]) + 1) < 1023.0 and (
        a > 0.0 or b == math.floor(b) and (a != 0.0 or b > 0.0)
    ):
        return float(np.power(a, b))
    with np.errstate(all="ignore"):
        value = float(np.power(a, b))
    if math.isnan(value) and not (math.isnan(a) or math.isnan(b)):
        raise ExpressionDomainError(
            f"{a!r} ^ {b!r} leaves the real domain (negative base, fractional exponent)"
        )
    if math.isinf(value) and math.isfinite(a) and math.isfinite(b):
        if a == 0.0:
            raise ExpressionDomainError("zero raised to a negative exponent")
        raise ExpressionDomainError(f"overflow in {a!r} ^ {b!r}")
    return value


#: Each function's scalar guard and stacked twin, with the range where its
#: ufunc is quiet.  Outside it the guards refuse sin, cos and tan of an
#: infinite value, exp, sinh and cosh of a finite value that overflows, log
#: of a value that is not positive, and sqrt of a negative one.
_KERNELS = {
    "sin": _kernel(np.sin, -math.inf, math.inf, _infinite_argument("sin")),
    "cos": _kernel(np.cos, -math.inf, math.inf, _infinite_argument("cos")),
    "tan": _kernel(np.tan, -math.inf, math.inf, _infinite_argument("tan")),
    "sinh": _kernel(np.sinh, -709.0, 709.0, _overflow("sinh")),
    "cosh": _kernel(np.cosh, -709.0, 709.0, _overflow("cosh")),
    "tanh": _kernel(np.tanh, -math.inf, math.inf),
    "exp": _kernel(np.exp, -math.inf, 709.0, _overflow("exp")),
    "log": _kernel(
        np.log, 0.0, math.inf, lambda x, value: x <= 0.0 and f"log of non-positive value {x!r}"
    ),
    "sqrt": _kernel(
        np.sqrt, 0.0, math.inf, lambda x, value: x < 0.0 and f"sqrt of negative value {x!r}"
    ),
    "atan": _kernel(np.arctan, -math.inf, math.inf),
}

_FUNCTION_IMPL: dict[str, Callable[[float], float]] = {
    name: guard for name, (guard, _) in _KERNELS.items()
}

FUNCTION_NAMES = tuple(sorted(_FUNCTION_IMPL))

_BINARY_OPS = ("+", "-", "*", "/", "^")

#: Each operation on floats, by its op: what :func:`evaluate`, constant
#: folding and the scalar tape call.
_OPS: dict[str, Callable] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _guard_div,
    "^": _guard_pow, "neg": operator.neg, **_FUNCTION_IMPL,
}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


#: Every live node, under its key: ``(class, value, sign of value)`` for a
#: constant, ``(class, name)`` for a variable, ``(class, op, *child ids)``
#: otherwise, as a weak reference that carries its key, so a node lives as
#: long as something else uses it.  When a node dies, one shared callback
#: drops its key, but only while the key still maps to that dead entry: a
#: node freed late by gc may have a successor under its key by then.  A live
#: node keeps its children, and so their ids, alive; keys hold ids rather
#: than the children, so a derivative cached on the node it contains
#: (d exp(u) = exp(u) du) is a cycle gc can free.  Only this table keys on
#: ids; a walk's tables key on the nodes, which live while it runs.
_INTERNED: dict = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _evict(entry: _Entry) -> None:
    if _INTERNED.get(entry.key) is entry:
        del _INTERNED[entry.key]


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
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return power(self, other)

    def __neg__(self):
        return neg(self)


_set = object.__setattr__
_alloc = object.__new__


def _new_node(cls, key, depth: int, *fields) -> Expression:
    """A node of ``cls`` with ``fields`` in its slots, entered under ``key``."""
    node = _alloc(cls)
    _set(node, "depth", depth)
    _set(node, "_derivatives", None)
    for name, value in zip(cls.__slots__, fields):
        _set(node, name, value)
    entry = _INTERNED[key] = _Entry(node, _evict)
    entry.key = key
    return node


class Const(Expression):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)
        # 0.0 == -0.0, so the sign is part of the key: constants are equal
        # only when their bits are
        key = (cls, value, math.copysign(1.0, value))
        entry = _INTERNED.get(key)
        node = None if entry is None else entry()
        if node is None:
            if not math.isfinite(value):
                raise ValueError("constants must be finite")
            node = _new_node(cls, key, 1, value)
        return node


class Var(Expression):
    __slots__ = ("name",)

    def __new__(cls, name):
        key = (cls, name)
        entry = _INTERNED.get(key)
        node = None if entry is None else entry()
        if node is None:
            node = _new_node(cls, key, 1, name)
        return node


class Unary(Expression):
    __slots__ = ("op", "operand")  # op: "neg" or a function name

    def __new__(cls, op, operand):
        key = (cls, op, id(operand))
        entry = _INTERNED.get(key)
        node = None if entry is None else entry()
        if node is None:
            if op != "neg" and op not in _FUNCTION_IMPL:
                raise ValueError(f"unknown unary op {op!r}")
            node = _new_node(cls, key, operand.depth + 1, op, operand)
        return node


class Binary(Expression):
    __slots__ = ("op", "left", "right")

    def __new__(cls, op, left, right):
        key = (cls, op, id(left), id(right))
        entry = _INTERNED.get(key)
        node = None if entry is None else entry()
        if node is None:
            if op not in _BINARY_OPS:
                raise ValueError(f"unknown binary op {op!r}")
            node = _alloc(cls)  # _new_node inline
            depth, other = left.depth, right.depth
            _set_depth(node, (depth if depth > other else other) + 1)
            _set_derivatives(node, None)
            _set_op(node, op)
            _set_left(node, left)
            _set_right(node, right)
            entry = _INTERNED[key] = _Entry(node, _evict)
            entry.key = key
        return node


# most nodes are binary: their slots are set through the member descriptors,
# past the refusing __setattr__ with no lookup by name
_set_depth, _set_derivatives = Expression.depth.__set__, Expression._derivatives.__set__
_set_op, _set_left, _set_right = Binary.op.__set__, Binary.left.__set__, Binary.right.__set__


def _coerce(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


_NODES = (Binary, Const, Unary, Var)  # the commonest operand types first


# ---------------------------------------------------------------------------
# smart constructors: constant folding and 0/1 identities only (-0.0 is a
# zero); most operands are nodes that are not constants, so types come first
# ---------------------------------------------------------------------------


def _fold_binary(op: str, a: Const, b: Const) -> Const | None:
    try:
        value = _OPS[op](a.value, b.value)
    except ExpressionDomainError:
        return None
    if not math.isfinite(value):
        return None
    return Const(value)


def add(a, b) -> Expression:
    if type(a) not in _NODES:
        a = _coerce(a)
    if type(b) not in _NODES:
        b = _coerce(b)
    ca, cb = type(a) is Const, type(b) is Const
    if ca or cb:
        if ca and cb:
            folded = _fold_binary("+", a, b)
            if folded is not None:
                return folded
        if ca and a.value == 0.0:
            return b
        if cb and b.value == 0.0:
            return a
    return Binary("+", a, b)


def sub(a, b) -> Expression:
    if type(a) not in _NODES:
        a = _coerce(a)
    if type(b) not in _NODES:
        b = _coerce(b)
    ca, cb = type(a) is Const, type(b) is Const
    if ca or cb:
        if ca and cb:
            folded = _fold_binary("-", a, b)
            if folded is not None:
                return folded
        if cb and b.value == 0.0:
            return a
        if ca and a.value == 0.0:
            return neg(b)
    return Binary("-", a, b)


def mul(a, b) -> Expression:
    if type(a) not in _NODES:
        a = _coerce(a)
    if type(b) not in _NODES:
        b = _coerce(b)
    ca, cb = type(a) is Const, type(b) is Const
    if ca or cb:
        if ca and cb:
            folded = _fold_binary("*", a, b)
            if folded is not None:
                return folded
        x = a.value if ca else None
        y = b.value if cb else None
        if x == 0.0 or y == 0.0:
            return Const(0.0)
        if x == 1.0:
            return b
        if y == 1.0:
            return a
        if x == -1.0:
            return neg(b)
        if y == -1.0:
            return neg(a)
    return Binary("*", a, b)


def div(a, b) -> Expression:
    if type(a) not in _NODES:
        a = _coerce(a)
    if type(b) not in _NODES:
        b = _coerce(b)
    ca, cb = type(a) is Const, type(b) is Const
    if ca or cb:
        if ca and cb:
            folded = _fold_binary("/", a, b)
            if folded is not None:
                return folded
        y = b.value if cb else None
        if y == 1.0:
            return a
        if ca and a.value == 0.0 and y != 0.0:
            return Const(0.0)
        if y == -1.0:
            return neg(a)
    return Binary("/", a, b)


def neg(a) -> Expression:
    if type(a) not in _NODES:
        a = _coerce(a)
    if type(a) is Const:
        return Const(-a.value)
    if type(a) is Unary and a.op == "neg":
        return a.operand
    return Unary("neg", a)


def power(a, exponent) -> Expression:
    if type(a) not in _NODES:
        a = _coerce(a)
    if type(exponent) not in _NODES:
        exponent = _coerce(exponent)
    if type(exponent) is Const:
        if type(a) is Const:
            folded = _fold_binary("^", a, exponent)
            if folded is not None:
                return folded
        if exponent.value == 1.0:
            return a
        if exponent.value == 0.0:
            return Const(1.0)
    return Binary("^", a, exponent)


def call(name: str, arg) -> Expression:
    if type(arg) not in _NODES:
        arg = _coerce(arg)
    if name not in _FUNCTION_IMPL:
        raise ValueError(f"unknown function {name!r}")
    if type(arg) is Const:
        try:
            value = _FUNCTION_IMPL[name](arg.value)
        except ExpressionDomainError:
            value = None
        if value is not None and math.isfinite(value):
            return Const(value)
    return Unary(name, arg)


# ---------------------------------------------------------------------------
# the walk: the one order every pass but the parser runs over
# ---------------------------------------------------------------------------


def _post_order(
    roots: Sequence[Expression], variable: str | None = None, powers: list | None = None
) -> list[Expression]:
    """The distinct nodes under ``roots`` in post-order: left subtree, right
    subtree, node, one root after another, the order in which a memoized
    recursive walk meets them.  Given ``variable``, a node that holds its
    derivative by ``variable`` is left out, with all that only it leads to,
    and each ``^`` node is added to ``powers`` as the walk enters it."""
    order: list[Expression] = []
    seen: set[Expression] = set()  # nodes hash by identity
    # a node, then None above it, then its children, the left one on top:
    # popping the None means the children are done and the node comes next
    stack: list = list(reversed(roots))
    pop, push, enter = stack.pop, stack.extend, seen.add
    while stack:
        node = pop()
        if node is None:
            order.append(pop())
            continue
        if node in seen:
            continue
        enter(node)
        kind = type(node)
        if variable is not None:
            derivatives = node._derivatives
            if derivatives is not None and variable in derivatives:
                continue
            if kind is Binary and node.op == "^":
                powers.append(node)
        if kind is Binary:
            push((node, None, node.right, node.left))
        elif kind is Unary:
            push((node, None, node.operand))
        else:
            order.append(node)
    return order


def _consumers(roots: Sequence[Expression], order: list[Expression]) -> dict[Expression, int]:
    """How many consumers each node in ``order`` has.  A consumer is an
    operand slot of a distinct node or a root's place in ``roots``, so
    ``x * x`` counts twice for ``x``."""
    consumers: dict[Expression, int] = {}
    count = consumers.get
    for root in roots:
        consumers[root] = count(root, 0) + 1
    for node in order:
        kind = type(node)
        if kind is Binary:
            left, right = node.left, node.right
            consumers[left] = count(left, 0) + 1
            consumers[right] = count(right, 0) + 1
        elif kind is Unary:
            operand = node.operand
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
    printed: dict[Expression, tuple[str, int]] = {}  # text and precedence

    def take(child: Expression) -> tuple[str, int]:
        # dropped after its last consumer: a deep chain keeps one long text
        uses[child] -= 1
        return printed.pop(child) if uses[child] == 0 else printed[child]

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
        printed[node] = entry
    return printed[expression][0]


# ---------------------------------------------------------------------------
# evaluation / differentiation / rewriting
# ---------------------------------------------------------------------------


def evaluate(expression: Expression, point: Mapping[str, float]) -> float:
    """Evaluate at a point given as a name -> value mapping.

    Missing variables raise KeyError; out-of-domain arithmetic raises
    ExpressionDomainError.  The result is always a finite float.
    """
    values: dict[Expression, float] = {}
    for node in _post_order((expression,)):
        kind = type(node)
        if kind is Const:
            value = node.value
        elif kind is Var:
            value = float(point[node.name])
        elif kind is Unary:
            value = _OPS[node.op](values[node.operand])
        else:
            value = _OPS[node.op](values[node.left], values[node.right])
        values[node] = value
    value = values[expression]
    if not math.isfinite(value):
        raise ExpressionDomainError("expression value is not finite")
    return value


def variables_of(*expressions: Expression) -> frozenset[str]:
    """The variables of all ``expressions``, in one walk of their nodes."""
    return frozenset(node.name for node in _post_order(expressions) if type(node) is Var)


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
    powers: list[Expression] = []
    order = _post_order((expression,), variable, powers)
    # d(a^c) needs c first: a bad exponent fails before its base, in the
    # order the walk enters them
    exponents = {node: _exponent_value(node.right) for node in powers}
    for node in order:
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
                c = exponents[node]
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
        derivatives = node._derivatives
        if derivatives is None:
            derivatives = {}
            _set_derivatives(node, derivatives)
        derivatives[variable] = result
    return expression._derivatives[variable]


def simplify(expression: Expression) -> Expression:
    """Rebuild bottom-up through the smart constructors."""
    return substitute(expression, {})


_REBUILD = {"+": add, "-": sub, "*": mul, "/": div, "^": power}


def substitute(expression: Expression, bindings: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions (used e.g. to reverse a curve's
    parameter).  Unbound variables pass through."""
    results: dict[Expression, Expression] = {}
    for node in _post_order((expression,)):
        kind = type(node)
        if kind is Const:
            result = node
        elif kind is Var:
            result = bindings.get(node.name, node)
        elif kind is Unary:
            inner = results[node.operand]
            result = neg(inner) if node.op == "neg" else call(node.op, inner)
        else:
            result = _REBUILD[node.op](results[node.left], results[node.right])
        results[node] = result
    return results[expression]


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------


def compile_expressions(
    expressions: Sequence[Expression], variables: Sequence[str]
) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """Compile a batch of expressions into one function ``p -> tuple``.

    ``p`` is indexed positionally in the order of ``variables``.  Each node
    is evaluated once, and nodes are interned, so every common subexpression
    (say, a factor of a symbolic inverse metric) is evaluated a single time.
    Raises KeyError at compile time for variables not in the list.

    The function runs a tape: the constants in a template of slots, one
    load per variable, and one ``(slot, function, operand slots)`` step per
    operation node, in post-order.  On a stack of points the same steps run
    on numpy columns (their functions swapped at the first stack for ones
    that take columns), and each column is dropped after its last consumer.

    Called on an ``(m, len(variables))`` array of points, the function
    returns an ``(m, len(expressions))`` array whose row ``k`` is
    bit-identical to the tuple for point ``k`` (see the module docstring).

    The function's ``reads`` attribute lists the positions in ``variables``
    that its tape loads, ascending; its values depend on those alone.
    """
    index = {name: i for i, name in enumerate(variables)}
    expressions = list(expressions)
    order = _post_order(expressions)
    slot = {node: k for k, node in enumerate(order)}  # not kept by the closures
    template = [node.value if type(node) is Const else None for node in order]
    loads, steps = [], []
    for k, node in enumerate(order):
        kind = type(node)
        if kind is Binary:
            steps.append((k, _OPS[node.op], slot[node.left], slot[node.right]))
        elif kind is Unary:
            steps.append((k, _OPS[node.op], slot[node.operand], None))
        elif kind is Var:
            if node.name not in index:
                raise KeyError(f"variable {node.name!r} not among {tuple(index)}")
            loads.append((k, index[node.name]))
    roots = [slot[e] for e in expressions]
    count, isfinite = len(roots), math.isfinite
    stack_steps: list = []  # the tape on numpy columns, built at its first stack

    def run(p, tape):
        values = template.copy()
        for k, i in loads:
            values[k] = p[i]
        for k, f, a, b in tape:
            values[k] = f(values[a]) if b is None else f(values[a], values[b])
        return tuple([values[r] for r in roots])

    def point_by_point(points: np.ndarray) -> np.ndarray:
        values = [compiled(row) for row in points.tolist()]
        return np.array(values, dtype=float).reshape(len(values), count)

    def stacked(points: np.ndarray) -> np.ndarray:
        points = points.astype(float, copy=False)
        if len(points) < STACK_MIN_POINTS:
            return point_by_point(points)
        if not stack_steps:
            # a step after each column's last consumer writes None over it
            last = {a: n for n, step in enumerate(steps) for a in step[2:]}
            for a in (None, *roots):
                last.pop(a, None)
            tape = [[(k, _TO_STACK.get(f, f), a, b)] for k, f, a, b in steps]
            for a, n in last.items():
                tape[n].append((a, _released, a, None))
            stack_steps.extend(step for group in tape for step in group)
        out = np.empty((len(points), count))
        columns = [c.copy() for c in points.T]
        try:
            with np.errstate(all="ignore"):
                for j, column in enumerate(run(columns, stack_steps)):
                    out[:, j] = column
                _finite(out.reshape(-1))
        except ExpressionDomainError:
            return point_by_point(points)  # raises the scalar route's error
        return out

    def compiled(p):
        if isinstance(p, np.ndarray) and p.ndim == 2:
            return stacked(p)
        out = run(p, steps)
        # a value that is not finite makes the sum so; a sum overflowing from
        # finite values is checked value by value
        if not isfinite(sum(out)) and not all(map(isfinite, out)):
            raise ExpressionDomainError("expression value is not finite")
        return out

    compiled.reads = tuple(sorted({i for _, i in loads}))
    return compiled


#: Stacks with fewer points run point by point: per tape step, a numpy
#: call costs about as much as 32 to 64 scalar evaluations of that step.
STACK_MIN_POINTS = 32

_sum = np.add.reduce


def _finite(column: np.ndarray) -> np.ndarray:
    """``column``, once no value in it is NaN or infinite.  A sum of finite
    values is finite unless it overflows, and abs and max decide that rare
    case (kernels a process has used already: each new one adds to its
    resident memory)."""
    if math.isfinite(_sum(column)) or np.abs(column).max() < math.inf:
        return column
    raise ExpressionDomainError("a value is not finite")


def _stack_div(a, b):
    # count_nonzero rather than b == 0.0, with the same decision (-0.0 is
    # zero, NaN is not): a process's first comparison kernel adds to its
    # resident memory, and the tapes of RK4 slopes need no other
    if (np.count_nonzero(b) < len(b) if isinstance(b, np.ndarray) else b == 0.0):
        raise ExpressionDomainError("division by zero")
    return a / b


def _stack_pow(a, b):
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return _guard_pow(a, b)
    return _finite(np.power(a, b))


#: The stacked tape's function for each guard the scalar tape calls.  Any
#: ExpressionDomainError sends a stack back to the scalar route.
_TO_STACK = {
    _guard_div: _stack_div,
    _guard_pow: _stack_pow,
    **dict(_KERNELS.values()),
}


def _released(column) -> None:
    return None
