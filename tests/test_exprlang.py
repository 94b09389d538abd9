"""Parser, printer, evaluator, exact-derivative and interning tests."""

import ast
import dis
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflat import exprlang
from cartanflat.errors import ExpressionDomainError, ParseError, UnknownIdentifierError
from cartanflat.exprlang import (
    INLINE_DEPTH,
    MAX_DEPTH,
    STACK_MIN_POINTS,
    Binary,
    Const,
    Unary,
    Var,
    add,
    compile_expressions,
    differentiate,
    evaluate,
    mul,
    neg,
    parse,
    simplify,
    substitute,
    to_text,
    variables_of,
)
from cartanflat.presets import random_metric
from cartanflat.sasaki import flatness_scan
from genexpr import central_difference, check_derivative_against_fd, random_expression

XY = ("x", "y")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_sin_squared_structure():
    assert parse("sin(x)^2", XY) == Binary("^", Unary("sin", Var("x")), Const(2.0))


def test_parse_quotient_structure():
    assert parse("1/y^2", XY) == Binary("/", Const(1.0), Binary("^", Var("y"), Const(2.0)))


def test_precedence_and_associativity():
    assert parse("a - b - c", ("a", "b", "c")) == Binary(
        "-", Binary("-", Var("a"), Var("b")), Var("c")
    )
    # ^ binds tighter than unary minus
    assert parse("-x^2", XY) == Unary("neg", Binary("^", Var("x"), Const(2.0)))
    assert parse("2^3^2", ()) == Binary("^", Const(2.0), Binary("^", Const(3.0), Const(2.0)))
    assert parse("x + y * 2", XY) == Binary("+", Var("x"), Binary("*", Var("y"), Const(2.0)))


def test_negative_literal_folds_to_constant():
    assert parse("-2", ()) == Const(-2.0)
    assert parse("x^-2", XY) == Binary("^", Var("x"), Const(-2.0))


def test_unknown_identifier_is_named():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("sin(q)", XY)
    assert err.value.name == "q"
    assert err.value.offset == 4


def test_unknown_function_is_named():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("foo(x)", XY)
    assert err.value.name == "foo"


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse("x + * y", XY)
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("(x + y", XY)
    assert err.value.offset == 6
    with pytest.raises(ParseError):
        parse("x + ", XY)
    with pytest.raises(ParseError):
        parse("x 2", XY)


def test_numbers_beyond_the_float_range_are_refused_with_their_offset():
    with pytest.raises(ParseError) as err:
        parse("x + 1e400", XY)
    assert err.value.offset == 4
    assert parse("1e308", ()) == Const(1e308)


def test_exponent_must_be_constant():
    with pytest.raises(ParseError):
        parse("x^y", XY)
    # constant subexpressions are allowed as exponents
    assert parse("x^(1 + 1)", XY) == Binary(
        "^", Var("x"), Binary("+", Const(1.0), Const(1.0))
    )


def test_function_without_parentheses_rejected():
    with pytest.raises(ParseError):
        parse("sin + 1", XY)


@pytest.mark.parametrize(
    "deepest, text",
    [
        ("1" + " + x" * (MAX_DEPTH - 1), "operators in a row"),
        ("(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1), "brackets"),
        ("sin(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1), "function calls"),
        ("-" * (MAX_DEPTH - 1) + "2", "unary minus"),
        ("x" + "^2" * (MAX_DEPTH - 1), "exponents"),
    ],
)
def test_parse_refuses_expressions_deeper_than_the_bound(deepest, text):
    parse(deepest, XY)
    one_more = {
        "operators in a row": deepest + " + x",
        "brackets": "(" + deepest + ")",
        "function calls": "sin(" + deepest + ")",
        "unary minus": "-" + deepest,
        "exponents": deepest + "^2",
    }[text]
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse(one_more, XY)


def test_parse_refuses_deep_input_without_recursing_into_it():
    with pytest.raises(ParseError):
        parse("(" * 3000 + "x" + ")" * 3000, XY)
    with pytest.raises(ParseError):
        parse("x" + " + x" * 1600, XY)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_basics():
    assert evaluate(parse("sin(x)^2", XY), {"x": math.pi / 2, "y": 0.0}) == 1.0
    assert evaluate(parse("4*atan(exp(x+y))", XY), {"x": 0.0, "y": 0.0}) == pytest.approx(
        math.pi, rel=1e-15
    )


def test_evaluate_domain_errors():
    with pytest.raises(ExpressionDomainError):
        evaluate(parse("1/y^2", XY), {"x": 0.0, "y": 0.0})
    with pytest.raises(ExpressionDomainError):
        evaluate(parse("log(x)", XY), {"x": -1.0, "y": 0.0})
    with pytest.raises(ExpressionDomainError):
        evaluate(parse("log(x)", XY), {"x": 0.0, "y": 0.0})
    with pytest.raises(ExpressionDomainError):
        evaluate(parse("sqrt(x)", XY), {"x": -0.5, "y": 0.0})
    with pytest.raises(ExpressionDomainError):
        evaluate(parse("x^0.5", XY), {"x": -1.0, "y": 0.0})
    with pytest.raises(ExpressionDomainError):
        evaluate(parse("exp(x)", XY), {"x": 1e6, "y": 0.0})


def test_integer_power_of_negative_base_is_fine():
    assert evaluate(parse("x^2", XY), {"x": -3.0, "y": 0.0}) == 9.0


def test_evaluate_missing_variable_raises_keyerror():
    with pytest.raises(KeyError):
        evaluate(parse("x + y", XY), {"x": 1.0})


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_derivative_of_reciprocal_square():
    d = differentiate(parse("1/y^2", XY), "y")
    assert evaluate(d, {"x": 0.0, "y": 2.0}) == -0.25


def test_derivative_of_kink_profile():
    # d/dx 4*atan(exp(x+y)) = 4 exp(x+y) / (1 + exp(x+y)^2), value 2 at origin
    e = parse("4*atan(exp(x+y))", XY)
    d = differentiate(e, "x")
    at0 = {"x": 0.0, "y": 0.0}
    exact = evaluate(d, at0)
    assert exact == 2.0
    fd = central_difference(e, "x", at0, 1e-5)
    assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact))


def test_derivative_of_sin_squared():
    d = differentiate(parse("sin(x)^2", XY), "x")
    for x in (0.0, 0.7, 1.3, -2.1):
        assert evaluate(d, {"x": x, "y": 0.0}) == pytest.approx(
            2.0 * math.sin(x) * math.cos(x), rel=1e-14, abs=1e-15
        )


def test_derivative_rules_against_fd_spot_checks():
    cases = [
        ("tan(x)", "x"),
        ("tanh(x * y)", "x"),
        ("log(x + 2)", "x"),
        ("sqrt(x + y)", "y"),
        ("cosh(x) * sinh(y)", "y"),
        ("x / (y + 1)", "y"),
        ("atan(x - y)", "x"),
    ]
    point = {"x": 0.9, "y": 0.6}
    for text, name in cases:
        e = parse(text, XY)
        exact = evaluate(differentiate(e, name), point)
        fd = central_difference(e, name, point, 1e-5)
        assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)), text


def test_derivative_wrt_absent_variable_is_zero():
    assert differentiate(parse("sin(x)", XY), "y") == Const(0.0)


def test_differentiate_reads_an_exponent_before_its_base():
    # both exponents are bad: d(a^c) needs c first, so the outer one fails
    with pytest.raises(ExpressionDomainError, match="division by zero"):
        differentiate(parse("(x^log(-1))^(1/0)", XY), "x")


# ---------------------------------------------------------------------------
# printing and round trip
# ---------------------------------------------------------------------------


def test_printer_exact_texts():
    assert to_text(parse("sin(x)^2", XY)) == "sin(x)^2"
    assert to_text(parse("1/y^2", XY)) == "1 / y^2"
    assert to_text(parse("-x^2", XY)) == "-x^2"
    assert to_text(parse("(x + y) * 2", XY)) == "(x + y) * 2"
    assert to_text(Const(-2.0)) == "-2"


def test_signed_zero_constants_print_and_parse_back_to_themselves():
    assert to_text(neg(Const(0.0))) == "-0"
    assert parse("-0", XY) is Const(-0.0)
    for e in (
        neg(Const(0.0)),
        Const(0.0),
        Binary("^", Const(-0.0), Const(2.0)),
        Binary("-", Var("x"), Const(-0.0)),
        Binary("*", Const(-0.0), Var("y")),
        Unary("sin", Const(-0.0)),
        Binary("^", Var("x"), Const(-0.0)),
    ):
        assert parse(to_text(e), XY) is e, to_text(e)


def test_round_trip_preserves_grouping():
    for text in ("x - (y - 1)", "x * (y / 2)", "(x^2)^3", "x + -2", "-(x * y)"):
        e = parse(text, XY)
        assert parse(to_text(e), XY) == e


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_trip_random_asts(seed):
    rng = np.random.default_rng(seed)
    e = random_expression(rng, XY, depth=4)
    assert parse(to_text(e), XY) == e


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_derivative_matches_fd_random_asts(seed):
    rng = np.random.default_rng(seed)
    e = random_expression(rng, XY, depth=3)
    check_derivative_against_fd(e, XY, rng)


# ---------------------------------------------------------------------------
# simplify / substitute
# ---------------------------------------------------------------------------


def test_simplify_identities():
    assert simplify(parse("0*x + 1*y + 0", XY)) == Var("y")
    assert simplify(parse("x^1", XY)) == Var("x")
    assert simplify(parse("x^0", XY)) == Const(1.0)
    assert simplify(parse("(2 + 3) * x", XY)) == Binary("*", Const(5.0), Var("x"))
    # conservative: no cancellation of x - x
    assert simplify(parse("x - x", XY)) == Binary("-", Var("x"), Var("x"))


def test_simplify_preserves_value():
    rngs = [np.random.default_rng(s) for s in range(40)]
    point = {"x": 1.1, "y": 0.8}
    for rng in rngs:
        e = random_expression(rng, XY, depth=4)
        s = simplify(e)
        try:
            expected = evaluate(e, point)
        except ExpressionDomainError:
            continue
        assert evaluate(s, point) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_substitute_composes():
    e = parse("sin(x)^2 + y", XY)
    composed = substitute(e, {"x": parse("t + 1", ("t",))})
    assert variables_of(composed) == frozenset({"t", "y"})
    got = evaluate(composed, {"t": 0.4, "y": 2.0})
    assert got == evaluate(e, {"x": 1.4, "y": 2.0})


# ---------------------------------------------------------------------------
# compiled evaluation
# ---------------------------------------------------------------------------


def _bits(values) -> list[int]:
    return np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()


def _check_stacked_route(fn, expressions, stack) -> bool:
    """One call on a stack against the interpreter, point by point: every
    column bit for bit, or, where the scalar compiled route raises at some
    point, the same exception class and message.  True if values compared."""
    try:
        for row in stack.tolist():
            fn(tuple(row))
    except Exception as scalar_error:  # noqa: BLE001 - any class must match
        with pytest.raises(Exception) as stacked_error:
            fn(stack)
        assert type(stacked_error.value) is type(scalar_error)
        assert str(stacked_error.value) == str(scalar_error)
        return False
    out = fn(stack)
    assert out.shape == (len(stack), len(expressions))
    for j, e in enumerate(expressions):
        expected = [evaluate(e, {"x": x, "y": y}) for x, y in stack.tolist()]
        assert _bits(out[:, j]) == _bits(expected)
    return True


def test_compiled_matches_interpreter_bitwise():
    checked = 0
    outcomes = []
    for seed in range(120):
        rng = np.random.default_rng(seed)
        e = random_expression(rng, XY, depth=4)
        fn = compile_expressions([e], XY)
        p = (float(rng.uniform(0.3, 1.7)), float(rng.uniform(0.3, 1.7)))
        # the stacked route: stacks below and above the point-by-point cutoff
        exprs = [e, random_expression(rng, XY, depth=4), random_expression(rng, XY, depth=3)]
        stacked = compile_expressions(exprs, XY)
        for size in (STACK_MIN_POINTS - 5, 3 * STACK_MIN_POINTS):
            stack = rng.uniform(0.3, 1.7, (size, 2))
            outcomes.append(_check_stacked_route(stacked, exprs, stack))
        try:
            expected = evaluate(e, {"x": p[0], "y": p[1]})
        except ExpressionDomainError:
            with pytest.raises(ExpressionDomainError):
                fn(p)
            continue
        assert fn(p)[0] == expected  # bit-identical, not approx
        checked += 1
    assert checked > 40
    assert outcomes.count(True) > 40 and outcomes.count(False) > 20


def test_compiled_batch_and_shared_subtrees():
    shared = parse("sqrt(x^2 + y^2)", XY)
    exprs = [Binary("*", shared, Var("x")), Binary("+", shared, Const(1.0)), shared]
    fn = compile_expressions(exprs, XY)
    out = fn((3.0, 4.0))
    assert out == (15.0, 6.0, 5.0)


def test_evaluation_is_deterministic():
    e = parse("sin(x)*exp(y) - tanh(x/2) + x^3", XY)
    point = {"x": 0.37, "y": 1.21}
    values = {evaluate(e, point) for _ in range(10)}
    assert len(values) == 1


# ---------------------------------------------------------------------------
# interning
# ---------------------------------------------------------------------------


def test_structurally_equal_trees_are_one_object():
    built = Binary("+", Unary("sin", Var("x")), Binary("*", Const(2.0), Var("y")))
    assert parse("sin(x) + 2*y", XY) is built
    assert Binary("+", Unary("sin", Var("x")), Binary("*", Const(2.0), Var("y"))) is built
    assert Const(2) is Const(2.0)
    assert parse("sin(x) + 2*y", XY) is not parse("sin(x) + 2*x", XY)


def test_constants_intern_by_their_bits():
    assert Const(0.0) is not Const(-0.0)
    assert Const(0.0) is Const(0.0) and Const(-0.0) is Const(-0.0)
    assert math.copysign(1.0, Const(-0.0).value) == -1.0


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        Const(1.0).value = 2.0
    with pytest.raises(AttributeError):
        del Var("x").name


def test_each_derivative_is_taken_once():
    e = parse("sin(x*y)^2 / exp(x)", XY)
    first = differentiate(e, "x")
    assert differentiate(e, "x") is first
    assert differentiate(parse("sin(x*y)^2 / exp(x)", XY), "x") is first
    assert differentiate(e, "y") is not first


def _generated_code(fn):
    """The code object compile_expressions generated behind ``fn``."""
    cells = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))
    return cells["inner"].__code__


def _assignments(fn) -> int:
    """Lines of the generated function that assign a ``tN`` temporary."""
    return sum(name.startswith("t") for name in _generated_code(fn).co_varnames)


def _calls_to(fn, guard: str) -> int:
    return sum(
        ins.opname == "LOAD_GLOBAL" and ins.argval == guard
        for ins in dis.get_instructions(_generated_code(fn))
    )


def test_compiling_two_copies_of_a_subtree_emits_it_once():
    def copy():  # built afresh each call, never through a shared name
        return Binary("+", Unary("sqrt", Binary("*", Var("x"), Var("x"))), Unary("exp", Var("y")))

    once = compile_expressions([copy()], XY)
    twice = compile_expressions([Binary("*", copy(), Var("x")), Binary("-", copy(), Var("y"))], XY)
    for fn in (once, twice):
        assert _calls_to(fn, "_fn_sqrt") == 1
        assert _calls_to(fn, "_fn_exp") == 1
    assert twice((1.5, 0.25)) == (once((1.5, 0.25))[0] * 1.5, once((1.5, 0.25))[0] - 0.25)


def test_single_use_arithmetic_gets_no_line_of_its_own():
    assert _assignments(compile_expressions([parse("-(x*y + x) - y*(x - 2)", XY)], XY)) == 0
    # the guarded sqrt keeps its line; the arithmetic around it does not
    assert _assignments(compile_expressions([parse("2 * sqrt(x*x + y*y) - x", XY)], XY)) == 1
    # a node with two consumers keeps its line, whether they are nodes or roots
    product = parse("x * y", XY)
    assert _assignments(compile_expressions([product + 1.0, product - 1.0], XY)) == 1
    assert _assignments(compile_expressions([product + 1.0, product], XY)) == 1
    assert _assignments(compile_expressions([product, product], XY)) == 1


def test_inlining_stops_at_the_depth_cap():
    chain = Var("x")
    for k in range(INLINE_DEPTH):
        chain = Binary("+", chain, Const(k + 1.0))
    assert _assignments(compile_expressions([chain], XY)) == 0
    assert _assignments(compile_expressions([Binary("*", chain, Var("y"))], XY)) == 1


def test_a_single_use_chain_far_deeper_than_the_cap_compiles_bitwise():
    total = Const(0.0)
    for k in range(500):
        total = add(total, mul(Const(1.0 + 0.37 * k), Var(XY[k % 2])))
    fn = compile_expressions([total], XY)
    assert 0 < _assignments(fn) < 100
    stack = np.random.default_rng(500).uniform(-2.0, 2.0, (3 * STACK_MIN_POINTS, 2))
    expected = [evaluate(total, {"x": x, "y": y}) for x, y in stack.tolist()]
    assert _bits([fn(tuple(row))[0] for row in stack.tolist()]) == _bits(expected)
    assert _bits(fn(stack)[:, 0]) == _bits(expected)


@pytest.mark.parametrize(
    "texts, message",
    [
        (["(x*y - log(x)) * 2 + 1/y"], "log of non-positive value -1.0"),
        (["(x*y - 1/y) * 2 + log(x)"], "division by zero"),
        # the shared 1/y has a line of its own, which must come after log's
        (["log(x) + 1/y", "1/y"], "log of non-positive value -1.0"),
        (["sqrt(x) * (2 - 1/y)", "1/y + x"], "sqrt of negative value -1.0"),
    ],
)
def test_where_two_guards_fail_both_routes_raise_the_interpreters_error(texts, message):
    batch = [parse(text, XY) for text in texts]
    fn = compile_expressions(batch, XY)
    with pytest.raises(ExpressionDomainError) as reference:
        for e in batch:
            evaluate(e, {"x": -1.0, "y": 0.0})
    assert str(reference.value) == message
    with pytest.raises(ExpressionDomainError) as scalar:
        fn((-1.0, 0.0))
    stack = np.random.default_rng(2).uniform(0.5, 1.5, (3 * STACK_MIN_POINTS, 2))
    stack[40] = (-1.0, 0.0)
    with pytest.raises(ExpressionDomainError) as stacked:
        fn(stack)
    assert str(scalar.value) == str(stacked.value) == message


def test_nodes_are_released_with_the_metrics_that_use_them():
    gc.collect()
    before = len(exprlang._INTERNED)
    probe = None
    # seeds no other test draws: an equal entry alive elsewhere would be the same node
    for seed in range(10_000, 10_020):
        metric = random_metric(3, seed)
        flatness_scan(metric, "h", resolution=2)
        if probe is None:
            probe = weakref.ref(metric.entries[0][1])
        del metric
    gc.collect()
    assert probe() is None
    assert len(exprlang._INTERNED) - before < 50


# ---------------------------------------------------------------------------
# one iterative walk
# ---------------------------------------------------------------------------


def _chain(levels: int):
    """``2 / (1 + e * 1e-5)`` nested ``levels`` times around ``x``."""
    e = Var("x")
    for _ in range(levels):
        e = Binary("/", Const(2.0), Binary("+", Const(1.0), Binary("*", e, Const(1e-5))))
    return e


def test_every_pass_takes_a_chain_far_deeper_than_the_recursion_limit():
    e = _chain(3000)
    assert e.depth == 3 * 3000 + 1
    assert variables_of(e) == {"x"}
    assert simplify(e) is e
    de = differentiate(e, "x")
    assert differentiate(e, "x") is de
    expected = [evaluate(e, {"x": 0.5}), evaluate(de, {"x": 0.5})]
    assert _bits(compile_expressions([e, de], ("x",))((0.5,))) == _bits(expected)
    shallow = e  # the innermost 20 levels, which the parser's bound admits
    for _ in range(3000 - 20):
        shallow = shallow.right.right.left
    assert shallow is _chain(20)
    assert parse(to_text(shallow), ("x",)) is shallow
    text = to_text(e)
    assert text.endswith(to_text(shallow) + " * 1e-05)" * 2980)


def test_no_pass_but_the_parser_recurses():
    tree = ast.parse(Path(exprlang.__file__).read_text(encoding="utf-8"))

    def calling_themselves(scopes) -> list[str]:
        return sorted(
            fn.name
            for scope in scopes
            for fn in ast.walk(scope)
            if isinstance(fn, ast.FunctionDef)
            and any(
                isinstance(call, ast.Call)
                and fn.name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                for call in ast.walk(fn)
            )
        )

    parser = [node for node in tree.body if getattr(node, "name", None) == "_Parser"]
    assert "parse_unary" in calling_themselves(parser)
    assert calling_themselves(node for node in tree.body if node not in parser) == []
