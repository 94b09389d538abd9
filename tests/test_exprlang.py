"""Parser, printer, evaluator, exact-derivative and interning tests."""

import ast
import functools
import gc
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflat import cli, exprlang
from cartanflat.errors import ExpressionDomainError, ParseError, UnknownIdentifierError
from cartanflat.exprlang import (
    MAX_DEPTH,
    STACK_MIN_POINTS,
    Binary,
    Const,
    FUNCTION_NAMES,
    Expression,
    Unary,
    Var,
    add,
    call,
    compile_expressions,
    differentiate,
    div,
    evaluate,
    mul,
    neg,
    parse,
    power,
    simplify,
    sub,
    substitute,
    to_text,
    variables_of,
)
from cartanflat.cartan import orthonormal_frame
from cartanflat.metricspace import _leaves
from cartanflat.presets import PRESET_NAMES, preset_metric, random_metric
from cartanflat.sasaki import connection_matrix, curvature_form, flatness_scan
from genexpr import (
    EXPONENT_CHOICES,
    central_difference,
    check_derivative_against_fd,
    random_expression,
)

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


def _route_outcomes(e, stack) -> list:
    """What the interpreter, the scalar tape and the stacked tape make of
    ``e`` over a stack of points in x: the values as bits, or the class and
    message of the first error."""
    fn = compile_expressions([e], ("x",))
    xs = stack[:, 0].tolist()
    routes = (
        lambda: [evaluate(e, {"x": x}) for x in xs],
        lambda: [fn((x,))[0] for x in xs],
        lambda: fn(stack)[:, 0],
    )
    outcomes = []
    for route in routes:
        try:
            outcomes.append(_bits(route()))
        except Exception as error:  # noqa: BLE001 - any class must match
            outcomes.append((type(error), str(error)))
    return outcomes


def _edge_stacks() -> dict[str, np.ndarray]:
    """Stacks of ``3 * STACK_MIN_POINTS`` arguments at the kernels' edges."""
    n = 3 * STACK_MIN_POINTS
    rng = np.random.default_rng(26)
    top = math.log(np.finfo(float).max)  # the largest argument exp takes
    ulps = np.arange(-(n // 2), n - n // 2)
    with_zeros = rng.uniform(0.1, 3.0, n)
    with_zeros[[5, 50]] = 0.0, -0.0
    with_infinity = rng.uniform(0.1, 3.0, n)
    with_infinity[70] = math.inf
    stacks = {
        "positive": rng.uniform(0.1, 3.0, n),
        "negative": -rng.uniform(0.1, 3.0, n),
        "zeros": with_zeros,
        "tiny": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-320.0, -150.0, n),
        "huge": rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(150.0, 160.0, n),
        "below exp's top": np.linspace(top - 1.0, top, n),
        "across exp's top": np.linspace(top - 0.01, top + 0.01, n),
        "across cosh's top": np.linspace(710.4, 710.5, n),
        "around pi/2": np.nextafter(math.pi / 2, 4.0) + ulps * np.spacing(math.pi / 2),
        "infinite": with_infinity,
    }
    return {name: stack.reshape(n, 1) for name, stack in stacks.items()}


_EDGE_CASES = [*FUNCTION_NAMES, *(f"^{b!r}" for b in (*EXPONENT_CHOICES, 1.5, -0.5))]


@pytest.mark.parametrize("case", _EDGE_CASES)
def test_kernels_at_their_edges_agree_on_every_route(case):
    if case.startswith("^"):
        e = Binary("^", Var("x"), Const(float(case[1:])))
    else:
        e = Unary(case, Var("x"))
    compared = 0
    for name, stack in _edge_stacks().items():
        interpreted, scalar, stacked = _route_outcomes(e, stack)
        assert interpreted == scalar == stacked, name
        compared += isinstance(interpreted, list)
    assert compared >= 4


def test_compiled_batch_and_shared_subtrees():
    shared = parse("sqrt(x^2 + y^2)", XY)
    exprs = [Binary("*", shared, Var("x")), Binary("+", shared, Const(1.0)), shared]
    fn = compile_expressions(exprs, XY)
    out = fn((3.0, 4.0))
    assert out == (15.0, 6.0, 5.0)


def test_a_compiled_function_lists_the_variables_its_tape_loads():
    names = ("x", "y", "z")
    cases = [  # expressions, positions of the variables loaded
        (["z*x + 1"], (0, 2)),
        (["sin(y)", "y^2"], (1,)),
        (["2", "-0"], ()),
        (["x - x", "z"], (0, 2)),  # nothing simplifies x - x, so x is loaded
    ]
    for texts, reads in cases:
        fn = compile_expressions([parse(text, names) for text in texts], names)
        assert fn.reads == reads
        assert functools.wraps(fn)(lambda p: fn(p)).reads == reads  # kept by a wrapper
    # the value at a point depends only on those variables
    fn = compile_expressions([parse("z*x + 1", names)], names)
    points = np.array([[0.5, y, 2.0] for y in np.linspace(-1.0, 1.0, 40)])
    assert len({row.tobytes() for row in fn(points)}) == 1


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


def _cells(fn) -> dict:
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


def _steps_calling(fn, op: str) -> int:
    """Steps of a compiled function's scalar tape that call ``op``."""
    return sum(f is exprlang._OPS[op] for _, f, _, _ in _cells(fn)["steps"])


def test_compiling_two_copies_of_a_subtree_emits_it_once():
    def copy():  # built afresh each call, never through a shared name
        return Binary("+", Unary("sqrt", Binary("*", Var("x"), Var("x"))), Unary("exp", Var("y")))

    once = compile_expressions([copy()], XY)
    twice = compile_expressions([Binary("*", copy(), Var("x")), Binary("-", copy(), Var("y"))], XY)
    for fn in (once, twice):
        assert _steps_calling(fn, "sqrt") == 1
        assert _steps_calling(fn, "exp") == 1
    assert twice((1.5, 0.25)) == (once((1.5, 0.25))[0] * 1.5, once((1.5, 0.25))[0] - 0.25)


def test_a_single_use_chain_far_deeper_than_the_cap_compiles_bitwise():
    total = Const(0.0)
    for k in range(500):
        total = add(total, mul(Const(1.0 + 0.37 * k), Var(XY[k % 2])))
    assert total.depth > MAX_DEPTH
    fn = compile_expressions([total], XY)
    stack = np.random.default_rng(500).uniform(-2.0, 2.0, (3 * STACK_MIN_POINTS, 2))
    expected = [evaluate(total, {"x": x, "y": y}) for x, y in stack.tolist()]
    assert _bits([fn(tuple(row))[0] for row in stack.tolist()]) == _bits(expected)
    assert _bits(fn(stack)[:, 0]) == _bits(expected)


@pytest.mark.parametrize(
    "texts, message",
    [
        (["(x*y - log(x)) * 2 + 1/y"], "log of non-positive value -1.0"),
        (["(x*y - 1/y) * 2 + log(x)"], "division by zero"),
        # the shared 1/y has a tape step of its own, which comes after log's
        (["log(x) + 1/y", "1/y"], "log of non-positive value -1.0"),
        (["sqrt(x) * (2 - 1/y)", "1/y + x"], "sqrt of negative value -1.0"),
        # one case per message of the kernels' guards, each before a second
        # guard that fails too; at the good points (x, y in [0.5, 1.5]) every
        # argument stays inside the domain
        (["exp(800 - 700*y) + 1/y"], "overflow in exp(800.0)"),
        (["sinh(800 - 700*y) * log(x)"], "overflow in sinh(800.0)"),
        (["cosh(800 - 700*y)", "1/y"], "overflow in cosh(800.0)"),
        (["(y + 1e-200)^-2 + log(x)"], "overflow in 1e-200 ^ -2.0"),
        (["y^-1 + sqrt(x)"], "zero raised to a negative exponent"),
        (
            ["x^0.5 - 1/y"],
            "-1.0 ^ 0.5 leaves the real domain (negative base, fractional exponent)",
        ),
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
    assert type(reference.value) is type(scalar.value) is type(stacked.value)


@pytest.mark.parametrize("name", ["sin", "cos", "tan"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_periodic_functions_refuse_an_infinite_argument_on_every_route(name, sign):
    e = parse(f"{name}(x*1e300*1e300)", XY)
    message = f"{name} of non-finite value {sign * math.inf!r}"
    fn = compile_expressions([e], XY)
    stack = sign * np.random.default_rng(9).uniform(0.5, 1.5, (3 * STACK_MIN_POINTS, 2))
    point = {"x": sign, "y": 1.0}
    for route in (lambda: evaluate(e, point), lambda: fn((sign, 1.0)), lambda: fn(stack)):
        with pytest.raises(ExpressionDomainError) as caught:
            route()
        assert str(caught.value) == message


def _divided_in_turn(a, b) -> list | None:
    """The scalar guard's quotients, element by element, or None where it
    refuses some element."""
    try:
        return [exprlang._guard_div(x, y) for x, y in zip(a, b)]
    except ExpressionDomainError:
        return None


def _assert_stacked_division_is_the_guards(a, b, want):
    if want is None:
        with pytest.raises(ExpressionDomainError, match="division by zero"):
            exprlang._stack_div(a, b)
    else:
        assert _bits(exprlang._stack_div(a, b)) == _bits(want)


@pytest.mark.parametrize("special", [0.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, 17, 3 * STACK_MIN_POINTS - 1])
def test_stacked_division_by_a_column_decides_as_the_scalar_guard(special, row):
    rng = np.random.default_rng(row)
    stack = rng.uniform(0.5, 1.5, (3 * STACK_MIN_POINTS, 2))
    stack[row, 1] = special
    x, y = stack[:, 0].copy(), stack[:, 1].copy()
    want = _divided_in_turn(x.tolist(), y.tolist())
    assert (want is None) == (special == 0.0)  # -0.0 is zero, NaN is not
    _assert_stacked_division_is_the_guards(x, y, want)
    # through the tape: bit for bit the scalar route's, or its first error
    # (a NaN quotient is not finite)
    expressions = [parse("x / y", XY), parse("1 / y", XY)]
    fn = compile_expressions(expressions, XY)
    assert _check_stacked_route(fn, expressions, stack) == math.isinf(special)


@pytest.mark.parametrize("text", ["x / 2", "x / 0", "x / -0"])
def test_stacked_division_by_a_constant_decides_as_the_scalar_guard(text):
    e = parse(text, XY)
    divisor = e.right.value
    stack = np.random.default_rng(5).uniform(-2.0, 2.0, (3 * STACK_MIN_POINTS, 2))
    x = stack[:, 0].copy()
    want = _divided_in_turn(x.tolist(), [divisor] * len(x))
    assert (want is None) == (divisor == 0.0)
    _assert_stacked_division_is_the_guards(x, divisor, want)
    fn = compile_expressions([e], XY)
    assert _check_stacked_route(fn, [e], stack) == (want is not None)


@pytest.fixture
def scalar_kernel_calls(monkeypatch):
    """Counts the calls of the scalar route's guards (every operation of
    ``_OPS`` written in Python) by name, while ``np.fromiter``, the way to
    map a Python function over a column, raises."""

    def fromiter(*args, **kwargs):
        raise AssertionError("a function was mapped over the elements of a column")

    monkeypatch.setattr(exprlang.np, "fromiter", fromiter)
    guards = {f.__code__ for f in exprlang._OPS.values() if hasattr(f, "__code__")}
    calls: dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in guards:
            calls[frame.f_code.co_name] = calls.get(frame.f_code.co_name, 0) + 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def test_a_stack_calls_each_kernel_once_per_column(scalar_kernel_calls):
    e = parse("sin(x)^2 * cos(y) + exp(x - y) - atan(x * y)^2", XY)
    fn = compile_expressions([e], XY)
    stack = np.random.default_rng(64).uniform(0.5, 1.5, (64, 2))
    out = fn(stack)
    assert scalar_kernel_calls == {}
    expected = [evaluate(e, {"x": x, "y": y}) for x, y in stack.tolist()]
    assert _bits(out[:, 0]) == _bits(expected)


@pytest.mark.parametrize(
    "argv, points",
    [
        (["flatness", "--preset", "sphere3", "--variant", "s", "--grid", "6"], 6**3),
        (["zcr", "--grid", "21"], 21**2),
    ],
)
def test_grid_scans_call_the_kernels_on_columns(scalar_kernel_calls, capsys, argv, points):
    assert cli.main(argv) == 0
    # a few scalar evaluations (say, at a sample point) but none per point
    assert sum(scalar_kernel_calls.values()) < points


# ---------------------------------------------------------------------------
# one function, called many times
# ---------------------------------------------------------------------------


def test_where_two_guards_fail_the_tape_and_the_generated_code_raise_alike():
    cases = next(
        mark.args[1]
        for mark in test_where_two_guards_fail_both_routes_raise_the_interpreters_error.pytestmark
        if mark.name == "parametrize"
    )
    for texts, message in cases:
        fn = compile_expressions([parse(text, XY) for text in texts], XY)
        good = np.random.default_rng(2).uniform(0.5, 1.5, (3 * STACK_MIN_POINTS, 2))
        # three failing stacks through one function, each after 96 good points
        for bad in (3, 40, 90):
            rows = [fn(tuple(row)) for row in good.tolist()]
            with pytest.raises(ExpressionDomainError) as scalar:
                fn((-1.0, 0.0))
            stack = good.copy()
            stack[bad] = (-1.0, 0.0)
            with pytest.raises(ExpressionDomainError) as stacked:
                fn(stack)
            assert str(scalar.value) == str(stacked.value) == message
            # a failed stack leaves the function as it was
            assert _bits(fn(good).ravel()) == _bits([v for row in rows for v in row])


def test_the_scalar_finite_check_on_both_tiers():
    overflow = compile_expressions([parse("x * y", XY), parse("-(x * y)", XY), Var("y")], XY)
    big_sum = compile_expressions([Var("x"), Var("y")], XY)
    # inf - inf is nan: a sum over values that are not finite is not finite
    with pytest.raises(ExpressionDomainError, match="expression value is not finite"):
        overflow((1e200, 1e200))
    # a sum that overflows from finite values passes
    assert big_sum((1e308, 1e308)) == (1e308, 1e308)


def test_variables_of_several_expressions_is_their_union():
    assert variables_of(parse("x + 1", XY), parse("sin(y)", XY), Const(2.0)) == {"x", "y"}
    assert variables_of() == frozenset()


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
# node construction: the smart constructors' decision table, the intern
# table's lifecycle and the structure of derivatives, against references
# ---------------------------------------------------------------------------

# The smart constructors as they were before they tested their operands'
# types once, kept verbatim apart from a ``ref_`` prefix on every name they
# define and call: each decision of the constructors must be theirs.


def ref_coerce(x) -> Expression:
    if isinstance(x, Expression):
        return x
    if isinstance(x, (int, float)):
        return Const(float(x))
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def ref_fold_binary(op: str, a: Const, b: Const) -> Const | None:
    try:
        value = exprlang._OPS[op](a.value, b.value)
    except ExpressionDomainError:
        return None
    if not math.isfinite(value):
        return None
    return Const(value)


def ref_is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def ref_add(a, b) -> Expression:
    a, b = ref_coerce(a), ref_coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = ref_fold_binary("+", a, b)
        if folded is not None:
            return folded
    if ref_is_const(a, 0.0):
        return b
    if ref_is_const(b, 0.0):
        return a
    return Binary("+", a, b)


def ref_sub(a, b) -> Expression:
    a, b = ref_coerce(a), ref_coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = ref_fold_binary("-", a, b)
        if folded is not None:
            return folded
    if ref_is_const(b, 0.0):
        return a
    if ref_is_const(a, 0.0):
        return ref_neg(b)
    return Binary("-", a, b)


def ref_mul(a, b) -> Expression:
    a, b = ref_coerce(a), ref_coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = ref_fold_binary("*", a, b)
        if folded is not None:
            return folded
    if ref_is_const(a, 0.0) or ref_is_const(b, 0.0):
        return Const(0.0)
    if ref_is_const(a, 1.0):
        return b
    if ref_is_const(b, 1.0):
        return a
    if ref_is_const(a, -1.0):
        return ref_neg(b)
    if ref_is_const(b, -1.0):
        return ref_neg(a)
    return Binary("*", a, b)


def ref_div(a, b) -> Expression:
    a, b = ref_coerce(a), ref_coerce(b)
    if isinstance(a, Const) and isinstance(b, Const):
        folded = ref_fold_binary("/", a, b)
        if folded is not None:
            return folded
    if ref_is_const(b, 1.0):
        return a
    if ref_is_const(a, 0.0) and not ref_is_const(b, 0.0):
        return Const(0.0)
    if ref_is_const(b, -1.0):
        return ref_neg(a)
    return Binary("/", a, b)


def ref_neg(a) -> Expression:
    a = ref_coerce(a)
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.operand
    return Unary("neg", a)


def ref_power(a, exponent) -> Expression:
    a = ref_coerce(a)
    exponent = ref_coerce(exponent)
    if isinstance(a, Const) and isinstance(exponent, Const):
        folded = ref_fold_binary("^", a, exponent)
        if folded is not None:
            return folded
    if ref_is_const(exponent, 1.0):
        return a
    if ref_is_const(exponent, 0.0):
        return Const(1.0)
    return Binary("^", a, exponent)


def ref_call(name: str, arg) -> Expression:
    arg = ref_coerce(arg)
    if name not in exprlang._FUNCTION_IMPL:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Const):
        try:
            value = exprlang._FUNCTION_IMPL[name](arg.value)
        except ExpressionDomainError:
            value = None
        if value is not None and math.isfinite(value):
            return Const(value)
    return Unary(name, arg)


_CONSTRUCTORS = {
    "add": (add, ref_add),
    "sub": (sub, ref_sub),
    "mul": (mul, ref_mul),
    "div": (div, ref_div),
    "power": (power, ref_power),
}

#: Signed zeros and units as constants, Python numbers, bools and numpy
#: floats; a constant that is none of those; the three kinds of node that
#: are not constants; and operands whose folds overflow (1e308 * 10) or
#: raise (1 / 0, (-1) ^ 0.5, 0 ^ -2).
_OPERANDS = (
    Const(0.0), Const(-0.0), Const(1.0), Const(-1.0), Const(2.5), Const(1e308),
    Var("x"), Unary("sin", Var("x")), Binary("*", Var("x"), Var("y")),
    0, 1, -1, 10, -2, 0.0, -0.0, 1.0, -1.0, 0.5, 2.5, 1e308, True, False,
    np.float64(0.0), np.float64(-0.0), np.float64(1.0), np.float64(-1.0), np.float64(2.5),
)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the reference's failure is an outcome to match
        return type(exc)


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_binary_constructors_decide_as_the_reference_on_every_operand_pair(name):
    new, ref = _CONSTRUCTORS[name]
    for a in _OPERANDS:
        for b in _OPERANDS:
            assert _outcome(new, a, b) is _outcome(ref, a, b), (name, a, b)


def test_unary_constructors_decide_as_the_reference_on_every_operand():
    for a in _OPERANDS:
        assert _outcome(neg, a) is _outcome(ref_neg, a), a
        for fn in ("exp", "log", "sqrt", "sinh", "atan"):
            assert _outcome(call, fn, a) is _outcome(ref_call, fn, a), (fn, a)
    assert Const(-0.0) is not Const(0.0)
    assert neg(Const(0.0)) is Const(-0.0) and mul(Const(-0.0), Var("x")) is Const(0.0)


def test_constructors_refuse_what_is_not_a_number():
    for new, ref in _CONSTRUCTORS.values():
        for a, b in (("x", Var("x")), (Var("x"), "x"), ("1", 1.0), (np.int64(2), Var("x"))):
            with pytest.raises(TypeError):
                new(a, b)
            assert _outcome(ref, a, b) is TypeError
    for fn in (neg, functools.partial(call, "exp")):
        with pytest.raises(TypeError):
            fn("x")
    with pytest.raises(TypeError):
        Var("x") + "y"
    with pytest.raises(TypeError):
        "y" * Var("x")


def test_a_dead_entry_never_evicts_its_live_successor():
    u = Var("lifecycle_u")
    cycle = call("exp", u)
    assert differentiate(cycle, "lifecycle_u") is cycle  # d exp(u) = exp(u) du: a cycle
    seen = {}

    def rebuild(_):
        # runs inside gc, after the dead node's entry is cleared and before
        # that entry's own callback: the successor goes in under its key
        seen["dead entries"] = sum(entry() is None for entry in exprlang._INTERNED.values())
        seen["successor"] = call("exp", u)

    probe = weakref.ref(cycle, rebuild)  # a later callback runs first
    del cycle
    gc.collect()
    assert probe() is None and seen["dead entries"] >= 1
    successor = seen.pop("successor")
    assert call("exp", u) is successor
    assert Unary("exp", u) is successor


def test_the_intern_table_returns_to_its_size_once_nodes_are_collected():
    gc.collect()
    before = len(exprlang._INTERNED)
    s, t = Var("lifecycle_s"), Var("lifecycle_t")
    built = [call("exp", mul(s, t)), div(call("log", add(s, 2.0)), power(t, 3.0)), Const(0.125)]
    for e in built:
        differentiate(e, "lifecycle_s")  # cycles: exp's derivative holds exp
    assert len(exprlang._INTERNED) > before
    del s, t, built, e
    gc.collect()
    assert len(exprlang._INTERNED) == before
    assert Const(0.0) is not Const(-0.0)


def ref_differentiate(e: Expression, v: str, memo: dict) -> Expression:
    """The recursive differentiator on the reference constructors."""
    if id(e) in memo:
        return memo[id(e)]
    kind = type(e)
    if kind is Const:
        result = Const(0.0)
    elif kind is Var:
        result = Const(1.0) if e.name == v else Const(0.0)
    elif kind is Unary:
        u, du = e.operand, ref_differentiate(e.operand, v, memo)
        result = {
            "neg": lambda: ref_neg(du),
            "sin": lambda: ref_mul(ref_call("cos", u), du),
            "cos": lambda: ref_neg(ref_mul(ref_call("sin", u), du)),
            "tan": lambda: ref_div(du, ref_power(ref_call("cos", u), 2.0)),
            "sinh": lambda: ref_mul(ref_call("cosh", u), du),
            "cosh": lambda: ref_mul(ref_call("sinh", u), du),
            "tanh": lambda: ref_div(du, ref_power(ref_call("cosh", u), 2.0)),
            "exp": lambda: ref_mul(ref_call("exp", u), du),
            "log": lambda: ref_div(du, u),
            "sqrt": lambda: ref_div(du, ref_mul(2.0, ref_call("sqrt", u))),
            "atan": lambda: ref_div(du, ref_add(1.0, ref_power(u, 2.0))),
        }[e.op]()
    else:
        a, b = e.left, e.right
        da = ref_differentiate(a, v, memo)
        if e.op == "^":
            c = evaluate(b, {})
            result = ref_mul(ref_mul(Const(c), ref_power(a, c - 1.0)), da)
        else:
            db = ref_differentiate(b, v, memo)
            result = {
                "+": lambda: ref_add(da, db),
                "-": lambda: ref_sub(da, db),
                "*": lambda: ref_add(ref_mul(da, b), ref_mul(a, db)),
                "/": lambda: ref_div(
                    ref_sub(ref_mul(da, b), ref_mul(a, db)), ref_power(b, 2.0)
                ),
            }[e.op]()
    memo[id(e)] = result
    return result


def _assert_derivatives_match_the_reference(expressions, names):
    for name in names:
        memo: dict = {}
        for e in expressions:
            assert differentiate(e, name) is ref_differentiate(e, name, memo), (to_text(e), name)


def test_derivatives_of_random_expressions_are_the_references_nodes():
    rng = np.random.default_rng(20)
    expressions = [random_expression(rng, XY, depth=4) for _ in range(300)]
    _assert_derivatives_match_the_reference(expressions, XY)


@pytest.mark.parametrize("source", [*PRESET_NAMES, "random2", "random3"])
def test_derivatives_of_connection_forms_are_the_references_nodes(source):
    if source.startswith("random"):
        metric = random_metric(int(source[-1]), 3)
    else:
        metric = preset_metric(source)
    frame = orthonormal_frame(metric)
    for variant in ("h", "s"):
        form = connection_matrix(frame, variant)
        entries = [entry for k in form.comps for row in k for entry in row]
        _assert_derivatives_match_the_reference(entries, metric.chart.names)


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


# ---------------------------------------------------------------------------
# the walk's order, against a memoized recursive walk
# ---------------------------------------------------------------------------


def ref_post_order(roots, done=lambda node: False) -> tuple[list, list]:
    """The memoized recursive walk the iterative one stands for: each
    distinct node after its left and right subtrees, one root after
    another; a node for which ``done`` holds is left out, with all that only
    it leads to.  Also the ``^`` nodes, in the order the walk enters them."""
    order, powers, seen = [], [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        if done(node):
            return
        if type(node) is Binary:
            if node.op == "^":
                powers.append(node)
            visit(node.left)
            visit(node.right)
        elif type(node) is Unary:
            visit(node.operand)
        order.append(node)

    for root in roots:
        visit(root)
    return order, powers


def _shared_dags(seed: int) -> list[Expression]:
    """Random expressions, then products of neighbours, so that later roots
    share whole subtrees with earlier ones."""
    rng = np.random.default_rng(seed)
    trees = [random_expression(rng, XY, depth=5) for _ in range(60)]
    return trees + [Binary("*", a, b) for a, b in zip(trees, trees[3:])]


def _forms(source: str) -> tuple[tuple[str, ...], list[list[Expression]]]:
    """The chart's names, and the connection and curvature forms of both
    variants, entry by entry."""
    if source.startswith("random"):
        metric = random_metric(int(source[-2]), int(source[-1]))
    else:
        metric = preset_metric(source)
    forms = []
    for variant in ("h", "s"):
        connection = connection_matrix(orthonormal_frame(metric), variant)
        forms += [list(_leaves(connection.comps)), list(_leaves(curvature_form(connection).comps))]
    return metric.chart.names, forms


_SOURCES = [*PRESET_NAMES, "random20", "random21", "random30", "random31"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_walk_of_random_shared_dags_is_the_recursive_walk(seed):
    roots = _shared_dags(seed)
    assert exprlang._post_order(roots) == ref_post_order(roots)[0]
    for root in roots[::7]:
        assert exprlang._post_order((root,)) == ref_post_order((root,))[0]


@pytest.mark.parametrize("source", _SOURCES)
def test_the_walk_of_every_connection_and_curvature_form_is_the_recursive_walk(source):
    for entries in _forms(source)[1]:
        assert exprlang._post_order(entries) == ref_post_order(entries)[0]
        assert exprlang._post_order(entries[-1:]) == ref_post_order(entries[-1:])[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_walk_cut_at_held_derivatives_is_the_recursive_walk_cut_there(seed):
    roots = _shared_dags(100 + seed)
    for root in roots[::3]:
        differentiate(root, "y")  # every node under these now holds d/dy
    powers: list = []
    order = exprlang._post_order(roots, "y", powers)

    def holds(node):
        return node._derivatives is not None and "y" in node._derivatives

    assert (order, powers) == ref_post_order(roots, holds)
    assert powers and len(order) < len(exprlang._post_order(roots))


def _cells(fn) -> dict:
    return dict(zip(fn.__code__.co_freevars, (cell.cell_contents for cell in fn.__closure__)))


def _assert_tape_follows_the_walk(roots, names):
    compiled = compile_expressions(roots, names)
    run = _cells(compiled)["run"]
    order = ref_post_order(roots)[0]
    slot = {id(node): k for k, node in enumerate(order)}
    steps = []
    for k, node in enumerate(order):
        if type(node) is Binary:
            steps.append((k, exprlang._OPS[node.op], slot[id(node.left)], slot[id(node.right)]))
        elif type(node) is Unary:
            steps.append((k, exprlang._OPS[node.op], slot[id(node.operand)], None))
    assert _cells(compiled)["steps"] == steps
    run_cells = _cells(run)
    assert run_cells["template"] == [n.value if type(n) is Const else None for n in order]
    assert run_cells["loads"] == [
        (k, names.index(n.name)) for k, n in enumerate(order) if type(n) is Var
    ]
    assert run_cells["roots"] == [slot[id(root)] for root in roots]


@pytest.mark.parametrize("source", ["random30", "sphere3", "pseudospherical"])
def test_compiled_steps_follow_the_walk(source):
    names, forms = _forms(source)
    for entries in forms:
        _assert_tape_follows_the_walk(entries, names)
    _assert_tape_follows_the_walk(_shared_dags(7), XY)


def test_a_compiled_function_keeps_none_of_its_nodes_alive():
    # constants no other test builds: an equal node alive elsewhere would be this one
    roots = [parse("sin(x) * y + exp(x / 3.0625)", XY), parse("x^2 - log(y + 7.4375)", XY)]
    probes = [weakref.ref(root) for root in roots]
    compiled = compile_expressions(roots, XY)
    point = compiled((0.5, 0.25))
    stack = compiled(np.full((STACK_MIN_POINTS, 2), 0.5))  # builds the stacked tape too
    del roots
    gc.collect()
    assert [probe() for probe in probes] == [None, None]
    assert compiled((0.5, 0.25)) == point
    assert _bits(compiled(np.full((STACK_MIN_POINTS, 2), 0.5))) == _bits(stack)
