import ast
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypframe.symexpr import (FUNCTIONS, ONE, T, Expr, ExprDomainError,
                              ExprSyntaxError, NonIntegerExponentError,
                              UnknownIdentifierError, add, compile, diff_expr,
                              div, eval_expr, fun, mul, num, parse_expr, pow_, sub,
                              to_source, vectorized)
from hypframe.symexpr import _TABLE, MAX_DEPTH, MAX_TOKENS

from oracles import central_diff, compile_recursive, tree_eval


def test_parse_literal():
    assert parse_expr("2") == Expr("num", 2.0) == num(2)
    assert parse_expr("  2.5e1 ") == Expr("num", 25.0)


def test_parse_structure():
    e = parse_expr("sinh(t)+t^2")
    assert e.kind == "add"
    assert e.a == Expr("fun", Expr("var"), "sinh")
    assert e.b == Expr("pow", Expr("var"), 2)


def test_parse_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert eval_expr(parse_expr("-t^2"), 3.0) == -9.0
    assert eval_expr(parse_expr("-2*3"), 0.0) == -6.0
    # left associativity of same-precedence operators
    assert eval_expr(parse_expr("1-2-3"), 0.0) == -4.0
    assert eval_expr(parse_expr("8/4/2"), 0.0) == 1.0
    assert eval_expr(parse_expr("2^3^2"), 0.0) == 64.0


def test_parse_whitespace_insignificant():
    assert parse_expr("sinh( t ) + t ^ 2") == parse_expr("sinh(t)+t^2")


def test_noninteger_exponent_rejected():
    with pytest.raises(NonIntegerExponentError):
        parse_expr("t^(1/2)")
    with pytest.raises(NonIntegerExponentError):
        parse_expr("t^2.5")
    with pytest.raises(NonIntegerExponentError):
        parse_expr("t^t")


def test_negative_and_folded_exponents():
    assert eval_expr(parse_expr("t^-2"), 2.0) == 0.25
    assert eval_expr(parse_expr("t^(3-1)"), 3.0) == 9.0


def test_syntax_error_columns():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("1+*2")
    assert err.value.column == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("sin(t")
    assert err.value.column == 6
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1+2))")
    # numbers are ASCII digits only: a superscript two or an Arabic-Indic
    # three is an unexpected character, not a number
    for source, column in (("t*\u00b2", 3), ("\u0663*t", 1)):
        with pytest.raises(ExprSyntaxError, match="unexpected character") as err:
            parse_expr(source)
        assert err.value.column == column


def test_depth_bound():
    """Sources of more than MAX_TOKENS tokens, and nesting of parentheses
    deeper than MAX_DEPTH, are syntax errors; at the bounds they parse."""
    chain = "+".join(["t"] * (MAX_TOKENS // 2))  # MAX_TOKENS - 1 one-character tokens
    assert to_source(parse_expr("-" + chain)) == "-" + chain
    with pytest.raises(ExprSyntaxError, match=f"expression longer than {MAX_TOKENS} tokens") as err:
        parse_expr("-" + chain + "+t")
    assert err.value.column == MAX_TOKENS + 1  # the '+' after the last token that fits
    with pytest.raises(ExprSyntaxError, match="longer than") as err:
        parse_expr(" " + chain + " * -t")  # spaces are not tokens
    assert err.value.column == MAX_TOKENS + 4  # the '-', token MAX_TOKENS + 1
    nested = "(" * (MAX_DEPTH - 1) + "t" + ")" * (MAX_DEPTH - 1)
    assert parse_expr(nested) is T
    with pytest.raises(ExprSyntaxError, match="nesting deeper than") as err:
        parse_expr("sin" + nested.replace("t", "(t)"))
    assert err.value.column == 4 + MAX_DEPTH  # the t inside the last parenthesis
    # a run of unary minus signs is not nesting: it folds to its parity
    assert parse_expr("-" * 1001 + "t") == parse_expr("-t")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("foo(t)")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x+1")


def test_diff_examples():
    assert eval_expr(diff_expr(parse_expr("t^3"), 2), 2.0) == 12.0
    assert eval_expr(diff_expr(parse_expr("sinh(t)"), 1), 0.0) == 1.0
    d = diff_expr(parse_expr("cosh(t)"), 1)
    assert eval_expr(d, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)


def test_diff_order_validated():
    with pytest.raises(ValueError):
        diff_expr(parse_expr("t"), 0)


# random expression generator over the full grammar, seeded
_FUNCS = ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log", "sqrt",
          "atan", "artanh")


def _random_source(rng, depth=0):
    """Source with signed literals, unary minus and signed exponents, so
    that t^(-2), t*-2, t--2 and (-t)^2 all occur."""
    choice = rng.integers(0, 9 if depth < 4 else 2)
    if choice == 0:
        return f"{rng.choice((-1, 1)) * rng.uniform(0.2, 3.0):.4f}"
    if choice == 1:
        return "t"
    a = _random_source(rng, depth + 1)
    b = _random_source(rng, depth + 1)
    if choice == 2:
        return f"({a}+{b})"
    if choice == 3:
        return f"({a}-{b})"
    if choice == 4:
        return f"({a}*{b})"
    if choice == 5:
        return f"({a}/{b})"
    if choice == 6:
        k = int(rng.choice((-3, -2, -1, 1, 2, 3)))
        return f"({a})^({k})" if rng.integers(0, 2) else f"({a})^{k}"
    if choice == 7:
        return f"-{a}"
    return f"{_FUNCS[rng.integers(0, len(_FUNCS))]}({a})"


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 100:
        src = _random_source(rng)
        t = float(rng.uniform(0.1, 1.2))
        try:
            e = parse_expr(src)
            d = diff_expr(e, 1)
            exact = eval_expr(d, t)
            approx = central_diff(lambda x: eval_expr(e, x), t, h=1e-5)
        except (ExprDomainError, OverflowError):
            continue
        if not (math.isfinite(exact) and math.isfinite(float(approx))):
            continue
        if abs(exact) > 1e6:  # steep spots make the FD oracle itself noisy
            continue
        assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact)), src
        checked += 1


def test_print_parse_idempotent():
    # nodes are interned, so `is` is the node test; unlike ==, it tells 0.0 from -0.0
    rng = np.random.default_rng(11)
    printed = ""
    for _ in range(200):
        e = parse_expr(_random_source(rng))
        assert parse_expr(to_source(e)) is e
        # and derivatives print back to themselves too
        d = diff_expr(e, 1)
        assert parse_expr(to_source(d)) is d
        printed += to_source(e) + to_source(d)
    for construct in ("^(-", "*-", "/-", "+-", "--", "(-", ")^"):
        assert construct in printed, construct
    # a negative zero keeps its sign, and a negative literal's precedence
    for src, text in (("-0", "-0"), ("log(-0)", "log(-0)"), ("t/-0", "t/-0"),
                      ("1/(0*-1)", "1/-0"), ("(-0)^(-2)", "(-0)^(-2)"), ("0^(-2)", "0^(-2)")):
        e = parse_expr(src)
        assert to_source(e) == text and parse_expr(text) is e, src
    # constants folded to inf, -inf or NaN (of either sign) print as DSL that folds back
    for src, text in (("exp(1000)*t", "exp(1000)*t"), ("t-exp(1000)", "t-exp(1000)"),
                      ("t/-exp(1000)", "t/-exp(1000)"), ("-exp(1000)*t", "-exp(1000)*t"),
                      ("log(exp(1000)*(t-2))", "log(exp(1000)*(t-2))")):
        e = parse_expr(src)
        assert to_source(e) == text and parse_expr(text) is e, src
    for src in ("0*exp(1000)", "-(0*exp(1000))", "t/(0*exp(1000))", "t^2*-(0*exp(1000))",
                "(t+-(0*exp(1000)))^2", "exp(1000)-exp(1000)+t"):
        e = parse_expr(src)
        assert parse_expr(to_source(e)) is e, src


def test_diff_linearity():
    rng = np.random.default_rng(5)
    e1 = parse_expr("sinh(t)*cos(t)")
    e2 = parse_expr("t^3+atan(t)")
    alpha, beta = 1.7, -0.4
    combo = parse_expr("1.7*(sinh(t)*cos(t))+(-0.4)*(t^3+atan(t))")
    d_combo = diff_expr(combo, 1)
    d1, d2 = diff_expr(e1, 1), diff_expr(e2, 1)
    for _ in range(100):
        t = float(rng.uniform(-2, 2))
        lhs = eval_expr(d_combo, t)
        rhs = alpha * eval_expr(d1, t) + beta * eval_expr(d2, t)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_diff_composes_across_orders():
    rng = np.random.default_rng(9)
    e = parse_expr("sin(t)*exp(t)+t^4")
    d3 = diff_expr(e, 3)
    d1_2 = diff_expr(diff_expr(e, 1), 2)
    d2_1 = diff_expr(diff_expr(e, 2), 1)
    for _ in range(100):
        t = float(rng.uniform(-2, 2))
        a, b, c = eval_expr(d3, t), eval_expr(d1_2, t), eval_expr(d2_1, t)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(a))
        assert abs(a - c) <= 1e-9 * (1.0 + abs(a))


def test_eval_examples_and_domain_errors():
    assert eval_expr(parse_expr("cosh(t)"), 0.0) == 1.0
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("1/t"), 0.0)
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("log(t)"), -1.0)
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("sqrt(t)"), -4.0)
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("artanh(t)"), 1.0)
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("t^-1"), 0.0)


def test_domain_error_names_subexpression():
    with pytest.raises(ExprDomainError) as err:
        eval_expr(parse_expr("1+sqrt(t-2)"), 0.0)
    assert "sqrt" in str(err.value)


def test_eval_ieee_overflow_saturates():
    assert eval_expr(parse_expr("exp(t)"), 1e4) == math.inf
    assert eval_expr(parse_expr("sinh(t)"), -1e4) == -math.inf
    # the periodic functions of an infinite argument are NaN, not an error
    for name in ("sin", "cos", "tan"):
        for t in (math.inf, -math.inf):
            assert math.isnan(eval_expr(parse_expr(f"{name}(t)"), t)), (name, t)
    # and so is a constant that folds to one
    assert math.isnan(parse_expr("cos(1e400)").a)
    assert parse_expr("1e200^2") is num(math.inf)
    assert parse_expr("(-1e200)^3") is num(-math.inf)


def test_scalar_and_array_replays_agree():
    """For every DSL function, eval_expr at a float raises the located
    error of the tree walk exactly where the walk raises (the same node and
    text, naming t on request), and elsewhere gives the walk's value bit for
    bit; the array replay gives NaN where the walk raises and its value
    elsewhere."""
    xs = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 710.0, -710.0, 800.0, -800.0,
          1e300, -1e300, math.inf, -math.inf, math.nan]
    mismatches = []
    for name in FUNCTIONS:
        e = parse_expr(f"{name}(t)")
        for x, column in zip(xs, compile([e]).array(np.array(xs))[0].tolist()):
            want, want_exc = _outcome(lambda: tree_eval(e, x))
            got, exc = _outcome(lambda: eval_expr(e, x))
            named = _outcome(lambda: eval_expr(e, x, name_t=True))[1]
            if isinstance(want_exc, ExprDomainError):
                agree = (type(exc) is type(named) is ExprDomainError and math.isnan(column)
                         and exc.subexpr is named.subexpr is want_exc.subexpr
                         and str(exc) == str(want_exc)
                         and str(named) == f"{want_exc} at t={x!r}")
            else:
                agree = exc is None and _same_bits(got, want) and _same_bits(column, want)
            if not agree:
                mismatches.append((name, x, got, exc, want, want_exc))
    assert mismatches == []


def test_eval_deterministic():
    e = diff_expr(parse_expr("artanh(t/2)*sinh(t)"), 2)
    vals = {eval_expr(e, 0.37) for _ in range(10)}
    assert len(vals) == 1


def test_vectorized_matches_eval():
    rng = np.random.default_rng(13)
    for _ in range(50):
        e = parse_expr(_random_source(rng))
        ts = rng.uniform(0.1, 1.2, 17)
        try:
            expected = [eval_expr(e, float(t)) for t in ts]
        except ExprDomainError:
            continue
        got = vectorized(e)(ts)
        assert got.tobytes() == np.array(expected).tobytes()


# -- hash-consing ------------------------------------------------------------


def test_equal_expressions_are_one_node():
    src = "sin(t)*exp(t/2)+t^3"
    e = parse_expr(src)
    assert parse_expr(src) is e
    assert diff_expr(parse_expr(src), 2) is diff_expr(e, 2)
    assert add(mul(T, T), ONE) is parse_expr("t*t+1")
    assert num(2) is parse_expr("2")


def test_signed_zeros_stay_distinct():
    assert num(0.0) is not num(-0.0)
    assert num(-0.0) is parse_expr("-0")
    # atan2 sees the sign of zero, so the two must never be merged
    assert math.copysign(1.0, eval_expr(parse_expr("-0"), 1.0)) == -1.0
    assert math.copysign(1.0, eval_expr(parse_expr("0"), 1.0)) == 1.0
    assert div(T, num(-0.0)) is not div(T, num(0.0))


def test_direct_constructors_still_compare_equal():
    e = parse_expr("sinh(t)+t^2")
    built = Expr("add", Expr("fun", Expr("var"), "sinh"), Expr("pow", Expr("var"), 2))
    assert built == e and built is not e
    assert Expr("num", 0.5) == num(0.5)
    # equality compares the kind, so add and sub of the same operands
    # are never equal, and they intern apart
    assert Expr("add", T, ONE) != Expr("sub", T, ONE)
    assert add(T, ONE) == Expr("add", T, ONE) and sub(T, ONE) == Expr("sub", T, ONE)
    assert add(T, ONE) is not sub(T, ONE)


# -- the compiled evaluator against the recursive tree walk ----------------


def _graph_source(rng, depth=0):
    """Random source over the whole grammar with signed constants, negative
    exponents and every function, so that domain errors, division by
    zero and overflow all occur."""
    choice = rng.integers(0, 9 if depth < 4 else 2)
    if choice == 0:
        c = ("0", "1", "2", "0.5", "3", "700", "1e-200")[rng.integers(0, 7)]
        return f"(-{c})" if rng.random() < 0.3 else c
    if choice == 1:
        return "t"
    a = _graph_source(rng, depth + 1)
    if choice == 6:
        return f"({a})^{(-2, -1, 2, 3)[rng.integers(0, 4)]}"
    if choice == 7:
        return f"(-{a})"
    if choice == 8:
        return f"{FUNCTIONS[rng.integers(0, len(FUNCTIONS))]}({a})"
    b = _graph_source(rng, depth + 1)
    return f"({a}{'+-*/'[choice - 2]}{b})"


def _outcome(fn):
    try:
        return fn(), None
    except Exception as exc:  # every exception type must match the oracle's
        return None, exc


def _same_bits(x, y):
    if type(x) is not type(y):
        return False
    if isinstance(x, (np.ndarray, np.generic)):
        return x.shape == y.shape and x.tobytes() == y.tobytes()
    return struct.pack("<d", x) == struct.pack("<d", y) or (math.isnan(x) and math.isnan(y))


def test_compiled_replay_matches_tree_walk():
    rng = np.random.default_rng(2024)
    ts = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300, 800.0, -800.0,
          math.inf, math.nan]
    seen, errors = set(), []
    for _ in range(200):
        src = _graph_source(rng)
        seen.update(name for name in FUNCTIONS if name + "(" in src)
        try:
            e = parse_expr(src)
            roots = [e, diff_expr(e), diff_expr(e, 2)]
        except (ExprDomainError, OverflowError, ZeroDivisionError):
            continue
        program = compile(roots)
        # the recursive walk's ops: the same kinds, node objects and operands
        oracle = compile_recursive(roots)
        assert [(k, id(node), a, b) for k, node, a, b in program.ops] == \
            [(k, id(node), a, b) for k, node, a, b in oracle.ops], src
        assert program.outputs == oracle.outputs, src

        for t in ts:
            want, want_exc = _outcome(lambda: [tree_eval(r, t) for r in roots])
            got, got_exc = _outcome(lambda: eval_expr(program, t))
            assert type(got_exc) is type(want_exc), (src, t)
            if isinstance(want_exc, ExprDomainError):
                assert got_exc.subexpr is want_exc.subexpr, (src, t)
                assert str(got_exc) == str(want_exc)
                named = _outcome(lambda: eval_expr(program, t, name_t=True))[1]
                assert named.subexpr is want_exc.subexpr
                assert str(named) == f"{want_exc} at t={float(t)!r}"
                errors.append(str(want_exc))
            elif want_exc is None:
                assert all(map(_same_bits, got, want)), (src, t)
                assert _same_bits(eval_expr(e, t), want[0])

    assert seen == set(FUNCTIONS)
    assert any(m.startswith("division by zero") for m in errors)
    assert any(m.startswith("sqrt of negative") for m in errors)


def test_exact_array_replay_matches_tree_walk():
    """Each root of the array replay holds the tree walk's value at
    every t, bit for bit, and NaN where the walk raises, even where the
    IEEE value of the root would be finite, as 1/(1/t) at t = 0 is."""
    rng = np.random.default_rng(2025)
    ts = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300, 800.0, -800.0,
          math.inf, math.nan]
    arr = np.array(ts)
    raised = 0
    for src in ["1/(1/t)", "exp(log(t))", "t/(t-t)", *(_graph_source(rng) for _ in range(200))]:
        try:
            e = parse_expr(src)
            roots = [e, diff_expr(e), diff_expr(e, 2)]
        except (ExprDomainError, OverflowError, ZeroDivisionError):
            continue
        got = compile(roots).array(arr)
        for root, column in zip(roots, got):
            assert column.shape == arr.shape
            for t, value in zip(ts, column.tolist()):
                want, exc = _outcome(lambda: tree_eval(root, t))
                if isinstance(exc, ExprDomainError):
                    assert math.isnan(value), (src, t)
                    raised += 1
                else:
                    assert exc is None and _same_bits(value, want), (src, t)
    assert raised > 100


# -- one rounding: the ufuncs over an array and at one element -------------


def _ufunc_arguments(rng, n):
    """n arguments: near zero, moderate, near the overflow of exp and cosh,
    every magnitude with either sign, and the special values, shuffled."""
    k = n // 4
    specials = np.array([0.0, -0.0, 1.0, -1.0, 0.5, math.pi / 2, 709.78, 710.0, -745.2,
                         5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
                         math.inf, -math.inf, math.nan])
    rest = n - 3 * k - specials.size
    parts = [rng.uniform(-1.0, 1.0, k), rng.uniform(-30.0, 30.0, k),
             rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-300.0, 300.0, k),
             rng.choice([-1.0, 1.0], rest) * rng.uniform(0.0, 800.0, rest), specials]
    return rng.permutation(np.concatenate(parts))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("name", [*FUNCTIONS, "atan2"])
def test_ufuncs_give_the_same_bits_over_an_array_as_at_each_element(name):
    """The replay applies each function's ufunc to a whole column, and
    Program.at to one float: the two agree only if the ufunc's SIMD loop,
    its masked tail included, rounds as its one-element call does.  Checked
    over 10^5 arguments, on every array length from 1 to 40, and on a
    strided column; atan2 is the de Sitter theta root's ufunc."""
    rng = np.random.default_rng(sum(map(ord, name)))
    x = _ufunc_arguments(rng, 10**5)[None]  # one row per argument
    if name == "atan2":
        f, x = np.arctan2, np.concatenate([rng.permutation(x[0])[None], x])
    else:
        f = _TABLE[name].numpy
    args = list(zip(*x.tolist()))
    with np.errstate(all="ignore"):
        alone = _bits([f(*a) for a in args])
        assert np.array_equal(_bits(f(*x)), alone)
        for length in range(1, 41):
            for start in range(0, 2000, length):
                part = x[..., start:start + length]
                assert np.array_equal(_bits(f(*part)), alone[start:start + length]), \
                    (length, start)
        column = np.stack([x, x[..., ::-1]], axis=-1)[..., 1]
        assert not column.flags.contiguous
        assert np.array_equal(_bits(f(*column)), alone[::-1])


@pytest.mark.parametrize("name", FUNCTIONS)
def test_folded_functions_have_the_replays_bits(name):
    """A function of a constant folds to the replay's value of that function
    at t = the constant, bit for bit."""
    replay = compile([fun(name, T)])
    xs = [0.0, -0.0, 0.25, -0.7, 0.999, 1.5, -3.0, 20.0, 711.0, -800.0, 1e-300, 1e300]
    folded = 0
    for x in xs:
        if _TABLE[name].outside(x):
            continue
        folded += 1
        node = fun(name, num(x))
        assert node.kind == "num", (name, x)
        assert _same_bits(node.a, replay.at(x)[0]), (name, x)
        assert _same_bits(node.a, replay.array(np.array([x]))[0][0].item()), (name, x)
    assert folded >= 3


def test_folded_powers_have_the_replays_bits():
    """An integer power of a constant folds to the replay's t^k at t = the
    constant, bit for bit, for every k in [-6, 6]; 1e200^2 overflows to inf
    in both, and 0^-1 stays unfolded, for evaluation to report."""
    xs = [0.0, -0.0, 1.0, -1.0, 0.1, -0.7, 1.1, 3.0, -7.25, 1e-60, 1e200, -1e200, 1e-200]
    for k in range(-6, 7):
        replay = compile([pow_(T, k)])
        for x in xs:
            node = pow_(num(x), k)
            if x == 0.0 and k < 0:
                assert node.kind == "pow", (x, k)
                with pytest.raises(ExprDomainError, match="zero raised to a negative power"):
                    eval_expr(node, 0.0)
                continue
            assert node.kind == "num", (x, k)
            assert _same_bits(node.a, replay.at(x)[0]), (x, k)
            assert _same_bits(node.a, replay.array(np.array([x]))[0][0].item()), (x, k)
    assert pow_(num(1e200), 2) is num(math.inf)
    assert compile([pow_(T, 2)]).at(1e200) == (math.inf,)
    assert pow_(num(1e-200), -2) is num(math.inf)
    assert compile([pow_(T, -2)]).at(1e-200) == (math.inf,)


# DSL words, ASCII digits, operators and whitespace, and characters that
# str.isdigit, str.isnumeric or str.isalpha accept but the DSL does not
_PIECES = ("t", "sin", "exp", "log", "e", "E", *"0123456789", ".", *"+-*/^()",
           " ", "\t", "\n", "\u00b2", "\u0663", "\u00bd", "\u00e9")
# the messages that quote a token of the source, and the quoted token
_QUOTED = re.compile(r"(?:unexpected character|unknown identifier|found|unexpected trailing input)"
                     r" ('[^']*') \(column \d+\)$")


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
def test_any_text_parses_back_or_is_located(source):
    """Any text either parses to a tree that prints back to itself, or is
    an ExprSyntaxError at a column of the source, or just past its end,
    where the token its message quotes starts."""
    try:
        e = parse_expr(source)
    except ExprSyntaxError as err:
        assert 1 <= err.column <= len(source) + 1, (source, str(err))
        quoted = _QUOTED.search(str(err))
        if quoted:
            token = ast.literal_eval(quoted[1])
            if token == "end of input":
                assert err.column == len(source) + 1, (source, str(err))
            else:
                assert source[err.column - 1:].startswith(token), (source, str(err))
        return
    assert parse_expr(to_source(e)) is e, source
