import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epslab.exprparse import (
    MAX_DEPTH, BinOp, Call, EvalError, Expr, Neg, Num, ParseError, UnknownVariable,
    Var, eval_expr, parse, pretty,
)


def ev(src, **bindings):
    return eval_expr(parse(src, allowed_vars=tuple(bindings)), bindings)


class TestPrecedence:
    @pytest.mark.parametrize("src,value", [
        ("2+3*4", 14.0),
        ("2*3^2", 18.0),
        ("-2^2", -4.0),
        ("2^-3", 0.125),
        ("2^3^2", 512.0),
        ("6/3/2", 1.0),
        ("1-2-3", -4.0),
        ("2*(3+4)", 14.0),
        ("-(1+2)", -3.0),
        ("--5", 5.0),
        ("2^0", 1.0),
        ("0^0", 1.0),
        ("1.5e2+.5", 150.5),
    ])
    def test_values(self, src, value):
        assert ev(src) == pytest.approx(value, abs=0, rel=1e-15)

    def test_constants_folded(self):
        assert parse("pi") == Num(math.pi)
        assert parse("e") == Num(math.e)
        assert ev("2*pi") == pytest.approx(2 * math.pi)

    def test_binding(self):
        assert ev("3*y+1", y=2.0) == 7.0
        assert ev("t*tau", t=3.0, tau=4.0) == 12.0


class TestFunctions:
    def test_scalar_values(self):
        assert ev("sin(0)") == 0.0
        assert ev("cos(0)") == 1.0
        assert ev("exp(1)") == pytest.approx(math.e, rel=1e-15)
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(0-4)") == 4.0

    def test_vectorized_over_arrays(self):
        y = np.linspace(0.0, 1.0, 7)
        got = ev("exp(-(y-0.5)^2)*sin(3*y)+y/2", y=y)
        want = np.exp(-((y - 0.5) ** 2)) * np.sin(3 * y) + y / 2
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_two_variable_grid(self):
        t = np.linspace(0, 2, 5)[:, None]
        y = np.linspace(0, 1, 3)[None, :]
        got = ev("t^2*y+cos(t)", t=t, y=y)
        assert got.shape == (5, 3)
        np.testing.assert_allclose(got, t**2 * y + np.cos(t), rtol=1e-15)


class TestErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ParseError) as ei:
            parse("2+*3")
        assert ei.value.offset == 2
        assert ei.value.expected

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse("(1+2")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("2 3")

    def test_empty_input(self):
        with pytest.raises(ParseError) as ei:
            parse("")
        assert ei.value.offset == 0

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse("1 @ 2")

    def test_function_without_parens(self):
        with pytest.raises(ParseError):
            parse("sin 3")

    def test_unknown_variable_is_parse_error(self):
        with pytest.raises(UnknownVariable) as ei:
            parse("2*q", allowed_vars=("y",))
        assert isinstance(ei.value, ParseError)
        assert ei.value.name == "q"

    def test_allowed_variable_accepted(self):
        assert parse("2*q", allowed_vars=("q",)) == BinOp("*", Num(2.0), Var("q"))

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/0")
        with pytest.raises(EvalError):
            ev("1/y", y=np.array([1.0, 0.0]))

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(0-1)")

    def test_power_nan(self):
        with pytest.raises(EvalError):
            ev("(0-2)^0.5")

    def test_unbound_variable(self):
        node = parse("y+1", allowed_vars=("y",))
        with pytest.raises(EvalError):
            eval_expr(node, {})

    def test_overflow_tolerated(self):
        assert ev("exp(10000)") == math.inf
        assert ev("10^400") == math.inf


class TestDepth:
    @pytest.mark.parametrize("src", [
        "(" * 250 + "t" + ")" * 250,
        "sin(" * 250 + "t" + ")" * 250,
        "+".join(["t"] * 3001),
        "-" * 990 + "t",
        "-" * MAX_DEPTH + "t",
    ], ids=["parens-250", "calls-250", "sum-3001", "neg-990", "neg-over-limit"])
    def test_too_deep_is_parse_error(self, src):
        with pytest.raises(ParseError):
            parse(src, allowed_vars=("t",))

    def test_limit_depth_evaluates_and_round_trips(self):
        node = parse("-" * (MAX_DEPTH - 1) + "t", allowed_vars=("t",))
        assert eval_expr(node, {"t": 2.0}) == (-1) ** (MAX_DEPTH - 1) * 2.0
        assert parse(pretty(node), allowed_vars=("t",)) == node


class TestPretty:
    @pytest.mark.parametrize("src,out", [
        ("2+3*4", "2.0+3.0*4.0"),
        ("(2+3)*4", "(2.0+3.0)*4.0"),
        ("a-(b-c)", "a-(b-c)"),
        ("a-b-c", "a-b-c"),
        ("2^3^2", "2.0^3.0^2.0"),
        ("(2^3)^2", "(2.0^3.0)^2.0"),
        ("-y^2", "-y^2.0"),
        ("(-y)^2", "(-y)^2.0"),
        ("a/(b*c)", "a/(b*c)"),
        ("sin(y+1)", "sin(y+1.0)"),
    ])
    def test_minimal_parens(self, src, out):
        assert pretty(parse(src, allowed_vars=("a", "b", "c", "y"))) == out

    def test_negative_literal_rendered_parenthesized(self):
        assert pretty(BinOp("*", Num(-1.5), Var("y"))) == "(-1.5)*y"


_names = st.sampled_from(["y", "t", "tau", "x0", "zz"])
_leaves = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=1e6,
                             allow_nan=False, allow_infinity=False)),
    st.builds(Var, _names),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    )


_asts = st.recursive(_leaves, _extend, max_leaves=25)


@settings(max_examples=300)
@given(_asts)
def test_pretty_parse_roundtrip_structural(node):
    src = pretty(node)
    back = parse(src, allowed_vars=("y", "t", "tau", "x0", "zz"))
    assert back == node


@settings(max_examples=300)
@given(st.text(alphabet="0123456789.+-*/^()ye tausincoqrtbxp_", max_size=40))
def test_fuzz_never_crashes(src):
    try:
        node = parse(src, allowed_vars=("y", "t", "tau"))
    except ParseError:
        return
    assert isinstance(node, (Num, Var, Neg, BinOp, Call))
    pretty(node)


@settings(max_examples=200)
@given(_asts, st.floats(min_value=0.1, max_value=3.0))
def test_roundtrip_preserves_value(node, yval):
    bindings = {n: yval for n in ("y", "t", "tau", "x0", "zz")}
    try:
        want = eval_expr(node, bindings)
    except EvalError:
        return
    got = eval_expr(parse(pretty(node), allowed_vars=tuple(bindings)), bindings)
    if math.isnan(want):
        assert math.isnan(got)
    elif math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300) or got == want
