import ast
import re

import numpy as np
import pytest

from frontlab import (eval_symbol, parse_symbol, preset, rescale_symbol,
                      spec_from_text, validate_admissibility)
from frontlab.symbols import (Const, SymbolEvalError, SymbolSyntaxError,
                              admissibility_samples)

K_SAMPLES = np.linspace(-40.0, 40.0, 321)


def test_parse_constant_zero():
    expr = parse_symbol("0")
    assert np.all(eval_symbol(expr, K_SAMPLES) == 0.0)


def test_parse_kdv_burgers_form():
    # nu = -1/10 written in d/dx-symbol form
    expr = parse_symbol("-0.1*(i*k)^3")
    got = eval_symbol(expr, K_SAMPLES)
    assert np.allclose(got, -0.1 * (1j * K_SAMPLES) ** 3, rtol=0, atol=1e-14)


def test_parse_error_offset():
    with pytest.raises(SymbolSyntaxError) as err:
        parse_symbol("k^^2")
    assert err.value.offset == 2


def test_parse_unknown_identifier():
    with pytest.raises(SymbolSyntaxError, match="unknown identifier"):
        parse_symbol("nu*(i*k)^3")


def test_parse_rejects_empty_and_non_ascii():
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("   ")
    with pytest.raises(SymbolSyntaxError):
        parse_symbol("k²")


def test_non_integer_exponent_on_sign_changing_base():
    with pytest.raises(SymbolSyntaxError, match="sign-changing"):
        parse_symbol("k^0.5")
    # abs(k) is provably nonnegative, so a real exponent is fine
    parse_symbol("abs(k)^0.5")
    # k-dependent exponents are rejected
    with pytest.raises(SymbolSyntaxError, match="depend on k"):
        parse_symbol("2^k")


def test_eval_fractional_hand_value():
    # (2*pi*|xi|)^(2*alpha) at xi=1, alpha=1/2 equals 2*pi
    expr = parse_symbol("-1*abs(k)^(2*0.5)")
    value = eval_symbol(expr, 2.0 * np.pi)
    assert value == pytest.approx(-2.0 * np.pi, abs=1e-12)


def test_eval_hilbert_sign():
    expr = parse_symbol("i*sgn(k)")
    assert eval_symbol(expr, -5.0) == pytest.approx(-1j)
    assert eval_symbol(expr, 3.0) == pytest.approx(1j)


def test_eval_zero_base_power_at_origin():
    assert eval_symbol(parse_symbol("(i*k)^3"), 0.0) == 0.0


def test_eval_singularity_convention():
    # odd singular quotient symmetrizes to 0
    assert eval_symbol(parse_symbol("i*k/abs(k)"), 0.0) == 0.0
    # even singularity has no convention
    with pytest.raises(SymbolEvalError, match="singularity"):
        eval_symbol(parse_symbol("1/abs(k)"), 0.0)


def test_admissibility_kdvb_any_nu():
    # (i*k)^3 = -i*k^3 is purely imaginary, so Re l = 0
    for nu in (-2.0, -0.1, 0.3, 4.0):
        report = preset("kdvb", nu=nu).admissibility
        assert report.passed and report.max_re <= 1e-12


def test_admissibility_k_squared_fails():
    report = spec_from_text("k^2").admissibility
    assert not report.dissipative
    assert not report.passed
    assert report.zero_at_origin


def test_admissibility_fractional_passes():
    report = spec_from_text("-(abs(k))^1").admissibility
    assert report.passed


def test_admissibility_requires_origin_sample():
    expr = parse_symbol("0")
    with pytest.raises(ValueError):
        validate_admissibility(expr, np.array([1.0, -1.0]))


def test_preset_kdvb_value():
    # nu*(i*k)^3 at k=2*pi: (2*pi)^3 = 248.0502...
    value = preset("kdvb", nu=1.0).values(2.0 * np.pi)
    assert value == pytest.approx(-8.0 * np.pi ** 3 * 1j, abs=1e-10)


def test_preset_frac_value():
    value = preset("frac", terms=[(1.0, 0.5)]).values(2.0 * np.pi)
    assert value == pytest.approx(-2.0 * np.pi, abs=1e-12)


def test_preset_frac_parameter_validation():
    with pytest.raises(ValueError):
        preset("frac", terms=[(1.0, 1.2)])
    with pytest.raises(ValueError):
        preset("frac", terms=[(-1.0, 0.5)])
    with pytest.raises(ValueError):
        preset("frac", terms=[(1.0, 0.7), (1.0, 0.3)])  # not increasing
    with pytest.raises(ValueError):
        preset("frac", terms=[])


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset("airy")


@pytest.mark.parametrize("name,text", [
    ("burgers", "0"),
    ("bo", "i*k*abs(k)"),
    ("hilbert", "i*sgn(k)"),
])
def test_preset_matches_parsed_text(name, text):
    spec = preset(name)
    expr = parse_symbol(text)
    assert np.max(np.abs(spec.values(K_SAMPLES) - eval_symbol(expr, K_SAMPLES))) <= 1e-14


def test_preset_kdvb_matches_parsed_text():
    spec = preset("kdvb", nu=-0.1)
    expr = parse_symbol("-0.1*(i*k)^3")
    assert np.max(np.abs(spec.values(K_SAMPLES) - eval_symbol(expr, K_SAMPLES))) <= 1e-12


def test_rescale_kdvb_is_nu_lambda():
    lam = 2.4
    got = rescale_symbol(preset("kdvb", nu=0.5), lam)
    want = preset("kdvb", nu=0.5 * lam)
    scale = 1.0 + np.abs(want.values(K_SAMPLES))
    assert np.max(np.abs(got.values(K_SAMPLES) - want.values(K_SAMPLES)) / scale) <= 1e-13
    assert got.params["nu"] == pytest.approx(0.5 * lam)


def test_rescale_identity():
    spec = preset("bo")
    got = rescale_symbol(spec, 1.0)
    assert np.max(np.abs(got.values(K_SAMPLES) - spec.values(K_SAMPLES))) == 0.0


def test_rescale_frac_coefficient_law():
    a, alpha, lam = 0.7, 0.35, 1.7
    got = rescale_symbol(preset("frac", terms=[(a, alpha)]), lam)
    want = preset("frac", terms=[(a * lam ** (2 * alpha - 2.0), alpha)])
    assert np.max(np.abs(got.values(K_SAMPLES) - want.values(K_SAMPLES))) <= 1e-13


def test_rescale_requires_positive_scale():
    with pytest.raises(ValueError):
        rescale_symbol(preset("bo"), -1.0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.4, 7.3])
def test_rescaled_presets_stay_admissible(lam):
    specs = [preset("burgers"), preset("kdvb", nu=-0.24), preset("bo"),
             preset("hilbert"), preset("frac", terms=[(1.0, 0.5), (0.3, 0.8)])]
    for spec in specs:
        scaled = rescale_symbol(spec, lam)
        assert scaled.admissibility.passed
        # and an independent re-validation on fresh samples
        report = validate_admissibility(scaled.expr, admissibility_samples(64.0, 257))
        assert report.passed


def test_parse_rejects_non_finite_literal():
    with pytest.raises(SymbolSyntaxError, match="non-finite"):
        parse_symbol("1e999*k")


@pytest.mark.parametrize("text,offset", [
    ("k^(1/0)", 1), ("k^(0^-1)", 1),
    ("abs(k)^(10^400)", 6), ("abs(k)^(1e308*10)", 6),
])
def test_parse_rejects_exponent_that_does_not_fold(text, offset):
    """Division by zero, overflow and an infinite folded exponent."""
    with pytest.raises(SymbolSyntaxError, match="finite constant") as err:
        parse_symbol(text)
    assert err.value.offset == offset


@pytest.mark.parametrize("text,value", [
    ("2*3*k", 6.0), ("-(1+i)*(1-i)*k^2", -2.0),
])
def test_parse_folds_constant_operand(text, value):
    lhs = parse_symbol(text).root.lhs
    assert isinstance(lhs, Const) and lhs.value == value


@pytest.mark.parametrize("text,offset", [("k^(sgn(i))", 3), ("sgn(i)*k", 0)])
def test_parse_rejects_sgn_of_non_real_constant(text, offset):
    with pytest.raises(SymbolSyntaxError, match="sgn") as err:
        parse_symbol(text)
    assert err.value.offset == offset


def test_folded_base_is_provably_nonnegative():
    # i*i*i*i folds to 1, so the base is a nonnegative multiple of k^2
    expr = parse_symbol("(i*i*i*i*k^2)^0.5")
    assert np.array_equal(eval_symbol(expr, K_SAMPLES), np.abs(K_SAMPLES))
    # (-1)^100 folds to 1-2e-15j; the tree it came from is still real
    parse_symbol("((-1)^100*k^2)^0.5")


def test_non_finite_constant_base_is_left_to_evaluation():
    # 1/0 folds to a non-finite constant; the '^' rule judges the tree it
    # was folded from, 1 over 0, and evaluation decides the rest
    expr = parse_symbol("(1/0)^-0.5*k")
    assert np.all(eval_symbol(expr, K_SAMPLES) == 0.0)
    with pytest.raises(SymbolEvalError, match="not finite"):
        eval_symbol(parse_symbol("(1/0)^0.5*k"), K_SAMPLES)
    with pytest.raises(SymbolEvalError, match="not finite"):
        eval_symbol(parse_symbol("abs(-(0/0))^-0.5*k"), K_SAMPLES)


@pytest.mark.parametrize("text,offset", [
    ("(-1/0)^0.5*k", 6), ("(-1/0)^-0.5*k", 6), ("((1/0)-2)^0.5*k", 9),
])
def test_non_finite_constant_base_keeps_its_sign(text, offset):
    with pytest.raises(SymbolSyntaxError, match="sign-changing") as err:
        parse_symbol(text)
    assert err.value.offset == offset


def test_fold_divides_by_subnormal_constant():
    assert parse_symbol("0.0/2.225073858507e-311").root.value == 0.0


def test_quotient_exponent_is_correctly_rounded():
    # a real quotient is n/d, not n*(1/d): 49/49 is the integer 1
    # and 3/10 is the double nearest 0.3
    assert parse_symbol("k^(49/49)").root.rhs.value == 1.0
    expr = parse_symbol("abs(k)^(3/10)")
    assert np.array_equal(eval_symbol(expr, K_SAMPLES), np.abs(K_SAMPLES) ** 0.3)
    assert parse_symbol("3/10*k").root.lhs.value == 0.3


def test_integer_power_of_real_base_is_real():
    # numpy's complex power goes through exp/log from exponent 100 on
    assert parse_symbol("(-1)^100*k").root.lhs.value.imag == 0.0
    expr = parse_symbol("abs(k)^((-1)^100)")
    assert np.array_equal(eval_symbol(expr, K_SAMPLES), np.abs(K_SAMPLES))
    want = float(3 ** 101)
    assert abs(parse_symbol("3^101").root.value.real - want) <= np.spacing(want)


def test_integer_power_of_complex_base_by_squaring():
    got = eval_symbol(parse_symbol("(i*k)^101"), K_SAMPLES)
    want = np.array([complex(1j * k) ** 101 for k in K_SAMPLES])
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.all(got.real == 0.0)
    assert parse_symbol("(1+i)^-4*k").root.lhs.value == -0.25


_ORACLE_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name,
                 ast.Load, ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div,
                 ast.Pow, ast.USub)


def _sgn(z):
    if abs(z.imag) > 0.0:
        raise ValueError("sgn of a non-real argument")
    return float(np.sign(z.real))


def _ast_value(text: str) -> complex:
    """The value of a k-free symbol text by Python's own parser and numbers."""
    source = re.sub(r"\bi\b", "1j", text).replace("^", "**")
    tree = ast.parse(source, mode="eval")
    assert all(isinstance(node, _ORACLE_NODES) for node in ast.walk(tree))
    code = compile(tree, "<symbol>", "eval")
    return complex(eval(code, {"__builtins__": {}}, {"abs": abs, "sgn": _sgn}))


def _k_free_texts(st):
    """k-free texts from the grammar: literals, i, chains of + - * /,
    unary minus, parentheses, abs, sgn of a real argument, and powers with
    constant exponents (non-integer ones on an abs base)."""
    def grow(inner):
        tail = st.lists(st.tuples(st.sampled_from("+-*/"), inner).map("".join),
                        min_size=1, max_size=3).map("".join)
        return (st.tuples(inner, tail).map("".join)
                | inner.map("-{}".format) | inner.map("({})".format)
                | inner.map("abs({})".format)
                | st.tuples(inner, inner).map(
                    lambda ab: f"sgn(abs({ab[0]})-abs({ab[1]}))")
                | st.tuples(inner, st.integers(-3, 4)).map(
                    lambda be: f"({be[0]})^{be[1]}")
                | inner.map("abs({})^1.5".format))
    literals = st.floats(0.0, 1e3).map(repr) | st.just("i")
    return st.recursive(literals, grow, max_leaves=8)


def test_k_free_expressions_fold_to_the_ast_value():
    """Each k-free text parses to one Const equal, where both are finite,
    to Python's evaluation of the same text."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None,
                         database=None)
    @hypothesis.given(_k_free_texts(hypothesis.strategies))
    def check(text):
        root = parse_symbol(text).root
        assert isinstance(root, Const)
        try:
            want = _ast_value(text)
        except (ZeroDivisionError, OverflowError):
            return  # the fold carries on with inf or nan instead
        if np.isfinite(want) and np.isfinite(root.value):
            assert abs(root.value - want) <= 1e-12 * abs(want)

    check()
