import random
from fractions import Fraction

import pytest

from helpers import random_poly
from wildcycles.errors import DomainMismatch, IndexOutOfRange, ParseError, UnknownVariable
from wildcycles.fields import QQ, PrimeField
from wildcycles.poly import MPoly, poly_parse
from wildcycles.weyl import WeylOperator, weyl_parse


F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_parse_cubic_example_f2():
    f = poly_parse("y^3 + x^2 + x^3", ["x", "y"], F2)
    assert f.terms == {(0, 3): 1, (2, 0): 1, (3, 0): 1}


def test_parse_zero():
    assert poly_parse("0", ["x"], QQ).terms == {}


def test_parse_reduces_mod_p():
    f = poly_parse("3*x^2 - 2*x", ["x"], F3)
    assert f.terms == {(1,): 1}


def test_parse_rational_coeff():
    f = poly_parse("1/2*x + 3", ["x"], QQ)
    assert f.terms == {(1,): Fraction(1, 2), (0,): 3}


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        poly_parse("y^3+", ["x", "y"], F2)
    assert exc.value.position == 4
    with pytest.raises(UnknownVariable):
        poly_parse("x + w", ["x", "y"], QQ)
    # negative powers and zero denominators, in both grammars
    for parse, text, dom, position in (
        (poly_parse, "x^-1", QQ, 2),
        (weyl_parse, "x^-1*d1", QQ, 2),
        (weyl_parse, "d1^-1", F5, 3),
        (poly_parse, "1/0*x^2 + y^2", QQ, 2),
        (weyl_parse, "1/0*d1", QQ, 2),
        (poly_parse, "1/5*x", F5, 2),
        (poly_parse, "3/-2*x", QQ, 2),
    ):
        with pytest.raises(ParseError) as exc:
            parse(text, ["x", "y"], dom)
        assert exc.value.position == position, text


def test_derivative_examples():
    x3 = poly_parse("x^3", ["x"], QQ)
    assert x3.derivative(0) == poly_parse("3*x^2", ["x"], QQ)
    assert poly_parse("x^3", ["x"], F3).derivative(0).is_zero()
    f = poly_parse("y^3+x^2+x^3", ["x", "y"], F2)
    assert f.derivative(0) == poly_parse("x^2", ["x", "y"], F2)
    assert f.derivative(1) == poly_parse("y^2", ["x", "y"], F2)


def test_derivative_index_range():
    with pytest.raises(IndexOutOfRange):
        poly_parse("x", ["x"], QQ).derivative(1)


def test_eval_examples():
    f = poly_parse("y^3+x^2+x^3", ["x", "y"], F2)
    assert f.eval((0, 0)) == 0
    g = poly_parse("x^3+x", ["x"], F5)
    assert g.eval((2,)) == 0  # 8 + 2 = 10 = 0 mod 5
    assert MPoly.one(2, QQ).eval((Fraction(7), Fraction(-3))) == 1


def test_eval_domain_mismatch():
    with pytest.raises(DomainMismatch):
        poly_parse("x+y", ["x", "y"], F5).eval((1,))


def test_arith_examples():
    f = poly_parse("x^2+y", ["x", "y"], QQ)
    assert f + MPoly.zero(2, QQ) == f
    s = poly_parse("x+y", ["x", "y"], F2)
    assert s * s == poly_parse("x^2+y^2", ["x", "y"], F2)  # Frobenius
    a = poly_parse("x-1", ["x"], QQ)
    b = poly_parse("x+1", ["x"], QQ)
    assert a * b == poly_parse("x^2-1", ["x"], QQ)


def test_ring_axioms_random():
    rng = random.Random(23)
    for dom in (F2, F3, F5, QQ):
        for _ in range(25):
            f = random_poly(rng, 2, dom)
            g = random_poly(rng, 2, dom)
            h = random_poly(rng, 2, dom)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_leibniz_random():
    rng = random.Random(29)
    for dom in (F2, F3, F5, QQ):
        for _ in range(25):
            f = random_poly(rng, 2, dom)
            g = random_poly(rng, 2, dom)
            for i in range(2):
                assert (f * g).derivative(i) == f.derivative(i) * g + f * g.derivative(i)


def test_partials_commute_random():
    rng = random.Random(31)
    for dom in (F3, QQ):
        for _ in range(25):
            f = random_poly(rng, 3, dom, max_deg=4)
            assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_fold_derivative_annihilates(p):
    fp = PrimeField(p)
    for deg in range(51):
        f = MPoly.monomial(1, fp, (deg,))
        for _ in range(p):
            f = f.derivative(0)
        assert f.is_zero()


def test_parse_serialize_roundtrip():
    rng = random.Random(37)
    for dom in (F5, QQ):
        for _ in range(40):
            f = random_poly(rng, 2, dom)
            assert poly_parse(f.to_str(), ["x", "y"], dom) == f
            assert weyl_parse(f.to_str(), ["x", "y"], dom) == WeylOperator.from_poly(f)


def test_json_roundtrip():
    f = poly_parse("y^3+x^2+x^3", ["x", "y"], F2)
    assert MPoly.from_json(f.to_json(), F2) == f
    g = poly_parse("1/2*x^2 - 7", ["x"], QQ)
    assert MPoly.from_json(g.to_json(), QQ) == g


def test_canonical_serialization_grevlex_descending():
    f = poly_parse("x + y^3 + x^2", ["x", "y"], QQ)
    assert f.to_str() == "y^3 + x^2 + x"


def test_negative_coeff_normalized_char_p():
    f = poly_parse("-x", ["x"], F5)
    assert f.terms == {(1,): 4}
