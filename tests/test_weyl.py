import random

import pytest

from helpers import apply_oracle, compose_oracle, random_poly
from wildcycles.errors import DomainMismatch
from wildcycles.fields import QQ, PrimeField
from wildcycles.poly import MPoly, poly_parse
from wildcycles.weyl import WeylOperator, is_d_stable, weyl_parse


F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def random_operator(rng, nvars, domain, max_order=2):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        alpha = tuple(rng.randrange(0, max_order + 1) for _ in range(nvars))
        f = random_poly(rng, nvars, domain, max_deg=2, max_terms=3)
        if not f.is_zero():
            terms[alpha] = terms.get(alpha, MPoly.zero(nvars, domain)) + f
    return WeylOperator(nvars, domain, terms)


def test_apply_third_derivative_value():
    P = WeylOperator.partial(1, QQ, 0, 3)
    f = poly_parse("1+x+x^2+x^3", ["x"], QQ)
    assert P.apply(f) == MPoly.constant(1, QQ, QQ.from_int(6))


def test_apply_stepwise_char2():
    d = WeylOperator.partial(1, F2, 0)
    f = poly_parse("1+x+x^2+x^3", ["x"], F2)
    step1 = d.apply(f)
    assert step1 == poly_parse("1+x^2", ["x"], F2)  # 2x vanishes, 3 = 1
    assert d.apply(step1).is_zero()


def test_apply_identity():
    f = poly_parse("x^2+3*y", ["x", "y"], QQ)
    assert WeylOperator.identity(2, QQ).apply(f) == f


def test_compose_defining_relation():
    d = weyl_parse("d1", ["x"], QQ)
    x = weyl_parse("x", ["x"], QQ)
    assert d.compose(x) == weyl_parse("x*d1 + 1", ["x"], QQ)


def test_compose_d2_x2():
    # oracle: apply both sides to x^m for m = 0..3 and match
    d2 = weyl_parse("d1^2", ["x"], QQ)
    x2 = weyl_parse("x^2", ["x"], QQ)
    composed = d2.compose(x2)
    assert composed == weyl_parse("x^2*d1^2 + 4*x*d1 + 2", ["x"], QQ)
    for m in range(4):
        f = MPoly.monomial(1, QQ, (m,))
        assert composed.apply(f) == d2.apply(x2.apply(f))


def test_compose_d2_x2_char2():
    d2 = weyl_parse("d1^2", ["x"], F2)
    x2 = weyl_parse("x^2", ["x"], F2)
    assert d2.compose(x2) == weyl_parse("x^2*d1^2", ["x"], F2)


def test_compose_apply_consistency_random():
    rng = random.Random(41)
    for dom in (F2, F3, F5, QQ):
        for _ in range(30):
            P = random_operator(rng, 2, dom)
            Q = random_operator(rng, 2, dom)
            f = random_poly(rng, 2, dom, max_deg=3)
            assert P.compose(Q).apply(f) == P.apply(Q.apply(f))


def test_apply_and_compose_match_oracles():
    # half the operators also carry a high d_i^k term: k from p - 2 to
    # p + 2 over F_p, where the falling factorials e!/(e - k)! all vanish
    # mod p once k >= p, and k from 4 to 8 over QQ
    rng = random.Random(90)
    domains = [PrimeField(p) for p in (2, 3, 5, 7, 11, 13)] + [QQ]
    for trial in range(280):
        dom = domains[trial % len(domains)]
        top = dom.char + 2 if dom.char else 8
        nvars = rng.randrange(1, 4)
        P, Q = (random_operator(rng, nvars, dom, max_order=3) for _ in range(2))
        if trial % 2:
            a = [0] * nvars
            a[rng.randrange(nvars)] = rng.randrange(max(1, top - 4), top + 1)
            P = P + WeylOperator(nvars, dom, {tuple(a): random_poly(rng, nvars, dom, max_deg=2) + MPoly.one(nvars, dom)})
        f = random_poly(rng, nvars, dom, max_deg=top + 2, max_terms=5)
        assert P.apply(f) == apply_oracle(P, f), (P, f)
        assert P.compose(Q) == compose_oracle(P, Q), (P, Q)


def test_to_str_round_trips_through_the_grammar():
    rng = random.Random(91)
    for trial in range(200):
        dom = (F2, F3, F5, PrimeField(13), QQ)[trial % 5]
        nvars = rng.randrange(1, 4)
        names = (["x", "y", "z"], ["u", "v", "w"])[trial % 2][:nvars]
        P = random_operator(rng, nvars, dom, max_order=3)
        assert weyl_parse(P.to_str(names), names, dom) == P, P.to_str(names)


def test_to_str_one_term_per_coefficient_monomial():
    assert weyl_parse("x*d1^2 - d1", ["x"], QQ).to_str() == "x*d1^2 - d1"
    assert weyl_parse("-1/2*x*d1 + x^2*d1 - 3", ["x"], QQ).to_str() == "x^2*d1 - 1/2*x*d1 - 3"
    assert weyl_parse("x*d1 + d1 + 4*y*d1", ["x", "y"], F5).to_str() == "x*d1 + 4*y*d1 + d1"
    assert WeylOperator.zero(2, F3).to_str() == "0"


def test_normal_form_canonical():
    # operators equal as maps on low-degree polynomials iff same normal form
    rng = random.Random(43)
    for _ in range(20):
        P = random_operator(rng, 1, F3)
        Q = random_operator(rng, 1, F3)
        D = P.order() + Q.order() + max(
            (f.total_degree() for f in list(P.terms.values()) + list(Q.terms.values())),
            default=0,
        ) + 2
        agree = all(
            P.apply(MPoly.monomial(1, F3, (m,))) == Q.apply(MPoly.monomial(1, F3, (m,)))
            for m in range(D + 1)
        )
        assert agree == (P == Q)


def test_domain_mismatch():
    with pytest.raises(DomainMismatch):
        WeylOperator.partial(1, F2, 0).apply(poly_parse("x", ["x"], F3))


def test_d_stable_x2_f2():
    assert is_d_stable([poly_parse("x^2", ["x"], F2)]).stable


def test_d_stable_x2_qq_witness():
    rep = is_d_stable([poly_parse("x^2", ["x"], QQ)])
    assert not rep.stable
    gi, vi, residue = rep.witness
    assert (gi, vi) == (0, 0)
    assert residue == poly_parse("2*x", ["x"], QQ)


def test_d_stable_xp_fp():
    for p in (2, 3, 5, 7):
        fp = PrimeField(p)
        assert is_d_stable([MPoly.monomial(1, fp, (p,))]).stable


def test_monomial_ideals_never_stable_over_qq():
    for m in range(1, 6):
        assert not is_d_stable([MPoly.monomial(1, QQ, (m,))]).stable


def test_operator_json():
    op = weyl_parse("x^2*d1^2 + d2", ["x", "y"], QQ)
    data = op.to_json()
    assert {"c": "1", "e": [2, 0], "alpha": [2, 0]} in data["terms"]
    assert {"c": "1", "e": [0, 0], "alpha": [0, 1]} in data["terms"]


def test_parse_dx_dy_tokens():
    assert weyl_parse("dx + dy", ["x", "y"], QQ) == weyl_parse("d1 + d2", ["x", "y"], QQ)
