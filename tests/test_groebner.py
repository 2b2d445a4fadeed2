import itertools
import random

from helpers import membership_oracle, random_poly, s_poly
from wildcycles.fields import QQ, PrimeField
from wildcycles.groebner import (
    INFINITE,
    _divides,
    buchberger,
    local_dimension,
    milnor_number,
    normal_form,
    quotient_dimension,
    standard_monomials,
    tame_wild_split,
)
from wildcycles.poly import GREVLEX, LEX, MPoly, poly_parse


F2 = PrimeField(2)
F3 = PrimeField(3)


def P(text, names=("x", "y"), dom=QQ):
    return poly_parse(text, list(names), dom)


def test_buchberger_already_basis():
    G = buchberger([P("x^2", dom=F2), P("y^2", dom=F2)])
    assert [g.to_str() for g in G] == ["y^2", "x^2"]


def test_buchberger_spair_reduces():
    G = buchberger([P("x^2 - y"), P("y^2")])
    assert set(g.to_str() for g in G) == {"x^2 - y", "y^2"}


def test_buchberger_unit_ideal():
    G = buchberger([P("x", names=["x"]), P("x + 1", names=["x"])])
    assert len(G) == 1 and G.generators[0] == MPoly.one(1, QQ)


def test_normal_form_example():
    G = buchberger([P("x^2 - y"), P("y^2")])
    # oracle: x^3 = x(x^2 - y) + xy
    assert normal_form(P("x^3"), G) == P("x*y")


def test_normal_form_of_generators_zero():
    G = buchberger([P("x^2 - y"), P("y^2")])
    for g in G:
        assert normal_form(g, G).is_zero()


def test_normal_form_idempotent_random():
    rng = random.Random(47)
    G = buchberger([P("x^2 - y"), P("y^2")])
    for _ in range(100):
        f = random_poly(rng, 2, QQ, max_deg=4)
        r = normal_form(f, G)
        assert normal_form(r, G) == r


def test_spolys_of_basis_reduce_to_zero():
    rng = random.Random(53)
    for dom in (F2, F3, QQ):
        for _ in range(15):
            gens = [g for g in (random_poly(rng, 2, dom) for _ in range(3)) if not g.is_zero()]
            if not gens:
                continue
            G = buchberger(gens)
            gl = list(G.generators)
            for i in range(len(gl)):
                for j in range(i + 1, len(gl)):
                    assert normal_form(s_poly(gl[i], gl[j], G.order), G).is_zero()


def test_quotient_dimension_examples():
    G = buchberger([P("x^2", dom=F2), P("y^2", dom=F2)])
    assert quotient_dimension(G) == 4
    assert standard_monomials(G) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert quotient_dimension(buchberger([P("x", names=["x"])])) == 1
    assert quotient_dimension(buchberger([P("x*y")])) == INFINITE


def test_quotient_dimension_agrees_with_enumeration():
    rng = random.Random(59)
    import itertools

    for _ in range(20):
        gens = [g for g in (random_poly(rng, 2, F3) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        G = buchberger(gens)
        sm = standard_monomials(G)
        if sm is None:
            continue
        leads = [g.leading(G.order)[0] for g in G.generators]
        bound = max((max(e) for e in leads), default=0) + 1
        expected = [
            e
            for e in itertools.product(range(bound), repeat=2)
            if not any(all(le[i] <= e[i] for i in range(2)) for le in leads)
        ]
        assert sorted(sm) == sorted(expected)


def test_membership_agrees_with_cofactor_oracle():
    rng = random.Random(61)
    checked = 0
    for dom in (F2, F3):
        while checked < 110 if dom is F2 else checked < 220:
            gens = [
                g
                for g in (random_poly(rng, 2, dom, max_deg=3) for _ in range(rng.randrange(1, 4)))
                if not g.is_zero()
            ]
            if not gens:
                continue
            f = random_poly(rng, 2, dom, max_deg=3)
            oracle = membership_oracle(f, gens)
            # under lex the pair loop skips every coprime pair, as under grevlex
            for order in (GREVLEX, LEX):
                member = normal_form(f, buchberger(gens, order)).is_zero()
                assert member == oracle, (order, f.to_str(), [g.to_str() for g in gens])
            checked += 1
    assert checked >= 220


def test_local_dimension_jacobian_example():
    # Jacobian of y^3 + x^2 + x^3 over QQ
    assert local_dimension([P("3*y^2"), P("2*x + 3*x^2")]) == 2


def test_local_dimension_morse():
    assert local_dimension([P("2*x"), P("2*y")]) == 1


def test_local_dimension_cusp():
    assert local_dimension([P("3*x^2"), P("-2*y")]) == 2  # standard monomials {1, x}


def test_local_dimension_matches_global_truncation_oracle():
    # If dim k[x]/J = d is finite, the local ring at the origin is a factor
    # of k[x]/J whose maximal ideal has m^d = 0 there, while m is the unit
    # ideal at every other zero of J; so dim k[x]/(J + m^d) is the local
    # dimension. Global Buchberger only.
    rng = random.Random(71)
    checked = 0
    while checked < 40:
        n = rng.choice((2, 2, 3))
        dom = rng.choice((QQ, F2, F3, PrimeField(5)))
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = rng.randrange(2, 6 if n == 2 else 4)
            terms[tuple(e)] = dom.one
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(0, 4) for _ in range(n))
            if sum(e) >= 2:
                terms[e] = dom.from_int(rng.randrange(1, 5))
        J = [g for g in (MPoly(n, dom, terms).derivative(i) for i in range(n)) if not g.is_zero()]
        if not J:
            continue
        d = quotient_dimension(buchberger(J))
        if d == INFINITE or d > (12 if n == 2 else 6):
            continue
        m_d = [
            MPoly.monomial(n, dom, e)
            for e in itertools.product(range(d + 1), repeat=n)
            if sum(e) == d
        ]
        assert local_dimension(J) == quotient_dimension(buchberger(J + m_d)), [g.to_str() for g in J]
        checked += 1


def test_milnor_exact_beyond_any_truncation_bound():
    assert milnor_number(P("x^23 + y^2")) == 22
    assert milnor_number(P("x^23 + y^2", dom=PrimeField(5))) == 22
    assert milnor_number(P("x^4 + y^4 + z^4", names=["x", "y", "z"])) == 27
    assert local_dimension([P("x*y")]) == INFINITE
    f = P("x^2 + y^3")
    assert milnor_number(f * f) == INFINITE


def test_milnor_examples():
    assert milnor_number(P("y^3+x^2+x^3", dom=F2)) == 4
    assert milnor_number(P("y^3+x^2+x^3")) == 2
    assert milnor_number(P("x^2+y^2+z^2", names=["x", "y", "z"])) == 1
    assert milnor_number(P("x^3-y^2")) == 2


def test_milnor_infinite_derivative_vanishes():
    assert milnor_number(P("x^2", names=["x"], dom=F2)) == INFINITE


def test_tame_wild_worked_example():
    rep = tame_wild_split(P("y^3+x^2+x^3"), 2)
    assert (rep.tame, rep.wild, rep.char_p_dimension) == (2, 2, 4)
    assert rep.anomaly is None


def test_tame_wild_large_prime():
    rep = tame_wild_split(P("y^3+x^2+x^3"), 7)
    assert (rep.tame, rep.wild, rep.char_p_dimension) == (2, 0, 2)


def test_tame_wild_infinite_anomaly():
    rep = tame_wild_split(P("x^2", names=["x"]), 2)
    assert rep.char_p_dimension == INFINITE
    assert rep.anomaly is not None


def test_tame_plus_wild_equals_total():
    rng = random.Random(67)
    for _ in range(10):
        terms = {}
        for _ in range(3):
            e = (rng.randrange(0, 4), rng.randrange(0, 4))
            if 2 <= sum(e) <= 4:
                terms[e] = QQ.from_int(rng.randrange(1, 5))
        if not terms:
            continue
        f = MPoly(2, QQ, terms)
        for p in (2, 3, 5):
            rep = tame_wild_split(f, p)
            if rep.char_p_dimension != INFINITE and rep.char_0_dimension != INFINITE:
                assert rep.tame + rep.wild == rep.char_p_dimension


def test_lex_order_basis():
    G = buchberger([P("x^2 - y"), P("y^2")], LEX)
    assert normal_form(P("x^4"), G).is_zero() == (normal_form(P("x^4"), buchberger([P("x^2 - y"), P("y^2")], GREVLEX)).is_zero())


def test_buchberger_basis_is_reduced():
    rng = random.Random(71)
    checked = 0
    for dom in (QQ, F2, F3):
        for order in (GREVLEX, LEX):
            for _ in range(12):
                nvars = rng.choice((2, 3))
                gens = [g for g in (random_poly(rng, nvars, dom) for _ in range(3)) if not g.is_zero()]
                if not gens:
                    continue
                G = buchberger(gens, order)
                leads = [g.leading(order) for g in G]
                basis = ([g.to_str() for g in G], order)
                # monic
                assert all(c == dom.one for _, c in leads), basis
                for i, g in enumerate(G):
                    others = [le for j, (le, _) in enumerate(leads) if j != i]
                    # no leading monomial divides another
                    assert not any(_divides(le, leads[i][0]) for le in others), basis
                    # no term of a generator lies in another's leading ideal
                    assert not any(_divides(le, e) for le in others for e in g.terms), basis
                checked += 1
    assert checked >= 50
