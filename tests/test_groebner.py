import random

import pytest

from helpers import divides, division_oracle, membership_oracle, random_poly, s_poly, truncation_oracle
from wildcycles.fields import QQ, PrimeField
from wildcycles.groebner import (
    INFINITE,
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


def test_normal_form_by_any_generators_matches_textbook_division(monkeypatch):
    rng = random.Random(79)
    cases = []
    for dom in (QQ, F2, F3, PrimeField(7)):
        for order in (GREVLEX, LEX):
            for _ in range(15):
                nvars = rng.choice((2, 3))
                gens = [g for g in (random_poly(rng, nvars, dom) for _ in range(rng.randrange(1, 4))) if not g.is_zero()]
                f = random_poly(rng, nvars, dom, max_deg=5, max_terms=6)
                if gens:
                    cases.append((f, gens, order))
    for f, gens, order in cases:
        assert normal_form(f, gens, order) == division_oracle(f, gens, order), (f.to_str(), [g.to_str() for g in gens], order)
    # the same remainders when every product has to re-pack wider
    _narrowest_fields(monkeypatch)
    for f, gens, order in cases:
        assert normal_form(f, gens, order) == division_oracle(f, gens, order)


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
        assert local_dimension(J) == truncation_oracle(J, d), [g.to_str() for g in J]
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
                    assert not any(divides(le, leads[i][0]) for le in others), basis
                    # no term of a generator lies in another's leading ideal
                    assert not any(divides(le, e) for le in others for e in g.terms), basis
                checked += 1
    assert checked >= 50


def test_tame_wild_anomaly_names_the_infinite_characteristic():
    # not isolated over QQ either: the char-0 dimension is the one reported
    for text, p in (("x^2*y^2", 3), ("x^2", 5), ("0", 5)):
        rep = tame_wild_split(P(text), p)
        assert (rep.char_0_dimension, rep.char_p_dimension, rep.tame, rep.wild) == (INFINITE,) * 4
        assert rep.anomaly == "char-0 dimension infinite"
    # isolated over QQ, degenerate mod p
    rep = tame_wild_split(P("x^2 + y^3"), 2)
    assert (rep.char_0_dimension, rep.char_p_dimension, rep.tame, rep.wild) == (2, INFINITE, 2, INFINITE)
    assert rep.anomaly == "char-p dimension infinite (derivatives degenerate mod p)"


def _layouts(nvars, bits):
    from wildcycles.groebner import _Layout

    return [(_Layout(nvars, bits, kind, QQ), kind) for kind in ("local", "grevlex", "lex")]


def test_packed_divisibility_lcm_and_keys_match_exponent_tuples():
    rng = random.Random(83)
    local_key = lambda e: (-sum(e), tuple(-v for v in reversed(e)))
    for nvars in (1, 2, 3, 4):
        for bits in (2, 3, 5):
            top = (1 << bits) - 1
            # exponent vectors of total degree below 2^bits, many at the edge
            vecs = set()
            for _ in range(40):
                e = [rng.choice((0, 1, top, rng.randrange(top + 1))) for _ in range(nvars)]
                while sum(e) > top:
                    e[rng.randrange(nvars)] //= 2
                vecs.add(tuple(e))
            vecs = sorted(vecs)
            for L, kind in _layouts(nvars, bits):
                packed = {e: L.pack(MPoly.monomial(nvars, QQ, e)).popitem()[0] for e in vecs}
                assert all(L.exponents(m) == e and m >> L.top == sum(e) for e, m in packed.items())
                for a in vecs:
                    for b in vecs:
                        assert (not (packed[b] - packed[a]) & L.guards) == divides(a, b)
                        lcm = L.lcm(packed[a], packed[b])
                        assert L.exponents(lcm) == tuple(map(max, a, b))
                        assert lcm >> L.top == sum(map(max, a, b))
                if kind == "local":
                    ranked = sorted(vecs, key=lambda e: -packed[e])
                    assert ranked == sorted(vecs, key=local_key)
                else:
                    order = GREVLEX if kind == "grevlex" else LEX
                    assert sorted(vecs, key=lambda e: L.key(packed[e])) == sorted(vecs, key=order.key)


def _narrowest_fields(monkeypatch):
    """Make the width chooser return the fewest bits that hold the input,
    and record every degree it is asked to fit."""
    from wildcycles import groebner

    degrees = []

    def narrowest(degree):
        degrees.append(degree)
        return max(degree, 1).bit_length()

    monkeypatch.setattr(groebner, "_field_bits", narrowest)
    return degrees


def test_overflowing_products_repack_wider_with_the_same_results(monkeypatch):
    F5, F32003 = PrimeField(5), PrimeField(32003)
    germs = [
        (P("x^3 + x*y^3"), 7),
        (P("x^4 + y^5 + x^2*y^2"), 10),
        (P("x^4 + y^5 + x^2*y^2", dom=F5), None),
        (P("z^3 + y^3 + y*z + x^2", names="xyz"), 1),
        (P("x^3 + x*y^3", dom=F5), 7),
        (P("x^3 + y^4 + x^2*y^2", dom=PrimeField(7)), None),
    ]
    names = ["u0", "u1", "u2", "u3"]
    katsura3 = "u0 + 2*u1 + 2*u2 + 2*u3 - 1; u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0; 2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1; 2*u0*u2 + u1^2 + 2*u1*u3 - u2"
    ideals = [
        ([P(t, names, dom) for t in katsura3.split(";")], GREVLEX)
        for dom in (QQ, F32003)
    ] + [([P("x^2 - y"), P("x*y^2 - x")], LEX), ([P("x^3 - y", dom=F5), P("y^2 - x*y", dom=F5)], LEX)]
    mus = [milnor_number(f) for f, _ in germs]
    assert [mu for mu, (_, known) in zip(mus, germs) if known] == [known for _, known in germs if known]
    bases = [buchberger(gens, order) for gens, order in ideals]
    degrees = _narrowest_fields(monkeypatch)
    for (f, _), mu in zip(germs, mus):
        degrees.clear()
        assert milnor_number(f) == mu
        # the input fits the first width; a product did not, and was re-packed
        assert len(degrees) > 1, f.to_str()
    for (gens, order), G in zip(ideals, bases):
        degrees.clear()
        assert buchberger(gens, order) == G
        assert len(degrees) > 1
        for f in (gens[0] * gens[-1], gens[-1] ** 3):
            assert normal_form(f, G).is_zero()


def test_local_dimension_of_high_exponent_germs_matches_truncation_oracle():
    # a power of one variable up to the 40th, squares (or in two variables
    # cubes) of the others
    # and one or two mixed terms; kept where the global Jacobian quotient is
    # small enough for the oracle (over QQ, in two variables, its
    # coefficients grow fast), and checked one past the claimed dimension:
    # too small a claim reads larger there, too large a one reads as the
    # true dimension
    rng = random.Random(89)
    checked = {}
    while sum(checked.values()) < 40:
        dom = rng.choice((QQ, F2, F3, PrimeField(5), PrimeField(7)))
        n = 2 if dom is QQ else rng.choice((2, 3))
        big = rng.randrange(n)
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = rng.randrange(10, 41) if i == big else rng.randrange(2, 6 - n)
            if dom is F2 and i == big:
                e[i] |= 1  # an odd power keeps its derivative mod 2
            terms[tuple(e)] = dom.one
        for _ in range(rng.randrange(1, 3)):
            e = tuple(rng.randrange(0, 4) for _ in range(n))
            if sum(e) >= 2:
                terms[e] = dom.from_int(rng.randrange(1, 5))
        J = [g for g in (MPoly(n, dom, terms).derivative(i) for i in range(n)) if not g.is_zero()]
        if not J:
            continue
        d = quotient_dimension(buchberger(J))
        if d == INFINITE or d > (45 if n == 2 and dom is not QQ else 24):
            continue
        mu = local_dimension(J)
        assert mu <= d and truncation_oracle(J, mu + 1) == mu, [g.to_str() for g in J]
        checked[dom, n] = checked.get((dom, n), 0) + 1
    assert {dom for dom, _ in checked} == {QQ, F2, F3, PrimeField(5), PrimeField(7)}
    assert sum(k for (_, n), k in checked.items() if n == 3) >= 5
    # A_39 and a three-variable Brieskorn-Pham germ, by their closed forms
    assert milnor_number(P("x^40 + y^2")) == milnor_number(P("x^40 + y^2", dom=PrimeField(7))) == 39
    assert milnor_number(P("x^40 + y^3 + z^2", names="xyz", dom=F3)) == INFINITE
    assert milnor_number(P("x^40 + y^4 + z^2", names="xyz", dom=PrimeField(7))) == 39 * 3


def _sympy_basis(sympy, texts, names, p):
    """sympy's reduced grevlex basis as {exponents: coefficient} dicts."""
    from fractions import Fraction

    gens = sympy.symbols(names)
    opts = {"modulus": p} if p else {"domain": "QQ"}
    G = sympy.groebner([sympy.sympify(t.replace("^", "**")) for t in texts], *gens, order="grevlex", **opts)
    out = []
    for g in G.exprs:
        terms = sympy.Poly(g, *gens, **opts).terms()
        if p:
            out.append({e: int(c) % p for e, c in terms})
        else:
            out.append({e: Fraction(int(c.p), int(c.q)) for e, c in terms})
    return out


def test_buchberger_matches_sympy_on_cyclic4_and_katsura3():
    sympy = pytest.importorskip("sympy")
    systems = [
        (["a + b + c + d", "a*b + b*c + c*d + d*a", "a*b*c + b*c*d + c*d*a + d*a*b", "a*b*c*d - 1"], ["a", "b", "c", "d"]),
        (
            ["u0 + 2*u1 + 2*u2 + 2*u3 - 1", "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0",
             "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1", "2*u0*u2 + u1^2 + 2*u1*u3 - u2"],
            ["u0", "u1", "u2", "u3"],
        ),
    ]
    for texts, names in systems:
        for p in (32003, None):
            dom = PrimeField(p) if p else QQ
            G = buchberger([P(t, names, dom) for t in texts], GREVLEX)
            expected = _sympy_basis(sympy, texts, names, p)
            assert sorted(map(sorted, (g.terms.items() for g in G))) == sorted(map(sorted, (e.items() for e in expected)))
