import itertools
import random

import pytest

from helpers import derivative_oracle, divides, division_oracle, membership_oracle, random_poly, s_poly, truncation_oracle
from wildcycles.errors import StateBudgetExceeded
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
    # over QQ, every coefficient with a denominator past 1: the integer
    # engine's scale has to come out of the remainder exactly
    for order in (GREVLEX, LEX):
        for _ in range(25):
            nvars = rng.choice((2, 3))
            gens = [g for g in (random_poly(rng, nvars, QQ, dens=(2, 12)) for _ in range(rng.randrange(1, 4))) if not g.is_zero()]
            f = random_poly(rng, nvars, QQ, max_deg=5, max_terms=6, dens=(2, 12))
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


def test_standard_monomials_are_the_grevlex_sort_of_the_staircase():
    # random staircases in 1-3 variables, corners inside the box among them,
    # against every exponent vector of the box divided by no leading monomial
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randrange(1, 4)
        leads = [tuple(rng.randrange(1, 7) * (j == i) for j in range(n)) for i in range(n)]
        leads += [tuple(rng.randrange(4) for _ in range(n)) for _ in range(rng.randrange(3))]
        gens = [MPoly.monomial(n, F3, e) for e in leads]
        box = itertools.product(*[range(max(e[i] for e in leads) + 1) for i in range(n)])
        every = [e for e in box if not any(divides(a, e) for a in leads)]
        assert standard_monomials(buchberger(gens)) == sorted(every, key=GREVLEX.key), leads


def test_standard_monomials_refuse_a_box_past_the_budget():
    # the box below x^2, y^2 holds 4 monomials and x*y cuts one: the box,
    # not the listing, is held to the budget, and refused before its walk
    G = buchberger([P("x^2", dom=F2), P("y^2", dom=F2), P("x*y", dom=F2)])
    assert standard_monomials(G, budget=4) == [(0, 0), (0, 1), (1, 0)]
    with pytest.raises(StateBudgetExceeded, match=r"^the standard monomials lie in a box of 4 monomials, past budget 3$"):
        standard_monomials(G, budget=3)
    G = buchberger([P(f"x^{10**20}", names=["x"], dom=F2)])
    with pytest.raises(StateBudgetExceeded):
        standard_monomials(G)


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
        assert quotient_dimension(G) == len(expected)


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


def test_milnor_number_of_a_long_tail_in_x_is_its_degree_plus_one():
    # mu(x^N + x*y^2 + y^3) = N + 1
    for N in range(3, 14):
        assert milnor_number(P(f"x^{N} + x*y^2 + y^3")) == N + 1
        assert milnor_number(P(f"x^{N} + x*y^2 + y^3", dom=PrimeField(32003))) == N + 1


def test_dimension_counted_from_corners_matches_the_box_walk():
    import itertools

    from wildcycles.groebner import _dimension, _staircase

    rng = random.Random(131)
    cut = 0
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        # most staircases bounded by a pure power x_i^b_i of every
        # variable, with up to six more leading monomials, most of them
        # inside the box
        b = [rng.randrange(1, 8) for _ in range(n)]
        leads = [tuple(b[i] * (j == i) for j in range(n)) for i in range(n) if rng.random() < 0.95]
        for _ in range(rng.randrange(7)):
            past = 3 * (rng.random() < 0.2)
            leads.append(tuple(rng.randrange(b[i] + past) for i in range(n)))
        box = _staircase(leads)
        if box is None:
            # some variable has no leading monomial in it alone, so each of
            # its powers is a standard monomial
            assert any(all(any(le[:i] + le[i + 1 :]) for le in leads) for i in range(n)), leads
            walked = INFINITE
        else:
            # every standard monomial lies in the box: count those that no
            # leading monomial divides
            stairs = itertools.product(*map(range, box[0]))
            walked = sum(1 for e in stairs if not any(divides(le, e) for le in leads))
        assert _dimension(leads) == walked, leads
        cut += box is not None and len(box[1]) >= 2
    assert cut > 60


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
    """Three random generators per system, many of them monomial or unit
    ideals; then one random generator beside a pure power x_i^d of each
    variable with terms of lower degree, so that most bases have tails to
    reduce."""
    rng = random.Random(71)
    checked = tails = 0
    for powers in (False, True):
        for dom in (QQ, F2, F3):
            for order in (GREVLEX, LEX):
                for _ in range(12):
                    nvars = rng.choice((2, 3))
                    gens = [g for g in (random_poly(rng, nvars, dom) for _ in range(1 if powers else 3)) if not g.is_zero()]
                    for i in range(nvars if powers else 0):
                        d = rng.randrange(2, 5)
                        power = MPoly.monomial(nvars, dom, tuple(d if j == i else 0 for j in range(nvars)))
                        gens.append(power + random_poly(rng, nvars, dom, max_deg=d - 1))
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
                    tails += powers and any(len(g.terms) > 1 for g in G)
    assert checked >= 120 and tails >= 36


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
    # germs whose Jacobian basis has a product past the narrowest fields of f
    germs = [
        (P("x^5 + y^6 + x^3*y^2"), 18),
        (P("x^4 + y^5 + x^2*y^2"), 10),
        (P("x^4 + y^5 + x^2*y^2", dom=F3), 10),
        (P("z^3 + y^3 + y*z + x^2", names="xyz"), 1),
        (P("x^3 + y^7 + x*y^5", dom=PrimeField(7)), 13),
        (P("x^7 + x^2*y^3 + y^5"), 20),
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


def _sympy_basis(sympy, texts, names, p, order="grevlex"):
    """sympy's reduced basis as {exponents: coefficient} dicts."""
    from fractions import Fraction

    gens = sympy.symbols(names)
    opts = {"modulus": p} if p else {"domain": "QQ"}
    G = sympy.groebner([sympy.sympify(t.replace("^", "**")) for t in texts], *gens, order=order, **opts)
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


def test_packed_partial_matches_the_derivative_oracle():
    from wildcycles.groebner import _Layout, _denominator, _field_bits

    rng = random.Random(97)
    for dom in (QQ, F2, F3, PrimeField(5), PrimeField(7)):
        p = dom.char
        for _ in range(30):
            n = rng.choice((1, 2, 3))
            if p:
                # many exponents that are multiples of p, whose terms vanish
                f = MPoly(n, dom, {tuple(rng.choice((0, 1, p, 2 * p, rng.randrange(3 * p))) for _ in range(n)): rng.randrange(1, p) for _ in range(5)})
            else:
                f = random_poly(rng, n, dom, max_deg=6, max_terms=6, dens=(1, 12))
            if f.is_zero():
                continue
            for kind in ("local", "grevlex", "lex"):
                L = _Layout(n, _field_bits(f.total_degree()), kind, dom)
                h = L.pack(f)
                assert all(type(c) is int for c in h.values())
                for i in range(n):
                    d = L.partial(h, i)
                    assert L.unpack(d, _denominator(f)) == derivative_oracle(f, i), (f.to_str(), i, kind)
                    # no zero coefficient is stored
                    assert all(0 < c < p if p else type(c) is int and c for c in d.values())
                    assert len(d) == sum(1 for e in f.terms if (e[i] % p if p else e[i]))


def test_milnor_number_of_zero_and_constant_polynomials_is_infinite():
    for dom in (QQ, F2, PrimeField(7)):
        for n in (1, 2, 3):
            assert milnor_number(MPoly.zero(n, dom)) == INFINITE
            assert milnor_number(MPoly.constant(n, dom, dom.from_int(3))) == INFINITE
    # only terms whose exponents are multiples of p: every partial is zero
    assert milnor_number(P("x^5 + y^10 + 2", dom=PrimeField(5))) == INFINITE


def test_milnor_number_with_rational_coefficients_matches_truncation_oracle():
    from fractions import Fraction

    rng = random.Random(101)
    checked = 0
    while checked < 30:
        n = rng.choice((2, 2, 3))
        frac = lambda: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.randrange(2, 9))
        terms = {}
        for i in range(n):
            e = [0] * n
            e[i] = rng.randrange(2, 6 if n == 2 else 4)
            terms[tuple(e)] = frac()
        for _ in range(rng.randrange(1, 4)):
            e = tuple(rng.randrange(0, 4) for _ in range(n))
            if sum(e) >= 2:
                terms[e] = frac()
        f = MPoly(n, QQ, terms)
        J = [g for g in (f.derivative(i) for i in range(n)) if not g.is_zero()]
        d = quotient_dimension(buchberger(J))
        if d == INFINITE or d > (12 if n == 2 else 6):
            continue
        assert milnor_number(f) == truncation_oracle(J, d), f.to_str()
        checked += 1


def test_integer_engine_keeps_int_coefficients_over_QQ(monkeypatch):
    from math import gcd

    from wildcycles.groebner import _Layout

    seen = []
    record, reduce = _Layout.record, _Layout.reduce

    def checked_record(self, g):
        r = record(self, g)
        seen.append(g)
        seen.append(r[2])
        # primitive, with a positive leading coefficient
        assert gcd(*r[2].values()) == 1 and r[2][r[1]] > 0
        return r

    def checked_reduce(self, h, G):
        seen.append(dict(h))
        out = reduce(self, h, G)
        seen.append(out[0])
        return out

    monkeypatch.setattr(_Layout, "record", checked_record)
    monkeypatch.setattr(_Layout, "reduce", checked_reduce)
    rng = random.Random(103)
    for order in (GREVLEX, LEX):
        for _ in range(10):
            gens = [g for g in (random_poly(rng, 3, QQ, dens=(1, 9)) for _ in range(3)) if not g.is_zero()]
            if gens:
                buchberger(gens, order)
                normal_form(random_poly(rng, 3, QQ, dens=(1, 9)), gens, order)
    for text in ("1/2*x^5 + 2/3*y^6 + x^3*y^2", "x^7 + 3/4*x^2*y^3 - 5/7*y^5"):
        milnor_number(P(text))
    local_dimension([P("3/2*x^2 - 1/3*y^3"), P("x*y + 7/5*y^4")])
    assert len(seen) > 100
    assert all(type(c) is int for h in seen for c in h.values())


def test_buchberger_matches_sympy_on_seeded_rational_systems():
    sympy = pytest.importorskip("sympy")
    from fractions import Fraction

    rng = random.Random(107)
    checked = 0
    while checked < 24:
        n = rng.choice((2, 3))
        names = ["x", "y", "z"][:n]
        # a rational multiple of a pure power of each of the first n or
        # n - 1 variables over lower terms, so most quotients are finite and
        # not trivial, and one more polynomial
        gens = []
        for i in range(rng.choice((n - 1, n))):
            d = rng.randrange(2, 6 - n)
            c = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
            power = MPoly.monomial(n, QQ, tuple(d * (j == i) for j in range(n)), c)
            gens.append(power + random_poly(rng, n, QQ, max_deg=d, dens=(1, 9)))
        gens = [g for g in gens + [random_poly(rng, n, QQ, dens=(1, 9))] if not g.is_zero()]
        if len(gens) < 2:
            continue
        texts = [g.to_str(names) for g in gens]
        for order in (GREVLEX, LEX):
            G = buchberger(gens, order)
            expected = _sympy_basis(sympy, texts, names, None, order.kind)
            assert sorted(map(sorted, (g.terms.items() for g in G))) == sorted(map(sorted, (e.items() for e in expected))), (texts, order)
        checked += 1
