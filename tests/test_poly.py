import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import available_backends, lane_switch_primes, multiplication_operator, random_poly
from wildcycles.errors import DomainMismatch, IndexOutOfRange, ParseError, StateBudgetExceeded, UnknownVariable
from wildcycles.fields import QQ, PrimeField, is_prime
from wildcycles.poly import GREVLEX, MPoly, grevlex_walk, grid_points, grid_table, poly_parse
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


def test_repeated_terms_add_up():
    # a monomial written twice is one term, its coefficients added in the
    # domain and dropped where they cancel; so is a derivative's coefficient
    assert poly_parse("x + 2*x - y + y^2 + y", ["x", "y"], QQ).terms == {(1, 0): 3, (0, 2): 1}
    assert poly_parse("2*x^2 + x + 3*x^2", ["x"], F5).terms == {(1,): 1}
    assert poly_parse("x - x", ["x"], QQ).terms == {}
    D = weyl_parse("x*d1 + 2*x*d1 + d1 + x^2 - x^2 + 1/2*d1", ["x"], QQ)
    assert D == WeylOperator(1, QQ, {(1,): MPoly(1, QQ, {(1,): 3, (0,): Fraction(3, 2)})})
    assert weyl_parse("x*d1 + 2*x*d1", ["x"], F3).terms == {}


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
        (weyl_parse, "d1*x", QQ, 3),
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
            assert weyl_parse(f.to_str(), ["x", "y"], dom) == multiplication_operator(f)


def test_canonical_serialization_grevlex_descending():
    f = poly_parse("x + y^3 + x^2", ["x", "y"], QQ)
    assert f.to_str() == "y^3 + x^2 + x"


def test_negative_coeff_normalized_char_p():
    f = poly_parse("-x", ["x"], F5)
    assert f.terms == {(1,): 4}


def test_grid_points_invert_the_state_index():
    """Index sum_i x_i p^i, variable 0 least significant, back to (x_0, ..,
    x_(n-1)), in the order of the indices given; with n = 0 the one state
    is ()."""
    for p, n in ((2, 1), (3, 3), (7, 2), (101, 2)):
        indices = list(range(p**n))
        random.Random(p).shuffle(indices)
        points = grid_points(indices, p, n)
        assert all(sum(x * p**i for i, x in enumerate(pt)) == k for pt, k in zip(points, indices))
        assert all(len(pt) == n and all(0 <= x < p for x in pt) for pt in points)
        assert len(points) == len(indices)
    assert grid_points([], 5, 2) == []
    assert grid_points([0, 0], 5, 0) == [(), ()]
    assert grid_points([7, 0, 24], 5, 2) == [(2, 1), (0, 0), (4, 4)]


def test_grid_table_refuses_past_the_budget_and_off_the_field():
    """grid_table is the one gate for a table: p^n states past the budget,
    and a component over another ring or in another number of variables,
    are refused before the kernel runs, on every lane."""
    f = poly_parse("x*y + 1", ["x", "y"], F5)
    for kernels in available_backends().values():
        assert len(grid_table(kernels, [f], 5, 2, budget=25)) == 25
        with pytest.raises(StateBudgetExceeded, match=r"^5\^2 = 25 states exceed budget 24$"):
            grid_table(kernels, [f], 5, 2, budget=24)
        for g in (poly_parse("x*y + 1", ["x", "y"], QQ), poly_parse("x*y + 1", ["x", "y"], PrimeField(7)), MPoly.zero(3, F5)):
            with pytest.raises(DomainMismatch):
                grid_table(kernels, [f, g], 5, 2)


def test_grid_table_refuses_indices_past_32_bits():
    """Every table word holds 32 bits, and m components put the image
    indices below p^m: two components are taken at p = 65521 < 2^16 and
    refused at p = 65537 > 2^16, on tables in n = 0 and n = 1 variables, as
    are 14 components over F_5, on every lane and before the kernel runs."""
    for n in (0, 1):
        for p in (65521, 65537):
            fp = PrimeField(p)
            f = MPoly(n, fp, {(1,) * n: p - 1})
            for kernels in available_backends().values():
                if p < 1 << 16:
                    expected = [(p - 1) * x**n % p * (p + 1) for x in range(p**n)]
                    assert grid_table(kernels, [f, f], p, n).tolist() == expected
                    continue
                with pytest.raises(StateBudgetExceeded, match=rf"^image indices below {p}\^2 do not fit 32 bits$"):
                    grid_table(kernels, [f, f], p, n)
    for kernels in available_backends().values():
        with pytest.raises(StateBudgetExceeded, match=r"^image indices below 5\^14 do not fit 32 bits$"):
            grid_table(kernels, [MPoly.zero(1, F5)] * 14, 5, 1)


def test_grid_table_refuses_tables_past_the_largest_array():
    """With fewer components than variables the indices fit 32 bits while
    the table passes the largest array: 65521^4 states of 4 bytes pass
    sys.maxsize bytes, refused before allocation on every lane."""
    f = MPoly.zero(4, PrimeField(65521))
    for kernels in available_backends().values():
        with pytest.raises(StateBudgetExceeded, match=r"^65521\^4 states of 4 bytes exceed \d+ bytes, the largest array$"):
            grid_table(kernels, [f], 65521, 4, budget=10**20)


def test_grid_image_lanes_at_their_bound():
    """f = sum over i < g of (p-1) x^(2i+1) y^(2i+1) reaches the lane bound
    g (p-1)^2 at x = 1, y = p - 1 (and its one-variable form at x = p - 1),
    checked at every prime below 60 and on both sides of the pure lane's
    first lane switch for g terms in one variable, on every lane. Then
    one variable on both sides of g (p - 1)^2 = 2^32, where the compiled
    lane's sums of products leave 32 bits, at x = p - 1 and a sample."""
    for g in range(1, 7):
        primes = [p for p in range(2, 60) if is_prime(p)]
        for p in primes + list(lane_switch_primes(g, 1, 10**5)[0]):
            fp = PrimeField(p)
            for n in (1, 2) if p < 60 else (1,):
                f = MPoly(n, fp, {(2 * i + 1,) * n: p - 1 for i in range(g)})
                expected = [f.eval(point) for point in grid_points(range(p**n), p, n)]
                for name, kernels in available_backends().items():
                    assert grid_table(kernels, [f], p, n).tolist() == expected, (name, g, p, n)
    rng = random.Random(139)
    for g in range(1, 4):
        edge = math.isqrt((2**32 - 1) // g) + 1  # the largest p with g (p - 1)^2 < 2^32
        q = max(p for p in range(edge - 100, edge + 1) if is_prime(p))
        r = min(p for p in range(edge + 1, edge + 100) if is_prime(p))
        for p in (q, r):
            f = MPoly(1, PrimeField(p), {(2 * i + 1,): p - 1 for i in range(g)})
            points = [0, 1, p - 1] + rng.sample(range(p), 50)
            for name, kernels in available_backends().items():
                image = grid_table(kernels, [f], p, 1)
                assert [image[x] for x in points] == [f.eval((x,)) for x in points], (name, g, p)


def test_grevlex_walk_is_the_grevlex_sort_of_its_box():
    # boxes with empty sides, one side, and degree limits below, at and
    # past the box's top degree
    rng = random.Random(41)
    for _ in range(300):
        bounds = [rng.randrange(6) for _ in range(rng.randrange(5))]
        limit = rng.randrange(1, 16)
        every = [e for e in itertools.product(*map(range, bounds)) if sum(e) < limit]
        assert grevlex_walk(bounds, limit) == sorted(every, key=GREVLEX.key), (bounds, limit)
