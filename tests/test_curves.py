import itertools
import random

import pytest

from helpers import (
    critical_locus_oracle,
    each_lane,
    lane_switch_primes,
    multiplicity_oracle,
    random_poly,
    singularity_oracle,
    slice_counts_oracle,
)
from wildcycles import _kernels_py
from wildcycles.curves import (
    CurveSpec,
    critical_locus,
    hasse_check,
    naive_count,
    singularity_check,
    slice_counts,
    slice_counts_with_multiplicity,
    verify_identity,
)
from wildcycles.errors import DomainMismatch, NotPrime, SingularCurve, StateBudgetExceeded
from wildcycles.fields import QQ, PrimeField, is_prime
from wildcycles.poly import MPoly, poly_parse


def brute_affine(p, a, b):
    """Independent oracle: evaluate the defining equation at every pair."""
    return sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y + a * x**3 + b * x) % p == 0
    )


def test_naive_count_p5():
    # oracle enumeration gives affine points (0,0), (2,0), (3,0)
    assert brute_affine(5, 1, 1) == 3
    assert naive_count(CurveSpec(5, 1, 1)) == 4


def test_naive_count_p2_p3():
    assert naive_count(CurveSpec(2, 1, 1)) == brute_affine(2, 1, 1) + 1
    # x^3 bijective mod 3: every -y^2 hit exactly once -> 3 affine + 1
    assert naive_count(CurveSpec(3, 1, 0)) == 4


def test_slice_counts_p5():
    assert slice_counts(CurveSpec(5, 1, 1)) == [3, 0, 0, 0, 0]


def test_slice_counts_p2():
    assert slice_counts(CurveSpec(2, 1, 1)) == [2, 0]


def test_slice_symmetry():
    rng = random.Random(71)
    for p in (5, 7, 11, 13):
        a = rng.randrange(1, p)
        b = rng.randrange(0, p)
        l = slice_counts(CurveSpec(p, a, b))
        for i in range(p):
            assert l[i] == l[(p - i) % p]


def test_slice_counts_bounded_by_three():
    rng = random.Random(73)
    for _ in range(20):
        p = rng.choice([5, 7, 11, 13, 17])
        spec = CurveSpec(p, rng.randrange(1, p), rng.randrange(0, p))
        assert all(0 <= li <= 3 for li in slice_counts(spec))


def test_verify_identity_examples():
    rep = verify_identity(CurveSpec(5, 1, 1))
    assert rep.slice_sum_plus_one == 4 == rep.naive_count
    assert rep.identity_holds
    assert verify_identity(CurveSpec(7, 1, 0)).identity_holds


def test_identity_sweep():
    rng = random.Random(42)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for _ in range(5):
            spec = CurveSpec(p, rng.randrange(1, p) if p > 2 else 1, rng.randrange(0, p))
            rep = verify_identity(spec)
            assert rep.identity_holds
            assert sum(rep.l) == rep.naive_count - 1


def test_singularity_examples():
    assert singularity_check(CurveSpec(2, 1, 1)) is True
    assert singularity_check(CurveSpec(5, 1, 1)) is False
    assert singularity_check(CurveSpec(3, 1, 0)) is True


def test_hasse_examples():
    assert hasse_check(CurveSpec(5, 1, 1))
    assert hasse_check(CurveSpec(7, 1, 1))


def test_hasse_rejects_singular():
    with pytest.raises(SingularCurve):
        hasse_check(CurveSpec(2, 1, 1))


def test_y_negation_invariance():
    # equation depends on y only through y^2; flipping y fixes the count
    for p in (5, 7, 11):
        spec = CurveSpec(p, 2, 3)
        count_flipped = sum(
            1
            for x in range(p)
            for y in range(p)
            if (((-y) % p) ** 2 + 2 * x**3 + 3 * x) % p == 0
        )
        assert naive_count(spec) == count_flipped + 1


def test_multiplicity_counts_at_least_distinct():
    spec = CurveSpec(5, 1, 1)
    dm = slice_counts(spec)
    wm = slice_counts_with_multiplicity(spec)
    assert all(w >= d for d, w in zip(dm, wm))
    assert wm == [3, 0, 0, 0, 0]  # all three roots of x^3 + x are simple
    # a double root shows up: x^3 + x^2 ... use a=1, b=0, i=0: x^3 = 0 has
    # one distinct root of multiplicity 3
    spec2 = CurveSpec(5, 1, 0)
    assert slice_counts(spec2)[0] == 1
    assert slice_counts_with_multiplicity(spec2)[0] == 3
    # 3x^2 + 4 = 0 at x = +-1 mod 7, where -(x^3 + 4x) is 2 and 5: x = 1
    # is a double root of the slices +-3 (i^2 = 2), and 5 is not a square
    spec3 = CurveSpec(7, 1, 4)
    l, lm = slice_counts(spec3), slice_counts_with_multiplicity(spec3)
    assert [m - d for d, m in zip(l, lm)] == [0, 0, 0, 1, 1, 0, 0]
    # every x critical at p = 3, b = 0, so every root triple; at p = 2,
    # x^3 + x = x (x + 1)^2
    assert slice_counts(CurveSpec(3, 1, 0)) == [1, 1, 1]
    assert slice_counts_with_multiplicity(CurveSpec(3, 1, 0)) == [3, 3, 3]
    assert slice_counts_with_multiplicity(CurveSpec(2, 1, 1)) == [3, 0]


def test_linear_time_curve_paths_match_quadratic_oracles():
    """Every curve at every prime p < 60, p = 2 and 3 and b = 0 among them:
    the symmetric histogram, the multiplicities from the critical points
    and the singularity check from them, against oracles that test every
    x against every slice, and every y where the x-partial vanishes."""

    def check(p, a, b):
        spec = CurveSpec(p, a, b)
        l, lm = slice_counts(spec), multiplicity_oracle(p, a, b)
        assert l == slice_counts_oracle(p, a, b)
        assert slice_counts_with_multiplicity(spec) == slice_counts_with_multiplicity(spec, l) == lm
        assert singularity_check(spec) == singularity_oracle(p, a, b)

    for p in filter(is_prime, range(60)):
        for a in range(1, p):
            for b in range(p):
                check(p, a, b)
                if p <= 13:
                    assert _kernels_py.curve_affine_count(p, a, b) == brute_affine(p, a, b)
    rng = random.Random(79)
    for p in (97, 211, 1201):
        for _ in range(3):
            check(p, rng.randrange(1, p), rng.randrange(0, p))
        check(p, rng.randrange(1, p), 0)


def test_str_kernel_across_string_storage_widths():
    """The squares of p = 251 fit one byte per code point, those of p = 257
    need two: str.count runs on both storage widths."""
    rng = random.Random(83)
    for p in (251, 257):
        assert (max(y * y % p for y in range(p)) > 255) == (p == 257)
        for _ in range(3):
            a, b = rng.randrange(1, p), rng.randrange(0, p)
            assert _kernels_py.curve_affine_count(p, a, b) == brute_affine(p, a, b)


def test_verify_identity_budget():
    spec = CurveSpec(101, 1, 1)
    assert verify_identity(spec, budget=101 * 101).identity_holds
    with pytest.raises(StateBudgetExceeded):
        verify_identity(spec, budget=101 * 101 - 1)
    with pytest.raises(StateBudgetExceeded):
        naive_count(spec, budget=101 * 101 - 1)
    # past the range of chr, whatever the budget
    with pytest.raises(StateBudgetExceeded):
        verify_identity(CurveSpec(1114117, 1, 1), budget=10**20)


def test_curvespec_validation():
    with pytest.raises(NotPrime):
        CurveSpec(6, 1, 1)
    with pytest.raises(ValueError):
        CurveSpec(5, 0, 1)
    with pytest.raises(ValueError):
        CurveSpec(5, 5, 1)  # a reduces to 0


def test_critical_locus_examples(monkeypatch):
    for lane, _ in each_lane(monkeypatch):
        F2 = PrimeField(2)
        f = poly_parse("y^3+x^2+x^3", ["x", "y"], F2)
        assert critical_locus(f, 2) == [(0, 0)]
        F5 = PrimeField(5)
        assert critical_locus(poly_parse("x^2+y^2", ["x", "y"], F5), 5) == [(0, 0)]
        # 3x^2 + 1 = 0 needs x^2 = 3, a non-residue mod 5
        assert critical_locus(poly_parse("1+x^3+x", ["x"], F5), 5) == []


def test_critical_locus_matches_pointwise_oracle(monkeypatch):
    """Random f for p <= 7, then for p up to 31; one variable on both sides
    of the pure lane's first lane switch for partials of three terms; a
    constant or zero f is critical everywhere. Every lane writes each
    table."""
    for lane, _ in each_lane(monkeypatch):
        rng = random.Random(113)
        nonempty = 0
        for _ in range(60):
            p = rng.choice([2, 3, 5, 7])
            n = rng.choice([1, 2, 3])
            fp = PrimeField(p)
            # degrees up to 2p, so exponents at p and past it occur
            f = random_poly(rng, n, fp, max_deg=2 * p, max_terms=5)
            locus = critical_locus(f, p)
            assert locus == critical_locus_oracle(f, p), (lane, p)
            nonempty += bool(locus)
        assert nonempty >= 20
        rng = random.Random(131)
        proper = 0
        for _ in range(30):
            p = rng.choice([11, 13, 17, 19, 23, 29, 31])
            n = rng.choice([1, 2] if p > 13 else [1, 2, 3])
            fp = PrimeField(p)
            f = random_poly(rng, n, fp, max_deg=2 * p, max_terms=5)
            locus = critical_locus(f, p)
            assert locus == critical_locus_oracle(f, p), (lane, p)
            proper += 0 < len(locus) < p**n
        assert proper >= 15
        ((q, r),) = lane_switch_primes(3, 1, 10**7)[:1]
        for p in (q, r):
            # f' = 2x^(p+1) + 6x^2 + 6x, three terms
            f = poly_parse(f"x^{p + 2} + 2*x^3 + 3*x^2 + 7", ["x"], PrimeField(p))
            assert len(f.derivative(0).terms) == 3
            locus = critical_locus(f, p)
            assert locus == critical_locus_oracle(f, p), (lane, p)
            assert (0,) in locus
        for p, n in ((2, 3), (7, 2), (31, 2), (q, 1)):
            every = list(itertools.product(range(p), repeat=n))
            assert critical_locus(MPoly.constant(n, PrimeField(p), 3 % p), p) == every
            assert critical_locus(MPoly.zero(n, PrimeField(p)), p) == every


def test_critical_locus_needs_f_over_the_same_field():
    with pytest.raises(DomainMismatch):
        critical_locus(poly_parse("x^2+y^2", ["x", "y"], QQ), 5)
    with pytest.raises(DomainMismatch):
        critical_locus(poly_parse("x^2+y^2", ["x", "y"], PrimeField(7)), 5)


def test_critical_locus_budget():
    F5 = PrimeField(5)
    with pytest.raises(StateBudgetExceeded):
        critical_locus(poly_parse("x^2+y^2", ["x", "y"], F5), 5, budget=10)
