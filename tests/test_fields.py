import random
from fractions import Fraction

import pytest

from wildcycles.errors import NotPrime, ZeroInverse
from wildcycles.fields import QQ, Matrix, PrimeField, is_prime


def test_inv_identity_f7():
    f7 = PrimeField(7)
    assert f7.inv(1) == 1


def test_inv_2_mod_5():
    f5 = PrimeField(5)
    # oracle: 2*3 = 6 = 1 mod 5
    assert f5.inv(2) == 3


def test_inv_rational():
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroInverse):
        QQ.inv(Fraction(0))


def test_not_prime_rejected():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(NotPrime):
            PrimeField(bad)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)


def test_inv_property_random():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 31, 97):
        fp = PrimeField(p)
        for _ in range(50):
            a = rng.randrange(1, p)
            assert fp.mul(a, fp.inv(a)) == 1


def test_kernel_identity_empty():
    f5 = PrimeField(5)
    m = Matrix.from_rows([[1, 0], [0, 1]], f5)
    assert m.kernel_basis() == []


def test_kernel_zero_matrix_full():
    f3 = PrimeField(3)
    m = Matrix.from_rows([[0, 0], [0, 0]], f3)
    assert len(m.kernel_basis()) == 2


def test_kernel_ones_f2():
    # hand row reduction: x0 + x1 = 0 -> basis {(1, 1)}
    f2 = PrimeField(2)
    m = Matrix.from_rows([[1, 1], [1, 1]], f2)
    assert m.kernel_basis() == [[1, 1]]


def test_rank_nullity_random():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        fp = PrimeField(p)
        for _ in range(30):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            entries = [rng.randrange(p) for _ in range(rows * cols)]
            m = Matrix(rows, cols, entries, fp)
            assert m.rank() + len(m.kernel_basis()) == cols


def test_kernel_vectors_actually_in_kernel():
    rng = random.Random(13)
    fp = PrimeField(5)
    for _ in range(30):
        m = Matrix(3, 4, [rng.randrange(5) for _ in range(12)], fp)
        for v in m.kernel_basis():
            assert m.mul_vector(v) == [0, 0, 0]


def test_rational_arithmetic_exact_two_routes():
    rng = random.Random(17)
    for _ in range(100):
        a, b = rng.randrange(-20, 21), rng.randrange(1, 21)
        c, d = rng.randrange(-20, 21), rng.randrange(1, 21)
        direct = Fraction(a, b) + Fraction(c, d)
        common = Fraction(a * d + c * b, b * d)
        assert direct == common
        assert direct.denominator > 0
        from math import gcd

        assert gcd(direct.numerator, direct.denominator) == 1

