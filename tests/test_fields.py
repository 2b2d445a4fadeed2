import random
from fractions import Fraction

import pytest

from wildcycles.errors import NotPrime, ZeroInverse
from helpers import DenseMatrix
from wildcycles.fields import QQ, Matrix, PrimeField, is_prime, sqrt_mod


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


# Carmichael numbers, then the least strong pseudoprimes to the bases
# 2, 3, 5, 7 and to the primes up to 23
COMPOSITES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185, 3215031751, 3825123056546413051]


def test_is_prime_decides_every_n_below_its_bound():
    """Miller-Rabin to the prime bases up to 41 is exact below its proven
    bound: against sympy where it is installed, on composites that fool
    weaker tests, on large primes at once, and refused past the bound."""
    for n in COMPOSITES:
        assert not is_prime(n), n
    for p in (1669, 10**14 + 31, 99999999999999999989, (1 << 61) - 1):
        assert is_prime(p), p
    assert not is_prime(41 * 43) and not is_prime(3317044064679887385961979)
    with pytest.raises(NotPrime, match="past 3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    sympy = pytest.importorskip("sympy")
    for n in range(-5, 10**5):
        assert is_prime(n) == sympy.isprime(n), n
    for n in COMPOSITES + [10**14 + k for k in range(-100, 100)]:
        assert is_prime(n) == sympy.isprime(n), n


def test_sqrt_mod_matches_brute_force():
    """Every t, negative and past p among them, at every prime p < 200:
    the lesser root where t is a square, None where it is not."""
    for p in filter(is_prime, range(200)):
        roots = {}
        for y in range(p):
            roots.setdefault(y * y % p, y)
        for t in range(-p, 2 * p):
            assert sqrt_mod(t, p) == roots.get(t % p), (t, p)


def test_sqrt_mod_at_long_two_power_chains():
    """p - 1 = 2^9 * 15 at 7681 and 2^16 at 65537, where Tonelli-Shanks
    takes its longest loops; the squares of seeded y, and non-squares."""
    rng = random.Random(22)
    for p in (7681, 65537):
        for _ in range(200):
            y = rng.randrange(p)
            assert sqrt_mod(y * y, p) == min(y, p - y)
            t = rng.randrange(1, p)
            r = sqrt_mod(t, p)
            if pow(t, (p - 1) // 2, p) == 1:
                assert r * r % p == t and r <= p - r
            else:
                assert r is None
        # -1 is a square for p = 1 mod 4; the least non-squares are 13 and 3
        assert sqrt_mod(-1, p) is not None and sqrt_mod(13 if p == 7681 else 3, p) is None


def test_inv_property_random():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 31, 97):
        fp = PrimeField(p)
        for _ in range(50):
            a = rng.randrange(1, p)
            assert fp.mul(a, fp.inv(a)) == 1


def test_kernel_identity_empty():
    f5 = PrimeField(5)
    m = Matrix(2, [{0: 1}, {1: 1}], f5)
    assert m.kernel_basis() == []


def test_kernel_zero_matrix_full():
    f3 = PrimeField(3)
    m = Matrix(2, [{}, {}], f3)
    assert len(m.kernel_basis()) == 2


def test_kernel_ones_f2():
    # hand row reduction: x0 + x1 = 0 -> basis {(1, 1)}
    f2 = PrimeField(2)
    m = Matrix(2, [{0: 1, 1: 1}, {0: 1, 1: 1}], f2)
    assert m.kernel_basis() == [[1, 1]]


def test_rank_nullity_random():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        fp = PrimeField(p)
        for _ in range(30):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            dense = DenseMatrix(rows, cols, [rng.randrange(p) for _ in range(rows * cols)], fp)
            assert dense.rank() + len(dense.sparse().kernel_basis()) == cols


def test_kernel_vectors_actually_in_kernel():
    rng = random.Random(13)
    fp = PrimeField(5)
    for _ in range(30):
        dense = DenseMatrix(3, 4, [rng.randrange(5) for _ in range(12)], fp)
        for v in dense.sparse().kernel_basis():
            assert dense.mul_vector(v) == [0, 0, 0]


def random_dense(rng, domain, rows, cols):
    """A seeded matrix with about half its entries zero, some columns zero
    and some columns repeats or multiples of earlier ones."""
    if isinstance(domain, PrimeField):
        entry = lambda: rng.randrange(domain.p) if rng.randrange(2) else 0
    else:
        entry = lambda: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) if rng.randrange(2) else Fraction(0)
    columns = []
    for _ in range(cols):
        kind = rng.randrange(6)
        if kind == 0:
            columns.append([domain.zero] * rows)
        elif kind == 1 and columns:
            c = domain.from_int(rng.randrange(1, 4))
            columns.append([domain.mul(c, v) for v in rng.choice(columns)])
        else:
            columns.append([entry() for _ in range(rows)])
    return DenseMatrix(rows, cols, [columns[j][i] for i in range(rows) for j in range(cols)], domain)


def test_kernel_basis_matches_dense_oracle():
    rng = random.Random(29)
    shapes = [(1, n) for n in range(1, 7)] + [(n, 1) for n in range(1, 7)]
    for domain in (PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7), PrimeField(13), QQ):
        cases = shapes + [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(60)]
        for rows, cols in cases:
            dense = random_dense(rng, domain, rows, cols)
            assert dense.sparse().kernel_basis() == dense.kernel_basis(), (domain, dense.entries)


def rank_cases(rng, domain):
    """Random sparse matrices with zero and repeated columns, plus empty
    ones: no rows, no columns, or neither."""
    yield from (random_dense(rng, domain, rows, cols) for rows, cols in ((0, 0), (0, 3), (3, 0)))
    for _ in range(80):
        dense = random_dense(rng, domain, rng.randrange(1, 9), rng.randrange(1, 9))
        columns = [dense.entries[j :: dense.cols] for j in range(dense.cols)]
        columns += [rng.choice(columns) for _ in range(rng.randrange(3))]
        rng.shuffle(columns)
        rows, cols = dense.rows, len(columns)
        yield DenseMatrix(rows, cols, [columns[j][i] for i in range(rows) for j in range(cols)], domain)


def test_rank_matches_dense_oracle_and_kernel():
    rng = random.Random(31)
    for domain in (PrimeField(2), PrimeField(3), PrimeField(7), QQ):
        for dense in rank_cases(rng, domain):
            sparse = dense.sparse()
            assert sparse.rank() == dense.rank(), (domain, dense.rows, dense.entries)
            assert sparse.rank() + len(sparse.kernel_basis()) == dense.cols, (domain, dense.rows, dense.entries)


def test_add_returns_whether_the_dense_rank_grows():
    # columns fed one at a time, to an empty matrix and to one built with
    # its first columns and ranked once, so add also picks up the echelon
    # of columns it did not reduce itself
    rng = random.Random(37)
    for domain in (PrimeField(2), PrimeField(3), PrimeField(7), QQ):
        for dense in rank_cases(rng, domain):
            columns = dense.sparse().columns
            rows = [dense.row(i) for i in range(dense.rows)]
            ranks = [DenseMatrix.from_rows([row[:j] for row in rows], domain).rank() for j in range(dense.cols + 1)]
            head = rng.randrange(dense.cols + 1)
            incremental = Matrix(dense.rows, columns[:head], domain)
            if head and rng.randrange(2):
                assert incremental.rank() == ranks[head]
            grew = [incremental.add(column) for column in columns[head:]]
            assert grew == [b > a for a, b in zip(ranks[head:], ranks[head + 1 :])], (domain, dense.rows, dense.entries)
            assert incremental.columns == columns
            assert incremental.rank() == ranks[-1] == dense.rank()


def test_add_returns_a_relation_when_the_rank_stays():
    # column j carries {j: 1}: a dependent column comes back as a relation r
    # on the columns up to j with r[j] = 1 and sum of r[i]·columns[i] zero,
    # an independent one as True; without a combination add gives a bool
    rng = random.Random(41)
    for domain in (PrimeField(2), PrimeField(7), QQ):
        for dense in rank_cases(rng, domain):
            columns = dense.sparse().columns
            carried, plain = Matrix(dense.rows, [], domain), Matrix(dense.rows, [], domain)
            for j, column in enumerate(columns):
                relation, grew = carried.add(column, {j: domain.one}), plain.add(column)
                assert grew is True or grew is False
                assert (relation is True) == grew, (domain, dense.rows, dense.entries)
                if grew:
                    continue
                assert relation[j] == domain.one and max(relation) == j
                for row in range(dense.rows):
                    total = domain.zero
                    for i, c in relation.items():
                        total = domain.add(total, domain.mul(c, columns[i].get(row, domain.zero)))
                    assert total == domain.zero, (domain, dense.rows, dense.entries, j)


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



def test_matrix_leaves_the_callers_columns_unchanged():
    # pivots keep the caller's dicts uncopied; every reduction works on a
    # copy, so add, rank and kernel_basis change no column they are given
    rng = random.Random(33)
    for trial in range(40):
        dom = PrimeField((2, 3, 7)[trial % 3])
        rows, n = rng.randrange(1, 6), rng.randrange(1, 9)
        columns = [{r: rng.randrange(1, dom.p) for r in rng.sample(range(rows), rng.randrange(rows + 1))} for _ in range(n)]
        columns += [dict(c) for c in rng.sample(columns, min(2, n))]  # dependent ones
        before = [sorted(c.items()) for c in columns]
        rank = Matrix(rows, [dict(c) for c in columns], dom).rank()
        M = Matrix(rows, [], dom)
        for c in columns:
            M.add(c)
        assert M.rank() == rank
        Matrix(rows, columns, dom).rank()
        Matrix(rows, columns, dom).kernel_basis()
        assert [sorted(c.items()) for c in columns] == before, (dom, columns)
