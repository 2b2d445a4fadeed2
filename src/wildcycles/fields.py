"""Exact coefficient domains (prime fields and rationals) and one sparse echelon.

Prime-field elements are plain ints reduced into [0, p); rational elements are
``fractions.Fraction`` (already exact and reduced with positive denominator).
A domain object carries the arithmetic so polynomials and matrices stay
domain-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import NotPrime, ZeroInverse


# The primes up to 41 as Miller-Rabin bases decide every n below the bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_BASES_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, decided: trial division by the primes up to 41,
    which alone settles every n < 41^2, then the strong probable-prime test
    to each of them as a base. Raises NotPrime for n past the bound where
    those bases are proven to decide."""
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return n > 1
    if n >= _BASES_BOUND:
        raise NotPrime(f"{n} is past {_BASES_BOUND}, the bound of the deterministic primality test")
    e = ((n - 1) & (1 - n)).bit_length() - 1
    q = (n - 1) >> e
    for a in _BASES:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(t: int, p: int) -> Optional[int]:
    """The lesser square root of t mod the prime p, or None when t is not a
    square mod p.

    Euler's criterion decides t^((p-1)/2) = 1; then Tonelli and Shanks
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.5.1):
    with p - 1 = 2^e q, q odd, and z = n^q for the least non-residue n,
    x = t^((q+1)/2) is a root up to the error b = t^q, whose order 2^m in
    the 2-Sylow subgroup drops each step while x is corrected by a power
    of z."""
    t %= p
    if t < 2 or p == 2:
        return t
    if pow(t, (p - 1) >> 1, p) != 1:
        return None
    e = ((p - 1) & (1 - p)).bit_length() - 1
    q = (p - 1) >> e
    n = 2
    while pow(n, (p - 1) >> 1, p) == 1:
        n += 1
    y, r = pow(n, q, p), e
    x = pow(t, (q - 1) >> 1, p)
    b = t * x * x % p
    x = t * x % p
    while b != 1:
        m, b2 = 1, b * b % p
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % p
        z = pow(y, 1 << (r - m - 1), p)
        y, r = z * z % p, m
        x, b = x * z % p, b * y % p
    return min(x, p - x)


class PrimeField:
    """F_p with residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroInverse("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a) -> str:
        return str(a % self.p)


class RationalField:
    """Exact arbitrary-precision rationals (characteristic 0)."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroInverse("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroInverse("division by 0")
        return Fraction(a) / b

    def to_str(self, a) -> str:
        return str(a)


QQ = RationalField()


class Matrix:
    """Sparse column matrix over one coefficient domain: column j is a dict
    row -> nonzero entry."""

    def __init__(self, rows: int, columns: Sequence[dict], domain):
        self.rows = rows
        self.columns = list(columns)
        self.domain = domain
        # the echelon of columns[:_eliminated], row -> (column, combination)
        self._pivots = {}
        self._eliminated = 0

    def add(self, column: dict, combination: Optional[dict] = None) -> bool | dict:
        """Append column and reduce it against the pivots of the columns
        before it, carrying the combination alongside unless it is None:
        True when the rank grows; else the combination, now a relation
        among the columns, or False when none was carried. Carry one only
        if every column before it carried one."""
        if self._eliminated < len(self.columns):
            self.rank()
        self.columns.append(column)
        self._eliminated += 1
        return self._reduce(column, combination)

    def rank(self) -> int:
        """Rank: the number of columns that keep a pivot. The echelon is
        kept, so a later add or rank reduces only the columns appended
        since."""
        for column in self.columns[self._eliminated :]:
            self._reduce(column, None)
        self._eliminated = len(self.columns)
        return len(self._pivots)

    def kernel_basis(self) -> List[list]:
        """Basis of the right null space, deterministic: the relations that
        a fresh Matrix's add returns, column j carrying {j: 1}. A relation
        has a 1 in its own column and 0 in every other dependent column, as
        the pivots belong to independent columns, so the vectors, dependent
        columns ascending, are the reduced echelon kernel basis."""
        dom = self.domain
        echelon = Matrix(self.rows, [], dom)
        basis = []
        for j, column in enumerate(self.columns):
            relation = echelon.add(column, {j: dom.one})
            if relation is not True:
                basis.append([relation.get(i, dom.zero) for i in range(len(self.columns))])
        return basis

    def _reduce(self, column: dict, combination: Optional[dict]) -> bool | dict:
        """One step of the left-to-right elimination, as add returns it:
        reduce a copy of column against the pivots (unscaled: the pivot
        entry is whatever the reduction left at its row), and the
        combination in place alongside. Each step cancels the largest row
        with one division; a column left nonzero becomes the pivot there."""
        dom, pivots = self.domain, self._pivots
        column = dict(column)
        while column:
            r = max(column)
            pivot = pivots.get(r)
            if pivot is None:
                pivots[r] = (column, combination)
                return True
            c = dom.div(column[r], pivot[0][r])
            _subtract(column, 0, pivot[0], dom.char, c)
            if combination is not None:
                _subtract(combination, 0, pivot[1], dom.char, c)
        return False if combination is None else combination


def _subtract(h: dict, q: int, g: dict, p: int, c=None) -> None:
    """h -= c * x^q * g in place, c = 1 if None, mod p unless p is 0,
    dropping the terms that cancel: on polynomials keyed by packed
    monomials, where adding q multiplies by x^q, and with q = 0 on any
    sparse vector keyed by int, as the columns of a Matrix."""
    for m, v in g.items():
        m += q
        x = h.get(m, 0) - (v if c is None else c * v)
        if p:
            x %= p
        if x:
            h[m] = x
        else:
            del h[m]
