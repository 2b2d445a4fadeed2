"""Exact coefficient domains (prime fields and rationals) and dense linear algebra.

Prime-field elements are plain ints reduced into [0, p); rational elements are
``fractions.Fraction`` (already exact and reduced with positive denominator).
A domain object carries the arithmetic so polynomials and matrices stay
domain-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .errors import DomainMismatch, NotPrime, ZeroInverse


def is_prime(n: int) -> bool:
    """Deterministic trial division; moduli here are desk-scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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

    def sub(self, a, b):
        return (a - b) % self.p

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

    def parse(self, text: str):
        """Coefficient literal: integer or integer/integer."""
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def to_str(self, a) -> str:
        return str(a % self.p)

    def elements(self):
        return range(self.p)


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

    def sub(self, a, b):
        return a - b

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

    def parse(self, text: str) -> Fraction:
        return Fraction(text)

    def to_str(self, a) -> str:
        return str(a)


QQ = RationalField()


class Matrix:
    """Dense row-major matrix over a single coefficient domain."""

    def __init__(self, rows: int, cols: int, entries: Sequence, domain):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)
        self.domain = domain

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], domain) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nr, nc, flat, domain)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i) -> list:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        dom = self.domain
        rows = [self.row(i) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, len(rows)):
                if rows[i][c] != dom.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = dom.inv(rows[r][c])
            rows[r] = [dom.mul(inv, v) for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != dom.zero:
                    factor = rows[i][c]
                    rows[i] = [
                        dom.sub(v, dom.mul(factor, w))
                        for v, w in zip(rows[i], rows[r])
                    ]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[list]:
        """Basis of the right null space, deterministic.

        One vector per free column, free columns ascending; each vector has a
        1 in its free column, so stacked vectors are in reduced echelon form.
        """
        dom = self.domain
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [dom.zero] * self.cols
            v[fc] = dom.one
            for r, pc in enumerate(pivots):
                v[pc] = dom.neg(rows[r][fc])
            basis.append(v)
        return basis

    def mul_vector(self, v: Sequence) -> list:
        dom = self.domain
        if len(v) != self.cols:
            raise DomainMismatch("vector length mismatch")
        out = []
        for i in range(self.rows):
            acc = dom.zero
            row = self.row(i)
            for a, b in zip(row, v):
                acc = dom.add(acc, dom.mul(a, b))
            out.append(acc)
        return out

    def determinant(self):
        """Fraction-free for QQ is unnecessary at desk scale; plain Gauss."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        dom = self.domain
        rows = [self.row(i) for i in range(self.rows)]
        det = dom.one
        for c in range(self.cols):
            pivot_row = None
            for i in range(c, self.rows):
                if rows[i][c] != dom.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                return dom.zero
            if pivot_row != c:
                rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
                det = dom.neg(det)
            det = dom.mul(det, rows[c][c])
            inv = dom.inv(rows[c][c])
            for i in range(c + 1, self.rows):
                if rows[i][c] != dom.zero:
                    factor = dom.mul(rows[i][c], inv)
                    rows[i] = [
                        dom.sub(v, dom.mul(factor, w))
                        for v, w in zip(rows[i], rows[c])
                    ]
        return det
