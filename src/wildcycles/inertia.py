"""Differential-inertia membership tests on finite quotient modules.

The module is F_p[x1..xn] truncated at degree m (monomials of degree >= m are
zero before and after differentiation). Two semantics are exposed for the
"only constant solutions" condition: kernel-equals-constants on the whole
module (inertia_membership) and annihilation of a designated element
(annihilation_check); they differ in general and both are reported.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DomainMismatch, IndexOutOfRange, NotCritical, ZeroOrderTerm
from .fields import Matrix, PrimeField
from .poly import Exponents, MPoly
from .weyl import WeylOperator


class QuotientModule:
    """F_p[x1..xn] / (monomials of degree >= m), with its monomial basis.

    The basis runs in grevlex order, degree by degree. Besides its exponent
    tuple, monomial x^e has the integer key sum e_i·m^i. Every e_i is below
    m, so distinct monomials have distinct keys, and as the key is linear in
    e, a term x^s∂^a sends the key of x^e to key(e) + key(s) − key(a) with
    no tuple built.
    """

    def __init__(self, p: int, m: int, nvars: int = 1):
        if m < 1:
            raise ValueError("truncation order must be >= 1")
        if nvars < 1:
            raise ValueError("a module needs at least one variable")
        self.field = PrimeField(p)
        self.p = p
        self.m = m
        self.nvars = nvars
        self.basis: List[Exponents] = []
        self._degrees: List[int] = []
        for d in range(m):
            monomials = _grevlex_degree(nvars, d)
            self.basis += monomials
            self._degrees += [d] * len(monomials)
        self._radix = [m**i for i in range(nvars)]
        # one tuple of the exponents e_i over the basis per variable
        self._exponents = list(zip(*self.basis))
        self._keys = [0] * len(self.basis)
        for column, r in zip(self._exponents, self._radix):
            self._keys = [k + x * r for k, x in zip(self._keys, column)]
        self._position = {k: i for i, k in enumerate(self._keys)}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _key(self, e: Exponents) -> int:
        return sum(map(operator.mul, e, self._radix))

    def truncate(self, f: MPoly) -> MPoly:
        if f.domain != self.field or f.nvars != self.nvars:
            raise DomainMismatch("polynomial not over this module's ring")
        terms = {e: c for e, c in f.terms.items() if sum(e) < self.m}
        return MPoly(self.nvars, self.field, terms)

    def from_vector(self, v: Sequence) -> MPoly:
        terms = {e: c for e, c in zip(self.basis, v)}
        return MPoly(self.nvars, self.field, terms)

    def operator_matrix(self, P: WeylOperator) -> Matrix:
        """Matrix of P on the monomial basis; column j is P(basis[j]).

        Built in closed form, one term c·x^s∂^a of P at a time: ∂^a(x^e) =
        falling(e, a) x^(e − a), whose residues mod p over the whole basis
        come from one table of math.perm(x, a_i) % p per variable, and x^s
        moves the key of x^(e − a) by key(s). A nonzero falling factor means
        e >= a, so the target x^(e − a + s) is a basis monomial exactly when
        its degree is below m; the basis runs by degree, so those sources
        are a prefix of it.
        """
        if P.nvars != self.nvars or P.domain != self.field:
            raise DomainMismatch("operator not over this module's ring")
        p, m, keys, position = self.p, self.m, self._keys, self._position
        cols = [{} for _ in keys]
        for a, f in P.terms.items():
            falling = [1] * len(keys)
            for column, a_i in zip(self._exponents, a):
                if a_i:
                    table = [math.perm(x, a_i) % p for x in range(m)]
                    falling = [v * table[x] % p for v, x in zip(falling, column)]
            key_a, order = self._key(a), sum(a)
            for s, c in f.terms.items():
                shift = self._key(s) - key_a
                sources = bisect.bisect_left(self._degrees, m + order - sum(s))
                for v, k, col in zip(falling[:sources], keys, cols):
                    if v:
                        t = position[k + shift]
                        x = (col.get(t, 0) + c * v) % p
                        # c·v is a unit, so only a sum can cancel, and the
                        # matrix stores no zero entries
                        if x:
                            col[t] = x
                        else:
                            del col[t]
        return Matrix(self.dimension, cols, self.field)


def _grevlex_degree(n: int, d: int) -> List[Exponents]:
    """The exponent vectors of n >= 1 variables and degree d, ascending in
    grevlex: the last exponent falls, and within it the first n − 1 ascend."""
    if n == 1:
        return [(d,)]
    return [head + (last,) for last in range(d, -1, -1) for head in _grevlex_degree(n - 1, d - last)]


def kernel_on_quotient(P: WeylOperator, M: QuotientModule) -> List[MPoly]:
    """Basis of {u in M : P(u) = 0 in M}, in reduced echelon form, from the
    kernel of P's sparse operator matrix."""
    return [M.from_vector(v) for v in M.operator_matrix(P).kernel_basis()]


@dataclass(frozen=True)
class InertiaReport:
    """Per-level kernel audit for membership of D in the inertia group."""

    operator_text: str
    level: int
    per_k: Tuple[Tuple[int, int, bool], ...]  # (k, kernel dim, kernel == constants)
    member: bool
    element_checks: Optional[Tuple[Tuple[int, str, bool], ...]] = None

    def to_json(self) -> dict:
        data = {
            "operator": self.operator_text,
            "level": self.level,
            "per_k": [
                {"k": k, "kernel_dimension": d, "kernel_equals_constants": ok}
                for k, d, ok in self.per_k
            ],
            "member": self.member,
        }
        if self.element_checks is not None:
            data["element_checks"] = [
                {"k": k, "value": val, "annihilated": z}
                for k, val, z in self.element_checks
            ]
        return data


def inertia_membership(
    D: WeylOperator,
    level: int,
    M: QuotientModule,
    element: Optional[MPoly] = None,
    dvar: int = 0,
) -> InertiaReport:
    """Strict membership: D∘∂^k has kernel exactly the constants for all k <= level.

    D must have no zero-order term (it represents a class modulo
    multiplication operators). When an element is supplied, the report also
    carries the element-annihilation values for audit; they do not affect
    membership.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, not {level}")
    if D.has_zero_order_term():
        raise ZeroOrderTerm("operator has a zero-order (multiplication) term")
    # D∘∂^k sends x^e to falling(e, k·u)·D(x^(e−k·u)), u the unit vector of
    # dvar, and distinct e give distinct e − k·u. So its matrix is D's columns
    # at S_k = {e − k·u : falling(e, k·u) ≢ 0 mod p}, scaled by units, beside
    # zero columns, and dim ker = dim M − rank of those columns. Put f = e −
    # k·u: falling(e, k·u) = (f_dvar + 1)···(f_dvar + k), so x^f is in S_k
    # exactly when k <= depth(f) = min(m − 1 − deg f, p − 1 − f_dvar mod p),
    # the most steps up that stay in M and meet no multiple of p. The sets
    # nest, S_0 ⊇ S_1 ⊇ …, so one echelon serves every level: add the
    # columns of S_level first and read the rank, then those of each S_k
    # beyond S_(k+1), down to S_0. A rank does not depend on the order its
    # columns come in. Every S_k past min(m, p) − 1 is empty: rank 0.
    _unit(M.nvars, dvar, 1)  # checks dvar
    A = M.operator_matrix(D)
    p, m = M.p, M.m
    top = min(level, m - 1, p - 1)
    new_at = [[] for _ in range(top + 1)]  # S_k \ S_(k+1), S_top at the end
    for i, (degree, x) in enumerate(zip(M._degrees, M._exponents[dvar])):
        new_at[min(m - 1 - degree, p - 1 - x % p, top)].append(i)
    echelon = Matrix(A.rows, [], M.field)
    rank = [0] * (level + 1)
    for k in reversed(range(top + 1)):
        for i in new_at[k]:
            echelon.add(A.columns[i])
        rank[k] = echelon.rank()
    # D has no zero-order term, so D∘∂^k kills 1: a one-vector kernel is
    # exactly the constants
    per_k = [(k, M.dimension - r, M.dimension - r == 1) for k, r in enumerate(rank)]
    element_checks = None
    if element is not None:
        checks = []
        for k in range(level + 1):
            value, zero = annihilation_check(D, k, element, M, dvar=dvar)
            checks.append((k, value.to_str(), zero))
        element_checks = tuple(checks)
    return InertiaReport(
        operator_text=D.to_str(),
        level=level,
        per_k=tuple(per_k),
        member=all(ok for _, _, ok in per_k),
        element_checks=element_checks,
    )


def _unit(nvars: int, i: int, k: int) -> Tuple[int, ...]:
    """The multi-index of ∂_i^k."""
    if not 0 <= i < nvars:
        raise IndexOutOfRange(f"variable index {i} for {nvars} variables")
    return tuple(k * (j == i) for j in range(nvars))


def annihilation_check(
    D: WeylOperator,
    k: int,
    u: MPoly,
    M: QuotientModule,
    dvar: int = 0,
) -> Tuple[MPoly, bool]:
    """(D∘∂^k)(u) reduced in M, and whether it vanishes.

    This is the element-wise reading of the membership condition; it matches
    hand computations on a designated element rather than the whole module.
    """
    value = M.truncate(D.apply(M.truncate(u).diff(_unit(M.nvars, dvar, k))))
    return value, value.is_zero()


def morse_check(f: MPoly) -> bool:
    """True iff f has a nondegenerate Hessian at the origin.

    Precondition: the origin is critical, i.e. f has no constant or linear
    part (NotCritical otherwise). Nondegeneracy is full rank in the
    coefficient domain, so e.g. x^2 + y^2 is degenerate mod 2.
    """
    for e in f.terms:
        if sum(e) < 2:
            raise NotCritical("f has constant or linear terms; origin not critical")
    n = f.nvars
    second = [[f.derivative(i).derivative(j).constant_term() for i in range(n)] for j in range(n)]
    hessian = [{i: h for i, h in enumerate(column) if h} for column in second]
    return Matrix(n, hessian, f.domain).rank() == n
