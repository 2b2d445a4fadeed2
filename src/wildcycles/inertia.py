"""Differential-inertia membership tests on finite quotient modules.

The module is F_p[x1..xn] truncated at degree m (monomials of degree >= m are
zero before and after differentiation). Two semantics are exposed for the
"only constant solutions" condition: kernel-equals-constants on the whole
module (inertia_membership) and annihilation of a designated element
(annihilation_check); they differ in general and both are reported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DomainMismatch, IndexOutOfRange, NotCritical, ZeroOrderTerm
from .fields import Matrix, PrimeField
from .poly import GREVLEX, Exponents, MPoly, falling
from .weyl import WeylOperator


class QuotientModule:
    """F_p[x1..xn] / (monomials of degree >= m), with its monomial basis."""

    def __init__(self, p: int, m: int, nvars: int = 1):
        if m < 1:
            raise ValueError("truncation order must be >= 1")
        self.field = PrimeField(p)
        self.p = p
        self.m = m
        self.nvars = nvars
        self.basis: List[Exponents] = sorted(
            (
                e
                for e in itertools.product(range(m), repeat=nvars)
                if sum(e) < m
            ),
            key=GREVLEX.key,
        )
        self.index = {e: i for i, e in enumerate(self.basis)}

    @property
    def dimension(self) -> int:
        return len(self.basis)

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

        Built in closed form: for each term f*d^alpha of P and basis monomial
        x^e, d^alpha(x^e) = falling(e, alpha) x^(e - alpha), and each term
        c*x^s of f sends that to x^(e - alpha + s); targets of degree >= m
        vanish in the module.
        """
        if P.nvars != self.nvars or P.domain != self.field:
            raise DomainMismatch("operator not over this module's ring")
        p, m, index = self.p, self.m, self.index
        terms = [(a, sum(a), [(s, sum(s), c) for s, c in f.terms.items()]) for a, f in P.terms.items()]
        cols = []
        for e in self.basis:
            col = {}
            degree = sum(e)
            for a, order, shifts in terms:
                ff = falling(e, a) % p
                if not ff:
                    continue
                base = [k - t for k, t in zip(e, a)]
                for s, s_degree, c in shifts:
                    if degree - order + s_degree < m:
                        j = index[tuple(b + u for b, u in zip(base, s))]
                        col[j] = (col.get(j, 0) + c * ff) % p
            # sums can cancel mod p; the matrix stores no zero entries
            cols.append({j: v for j, v in col.items() if v})
        return Matrix(self.dimension, cols, self.field)


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
    # zero columns, and dim ker = dim M − rank of those columns. As
    # falling(e, (k+1)·u) = falling(e, k·u)·(e − k·u)_dvar and p is prime,
    # S_(k+1) is S_k stepped down by u where the dvar exponent is a unit.
    u = _unit(M.nvars, dvar, 1)
    basis, p = M.basis, M.p
    A = M.operator_matrix(D)
    down = [M.index.get(tuple(a - b for a, b in zip(e, u))) for e in basis]
    S = range(M.dimension)
    per_k = []
    for k in range(level + 1):
        if k:
            S = [down[i] for i in S if basis[i][dvar] % p]
        dim = M.dimension - Matrix(A.rows, [A.columns[i] for i in S], M.field).rank()
        # D has no zero-order term, so D∘∂^k kills 1: a one-vector kernel
        # is exactly the constants
        per_k.append((k, dim, dim == 1))
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
