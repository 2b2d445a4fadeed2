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

from .errors import DomainMismatch, NotCritical, ZeroOrderTerm
from .fields import Matrix, PrimeField
from .poly import GREVLEX, Exponents, MPoly
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

    def to_vector(self, f: MPoly) -> list:
        f = self.truncate(f)
        v = [self.field.zero] * self.dimension
        for e, c in f.terms.items():
            v[self.index[e]] = c
        return v

    def from_vector(self, v: Sequence) -> MPoly:
        terms = {e: c for e, c in zip(self.basis, v)}
        return MPoly(self.nvars, self.field, terms)

    def operator_matrix(self, P: WeylOperator) -> Matrix:
        """Matrix of P on the monomial basis; column j is P(basis[j])."""
        if P.nvars != self.nvars or P.domain != self.field:
            raise DomainMismatch("operator not over this module's ring")
        cols = []
        for e in self.basis:
            image = P.apply(MPoly.monomial(self.nvars, self.field, e))
            cols.append(self.to_vector(image))
        n = self.dimension
        entries = [cols[j][i] for i in range(n) for j in range(n)]
        return Matrix(n, n, entries, self.field)


def kernel_on_quotient(P: WeylOperator, M: QuotientModule) -> List[MPoly]:
    """Basis of {u in M : P(u) = 0 in M}, via the dense kernel solver."""
    return [M.from_vector(v) for v in M.operator_matrix(P).kernel_basis()]


def _kernel_is_constants(kernel: List[MPoly], M: QuotientModule) -> bool:
    if len(kernel) != 1:
        return False
    return kernel[0] == MPoly.one(M.nvars, M.field)


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
    per_k = []
    member = True
    for k in range(level + 1):
        Dk = D.compose(WeylOperator.partial(M.nvars, M.field, dvar, k))
        kernel = kernel_on_quotient(Dk, M)
        ok = _kernel_is_constants(kernel, M)
        per_k.append((k, len(kernel), ok))
        if not ok:
            member = False
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
        member=member,
        element_checks=element_checks,
    )


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
    Dk = D.compose(WeylOperator.partial(M.nvars, M.field, dvar, k))
    value = M.truncate(Dk.apply(M.truncate(u)))
    return value, value.is_zero()


def morse_check(f: MPoly) -> bool:
    """True iff f has a nondegenerate Hessian at the origin.

    Precondition: the origin is critical, i.e. f has no constant or linear
    part (NotCritical otherwise). Nondegeneracy is determinant != 0 in the
    coefficient domain, so e.g. x^2 + y^2 is degenerate mod 2.
    """
    for e in f.terms:
        if sum(e) < 2:
            raise NotCritical("f has constant or linear terms; origin not critical")
    n = f.nvars
    entries = []
    for i in range(n):
        for j in range(n):
            entries.append(f.derivative(i).derivative(j).constant_term())
    return Matrix(n, n, entries, f.domain).determinant() != f.domain.zero
