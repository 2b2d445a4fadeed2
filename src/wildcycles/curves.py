"""Slice counting and exact verification of |E(Z/pZ)| = sum(l_i) + 1.

Curves follow the sign convention y^2 + a*x^3 + b*x = 0 verbatim. The slice
sum and the naive point count are computed by disjoint code paths so the
identity doubles as a bug detector: the pure kernels take the slice counts in
O(p) from one histogram of a*x^3 + b*x, while the naive count visits all p^2
pairs (x, y) on either lane. Multiplicities come in O(p) from a table of
square roots and Hasse derivatives. The summation range i = 0..p-1 coincides
with i = 1..p modulo p and is recorded in the report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .backend import kernels
from .errors import NotPrime, SingularCurve, StateBudgetExceeded
from .fields import is_prime
from .poly import MPoly


@dataclass(frozen=True)
class CurveSpec:
    p: int
    a: int
    b: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"{self.p} is not prime")
        object.__setattr__(self, "a", self.a % self.p)
        object.__setattr__(self, "b", self.b % self.p)
        if self.a == 0:
            raise ValueError("leading coefficient a must be nonzero")


def naive_count(c: CurveSpec) -> int:
    """Exhaustive affine count plus the point at infinity."""
    return kernels.curve_affine_count(c.p, c.a, c.b) + 1


def slice_counts(c: CurveSpec) -> List[int]:
    """Distinct-root count of a*x^3 + b*x + i^2 per slice y = i."""
    return list(kernels.curve_slice_counts(c.p, c.a, c.b))


def slice_counts_with_multiplicity(c: CurveSpec) -> List[int]:
    """Root count weighted by multiplicity, for comparison with the
    distinct-root counts the identity uses.

    x is a root of slice i iff i^2 = -(a*x^3 + b*x), so a table of square
    roots sends each x to at most two slices. Its multiplicity there is the
    order of the first nonzero Hasse derivative 3*a*x^2 + b, 3*a*x, a, which
    does not depend on i and is valid in every characteristic."""
    p, a, b = c.p, c.a, c.b
    roots: List[List[int]] = [[] for _ in range(p)]
    for i in range(p):
        roots[i * i % p].append(i)
    out = [0] * p
    for x in range(p):
        if (3 * a * x * x + b) % p:
            mult = 1
        elif 3 * a * x % p:
            mult = 2
        else:
            mult = 3
        for i in roots[-(a * x * x * x + b * x) % p]:
            out[i] += mult
    return out


def singularity_check(c: CurveSpec) -> bool:
    """True iff some affine point lies on the curve with both partials zero."""
    return bool(kernels.curve_is_singular(c.p, c.a, c.b))


def hasse_check(c: CurveSpec) -> bool:
    """Integer-safe Hasse bound |N - (p+1)| <= 2*floor(sqrt(p)) + 1.

    Sanity bound only; raises SingularCurve when the curve is singular."""
    if singularity_check(c):
        raise SingularCurve(f"curve p={c.p} a={c.a} b={c.b} is singular")
    n = naive_count(c)
    return abs(n - (c.p + 1)) <= 2 * math.isqrt(c.p) + 1


@dataclass(frozen=True)
class SliceCountReport:
    p: int
    a: int
    b: int
    l: Tuple[int, ...]
    slice_sum_plus_one: int
    naive_count: int
    identity_holds: bool
    singular: bool
    hasse_ok: Optional[bool]
    l_with_multiplicity: Tuple[int, ...]
    index_range: str = "i = 0..p-1 (same residues as the written 1..p)"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a": self.a,
            "b": self.b,
            "l": list(self.l),
            "slice_sum_plus_one": self.slice_sum_plus_one,
            "naive_count": self.naive_count,
            "identity_holds": self.identity_holds,
            "singular": self.singular,
            "hasse_ok": self.hasse_ok,
            "l_with_multiplicity": list(self.l_with_multiplicity),
            "index_range": self.index_range,
        }


def verify_identity(c: CurveSpec) -> SliceCountReport:
    """Both sides of the identity by independent enumerations."""
    l = slice_counts(c)
    lhs = sum(l) + 1
    rhs = naive_count(c)
    singular = singularity_check(c)
    hasse_ok = None
    if not singular:
        hasse_ok = abs(rhs - (c.p + 1)) <= 2 * math.isqrt(c.p) + 1
    return SliceCountReport(
        p=c.p,
        a=c.a,
        b=c.b,
        l=tuple(l),
        slice_sum_plus_one=lhs,
        naive_count=rhs,
        identity_holds=lhs == rhs,
        singular=singular,
        hasse_ok=hasse_ok,
        l_with_multiplicity=tuple(slice_counts_with_multiplicity(c)),
    )


def critical_locus(f: MPoly, p: int, budget: int = 10**7) -> List[Tuple[int, ...]]:
    """All points of F_p^n where every partial derivative of f vanishes."""
    n = f.nvars
    if p**n > budget:
        raise StateBudgetExceeded(f"{p}^{n} exceeds budget {budget}")
    partials = [f.derivative(i) for i in range(n)]
    out = []
    for point in itertools.product(range(p), repeat=n):
        if all(g.eval(point) == 0 for g in partials):
            out.append(point)
    return out
