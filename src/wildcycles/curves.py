"""Slice counting and exact verification of |E(Z/pZ)| = sum(l_i) + 1.

Curves follow the sign convention y^2 + a*x^3 + b*x = 0 verbatim. The slice
sum and the naive point count are computed by disjoint code paths so the
identity doubles as a bug detector: the slice counts come in O(p) from one
histogram of the odd polynomial a*x^3 + b*x over half of F_p, while the
naive count visits all p^2 pairs (x, y): on the pure lane inside str.count,
over a string of the p squares, on the compiled lane by comparisons over an
array of them. Multiple roots lie only over the critical
points 3*a*x^2 + b = 0, in closed form for p > 3 by a modular square root:
the singularity check looks at those points alone, and the multiplicities
are the distinct counts plus a correction on the at most four slices over
them. The summation range i = 0..p-1 coincides with i = 1..p modulo p and
is recorded in the report. The naive count refuses a curve whose p^2 pairs exceed the
state budget, or whose p is past the code points a str can hold (the bound
of both lanes), with StateBudgetExceeded.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import List, Optional, Sequence, Tuple

from ._kernels_py import curve_critical_points
from .backend import kernels
from .errors import DEFAULT_STATE_BUDGET, NotPrime, SingularCurve, StateBudgetExceeded
from .fields import is_prime, sqrt_mod
from .poly import MPoly, grid_points, grid_table


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


def check_enumeration_budget(p: int, budget: int) -> None:
    """Raise StateBudgetExceeded unless the p^2 pairs of F_p^2 fit the budget
    and, whatever the budget, p is at most sys.maxunicode: the pure kernel
    holds residues mod p as code points, and the compiled kernels refuse
    past the same bound."""
    if p > sys.maxunicode:
        raise StateBudgetExceeded(f"p = {p} exceeds {sys.maxunicode}, the largest p the exhaustive count handles")
    if p * p > budget:
        raise StateBudgetExceeded(f"{p}^2 = {p * p} exceeds budget {budget}")


def naive_count(c: CurveSpec, budget: int = DEFAULT_STATE_BUDGET) -> int:
    """Exhaustive affine count plus the point at infinity, refused by
    check_enumeration_budget before any pair is visited."""
    check_enumeration_budget(c.p, budget)
    return kernels.curve_affine_count(c.p, c.a, c.b) + 1


def slice_counts(c: CurveSpec) -> List[int]:
    """Distinct-root count of a*x^3 + b*x + i^2 per slice y = i. The
    kernels of both lanes refuse p past sys.maxunicode with ValueError."""
    return list(kernels.curve_slice_counts(c.p, c.a, c.b))


def slice_counts_with_multiplicity(c: CurveSpec, l: Optional[Sequence[int]] = None) -> List[int]:
    """Root count weighted by multiplicity, for comparison with the
    distinct-root counts l of slice_counts (computed unless given).

    A root x of slice i, i^2 = -(a*x^3 + b*x), has multiplicity above 1
    only where x is critical, 3*a*x^2 + b = 0. There it is 2 where
    3*a*x != 0 and 3 where 3*a*x = 0: the order of the first nonzero
    Hasse derivative 3*a*x^2 + b, 3*a*x, a, valid in every characteristic.
    So each critical x adds its multiplicity - 1 to l on the slices
    +-sqrt(-(a*x^3 + b*x)), which sqrt_mod finds."""
    p, a, b = c.p, c.a, c.b
    out = slice_counts(c) if l is None else list(l)
    for x in curve_critical_points(p, a, b):
        r = sqrt_mod(-(a * x * x + b) * x, p)
        if r is not None:
            extra = 1 if 3 * a * x % p else 2
            for i in {r, -r % p}:
                out[i] += extra
    return out


def singularity_check(c: CurveSpec) -> bool:
    """True iff some affine point lies on the curve with both partials zero."""
    return bool(kernels.curve_is_singular(c.p, c.a, c.b))


def hasse_check(c: CurveSpec) -> bool:
    """Integer-safe Hasse bound |N - (p+1)| <= 2*floor(sqrt(p)) + 1.

    Sanity bound only; raises SingularCurve when the curve is singular, and
    StateBudgetExceeded where naive_count refuses at its default budget."""
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


def verify_identity(c: CurveSpec, budget: int = DEFAULT_STATE_BUDGET) -> SliceCountReport:
    """Both sides of the identity by independent enumerations, refused with
    StateBudgetExceeded when the p^2 pairs exceed the budget."""
    rhs = naive_count(c, budget)
    l = slice_counts(c)
    lhs = sum(l) + 1
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
        l_with_multiplicity=tuple(slice_counts_with_multiplicity(c, l)),
    )


def critical_locus(f: MPoly, p: int, budget: int = DEFAULT_STATE_BUDGET) -> List[Tuple[int, ...]]:
    """All points of F_p^n where every partial derivative of f vanishes, in
    lexicographic order (f over F_p): the states that the lane's grid_image
    of the partials sends to index 0. poly.grid_table refuses p^n states
    past the budget, and partials not over F_p."""
    n = f.nvars
    image = grid_table(kernels, [f.derivative(i) for i in range(n)], p, n, budget)
    return sorted(grid_points(list(compress(range(p**n), map(not_, image))), p, n))
