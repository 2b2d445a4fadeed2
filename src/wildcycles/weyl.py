"""Weyl algebra A_n(k): operators in normal form, application, composition.

An operator is a finite sum of (polynomial coefficient, derivative
multi-index) terms with all coefficients on the left. Both application and
composition rest on the one closed form d^a x^e = falling(e, a) x^(e - a)
of MPoly.diff; composition moves each d^a past a coefficient by the Leibniz
rule, which holds in every characteristic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .errors import DomainMismatch
from .poly import MPoly, _parse_terms, default_var_names, power_factors, terms_text

MultiIndex = Tuple[int, ...]


class WeylOperator:
    """Normal-form differential operator: at most one term per multi-index."""

    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars: int, domain, terms: Dict[MultiIndex, MPoly]):
        self.nvars = nvars
        self.domain = domain
        clean = {}
        for a, f in terms.items():
            if len(a) != nvars:
                raise ValueError("multi-index length mismatch")
            if f.nvars != nvars or f.domain != domain:
                raise DomainMismatch("coefficient over wrong ring")
            if not f.is_zero():
                clean[tuple(a)] = f
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int, domain) -> "WeylOperator":
        return cls(nvars, domain, {})

    @classmethod
    def identity(cls, nvars: int, domain) -> "WeylOperator":
        return cls(nvars, domain, {(0,) * nvars: MPoly.one(nvars, domain)})

    @classmethod
    def partial(cls, nvars: int, domain, i: int, power: int = 1) -> "WeylOperator":
        a = [0] * nvars
        a[i] = power
        return cls(nvars, domain, {tuple(a): MPoly.one(nvars, domain)})

    def order(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def has_zero_order_term(self) -> bool:
        return (0,) * self.nvars in self.terms

    def _check(self, other):
        if self.nvars != other.nvars or self.domain != other.domain:
            raise DomainMismatch("operators over different rings")

    def __add__(self, other: "WeylOperator") -> "WeylOperator":
        self._check(other)
        terms = dict(self.terms)
        for a, f in other.terms.items():
            g = terms.get(a)
            terms[a] = f if g is None else g + f
        return WeylOperator(self.nvars, self.domain, terms)

    def __eq__(self, other):
        return (
            isinstance(other, WeylOperator)
            and other.nvars == self.nvars
            and other.domain == self.domain
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.domain, frozenset(self.terms.items())))

    def apply(self, f: MPoly) -> MPoly:
        """Sum of f_alpha * d^alpha(f)."""
        if f.nvars != self.nvars or f.domain != self.domain:
            raise DomainMismatch("operand over wrong ring")
        out = MPoly.zero(self.nvars, self.domain)
        for a, coeff in self.terms.items():
            out = out + coeff * f.diff(a)
        return out

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """Normal form of self ∘ other by the Leibniz rule
        (f d^a)(g d^b) = sum_{beta <= a} C(a, beta) f d^beta(g) d^(a - beta + b)."""
        self._check(other)
        dom = self.domain
        terms: Dict[MultiIndex, MPoly] = {}
        for a, f in self.terms.items():
            for beta in itertools.product(*(range(t + 1) for t in a)):
                binom = dom.from_int(math.prod(map(math.comb, a, beta)))
                if binom == dom.zero:
                    continue
                for b, g in other.terms.items():
                    piece = f * g.diff(beta).scale(binom)
                    target = tuple(t - u + v for t, u, v in zip(a, beta, b))
                    terms[target] = piece + terms[target] if target in terms else piece
        return WeylOperator(self.nvars, dom, terms)

    def _sorted_terms(self):
        """(alpha, exponents, coefficient) in alpha-major order: alphas by
        descending (order, alpha), each coefficient in grevlex-descending order."""
        for a in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            for e, c in self.terms[a].sorted_terms():
                yield a, e, c

    def to_str(self, var_names: Optional[Sequence[str]] = None) -> str:
        """One term c*x^e*d^alpha per coefficient monomial, in the grammar
        weyl_parse reads."""
        names = list(var_names) if var_names else default_var_names(self.nvars)
        dnames = [f"d{i+1}" for i in range(self.nvars)]
        return terms_text(
            self.domain,
            [(c, power_factors(names, e) + power_factors(dnames, a)) for a, e, c in self._sorted_terms()],
        )

    def __repr__(self):
        return f"WeylOperator({self.to_str()!r})"

    def to_json(self, var_names: Optional[Sequence[str]] = None) -> dict:
        names = list(var_names) if var_names else default_var_names(self.nvars)
        entries = [
            {"c": self.domain.to_str(c), "e": list(e), "alpha": list(a)}
            for a, e, c in self._sorted_terms()
        ]
        return {"vars": names, "terms": entries}


def weyl_parse(text: str, var_names: Sequence[str], domain) -> WeylOperator:
    """Parse operator text: polynomial grammar plus d-tokens (d1..dn, dx, dy).

    Example: "x^2*d1^2 + d2".
    """
    nvars = len(var_names)
    terms: Dict[MultiIndex, Dict[Tuple[int, ...], object]] = {}
    for c, e, a in _parse_terms(text, var_names, domain, d_tokens=True):
        coeffs = terms.setdefault(a, {})
        coeffs[e] = domain.add(coeffs.get(e, domain.zero), c)
    return WeylOperator(nvars, domain, {a: MPoly(nvars, domain, t) for a, t in terms.items()})


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a D-stability test on an ideal.

    witness is (generator index, variable index, nonzero residue polynomial)
    and is present exactly when stable is False.
    """

    stable: bool
    witness: Optional[Tuple[int, int, MPoly]] = None


def is_d_stable(gens: Sequence[MPoly]) -> StabilityReport:
    """True iff every partial derivative of every generator stays in the ideal.

    A proper D-stable ideal of k[x1..xn] certifies the polynomial ring is not
    a simple D-module; over the rationals no such monomial ideal exists, over
    F_p the ideal (x^p) is the standard witness.
    """
    from .groebner import buchberger, normal_form

    if not gens:
        raise ValueError("need at least one generator")
    nvars = gens[0].nvars
    basis = buchberger(gens)
    for gi, g in enumerate(gens):
        for i in range(nvars):
            dg = g.derivative(i)
            if dg.is_zero():
                continue
            residue = normal_form(dg, basis)
            if not residue.is_zero():
                return StabilityReport(stable=False, witness=(gi, i, residue))
    return StabilityReport(stable=True)
