"""Weyl algebra A_n(k): operators in normal form, application, composition.

An operator is a finite sum of (polynomial coefficient, derivative
multi-index) terms with all coefficients on the left. Composition is done by
iterated single-step rewriting with the defining relation d_i x_i = x_i d_i + 1,
realized at operator level as  d_i ∘ (g d^beta) = (d_i g) d^beta + g d^(beta+e_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .errors import DomainMismatch
from .poly import MPoly, _parse_terms, default_var_names

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

    @classmethod
    def from_poly(cls, f: MPoly) -> "WeylOperator":
        """Multiplication-by-f operator."""
        return cls(f.nvars, f.domain, {(0,) * f.nvars: f})

    def order(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def has_zero_order_term(self) -> bool:
        return (0,) * self.nvars in self.terms

    def drop_zero_order(self) -> "WeylOperator":
        terms = {a: f for a, f in self.terms.items() if sum(a) > 0}
        return WeylOperator(self.nvars, self.domain, terms)

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
            g = f
            for i, k in enumerate(a):
                for _ in range(k):
                    g = g.derivative(i)
                if g.is_zero():
                    break
            if not g.is_zero():
                out = out + coeff * g
        return out

    def left_mul_poly(self, f: MPoly) -> "WeylOperator":
        terms = {a: f * g for a, g in self.terms.items()}
        return WeylOperator(self.nvars, self.domain, terms)

    def _d_step(self, i: int) -> "WeylOperator":
        """d_i composed with self, one rewrite step per term."""
        terms: Dict[MultiIndex, MPoly] = {}

        def acc(a, f):
            g = terms.get(a)
            terms[a] = f if g is None else g + f

        for a, g in self.terms.items():
            acc(a, g.derivative(i))
            na = list(a)
            na[i] += 1
            acc(tuple(na), g)
        return WeylOperator(self.nvars, self.domain, terms)

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """Normal form of self ∘ other."""
        self._check(other)
        out = WeylOperator.zero(self.nvars, self.domain)
        for a, f in self.terms.items():
            piece = other
            for i, k in enumerate(a):
                for _ in range(k):
                    piece = piece._d_step(i)
            out = out + piece.left_mul_poly(f)
        return out

    def to_str(self, var_names: Optional[Sequence[str]] = None) -> str:
        if not self.terms:
            return "0"
        names = list(var_names) if var_names else default_var_names(self.nvars)
        parts = []
        for a in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            f = self.terms[a]
            dfac = []
            for i, k in enumerate(a):
                if k == 1:
                    dfac.append(f"d{i+1}")
                elif k > 1:
                    dfac.append(f"d{i+1}^{k}")
            fs = f.to_str(names)
            if not dfac:
                parts.append(fs)
            elif fs == "1":
                parts.append("*".join(dfac))
            else:
                fs_wrapped = f"({fs})" if (" + " in fs or " - " in fs) else fs
                parts.append(fs_wrapped + "*" + "*".join(dfac))
        return " + ".join(parts)

    def __repr__(self):
        return f"WeylOperator({self.to_str()!r})"

    def to_json(self, var_names: Optional[Sequence[str]] = None) -> dict:
        names = list(var_names) if var_names else default_var_names(self.nvars)
        entries = []
        for a in sorted(self.terms, key=lambda a: (sum(a), a), reverse=True):
            for e, c in self.terms[a].sorted_terms():
                entries.append(
                    {"c": self.domain.to_str(c), "e": list(e), "alpha": list(a)}
                )
        return {"vars": names, "terms": entries}


def weyl_parse(text: str, var_names: Sequence[str], domain) -> WeylOperator:
    """Parse operator text: polynomial grammar plus d-tokens (d1..dn, dx, dy).

    Example: "x^2*d1^2 + d2".
    """
    nvars = len(var_names)
    result = WeylOperator.zero(nvars, domain)
    for c, e, a in _parse_terms(text, var_names, domain, d_tokens=True):
        result = result + WeylOperator(nvars, domain, {a: MPoly(nvars, domain, {e: c})})
    return result


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
