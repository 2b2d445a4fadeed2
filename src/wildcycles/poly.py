"""Sparse multivariate polynomials with exact coefficients.

Terms map exponent tuples to nonzero coefficients. Canonical text and JSON
forms list terms in grevlex-descending order so serialized output is
deterministic.
"""

from __future__ import annotations

import bisect
import math
import re
import sys
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DEFAULT_STATE_BUDGET, DomainMismatch, IndexOutOfRange, ParseError, StateBudgetExceeded, UnknownVariable
from .fields import PrimeField

Exponents = Tuple[int, ...]


class MonomialOrder:
    """Total multiplicative order on exponent vectors: 'grevlex' or 'lex'."""

    def __init__(self, kind: str = "grevlex"):
        if kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown monomial order {kind!r}")
        self.kind = kind

    def key(self, e: Exponents):
        """Sort key: larger key = larger monomial."""
        if self.kind == "lex":
            return e
        return (sum(e), tuple(-v for v in reversed(e)))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.kind == self.kind

    def __repr__(self):
        return self.kind


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def grevlex_walk(bounds: Sequence[int], limit: int) -> List[Exponents]:
    """The exponent vectors e with e_i < bounds[i] and degree below limit
    >= 1, ascending in grevlex, with no sort. Grevlex runs by degree, then
    by the last exponent falling, then by the others ascending in grevlex,
    so the vectors of k + 1 variables with degree d and last exponent l are
    those of k variables with degree d − l, l appended: one run of the walk
    over k variables, which lists each degree in one run."""
    vectors = [(d,) for d in range(min(bounds[0], limit))] if bounds else [()]
    for b in bounds[1:]:
        degrees = list(map(sum, vectors))
        top = degrees[-1] if degrees else -1
        runs = [bisect.bisect_left(degrees, d) for d in range(top + 2)]
        vectors = [
            h + (l,)
            for d in range(min(top + b, limit))
            for l in range(min(d, b - 1), max(d - top, 0) - 1, -1)
            for h in vectors[runs[d - l] : runs[d - l + 1]]
        ]
    return vectors


class MPoly:
    """Immutable sparse polynomial over a fixed domain."""

    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars: int, domain, terms: Dict[Exponents, object]):
        self.nvars = nvars
        self.domain = domain
        clean = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise ValueError("exponent vector length mismatch")
            if c != domain.zero:
                clean[tuple(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, domain) -> "MPoly":
        return cls(nvars, domain, {})

    @classmethod
    def constant(cls, nvars: int, domain, c) -> "MPoly":
        return cls(nvars, domain, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int, domain) -> "MPoly":
        return cls.constant(nvars, domain, domain.one)

    @classmethod
    def variable(cls, nvars: int, domain, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, domain, {tuple(e): domain.one})

    @classmethod
    def monomial(cls, nvars: int, domain, e: Exponents, c=None) -> "MPoly":
        return cls(nvars, domain, {tuple(e): domain.one if c is None else c})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.domain.zero)

    def total_degree(self) -> int:
        """Degree of the zero polynomial reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check(self, other: "MPoly"):
        if self.nvars != other.nvars or self.domain != other.domain:
            raise DomainMismatch("operands over different rings")

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        dom = self.domain
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = dom.add(terms.get(e, dom.zero), c)
            if s == dom.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return MPoly(self.nvars, dom, terms)

    def __neg__(self) -> "MPoly":
        dom = self.domain
        return MPoly(self.nvars, dom, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        dom = self.domain
        terms: Dict[Exponents, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = dom.add(terms.get(e, dom.zero), dom.mul(c1, c2))
                if s == dom.zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return MPoly(self.nvars, dom, terms)

    def scale(self, c) -> "MPoly":
        dom = self.domain
        if c == dom.zero:
            return MPoly.zero(self.nvars, dom)
        return MPoly(self.nvars, dom, {e: dom.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MPoly.one(self.nvars, self.domain)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and other.nvars == self.nvars
            and other.domain == self.domain
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.domain, frozenset(self.terms.items())))

    # -- calculus and evaluation ----------------------------------------

    def diff(self, a: Exponents) -> "MPoly":
        """d^a f: each term c*x^e goes to c*falling(e, a)*x^(e - a). Distinct
        exponents e keep distinct e - a, so no two terms meet."""
        dom = self.domain
        terms = {}
        for e, c in self.terms.items():
            ff = falling(e, a)
            if ff:
                terms[tuple(k - t for k, t in zip(e, a))] = dom.mul(c, dom.from_int(ff))
        return MPoly(self.nvars, dom, terms)

    def derivative(self, i: int) -> "MPoly":
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable index {i} for {self.nvars} variables")
        return self.diff(tuple(int(j == i) for j in range(self.nvars)))

    def eval(self, point: Sequence):
        if len(point) != self.nvars:
            raise DomainMismatch("point length mismatch")
        dom = self.domain
        acc = dom.zero
        modp = dom.char if isinstance(dom, PrimeField) else None
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = dom.mul(v, pow(x, k, modp) if modp else x**k)
            acc = dom.add(acc, v)
        return acc

    # -- canonical forms -------------------------------------------------

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> List[Tuple[Exponents, object]]:
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading(self, order: MonomialOrder = GREVLEX) -> Tuple[Exponents, object]:
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def to_str(self, var_names: Optional[Sequence[str]] = None) -> str:
        names = list(var_names) if var_names else default_var_names(self.nvars)
        return terms_text(self.domain, [(c, power_factors(names, e)) for e, c in self.sorted_terms()])

    def __repr__(self):
        return f"MPoly({self.to_str()!r} over {self.domain!r})"

    def to_json(self, var_names: Optional[Sequence[str]] = None) -> dict:
        names = list(var_names) if var_names else default_var_names(self.nvars)
        return {
            "vars": names,
            "terms": [
                {"c": self.domain.to_str(c), "e": list(e)}
                for e, c in self.sorted_terms()
            ],
        }


def falling(e: Exponents, a: Exponents) -> int:
    """prod_i e_i!/(e_i - a_i)!, so that d^a x^e = falling(e, a) x^(e - a);
    0 unless a <= e."""
    return math.prod(map(math.perm, e, a))


def power_factors(names: Sequence[str], e: Exponents) -> List[str]:
    """The factors name^k of a monomial, with ^1 left out and k = 0 dropped."""
    return [name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k]


def terms_text(domain, terms: Sequence[Tuple[object, List[str]]]) -> str:
    """Text in the term grammar for (coefficient, factors) pairs, in order:
    a coefficient 1 is left out, and a negative term joins with ' - '."""
    parts = []
    for c, factors in terms:
        cs = domain.to_str(c)
        if not factors:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(factors))
        elif cs == "-1" and domain.char == 0:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(cs + "*" + "*".join(factors))
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


def default_var_names(nvars: int) -> List[str]:
    if nvars == 1:
        return ["x"]
    if nvars == 2:
        return ["x", "y"]
    if nvars == 3:
        return ["x", "y", "z"]
    return [f"x{i+1}" for i in range(nvars)]


# -- parsing ------------------------------------------------------------
#
# One grammar for polynomials, Weyl operators and module specs:
#
# text   := ('+'|'-')? term (('+'|'-') term)*
# term   := coeff ('*' factor)* | factor ('*' factor)*
# factor := name ('^' nat)?
# coeff  := nat ('/' nat)?
#
# A name is a variable or, in operator text, a derivative token: d1..dn, or
# 'd' before a variable name (dx, dy, dz). Factors of different variables
# commute; a variable after its own derivative in one term is a ParseError,
# since d*x is the operator x*d + 1.

_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|(\S))")
_NAT, _NAME = 1, 2


def _parse_terms(
    text: str, var_names: Sequence[str], domain, d_tokens: bool
) -> List[Tuple[object, Exponents, Exponents]]:
    """The terms of text as (coefficient, exponents, derivative multi-index).

    d-tokens are names only when d_tokens is set; then they win over a
    variable of the same spelling, and d1..dn over d<name>. Raises
    ParseError with the offending position, UnknownVariable for any other
    name.
    """
    nvars = len(var_names)
    slots = {n: (0, i) for i, n in enumerate(var_names)}
    if d_tokens:
        slots.update({f"d{n}": (1, i) for i, n in enumerate(var_names)})
        slots.update({f"d{i+1}": (1, i) for i in range(nvars)})
    # (position, kind, text); kind is the regex group: _NAT, _NAME or a symbol
    toks = [(m.start(m.lastindex), m.lastindex, m.group(m.lastindex)) for m in _TOKEN.finditer(text)]
    toks.append((len(text), 0, ""))
    at = 0

    def take(kind: int, what: str) -> Tuple[int, str]:
        nonlocal at
        pos, k, s = toks[at]
        if k != kind:
            raise ParseError(f"expected {what}", pos)
        at += 1
        return pos, s

    def skip(symbol: str) -> bool:
        nonlocal at
        if toks[at][2] == symbol:
            at += 1
            return True
        return False

    def factor(vectors, what: str):
        pos, name = take(_NAME, what)
        if name not in slots:
            raise UnknownVariable(f"unknown variable {name!r}", pos)
        which, i = slots[name]
        if not which and vectors[1][i]:
            raise ParseError(f"variable {name!r} after its own derivative", pos)
        vectors[which][i] += int(take(_NAT, "a natural-number exponent")[1]) if skip("^") else 1

    def coefficient():
        num = domain.from_int(int(take(_NAT, "a coefficient")[1]))
        if not skip("/"):
            return num
        pos, den = take(_NAT, "a natural-number denominator")
        den = domain.from_int(int(den))
        if den == domain.zero:
            raise ParseError(f"denominator is zero in {domain!r}", pos)
        return domain.div(num, den)

    def term(sign):
        vectors = ([0] * nvars, [0] * nvars)
        if toks[at][1] == _NAT:
            coeff = domain.mul(sign, coefficient())
        else:
            coeff = sign
            factor(vectors, "a coefficient or a variable")
        while skip("*"):
            factor(vectors, "a variable")
        return coeff, tuple(vectors[0]), tuple(vectors[1])

    signs = {"+": domain.one, "-": domain.neg(domain.one)}
    sign = signs["+"]
    if toks[0][2] in signs:
        sign = signs[toks[0][2]]
        at = 1
    terms = []
    while True:
        terms.append(term(sign))
        pos, kind, s = toks[at]
        if not kind:
            return terms
        if s not in signs:
            raise ParseError(f"unexpected {s!r}", pos)
        sign = signs[s]
        at += 1


def infer_var_names(polys: Sequence[str], operators: Sequence[str] = ()) -> List[str]:
    """The variable names that polynomial and operator texts use, sorted,
    or ["x"] when they use none.

    In operator text d<digits> is a derivative by index and names nothing,
    and d<name> is the derivative in <name>. A name v beside a name dv is a
    ValueError: operator text could not tell the two apart. So is a name
    d<digits> in polynomial text beside operator text, which reads it as a
    derivative.
    """
    names = set()
    for text, d_tokens in [(t, False) for t in polys] + [(t, True) for t in operators]:
        for _, name, _ in _TOKEN.findall(text):
            if not name:
                continue
            if name[0] == "d" and name[1:].isdecimal():
                if d_tokens:
                    continue
                if operators:
                    raise ValueError(f"variable {name!r} reads as a derivative beside operator text")
            elif d_tokens and name[0] == "d" and name[1:] and not name[1].isdecimal():
                name = name[1:]
            names.add(name)
    for v in sorted(names):
        if "d" + v in names:
            raise ValueError(f"variable {v!r} clashes with the derivative token {'d' + v!r}")
    return sorted(names) or ["x"]


def poly_parse(text: str, var_names: Sequence[str], domain) -> MPoly:
    """Parse the text grammar into a canonical MPoly.

    Raises ParseError with the offending position, UnknownVariable for
    names outside var_names.
    """
    terms: Dict[Exponents, object] = {}
    for c, e, _ in _parse_terms(text, var_names, domain, d_tokens=False):
        terms[e] = domain.add(terms.get(e, domain.zero), c)
    return MPoly(len(var_names), domain, terms)


def grid_points(indices: Sequence[int], p: int, n: int) -> List[Exponents]:
    """The points of F_p^n at the state indices idx = sum_i x_i p^i, the
    inverse of the numbering that the tables of grid_table list by: one
    list per coordinate, zipped into tuples."""
    if not n:
        return [()] * len(indices)
    return list(zip(*[[k // q % p for k in indices] for q in [p**i for i in range(n)]]))


def grid_table(kernels, fs: Sequence[MPoly], p: int, n: int, budget: int = DEFAULT_STATE_BUDGET) -> array:
    """The table that kernels.grid_image writes for the components fs, each
    over F_p in n variables: at every state index sum_i x_i p^i, the index
    sum_k (f_k(x) mod p) p^k, in an array('I') of p^n 32-bit words.

    The kernels take the terms reduced: each exponent e >= 1 becomes
    (e - 1) mod (p - 1) + 1, which has the same powers on F_p (w^p = w),
    and the coefficients of terms that meet are added mod p, those that
    cancel dropped. Before anything is allocated, p^n states past the
    budget, image indices p^len(fs) past 2^32, or a table past sys.maxsize
    bytes, the most an array holds, are refused with StateBudgetExceeded,
    and a component not over F_p in n variables with DomainMismatch.
    """
    if p**n > budget:
        raise StateBudgetExceeded(f"{p}^{n} = {p**n} states exceed budget {budget}")
    fp = PrimeField(p)
    if any(f.nvars != n or f.domain != fp for f in fs):
        raise DomainMismatch(f"a component is not over F_{p} in {n} variables")
    if p ** len(fs) > 1 << 32:
        raise StateBudgetExceeded(f"image indices below {p}^{len(fs)} do not fit 32 bits")
    out = array("I", [0])
    if out.itemsize * p**n > sys.maxsize:
        raise StateBudgetExceeded(f"{p}^{n} states of {out.itemsize} bytes exceed {sys.maxsize} bytes, the largest array")
    out *= p**n
    terms = []
    for f in fs:
        reduced: Dict[Exponents, int] = {}
        for e, c in f.terms.items():
            e = tuple([(k - 1) % (p - 1) + 1 if k else 0 for k in e])
            reduced[e] = (reduced.get(e, 0) + c) % p
        terms.append({e: c for e, c in reduced.items() if c})
    kernels.grid_image(terms, p, n, out)
    return out


def reduce_mod_p(f: MPoly, p: int) -> MPoly:
    """Reduce a rational polynomial with integer coefficients into F_p."""
    fp = PrimeField(p)
    terms = {}
    for e, c in f.terms.items():
        if getattr(c, "denominator", 1) != 1:
            raise DomainMismatch("coefficient is not an integer")
        terms[e] = fp.from_int(int(c))
    return MPoly(f.nvars, fp, terms)
