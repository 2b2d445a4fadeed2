"""Buchberger's algorithm, quotient dimensions, Milnor numbers, tame/wild split.

Global quotients come from reduced Groebner bases under grevlex or lex.
Local dimensions at the origin come from one standard basis under a local
degree order, built by the same pair loop with Mora's ecart-based weak normal
form in place of full reduction. The local dimension is the number of
standard monomials of that basis, and it is infinite exactly when the
staircase is unbounded (Mora 1982; Greuel & Pfister, A Singular Introduction
to Commutative Algebra, sections 1.6-1.7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import DomainMismatch
from .fields import QQ
from .poly import GREVLEX, Exponents, MonomialOrder, MPoly, reduce_mod_p

INFINITE = float("inf")
Dimension = Union[int, float]


def dimension_json(d: Dimension):
    """A dimension as JSON: an int, or "infinite"."""
    return "infinite" if d == INFINITE else int(d)


@dataclass(frozen=True)
class GroebnerBasis:
    """Monic generators with their order. `buchberger` returns the reduced
    basis, sorted by leading monomial ascending."""

    generators: Tuple[MPoly, ...]
    order: MonomialOrder
    nvars: int
    domain: object

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


class _LocalDegreeOrder(MonomialOrder):
    """Lower total degree is larger, ties as in grevlex, so every monomial is
    below 1. Private: division does not terminate under it, so only Mora's
    weak normal form is used with it."""

    def __init__(self):
        self.kind = "local"

    def key(self, e: Exponents):
        return (-sum(e), tuple(-v for v in reversed(e)))


_LOCAL = _LocalDegreeOrder()


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _monic(f: MPoly, order: MonomialOrder) -> MPoly:
    _, c = f.leading(order)
    return f.scale(f.domain.inv(c))


def _ecart(f: MPoly, order: MonomialOrder) -> int:
    return f.total_degree() - sum(f.leading(order)[0])


def normal_form(f: MPoly, G, order: Optional[MonomialOrder] = None) -> MPoly:
    """Remainder of multivariate division of f by the generators of G.

    Deterministic: generators tried in stored order, leading term of the
    running polynomial cancelled first. Zero iff f lies in the ideal when G
    is a Groebner basis.
    """
    if isinstance(G, GroebnerBasis):
        gens = G.generators
        order = order or G.order
    else:
        gens = tuple(g for g in G if not g.is_zero())
        order = order or GREVLEX
    if f.is_zero() or not gens:
        return f
    dom = f.domain
    for g in gens:
        if g.nvars != f.nvars or g.domain != dom:
            raise DomainMismatch("divisor over wrong ring")
    leads = [g.leading(order) for g in gens]
    remainder = MPoly.zero(f.nvars, dom)
    work = f
    while not work.is_zero():
        le, lc = work.leading(order)
        reduced = False
        for g, (ge, gc) in zip(gens, leads):
            if _divides(ge, le):
                q = tuple(a - b for a, b in zip(le, ge))
                factor = dom.div(lc, gc)
                work = work - g.mul_monomial(q, factor)
                reduced = True
                break
        if not reduced:
            remainder = remainder + MPoly(f.nvars, dom, {le: lc})
            work = work - MPoly(f.nvars, dom, {le: lc})
    return remainder


def _mora_normal_form(f: MPoly, G: Sequence[MPoly], order: MonomialOrder) -> MPoly:
    """Mora's weak normal form of f by G under a local degree order.

    Returns h, zero or with a leading monomial that no leading monomial of G
    divides, such that u*f - h lies in the ideal of G for a unit u of the
    local ring. The reducer of least ecart goes first, and the running h
    joins the reducers whenever that ecart exceeds its own; this is what
    makes the loop terminate (Greuel & Pfister, Algorithm 1.7.6).
    """
    reducers = [(_ecart(g, order), g.leading(order)[0], g) for g in G]
    h = f
    while not h.is_zero():
        le = h.leading(order)[0]
        candidates = [r for r in reducers if _divides(r[1], le)]
        if not candidates:
            break
        ecart, _, g = min(candidates, key=lambda r: r[0])
        h_ecart = _ecart(h, order)
        if ecart > h_ecart:
            reducers.append((h_ecart, le, h))
        h = _s_poly(h, g, order)
    return h


def _s_poly(f: MPoly, g: MPoly, order: MonomialOrder) -> MPoly:
    fe, fc = f.leading(order)
    ge, gc = g.leading(order)
    lcm = _lcm(fe, ge)
    dom = f.domain
    mf = f.mul_monomial(tuple(a - b for a, b in zip(lcm, fe)), dom.inv(fc))
    mg = g.mul_monomial(tuple(a - b for a, b in zip(lcm, ge)), dom.inv(gc))
    return mf - mg


def _close_under_s_pairs(
    gens: Sequence[MPoly],
    order: MonomialOrder,
    reduce: Callable[[MPoly, Sequence[MPoly], MonomialOrder], MPoly],
) -> List[MPoly]:
    """Monic generators whose S-polynomials all reduce to zero by `reduce`.

    Pairs are processed by minimal lcm total degree, ties broken by the lex
    order on pair indices. A pair with coprime leading monomials is skipped
    when one of the two has ecart 0 (first Buchberger criterion); the ecart
    condition keeps the criterion valid under local orders and always holds
    under grevlex.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if any(g.nvars != gens[0].nvars or g.domain != gens[0].domain for g in gens):
        raise DomainMismatch("generators over different rings")
    G = [_monic(g, order) for g in gens]
    leads = [g.leading(order)[0] for g in G]
    zero_ecart = [_ecart(g, order) == 0 for g in G]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def pair_key(p):
        i, j = p
        return (sum(_lcm(leads[i], leads[j])), p)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        fe, ge = leads[i], leads[j]
        coprime = _lcm(fe, ge) == tuple(a + b for a, b in zip(fe, ge))
        if coprime and (zero_ecart[i] or zero_ecart[j]):
            continue
        r = reduce(_s_poly(G[i], G[j], order), G, order)
        if not r.is_zero():
            r = _monic(r, order)
            G.append(r)
            leads.append(r.leading(order)[0])
            zero_ecart.append(_ecart(r, order) == 0)
            k = len(G) - 1
            pairs.update((i2, k) for i2 in range(k))
    return G


def buchberger(gens: Sequence[MPoly], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis, normal selection strategy."""
    G = _close_under_s_pairs(gens, order, normal_form)
    G.sort(key=lambda g: order.key(g.leading(order)[0]))
    # a minimal basis: a divisor of a leading monomial sorts before it
    minimal = []
    for g in G:
        if not any(_divides(h.leading(order)[0], g.leading(order)[0]) for h in minimal):
            minimal.append(g)
    # reducing the monic generators of a minimal basis by each other keeps
    # every leading term, so one pass gives the unique reduced basis
    G = [normal_form(g, minimal[:i] + minimal[i + 1 :], order) for i, g in enumerate(minimal)]
    return GroebnerBasis(tuple(G), order, G[0].nvars, G[0].domain)


def standard_monomials(G: GroebnerBasis) -> Optional[List[Exponents]]:
    """Monomials divisible by no leading term, or None if infinitely many.

    Finite iff the staircase is bounded in every variable, i.e. some leading
    term is a pure power of each variable. A leading monomial 1 (a unit
    generator) leaves none.
    """
    leads = [g.leading(G.order)[0] for g in G.generators]
    n = G.nvars
    bounds = []
    for i in range(n):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(n) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    out = []
    for e in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(le, e) for le in leads):
            out.append(e)
    out.sort(key=GREVLEX.key)
    return out


def quotient_dimension(G: GroebnerBasis) -> Dimension:
    """Vector-space dimension of the quotient ring, or INFINITE."""
    sm = standard_monomials(G)
    return INFINITE if sm is None else len(sm)


def local_dimension(gens: Sequence[MPoly]) -> Dimension:
    """Dimension of the quotient of the local ring at the origin, or INFINITE.

    Counts the standard monomials of one standard basis under the local
    degree order; the count is exact, with no truncation bound.
    """
    G = _close_under_s_pairs(gens, _LOCAL, _mora_normal_form)
    return quotient_dimension(GroebnerBasis(tuple(G), _LOCAL, G[0].nvars, G[0].domain))


def jacobian_ideal(f: MPoly) -> List[MPoly]:
    return [f.derivative(i) for i in range(f.nvars)]


def milnor_number(f: MPoly) -> Dimension:
    """Local dimension of the Jacobian ideal quotient; INFINITE if the
    singularity is not isolated."""
    gens = [g for g in jacobian_ideal(f) if not g.is_zero()]
    return local_dimension(gens) if gens else INFINITE


@dataclass(frozen=True)
class MilnorReport:
    """Tame/wild vanishing-cycle split of an integer polynomial at a prime."""

    f_text: str
    p: int
    char_p_dimension: Dimension
    char_0_dimension: Dimension
    tame: Dimension
    wild: Dimension
    anomaly: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "f": self.f_text,
            "p": self.p,
            "char_p_dimension": dimension_json(self.char_p_dimension),
            "char_0_dimension": dimension_json(self.char_0_dimension),
            "tame": dimension_json(self.tame),
            "wild": dimension_json(self.wild),
            "anomaly": self.anomaly,
        }


def tame_wild_split(f: MPoly, p: int) -> MilnorReport:
    """Split the char-p Milnor dimension into tame (char-0) and wild parts.

    f must have integer coefficients so it can be read both mod p and over
    the rationals. wild = char_p - char_0; char_p < char_0 or an infinite
    char-p dimension is flagged as an anomaly instead of raising.
    """
    if f.domain != QQ:
        raise DomainMismatch("tame/wild split needs an integer polynomial over QQ")
    dim_p = milnor_number(reduce_mod_p(f, p))
    dim_0 = milnor_number(f)
    anomaly = None
    if dim_p == INFINITE:
        tame, wild = dim_0, INFINITE
        anomaly = "char-p dimension infinite (derivatives degenerate mod p)"
    elif dim_0 == INFINITE:
        tame, wild = INFINITE, INFINITE
        anomaly = "char-0 dimension infinite"
    else:
        tame = dim_0
        wild = dim_p - dim_0
        if wild < 0:
            anomaly = "char-p dimension smaller than char-0 dimension"
    return MilnorReport(
        f_text=f.to_str(),
        p=p,
        char_p_dimension=dim_p,
        char_0_dimension=dim_0,
        tame=tame,
        wild=wild,
        anomaly=anomaly,
    )
