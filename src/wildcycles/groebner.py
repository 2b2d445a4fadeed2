"""Buchberger's algorithm, quotient dimensions, Milnor numbers, tame/wild split.

Global quotients come from reduced Groebner bases under grevlex or lex.
Local dimensions at the origin come from one standard basis under a local
degree order, built by the same pair loop. Both rest on one reduction step,
Mora's ecart-based weak normal form: plain top reduction under grevlex and
lex, where the pair loop also reduces the tail. The local dimension is the
number of standard monomials of that basis, and it is infinite exactly when
the staircase is unbounded (Mora 1982; Greuel & Pfister, A Singular
Introduction to Commutative Algebra, sections 1.6-1.7).
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


Record = Tuple[int, Exponents, object, MPoly]


def _record(g: MPoly, order: MonomialOrder) -> Record:
    """What reduction reads of g, computed once: (ecart, leading monomial,
    leading coefficient, g). The ecart deg g - deg LM(g) matters only under
    the local order; under grevlex and lex, where division terminates
    without it, it is 0."""
    le, lc = g.leading(order)
    return (g.total_degree() - sum(le) if order is _LOCAL else 0), le, lc, g


def _monic(g: MPoly, order: MonomialOrder) -> Record:
    ecart, le, lc, _ = _record(g, order)
    return ecart, le, g.domain.one, g.scale(g.domain.inv(lc))


def _reduce(f: MPoly, reducers: Sequence[Record], order: MonomialOrder) -> MPoly:
    """Mora's weak normal form of f by the reducer records.

    Returns h, zero or with a leading monomial that no reducer's divides,
    such that u*f - h lies in the ideal of the reducers for a unit u. Each
    step is h - (lc_h/lc_g)*x^q*g. The reducer of least ecart goes first,
    and the running h joins the reducers whenever that ecart exceeds its
    own; this is what makes the loop terminate under a local order (Greuel &
    Pfister, Algorithm 1.7.6). Under grevlex and lex every ecart is 0, so
    this is plain top reduction by the first divisor, with u = 1.
    """
    h = f
    while not h.is_zero():
        le, lc = h.leading(order)
        best = None
        for r in reducers:
            if _divides(r[1], le) and (best is None or r[0] < best[0]):
                best = r
                if not r[0]:
                    break
        if best is None:
            break
        ecart, ge, gc, g = best
        if ecart and ecart > (h_ecart := h.total_degree() - sum(le)):
            reducers = [*reducers, (h_ecart, le, lc, h)]
        h = h - g.mul_monomial(tuple(a - b for a, b in zip(le, ge)), h.domain.div(lc, gc))
    return h


def _remainder(f: MPoly, reducers: Sequence[Record], order: MonomialOrder) -> MPoly:
    """Remainder of the division of f by the reducer records under a global
    order: each leading term that no reducer divides moves to the remainder,
    and the rest is reduced again."""
    out = {}
    h = _reduce(f, reducers, order)
    while not h.is_zero():
        le, lc = h.leading(order)
        out[le] = lc
        h = _reduce(MPoly(h.nvars, h.domain, {e: c for e, c in h.terms.items() if e != le}), reducers, order)
    return MPoly(f.nvars, f.domain, out)


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
    if any(g.nvars != f.nvars or g.domain != f.domain for g in gens):
        raise DomainMismatch("divisor over wrong ring")
    return _remainder(f, [_record(g, order) for g in gens], order)


def _close_under_s_pairs(
    gens: Sequence[MPoly],
    order: MonomialOrder,
    reduce: Callable[[MPoly, Sequence[Record], MonomialOrder], MPoly],
) -> List[Record]:
    """Records of monic generators whose S-polynomials all reduce to zero by
    `reduce`.

    Pairs are processed by minimal lcm total degree, ties broken by the lex
    order on pair indices. A pair with coprime leading monomials is skipped
    when one of the two has ecart 0 (first Buchberger criterion); the ecart
    condition keeps the criterion valid under the local order and always
    holds under grevlex and lex.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if any(g.nvars != gens[0].nvars or g.domain != gens[0].domain for g in gens):
        raise DomainMismatch("generators over different rings")
    G = [_monic(g, order) for g in gens]
    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}

    def pair_key(p):
        i, j = p
        return (sum(_lcm(G[i][1], G[j][1])), p)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        (f_ecart, fe, one, f), (g_ecart, ge, _, g) = G[i], G[j]
        lcm = _lcm(fe, ge)
        if lcm == tuple(a + b for a, b in zip(fe, ge)) and not (f_ecart and g_ecart):
            continue
        # the S-polynomial of two monic generators
        qf, qg = (tuple(a - b for a, b in zip(lcm, e)) for e in (fe, ge))
        r = reduce(f.mul_monomial(qf, one) - g.mul_monomial(qg, one), G, order)
        if not r.is_zero():
            G.append(_monic(r, order))
            k = len(G) - 1
            pairs.update((i2, k) for i2 in range(k))
    return G


def buchberger(gens: Sequence[MPoly], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis, normal selection strategy."""
    records = sorted(_close_under_s_pairs(gens, order, _remainder), key=lambda r: order.key(r[1]))
    # a minimal basis: a divisor of a leading monomial sorts before it
    minimal = []
    for r in records:
        if not any(_divides(m[1], r[1]) for m in minimal):
            minimal.append(r)
    # reducing the monic generators of a minimal basis by each other keeps
    # every leading term, so one pass gives the unique reduced basis
    gs = [r[3] for r in minimal]
    G = [normal_form(g, gs[:i] + gs[i + 1 :], order) for i, g in enumerate(gs)]
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
    G = [r[3] for r in _close_under_s_pairs(gens, _LOCAL, _reduce)]
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

    p: int
    char_p_dimension: Dimension
    char_0_dimension: Dimension
    tame: Dimension
    wild: Dimension
    anomaly: Optional[str] = None

    def to_json(self) -> dict:
        return {
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
        p=p,
        char_p_dimension=dim_p,
        char_0_dimension=dim_0,
        tame=tame,
        wild=wild,
        anomaly=anomaly,
    )
