"""Buchberger's algorithm, quotient dimensions, Milnor numbers, tame/wild split.

Global quotients come from reduced Groebner bases under grevlex or lex.
Local dimensions at the origin come from one standard basis under a local
degree order, built by the same pair loop. Both rest on one reduction loop
(`_Layout.reduce`) and one step (`_Layout.cancel`), which also makes each
S-polynomial. The loop takes the reducer of least ecart: under the local
order it is Mora's weak normal form, and under grevlex and lex, where every
ecart is 0, it is Buchberger's division by the first reducer that divides,
the tail included. The local dimension is the number of standard monomials
of that basis, and it is infinite exactly when the staircase is unbounded
(Mora 1982; Greuel & Pfister, A Singular Introduction to Commutative
Algebra, sections 1.6-1.7). The staircase is a few exponent vectors, the
leading monomials as tuples: `_staircase` finds its box and corners, and
dimensions are counted from the corners, slab by slab in the last
variable, never by walking the box.

The engine runs on packed monomials, one int each, and on polynomials as
dicts {packed monomial: coefficient}; `_Layout` holds that arithmetic
only. `buchberger`, `normal_form` and the local dimensions pack their
input on entry, and `buchberger` and `normal_form` unpack what they
return. `milnor_number` packs f alone and takes its partial derivatives
on the packed terms. The global dimensions read the leading monomials of
the basis they are given, with no packing.

Over QQ every coefficient inside the engine is an int: a polynomial is
packed times the least common denominator of its coefficients, a reducer
is primitive, and a step h <- a*h - b*x^q*g cancels a term with integer
cofactors and divides out the content (pseudo-reduction; Geddes, Czapor &
Labahn, Algorithms for Computer Algebra, 1992). The integer scale of a step
is a unit of the local ring too, so Mora's weak normal form stays valid.
Coefficients become Fractions again only on unpacking: `buchberger` makes
each generator monic, and `normal_form` divides by the scale its remainder
carries. Over F_p reducers are monic.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from .errors import DEFAULT_STATE_BUDGET, DomainMismatch, StateBudgetExceeded
from .fields import QQ, _subtract
from .poly import GREVLEX, Exponents, MonomialOrder, MPoly, grevlex_walk, reduce_mod_p

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


# (ecart, leading monomial, polynomial, its largest monomial), all monomials
# packed; the polynomial is monic over F_p, and over QQ a primitive integer
# polynomial with a positive leading coefficient
Record = Tuple[int, int, dict, int]


class _Overflow(Exception):
    """A product's total degree does not fit the field width."""


def _field_bits(degree: int) -> int:
    """Exponent bits per field for inputs of total degree at most `degree`,
    with room for products of four times that degree."""
    return max(degree, 1).bit_length() + 2


class _Layout:
    """Packed monomials of one ring under one order (Bachmann & Schoenemann,
    ISSAC '98; Monagan & Pearce, CASC 2007).

    A monomial is one int: n fields of `bits` exponent bits, each under a
    guard bit, and above them the total degree in a field of the same width.
    Variable 0 has the top exponent field under lex and the bottom one
    otherwise. Every stored monomial has degree below 2^bits, so no guard
    bit is set and multiplying is adding; a product whose degree would set
    the degree field's guard bit raises _Overflow instead.

    Each order's key is an int that adds under multiplication, up to a
    constant. The local order's is the monomial itself, and the leading
    term of h is min(h): lower degree is larger, ties as in grevlex. Under
    grevlex and lex the leading term has the largest key: grevlex's is the
    degree above the complemented exponent fields, lex's the exponent
    fields, variable 0 first.
    """

    def __init__(self, nvars: int, bits: int, kind: str, domain):
        width = bits + 1
        ones = sum(1 << (width * k) for k in range(nvars))
        self.nvars, self.bits, self.domain, self.p = nvars, bits, domain, domain.char
        self.shifts = [width * (nvars - 1 - i if kind == "lex" else i) for i in range(nvars)]
        self.top = width * nvars
        self.guards = ones << bits
        self.fields = ones * ((1 << bits) - 1)
        self.degree_guard = 1 << (self.top + bits)
        self.degree_field = ((1 << width) - 1) << self.top
        # times the exponent fields, puts their sum in the degree field
        self.spread = ones << width
        self.local = kind == "local"
        self.key = self.fields.__and__ if kind == "lex" else self.fields.__xor__
        self.lead = min if self.local else partial(max, key=self.key)

    def pack(self, f: MPoly) -> dict:
        """f packed; over QQ times the least common denominator of its
        coefficients, `_denominator(f)`, so that every coefficient is an int."""
        shifts, top = self.shifts, self.top
        h = {sum(map(int.__lshift__, e, shifts)) + (sum(e) << top): c for e, c in f.terms.items()}
        if not self.p:
            d = _denominator(f)
            h = {m: c.numerator * (d // c.denominator) for m, c in h.items()}
        return h

    def exponents(self, m: int) -> Exponents:
        mask = (1 << self.bits) - 1
        return tuple(m >> s & mask for s in self.shifts)

    def unpack(self, h: dict, scale=1) -> MPoly:
        """h / scale as an MPoly, its coefficients back in the domain."""
        dom = self.domain
        inv = dom.div(dom.one, scale)
        return MPoly(self.nvars, dom, {self.exponents(m): dom.mul(c, inv) for m, c in h.items()})

    def partial(self, h: dict, i: int) -> dict:
        """The derivative of h in variable i: c*x^m goes to c*e_i*x^m/x_i,
        e_i the exponent in field i, by subtracting one from field i and
        one from the degree field. The terms with e_i = 0, or under F_p
        with p | e_i, vanish."""
        s, p, mask = self.shifts[i], self.p, (1 << self.bits) - 1
        step = (1 << s) + (1 << self.top)
        out = {}
        for m, c in h.items():
            e = m >> s & mask
            if e % p if p else e:
                out[m - step] = c * e % p if p else c * e
        return out

    def lcm(self, a: int, b: int) -> int:
        """In each field the larger exponent, selected by the guard bit of
        (a + guard) - b; the degree is the sum of the fields, which the
        product by `spread` carries into the degree field (lcm degrees stay
        below 2^(bits + 1), so no partial sum crosses a field)."""
        fields = self.fields
        larger = ((a & fields | self.guards) - (b & fields)) & self.guards
        m = (b ^ (a ^ b) & (larger - (larger >> self.bits))) & fields
        return m | m * self.spread & self.degree_field

    def record(self, g: dict) -> Record:
        """What reduction reads of g, computed once: (ecart, leading
        monomial, g normalised, the largest monomial of g, which has its
        largest degree). The ecart deg g - deg LM(g) matters only under the
        local order; under grevlex and lex, where division terminates
        without it, it is 0. A reducer's scale does not change a reduction
        step: over F_p g is made monic, and over QQ it is divided by its
        content, signed so that its leading coefficient is positive."""
        p, le, top = self.p, self.lead(g), max(g)
        ecart = (top >> self.top) - (le >> self.top) if self.local else 0
        if p:
            inv = pow(g[le], p - 2, p)
            return ecart, le, {m: inv * c % p for m, c in g.items()}, top
        content = math.gcd(*g.values())
        if g[le] < 0:
            content = -content
        return ecart, le, {m: c // content for m, c in g.items()}, top

    def cancel(self, h: dict, le: int, r: Record, out: dict):
        """(h', a, c): h' = (a*h - b*x^q*g) / c cancels the term of h at
        le = x^q * LM(g), g the polynomial of the record r. The cofactors
        are a = 1 and b = LC(h) over F_p, where g is monic, and over QQ the
        least integers with a*LC(h) = b*LC(g), a > 0; c is the content of
        h' and of the remainder terms out, which are scaled by a/c in place
        as h is (c = 1 over F_p). h' may be h, changed in place."""
        _, ge, g, g_top = r
        q = le - ge
        if (q + g_top) & self.degree_guard:
            raise _Overflow
        a, b = 1, h[le]
        if not self.p:
            d = math.gcd(b, g[ge])
            a, b = g[ge] // d, b // d
        if a != 1:
            h = {m: a * c for m, c in h.items()}
            for m in out:
                out[m] *= a
        _subtract(h, q, g, self.p, b)
        c = 1 if self.p else math.gcd(*h.values(), *out.values()) or 1
        if c != 1:
            h = {m: v // c for m, v in h.items()}
            for m in out:
                out[m] //= c
        return h, a, c

    def reduce(self, h: dict, reducers: Sequence[Record]):
        """(r, a, c): r the normal form of (a/c)*h by the reducer records,
        a and c the products of the steps' a and c (1 over F_p), as `cancel`
        returns them for one step; h may be changed in place.

        Each step is `cancel` by the reducer of least ecart whose leading
        monomial divides that of h. Under the local order the loop is Mora's
        weak normal form: it stops at the first leading monomial that no
        reducer divides, and u*h - r lies in the ideal of the reducers for a
        unit u. The running h joins the reducers whenever the least ecart
        exceeds its own, which makes the loop terminate (Greuel & Pfister,
        Algorithm 1.7.6). Under grevlex and lex every ecart is 0, so the
        first reducer that divides is taken, and a leading term that none
        divides moves to r while the loop goes on: r is the remainder of the
        division, its tail reduced, and a*h - c*r lies in the ideal.
        """
        out, num, den = {}, 1, 1
        lead, guards, top, local = self.lead, self.guards, self.top, self.local
        while h:
            le = lead(h)
            best = None
            for r in reducers:
                if not (le - r[1]) & guards and (best is None or r[0] < best[0]):
                    best = r
                    if not r[0]:
                        break
            if best is None:
                if local:
                    break
                out[le] = h.pop(le)
                continue
            if best[0] and best[0] > (max(h) >> top) - (le >> top):
                reducers = [*reducers, self.record(h)]
            h, a, c = self.cancel(h, le, best, out)
            num, den = num * a, den * c
        # under the local order nothing moves to out; under a global one h ends empty
        return out or h, num, den

    def close(self, hs: Sequence[dict]) -> List[Record]:
        """Records of generators whose S-polynomials all reduce to zero.

        Pairs are processed by minimal lcm total degree, ties broken by the
        lex order on pair indices, from a heap keyed once per pair. A pair
        with coprime leading monomials is skipped when one of the two has
        ecart 0 (first Buchberger criterion); the ecart condition keeps the
        criterion valid under the local order and always holds under grevlex
        and lex. The S-polynomial of f and g is x^q*f with its term at the
        lcm cancelled by g.
        """
        G = [self.record(h) for h in hs]
        pairs = []

        def add_pairs(k):
            for i in range(k):
                lcm = self.lcm(G[i][1], G[k][1])
                heapq.heappush(pairs, (lcm >> self.top, i, k, lcm))

        for k in range(1, len(G)):
            add_pairs(k)
        while pairs:
            _, i, j, lcm = heapq.heappop(pairs)
            (f_ecart, fe, f, f_top), g = G[i], G[j]
            if lcm == fe + g[1] and not (f_ecart and g[0]):
                continue
            q = lcm - fe
            if (q + f_top) & self.degree_guard:
                raise _Overflow
            h = self.cancel({m + q: c for m, c in f.items()}, lcm, g, {})[0]
            if r := self.reduce(h, G)[0]:
                G.append(self.record(r))
                add_pairs(len(G) - 1)
        return G


def _denominator(f: MPoly) -> int:
    """The least common denominator of the coefficients of f over QQ (1 over
    F_p, whose elements are ints)."""
    return math.lcm(*(c.denominator for c in f.terms.values()))


def _packed(polys: Sequence[MPoly], kind: str, work: Callable):
    """(layout, work(layout, packed polys)) on the layout of the given order
    whose fields fit the input, re-packed with more bits a field until no
    product overflows."""
    degree = max(f.total_degree() for f in polys)
    while True:
        P = _Layout(polys[0].nvars, _field_bits(degree), kind, polys[0].domain)
        try:
            return P, work(P, [P.pack(f) for f in polys])
        except _Overflow:
            degree = 1 << P.bits


def _generators(gens: Sequence[MPoly]) -> List[MPoly]:
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if any(g.nvars != gens[0].nvars or g.domain != gens[0].domain for g in gens):
        raise DomainMismatch("generators over different rings")
    return gens


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
    P, (r, a, c) = _packed([f, *gens], order.kind, lambda P, hs: P.reduce(hs[0], [P.record(g) for g in hs[1:]]))
    # over QQ the packed f is f times its denominator
    return P.unpack(r, P.domain.div(a * _denominator(f), c))


def _reduced_basis(P: _Layout, hs: Sequence[dict]) -> List[dict]:
    records = sorted(P.close(hs), key=lambda r: P.key(r[1]))
    # a minimal basis: a divisor of a leading monomial sorts before it
    minimal = []
    for r in records:
        if all((r[1] - m[1]) & P.guards for m in minimal):
            minimal.append(r)
    # reducing the generators of a minimal basis by each other keeps every
    # leading term, so one pass gives the unique reduced basis, up to scale
    return [P.reduce(dict(r[2]), minimal[:i] + minimal[i + 1 :])[0] for i, r in enumerate(minimal)]


def buchberger(gens: Sequence[MPoly], order: MonomialOrder = GREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis, normal selection strategy."""
    P, G = _packed(_generators(gens), order.kind, _reduced_basis)
    return GroebnerBasis(tuple(P.unpack(h, h[P.lead(h)]) for h in G), order, P.nvars, P.domain)


def _staircase(leads: Sequence[Exponents]):
    """The box that holds the standard monomials of the leading monomials
    and the corners cut from it: (b, corners), b_i the least pure power of
    variable i among the leading monomials, or None if there are infinitely
    many standard monomials.

    Finite iff the staircase is bounded in every variable, i.e. some leading
    monomial is a pure power of each variable; the box below the least such
    powers holds the staircase. The corners are the leading monomials inside
    the box, e_i < b_i in every variable: no pure power is among them, and
    a leading monomial 1 (a unit generator) leaves an empty box.
    """
    pure = [[e[i] for e in leads if not any(e[:i] + e[i + 1 :])] for i in range(len(leads[0]))]
    if not all(pure):
        return None
    bounds = list(map(min, pure))
    return bounds, [e for e in leads if all(map(operator.lt, e, bounds))]


def standard_monomials(G: GroebnerBasis, budget: int = DEFAULT_STATE_BUDGET) -> Optional[List[Exponents]]:
    """Monomials divisible by no leading term, in grevlex order, or None if
    infinitely many. The listing walks the box that holds them degree by
    degree in grevlex order, with no sort (poly.grevlex_walk): a box of
    more than `budget` monomials is refused with StateBudgetExceeded before
    the walk."""
    box = _staircase([g.leading(G.order)[0] for g in G])
    if box is None:
        return None
    bounds, corners = box
    if (size := math.prod(bounds)) > budget:
        raise StateBudgetExceeded(f"the standard monomials lie in a box of {size} monomials, past budget {budget}")
    stairs = grevlex_walk(bounds, sum(bounds) + 1)
    if corners:
        stairs = [e for e in stairs if not any(all(map(operator.ge, e, c)) for c in corners)]
    return stairs


def _count_below(bounds: Sequence[int], corners: Set[Exponents]) -> int:
    """The number of exponent vectors e with e_i < bounds[i] that no corner
    divides, every corner inside the bounds. Counted slab by slab in the
    last variable: the slabs from one last exponent of a corner to the next
    are cut by the same corners, those at or below them, so they share one
    count in the other variables. With no corner left the count is the
    box's volume, and with no variable left the corner () divides the one
    vector (). The cost depends on the corners, not on the bounds."""
    if not corners:
        return math.prod(bounds)
    if not bounds:
        return 0
    *inner, b = bounds
    steps = sorted({0, b, *(c[-1] for c in corners)})
    return sum(
        (hi - lo) * _count_below(inner, {c[:-1] for c in corners if c[-1] <= lo})
        for lo, hi in itertools.pairwise(steps)
    )


def _dimension(leads: Sequence[Exponents]) -> Dimension:
    """The number of standard monomials of the leading monomials, counted
    from the staircase's corners without walking its box."""
    box = _staircase(leads)
    if box is None:
        return INFINITE
    bounds, corners = box
    return _count_below(bounds, set(corners))


def quotient_dimension(G: GroebnerBasis) -> Dimension:
    """Vector-space dimension of the quotient ring, or INFINITE."""
    return _dimension([g.leading(G.order)[0] for g in G])


def _local_leads(P: _Layout, hs: Sequence[dict]) -> Optional[List[Exponents]]:
    """The leading monomials, as exponent vectors, of one standard basis of
    the nonzero hs under the local order, or None when every h is zero."""
    hs = [h for h in hs if h]
    return [P.exponents(r[1]) for r in P.close(hs)] if hs else None


def local_dimension(gens: Sequence[MPoly]) -> Dimension:
    """Dimension of the quotient of the local ring at the origin, or INFINITE.

    Counts the standard monomials of one standard basis under the local
    degree order; the count is exact, with no truncation bound.
    """
    return _dimension(_packed(_generators(gens), "local", _local_leads)[1])


def milnor_number(f: MPoly) -> Dimension:
    """Local dimension of the Jacobian ideal quotient; INFINITE if the
    singularity is not isolated, or every partial derivative is zero.

    f is packed once, and its partials are taken on the packed terms; its
    degree bounds theirs, so the fields fit them."""
    _, leads = _packed([f], "local", lambda P, hs: _local_leads(P, [P.partial(hs[0], i) for i in range(P.nvars)]))
    return INFINITE if leads is None else _dimension(leads)


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
    the rationals. wild = char_p - char_0; an infinite char-0 dimension
    (the germ is not isolated at all), else an infinite char-p dimension or
    char_p < char_0, is flagged as an anomaly instead of raising.
    """
    if f.domain != QQ:
        raise DomainMismatch("tame/wild split needs an integer polynomial over QQ")
    dim_p = milnor_number(reduce_mod_p(f, p))
    dim_0 = milnor_number(f)
    anomaly = None
    if dim_0 == INFINITE:
        tame, wild = INFINITE, INFINITE
        anomaly = "char-0 dimension infinite"
    elif dim_p == INFINITE:
        tame, wild = dim_0, INFINITE
        anomaly = "char-p dimension infinite (derivatives degenerate mod p)"
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
