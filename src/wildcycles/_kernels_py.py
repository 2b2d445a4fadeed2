"""Pure-Python kernels for the exhaustive-enumeration hot loops.

The compiled lane (_ckernels.c) has its own grid_image,
functional_graph_decompose, curve_affine_count and curve_slice_counts,
tested against the ones here, which stay the reference. grid_image writes
the transition table into the array of 32-bit words that poly.grid_table
allocates, one block of states per value of the last variable, each block
from packed integer lanes, one lane per state; the compiled one evaluates
each state plainly. The graph kernels read that array and give back only
what the orbit report needs, the cycles and the longest tail, with no
per-state list. The slice counts come from one histogram over half of
F_p, and the exhaustive count visits its p^2 pairs inside str.count; the
compiled lane runs the same histogram, and the same comparisons over an
array of the squares. It re-exports curve_is_singular as it is: the check looks only at
the critical points, at most two, found by a modular square root.
curve_critical_points, shared with curves' multiplicities, is a helper of
both lanes, not a kernel. backend.py picks the lane.
"""

from __future__ import annotations

import sys
from array import array
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

from .fields import sqrt_mod

BACKEND_NAME = "pure"


def _check_curve(p: int, a: int, b: int) -> None:
    """ValueError unless 2 <= p <= sys.maxunicode and 0 <= a, b < p, the
    curves that the curve kernels of both lanes take."""
    if not 2 <= p <= sys.maxunicode:
        raise ValueError(f"p = {p} is not in 2..{sys.maxunicode}")
    if not (0 <= a < p and 0 <= b < p):
        raise ValueError(f"a = {a} and b = {b} must be reduced mod {p}")


def curve_affine_count(p: int, a: int, b: int) -> int:
    """#{(x, y) in F_p^2 : y^2 + a x^3 + b x = 0} by full 2D enumeration.

    The p squares y^2 mod p are one str of code points, and each x counts
    the code point -(a x^3 + b x) in it with str.count: every (x, y) pair
    is visited, by C code. Refuses p outside 2..sys.maxunicode, the range
    of chr, and a or b outside 0..p-1 with ValueError."""
    _check_curve(p, a, b)
    squares = "".join([chr(y * y % p) for y in range(p)])
    return sum([squares.count(chr(-(a * x * x * x + b * x) % p)) for x in range(p)])


def curve_slice_counts(p: int, a: int, b: int) -> List[int]:
    """l_i = #{x : a x^3 + b x + i^2 = 0 in F_p} for i = 0..p-1.

    v(x) = a x^3 + b x is odd, so for odd p one histogram H of v over
    x = 1..(p-1)/2 serves x and -x: l_i = H[-i^2] + H[i^2], plus 1 at
    i = 0 for x = 0, and l_i = l_(p-i). At p = 2, x = 1 is its own
    negative: l = [2 - v(1), v(1)]. Refuses the curves the count refuses,
    with ValueError."""
    _check_curve(p, a, b)
    if p == 2:
        v = (a + b) % 2
        return [2 - v, v]
    h = p // 2
    hist = [0] * p
    for x in range(1, h + 1):
        hist[(a * x * x + b) * x % p] += 1
    half = [hist[s] + hist[-s] for s in [i * i % p for i in range(h + 1)]]
    half[0] += 1
    return half + half[:0:-1]


def curve_critical_points(p: int, a: int, b: int) -> List[int]:
    """The x in F_p, ascending, where 3 a x^2 + b = 0: where a slice
    polynomial a X^3 + b X + i^2 can have a multiple root. For p > 3 they
    are the square roots of -b (3a)^-1, by sqrt_mod (a is nonzero mod p);
    for p <= 3, where 3a may vanish, a scan finds them."""
    if p <= 3:
        return [x for x in range(p) if (3 * a * x * x + b) % p == 0]
    r = sqrt_mod(-b * pow(3 * a, -1, p), p)
    if r is None:
        return []
    return [r] if r == 0 else [r, p - r]


def curve_is_singular(p: int, a: int, b: int) -> bool:
    """Some affine point satisfies the equation and both partials,
    3 a x^2 + b = 0 and 2y = 0. For odd p that is y = 0 and a critical x
    with a x^3 + b x = 0; at p = 2 every y has 2y = 0 and the y^2 cover
    F_2, so any critical x."""
    xs = curve_critical_points(p, a, b)
    if p == 2:
        return bool(xs)
    return any((a * x * x + b) * x % p == 0 for x in xs)


def _lane_layout(p: int, groups: int) -> Tuple[int, int, int]:
    """(width, s, mult) for grid_image: lanes of `width` bits, the least
    multiple of 32 that holds v * mult for every v below groups * p^2 < 2^s,
    with Barrett's shift s and multiplier mult = 2^s // p."""
    bound = groups * p * p
    s = bound.bit_length()
    mult = (1 << s) // p
    return -(-((bound - 1) * mult).bit_length() // 32) * 32, s, mult


def _as_u64(v) -> int:
    """v, if an int in 0..2^64-1: TypeError for a non-int, ValueError
    for an int out of that range, as the compiled lane reads a word."""
    if not isinstance(v, int):
        raise TypeError(f"expected an int, not {type(v).__name__}")
    if not 0 <= v < 1 << 64:
        raise ValueError(f"{v!r} is not an int in 0..2^64-1")
    return v


def _check_table(terms, p: int, n: int, out) -> list:
    """The components of terms as a list, after the checks of the compiled
    grid_image, in its order and with its exception classes, one pass over
    the terms and nothing written: p and n words, p >= 2, p^n states that
    an array holds, out a writable contiguous one-dimensional array('I')
    of p^n words, indices p^len(terms) - 1 that fit 32 bits, and each term
    a tuple of n words with a coefficient below p, in a dict."""
    if _as_u64(p) < 2:
        raise ValueError("p must be at least 2")
    if _as_u64(n) >= 64 or p**n > sys.maxsize:
        raise ValueError(f"{p}^{n} states do not fit an array")
    terms = list(terms)
    with memoryview(out) as view:
        if view.format != "I" or view.ndim != 1 or not view.c_contiguous:
            raise TypeError(f"out must be a one-dimensional contiguous array of format 'I', not format {view.format!r}")
        if view.readonly or len(view) != p**n:
            raise ValueError(f"out must be a writable array of {p**n} words")
    if len(terms) > 32 or p ** len(terms) > 1 << 32:
        raise ValueError(f"indices below {p}^{len(terms)} do not fit 32-bit words")
    for k, f in enumerate(terms):
        if not isinstance(f, dict):
            raise TypeError(f"component {k} is a {type(f).__name__}, not a dict of terms")
    for k, f in enumerate(terms):
        for e, c in f.items():
            if not isinstance(e, tuple):
                raise TypeError(f"term {e!r} of component {k} is not a tuple of exponents")
            if len(e) != n:
                raise ValueError(f"term {e!r} of component {k} does not have {n} exponents")
            if _as_u64(c) >= p:
                raise ValueError(f"coefficient {c!r} is not reduced mod {p}")
            for x in e:
                _as_u64(x)
    return terms


def grid_image(terms: Sequence[Dict[Tuple[int, ...], int]], p: int, n: int, out: array) -> None:
    """Writes sum_k (f_k(x) mod p) p^k into out for every point x of F_p^n,
    listed by the state index sum_i x_i p^i (variable 0 least significant):
    the index of the image of x when the f_k are the components of a
    self-map, and 0 exactly where every f_k vanishes. terms holds one dict
    per f_k, from tuples of n exponents to coefficients in 0..p-1, and out
    is an array('I') of p^n words, as poly.grid_table makes it. Whatever
    the compiled lane refuses is refused here with the same exception
    class, before anything is written (_check_table): an out of any other
    length or kind, indices p^len(terms) past 2^32, which do not fit its
    words, and malformed terms.

    The table is written one block at a time: block w holds the p^(n-1)
    states with x_last = w, or every state when n <= 1, and each state of
    a block is one lane of an int. Each tuple of exponents of the variables
    within a block has one such int, its table, built once: the product of
    their powers mod p in every lane. On block w, f_k is the sum over those
    tuples of the table times the scalar sum of c * w^d mod p over the
    terms of f_k with that tuple, d the exponent of x_last. A lane is then
    below groups * p^2, groups the largest term count, and is reduced mod p
    by Barrett's method: the estimate ((v * mult) >> s) of v // p, masked
    to each lane, is at most one too small, so one masked conditional
    subtraction of p finishes. The block's image is the same weighted sum
    of the reduced ints, read out through each lane's low word into its
    slice of out, with no Python int per state.
    """
    terms = _check_table(terms, p, n, out)
    groups = max([len(f) for f in terms] + [1])
    width, s, mult = _lane_layout(p, groups)
    size, t = width >> 3, p.bit_length()
    # from one lane's low word to the next in the native bytes of an int:
    # little-endian puts lane 0 and each lane's low word first, big-endian
    # puts both last, so there the slices run back from the end
    step = width // 32 if sys.byteorder == "little" else -width // 32
    inner = n - 1 if n > 1 else n  # the variables that vary within a block
    block = p**inner
    # bit 0 of each lane, the quotient mask (the bits of a lane below
    # width - s), and 2^t - p in each lane, which carries a lane into bit t
    # iff it is at least p (p < 2^t)
    ones = int.from_bytes((1).to_bytes(size, "little") * block, "little")
    qmask, lift = ones * ((1 << (width - s)) - 1), ones * ((1 << t) - p)

    def table(e: Tuple[int, ...]) -> int:
        """prod_i x_i^(e_i) mod p in the lane of each state of a block."""
        values = [1]
        for i, k in enumerate(e):
            powers = list(map(pow, range(p), repeat(k), repeat(p)))
            values = [v * x % p for x in powers for v in values] if i else powers
        lanes = array("I", bytes(size * block))
        lanes[::step] = array("I", values)
        return int.from_bytes(lanes, sys.byteorder)

    blocks = range(len(out) // block)
    # per f_k, its terms c x^e grouped by the exponents of the variables
    # within a block, each group as {d: c}, d the last exponent (0 if n <= 1)
    grouped = []
    for f in terms:
        grouped.append({})
        for e, c in f.items():
            grouped[-1].setdefault(e[:inner], {})[e[-1] if n > 1 else 0] = c
    tables = {e: table(e) for e in set().union(*grouped)}
    # each group's table and its scalar sum c * w^d mod p on every block w
    components = [
        [(tables[e], [sum([c * pow(w, d, p) for d, c in cs.items()]) % p for w in blocks]) for e, cs in g.items()]
        for g in grouped
    ]
    for w in blocks:
        image = 0
        for k, parts in enumerate(components):
            v = sum([P * scalars[w] for P, scalars in parts])
            v -= (((v * mult) >> s) & qmask) * p
            image += (v - (((v + lift) >> t) & ones) * p) * p**k
        out[w * block : (w + 1) * block] = array("I", image.to_bytes(size * block, sys.byteorder))[::step]


def functional_graph_decompose(nxt: array) -> Tuple[List[List[int]], int]:
    """The cycles and the longest tail of the self-map s -> nxt[s] of
    range(len(nxt)), nxt an array of unsigned ints as grid_image fills it.

    Returns (cycles, max_tail): each cycle is a list of states from its
    least one, the cycles are sorted by that state, and max_tail is the
    largest number of steps from any state to its cycle. A successor
    outside the range raises IndexError. dist is the only mark: -1 is
    unvisited, -2 is on the current path, and d >= 0 is the distance to
    the cycle. A start whose successor is already classified takes that
    distance plus one; any other start walks forward, without recursion,
    until it meets -2 (it closed a new cycle, collected here) or some
    d >= 0 (it joined a known tree), then numbers its path backward from
    there. Each walk ends at its start, the farthest state on it.
    """
    nxt = nxt.tolist()
    n = len(nxt)
    dist = [-1] * n
    cycles = []
    max_tail = 0
    for start in range(n):
        if dist[start] != -1:
            continue
        # marked before its successor is read, so a self-loop closes at once
        dist[start] = -2
        s = nxt[start]
        d = dist[s]
        if d >= 0:
            d += 1
            dist[start] = d
            if d > max_tail:
                max_tail = d
            continue
        path = [start]
        while d == -1:
            dist[s] = -2
            path.append(s)
            s = nxt[s]
            d = dist[s]
        if d == -2:
            at = path.index(s)
            cycle = path[at:]
            for c in cycle:
                dist[c] = 0
            del path[at:]
            least = cycle.index(min(cycle))
            cycles.append(cycle[least:] + cycle[:least])
            d = 0
        for t in reversed(path):
            d += 1
            dist[t] = d
        if d > max_tail:
            max_tail = d
    cycles.sort()
    return cycles, max_tail
