"""Shared random generators and independent oracles used across tests."""

import functools
import importlib.util
import itertools
import sys
from array import array
from fractions import Fraction
from pathlib import Path

from wildcycles._kernels_py import _lane_layout
from wildcycles.dynsys import _lane_width, _parity_levels
from wildcycles.fields import Matrix, PrimeField, is_prime
from wildcycles.poly import MPoly


class DenseMatrix:
    """Dense row-major matrix over one coefficient domain, reduced by a full
    row echelon pass: the oracle for the sparse column echelon of
    wildcycles.fields.Matrix."""

    def __init__(self, rows, cols, entries, domain):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.entries = list(entries)
        self.domain = domain

    @classmethod
    def from_rows(cls, rows, domain):
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nr, nc, flat, domain)

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def sparse(self):
        """The same matrix as wildcycles.fields.Matrix, one dict of nonzero
        entries per column."""
        zero = self.domain.zero
        cols = [{i: v for i, v in enumerate(self.entries[j :: self.cols]) if v != zero} for j in range(self.cols)]
        return Matrix(self.rows, cols, self.domain)

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        dom = self.domain
        rows = [self.row(i) for i in range(self.rows)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, len(rows)):
                if rows[i][c] != dom.zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            inv = dom.inv(rows[r][c])
            rows[r] = [dom.mul(inv, v) for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != dom.zero:
                    factor = rows[i][c]
                    rows[i] = [dom.add(v, dom.neg(dom.mul(factor, w))) for v, w in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """One vector per free column, free columns ascending; each vector
        has a 1 in its free column, so stacked vectors are in reduced
        echelon form."""
        dom = self.domain
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for fc in (c for c in range(self.cols) if c not in pivot_set):
            v = [dom.zero] * self.cols
            v[fc] = dom.one
            for r, pc in enumerate(pivots):
                v[pc] = dom.neg(rows[r][fc])
            basis.append(v)
        return basis

    def mul_vector(self, v):
        dom = self.domain
        out = []
        for i in range(self.rows):
            acc = dom.zero
            for a, b in zip(self.row(i), v):
                acc = dom.add(acc, dom.mul(a, b))
            out.append(acc)
        return out


def random_poly(rng, nvars, domain, max_deg=3, max_terms=4, dens=(1, 5)):
    """Terms of degree at most max_deg; over QQ with numerators in -5..5 and
    denominators in range(*dens)."""
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        if sum(e) > max_deg:
            continue
        if isinstance(domain, PrimeField):
            c = rng.randrange(0, domain.p)
        else:
            c = Fraction(rng.randrange(-5, 6), rng.randrange(*dens))
        if c:
            terms[e] = c
    return MPoly(nvars, domain, terms)


def divides(a, b):
    """Whether the monomial with exponents a divides the one with exponents b."""
    return all(x <= y for x, y in zip(a, b))


def mul_monomial(f, e, c):
    """c·x^e·f, for c nonzero."""
    terms = {tuple(a + b for a, b in zip(e1, e)): f.domain.mul(c, c1) for e1, c1 in f.terms.items()}
    return MPoly(f.nvars, f.domain, terms)


def division_oracle(f, gens, order):
    """Textbook multivariate division on exponent tuples: the leading term
    of the running polynomial is cancelled by the first generator whose
    leading monomial divides it, else moved to the remainder."""
    dom = f.domain
    rem = MPoly.zero(f.nvars, dom)
    while not f.is_zero():
        le, lc = f.leading(order)
        for g in gens:
            ge, gc = g.leading(order)
            if divides(ge, le):
                f = f - mul_monomial(g, tuple(a - b for a, b in zip(le, ge)), dom.div(lc, gc))
                break
        else:
            rem = rem + MPoly.monomial(f.nvars, dom, le, lc)
            f = f - MPoly.monomial(f.nvars, dom, le, lc)
    return rem


def s_poly(f, g, order):
    """The S-polynomial lcm/lt(f)*f - lcm/lt(g)*g, for the Buchberger criterion."""
    (fe, fc), (ge, gc) = f.leading(order), g.leading(order)
    lcm = tuple(map(max, fe, ge))
    dom = f.domain
    mf = mul_monomial(f, tuple(a - b for a, b in zip(lcm, fe)), dom.inv(fc))
    return mf - mul_monomial(g, tuple(a - b for a, b in zip(lcm, ge)), dom.inv(gc))


def truncation_oracle(J, d):
    """dim k[x]/(J + m^d), by global Buchberger only.

    J + m^d vanishes only at the origin, so this is dim A/m^d A for A the
    local ring at the origin modulo J. That dimension grows strictly with d
    until m^d A = 0 (Nakayama), and then stays at dim A: so it is dim A
    once d exceeds dim A, or once d is at least dim k[x]/J when that is
    finite (the local ring is a factor of k[x]/J); and it is at least d
    while d is at most dim A, infinite or not.
    """
    from wildcycles.groebner import buchberger, quotient_dimension

    n, dom = J[0].nvars, J[0].domain
    m_d = [MPoly.monomial(n, dom, e) for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    return quotient_dimension(buchberger(J + m_d))


def substring_var_names(texts):
    """The CLI's former naming rule, kept as an oracle: each of x, y and z
    that occurs anywhere in the texts, even inside another token such as dx."""
    joined = " ".join(texts)
    return [v for v in ("x", "y", "z") if v in joined] or ["x"]


def membership_oracle(f, gens, bounds=(4, 6, 8, 10)):
    """Escalating-bound cofactor search: a certificate found at any bound
    proves membership; absence at the largest bound is read as non-membership
    (ample for the random degree-3 instances used in tests)."""
    return any(brute_force_membership(f, gens, b) for b in bounds)


def brute_force_membership(f, gens, max_cofactor_deg):
    """Decide f in ideal(gens) by solving for cofactors of bounded degree.

    Sets up the linear system sum_i c_i * g_i = f in the unknown cofactor
    coefficients and checks solvability by comparing matrix ranks. Fully
    independent of the Groebner division route.
    """
    dom = f.domain
    nvars = f.nvars
    monos = [
        e
        for e in itertools.product(range(max_cofactor_deg + 1), repeat=nvars)
        if sum(e) <= max_cofactor_deg
    ]
    columns = []  # one column per (generator, cofactor monomial)
    target_monos = set(f.terms)
    for g in gens:
        for e in monos:
            prod = mul_monomial(g, e, dom.one)
            columns.append(prod)
            target_monos.update(prod.terms)
    rows = sorted(target_monos)
    A = []
    Ab = []
    for m in rows:
        row = [col.terms.get(m, dom.zero) for col in columns]
        A.append(row)
        Ab.append(row + [f.terms.get(m, dom.zero)])
    mat = DenseMatrix.from_rows(A, dom) if A else None
    mat_aug = DenseMatrix.from_rows(Ab, dom) if Ab else None
    if mat is None:
        return f.is_zero()
    return mat.rank() == mat_aug.rank()


def brute_periodic_count(F, p, n):
    """Count periodic states by direct iteration: x is periodic iff the
    orbit of x returns to x within p^n steps."""
    total = p**n
    count = 0
    for idx in range(total):
        state = decode(idx, p, n)
        s = state
        for _ in range(total):
            s = F(s)
            if s == state:
                count += 1
                break
    return count


def tail_distance_oracle(nxt):
    """(on_cycle, dist) of a self-map of range(len(nxt)) by iterating each
    state: s is periodic iff its orbit comes back to s before it repeats
    another state, and dist[s] counts the steps until the orbit of s first
    meets a periodic state. Quadratic in the number of states at worst."""
    on_cycle = []
    for s in range(len(nxt)):
        seen = {s}
        t = nxt[s]
        while t not in seen:
            seen.add(t)
            t = nxt[t]
        on_cycle.append(t == s)
    dist = []
    for s in range(len(nxt)):
        d = 0
        while not on_cycle[s]:
            s = nxt[s]
            d += 1
        dist.append(d)
    return on_cycle, dist


def orbit_report_oracle(nxt):
    """(cycles, max_tail) of a self-map of range(len(nxt)), as the graph
    kernels return them, from tail_distance_oracle: each cycle traced from
    its least state, the cycles in increasing order of that state, and the
    largest distance (0 for the empty map)."""
    on_cycle, dist = tail_distance_oracle(nxt)
    cycles, seen = [], set()
    for s in range(len(nxt)):
        if on_cycle[s] and s not in seen:
            cycle = [s]
            while nxt[cycle[-1]] != s:
                cycle.append(nxt[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles, max(dist, default=0)


def parity_vectors_oracle(k):
    """The parity vectors of every residue mod 2^k, bit j the parity at step
    j, by Terras's lift T^j(r + 2^j) = T^j(r) + 3^(o_j(r)) on three lists of
    exact values, odd-step counts and vectors, stepping each residue once
    per level: the oracle for packed_parity_vectors."""
    values, odds, vecs = [0], [0], [0]
    pow3 = [1]
    for j in range(k):
        values += [v + pow3[o] for v, o in zip(values, odds)]
        odds += odds
        vecs += vecs
        pow3.append(3 * pow3[-1])
        bit = 1 << j
        next_values, next_odds, next_vecs = [], [], []
        for v, o, w in zip(values, odds, vecs):
            if v & 1:
                next_values.append((3 * v + 1) >> 1)
                next_odds.append(o + 1)
                next_vecs.append(w | bit)
            else:
                next_values.append(v >> 1)
                next_odds.append(o)
                next_vecs.append(w)
        values, odds, vecs = next_values, next_odds, next_vecs
    return vecs


def packed_parity_vectors(k):
    """The parity vectors of every residue mod 2^k, in residue order, bit j
    the parity at step j, assembled from the packed lift of
    dynsys._parity_levels: before level j every lane r + 2^j copies the
    first j parities of lane r, then level j's parities fill bit j. V keeps
    the lanes of level 0, the widest; level j's lanes of
    _lane_width(k, j) bits are widened to them through their low bytes,
    since only bit 0 of a lane is set."""
    width = _lane_width(k, 0)
    V = 0
    for j, odd in enumerate(_parity_levels(k)):
        narrow, lanes = _lane_width(k, j) // 8, 2 << j
        wide = bytearray((width // 8) * lanes)
        wide[:: width // 8] = odd.to_bytes(narrow * lanes, "little")[::narrow]
        V |= V << (width << j)
        V |= int.from_bytes(wide, "little") << j
    code = next(c for c in "BHIL" if 8 * array(c).itemsize == width)
    vecs = array(code, V.to_bytes((width // 8) << k, "little"))
    if sys.byteorder == "big":
        vecs.byteswap()
    return vecs.tolist()


def critical_locus_oracle(f, p):
    """Points of F_p^n, in lexicographic order, where every partial of f
    evaluates to 0 by MPoly.eval, one point at a time."""
    partials = [f.derivative(i) for i in range(f.nvars)]
    return [
        point
        for point in itertools.product(range(p), repeat=f.nvars)
        if all(g.eval(point) == 0 for g in partials)
    ]


def decode(idx, p, n):
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def encode(state, p):
    return sum(x * p**k for k, x in enumerate(state))


def lane_switch_primes(terms, m, budget):
    """Pairs (q, r) of neighbouring primes, r^m within the budget, on the two
    sides of each point where the pure grid_image widens its lanes for
    components of at most `terms` terms. The width grows with p, so each
    switch is found by bisection."""

    def width(p):
        return _lane_layout(p, terms)[0]

    top = round(budget ** (1 / m))
    while top**m > budget:
        top -= 1
    pairs, lo = [], 2
    while width(lo) < width(top):
        a, b = lo, top
        while b - a > 1:
            mid = (a + b) // 2
            a, b = (a, mid) if width(mid) > width(lo) else (mid, b)
        q, r = b - 1, b
        while not is_prime(q):
            q -= 1
        while not is_prime(r):
            r += 1
        if r**m > budget:
            break
        assert width(q) < width(r)
        pairs.append((q, r))
        lo = r
    return pairs


def slice_counts_oracle(p, a, b):
    """l_i by testing every x against every slice: O(p^2), the p
    comparisons of each slice inside list.count."""
    values = [(a * x * x * x + b * x) % p for x in range(p)]
    return [values.count(-i * i % p) for i in range(p)]


def multiplicity_oracle(p, a, b):
    """Roots of a x^3 + b x + i^2 per slice, each counted with its
    multiplicity, found by repeated synthetic division by (X - x): every x
    is tested against the polynomial of every slice, O(p^2). Slices with
    the same i^2 share one polynomial, counted once."""
    values = [(a * x * x * x + b * x) % p for x in range(p)]
    weighted = {}
    for c in [i * i % p for i in range(p)]:
        if c in weighted:
            continue
        total = 0
        for x in itertools.compress(range(p), map((-c % p).__eq__, values)):
            coeffs = [a, 0, b, c]
            mult = 0
            while True:
                rem = 0
                quot = []
                for cf in coeffs:
                    rem = (rem * x + cf) % p
                    quot.append(rem)
                if quot.pop() != 0:
                    break
                mult += 1
                coeffs = quot
                if not coeffs:
                    break
            total += mult
        weighted[c] = total
    return [weighted[i * i % p] for i in range(p)]


def singularity_oracle(p, a, b):
    """Whether some (x, y) in F_p^2 lies on y^2 + a x^3 + b x = 0 with both
    partials, 3 a x^2 + b and 2 y, zero: every y is tried at each x where
    the x-partial vanishes."""
    return any(
        (2 * y) % p == 0 and (y * y + a * x * x * x + b * x) % p == 0
        for x in range(p)
        if (3 * a * x * x + b) % p == 0
        for y in range(p)
    )


def derivative_oracle(f, i):
    """d_i f one term at a time, each c*x^e to (c*e_i)*x^(e - e_i) summed
    into an accumulator: no falling factorials."""
    dom = f.domain
    out = MPoly.zero(f.nvars, dom)
    for e, c in f.terms.items():
        if e[i]:
            ne = tuple(k - (j == i) for j, k in enumerate(e))
            out = out + MPoly(f.nvars, dom, {ne: dom.mul(c, dom.from_int(e[i]))})
    return out


def apply_oracle(P, f):
    """P(f) by taking each d^alpha as alpha_i single derivatives in turn."""
    out = MPoly.zero(P.nvars, P.domain)
    for a, coeff in P.terms.items():
        g = f
        for i, k in enumerate(a):
            for _ in range(k):
                g = derivative_oracle(g, i)
        out = out + coeff * g
    return out


def compose_oracle(P, Q):
    """Normal form of P∘Q by rewriting one d_i at a time with the defining
    relation d_i ∘ (g d^beta) = (d_i g) d^beta + g d^(beta + e_i), then
    multiplying by each coefficient of P on the left."""
    from wildcycles.weyl import WeylOperator

    n, dom = P.nvars, P.domain
    out = WeylOperator.zero(n, dom)
    for a, f in P.terms.items():
        piece = Q
        for i, k in enumerate(a):
            for _ in range(k):
                terms = {}
                for b, g in piece.terms.items():
                    up = tuple(t + (j == i) for j, t in enumerate(b))
                    for c, h in ((b, derivative_oracle(g, i)), (up, g)):
                        terms[c] = terms[c] + h if c in terms else h
                piece = WeylOperator(n, dom, terms)
        out = out + WeylOperator(n, dom, {b: f * g for b, g in piece.terms.items()})
    return out


def module_vector(M, f):
    """The coordinates of f, truncated into the quotient module M, on M's
    monomial basis."""
    index = {e: i for i, e in enumerate(M.basis)}
    v = [M.field.zero] * M.dimension
    for e, c in M.truncate(f).terms.items():
        v[index[e]] = c
    return v


def multiplication_operator(f):
    """The Weyl operator of multiplication by f."""
    from wildcycles.weyl import WeylOperator

    return WeylOperator(f.nvars, f.domain, {(0,) * f.nvars: f})


def available_backends():
    """The kernel modules by lane: the pure one, and the compiled one when
    the extension imports."""
    from wildcycles import _kernels_py

    out = {"pure": _kernels_py}
    try:
        from wildcycles import _ckernels

        out["c"] = _ckernels
    except ImportError:
        pass
    return out


def each_lane(monkeypatch):
    """Each built kernel lane by name, swapped in turn into dynsys and
    curves, as the lane check of perfbench swaps the pure one in."""
    from wildcycles import curves, dynsys

    for name, kernels in available_backends().items():
        monkeypatch.setattr(dynsys, "kernels", kernels)
        monkeypatch.setattr(curves, "kernels", kernels)
        yield name, kernels


def parity_vector(start, k):
    """Parities observed along the first k accelerated-Collatz steps."""
    x = start
    out = []
    for _ in range(k):
        parity = x % 2
        out.append(parity)
        x = x // 2 if parity == 0 else (3 * x + 1) // 2
    return tuple(out)


def operator_matrix_oracle(M, P):
    """Matrix of P on the basis of the quotient module M, one column per
    basis monomial by applying P to it with apply_oracle and truncating:
    independent of the closed-form falling factorials of
    QuotientModule.operator_matrix."""
    cols = []
    for e in M.basis:
        image = apply_oracle(P, MPoly.monomial(M.nvars, M.field, e))
        cols.append(module_vector(M, image))
    n = M.dimension
    entries = [cols[j][i] for i in range(n) for j in range(n)]
    return DenseMatrix(n, n, entries, M.field)


def random_operator(rng, nvars, domain, max_order):
    """A seeded nonzero Weyl operator with no zero-order term: up to four
    derivative multi-indices of order 1..max_order, each with a random
    nonzero polynomial coefficient."""
    from wildcycles.weyl import WeylOperator

    terms = {}
    for _ in range(rng.randrange(1, 5)):
        a = [0] * nvars
        for _ in range(rng.randrange(1, max_order + 1)):
            a[rng.randrange(nvars)] += 1
        f = random_poly(rng, nvars, domain, max_terms=3)
        terms[tuple(a)] = f if f.terms else MPoly.one(nvars, domain)
    return WeylOperator(nvars, domain, terms)


@functools.cache
def perfbench(name):
    """The module perfbench/<name>.py, loaded from its file unchanged: the
    benchmark's job lists (jobs) and its oracle (oracle), which checks a
    job's output without importing wildcycles."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module
    spec.loader.exec_module(module)
    return module
