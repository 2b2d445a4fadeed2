"""Shared random generators and independent oracles used across tests."""

import itertools
import random
from fractions import Fraction

from wildcycles.fields import QQ, PrimeField
from wildcycles.poly import MPoly


def random_poly(rng, nvars, domain, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        e = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        if sum(e) > max_deg:
            continue
        if isinstance(domain, PrimeField):
            c = rng.randrange(0, domain.p)
        else:
            c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        if c:
            terms[e] = c
    return MPoly(nvars, domain, terms)


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
    from wildcycles.fields import Matrix

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
            prod = g.mul_monomial(e, dom.one)
            columns.append(prod)
            target_monos.update(prod.terms)
    rows = sorted(target_monos)
    A = []
    Ab = []
    for m in rows:
        row = [col.terms.get(m, dom.zero) for col in columns]
        A.append(row)
        Ab.append(row + [f.terms.get(m, dom.zero)])
    mat = Matrix.from_rows(A, dom) if A else None
    mat_aug = Matrix.from_rows(Ab, dom) if Ab else None
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


def decode(idx, p, n):
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return tuple(out)


def slice_counts_oracle(p, a, b):
    """l_i by testing every x against every slice: O(p^2)."""
    values = [(a * x * x * x + b * x) % p for x in range(p)]
    return [sum(1 for v in values if (v + i * i) % p == 0) for i in range(p)]


def multiplicity_oracle(p, a, b):
    """Roots of a x^3 + b x + i^2 per slice, each counted with its
    multiplicity, found by repeated synthetic division by (X - x)."""
    out = []
    for i in range(p):
        total = 0
        for x in range(p):
            if (a * x * x * x + b * x + i * i) % p != 0:
                continue
            coeffs = [a, 0, b, (i * i) % p]
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
        out.append(total)
    return out
