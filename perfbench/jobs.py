"""Seeded job lists: one round of CLI invocations per workload.

A job is the argv of one `wildcycles` subcommand plus the facts the oracle
needs to check its output without the program. The seed changes coefficients,
signs and the job order, never the make-up of a round: every seed yields the
same subcommands at the same sizes, so rounds cost the same, and the one job
known to fail (x^23 + y^2) does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# Exponent vector -> integer coefficient.
PolyDict = Dict[Tuple[int, ...], int]


@dataclass(frozen=True)
class Job:
    kind: str
    argv: Tuple[str, ...]
    spec: dict = field(hash=False, compare=False)
    # Set on jobs that fail every time because of a fault named in CHANGES.md.
    known_fault: Optional[str] = None


def poly_text(terms: PolyDict, names) -> str:
    """Render a polynomial in the CLI's grammar."""
    parts = []
    for e, c in sorted(terms.items(), key=lambda t: (-sum(t[0]), t[0])):
        if c == 0:
            continue
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        body = mono if mono else "1"
        if mono and abs(c) != 1:
            body = f"{abs(c)}*{mono}"
        elif not mono:
            body = str(abs(c))
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# -- milnor ----------------------------------------------------------------

XYZ = ("x", "y", "z")


def _bp(exps) -> PolyDict:
    """Brieskorn-Pham sum of x_i^a_i."""
    n = len(exps)
    return {tuple(a if j == i else 0 for j in range(n)): 1 for i, a in enumerate(exps)}


# (polynomial terms, closed-form family or None for the sympy oracle, p).
# Closed forms: ("bp", exps), ("A", k), ("D", k), ("E", 6|7|8); three-variable
# ADE entries carry an extra z^2. The (f, p) pairs are fixed so that a round
# costs the same on every seed; the seed flips the signs of the terms of the
# closed-form entries, which changes neither mu nor the work.
_MILNOR = [
    # tame ADE and Brieskorn-Pham cases, 2 variables
    (_bp((3, 2)), ("A", 2), 5),
    (_bp((4, 2)), ("A", 3), 3),
    (_bp((5, 2)), ("A", 4), 7),
    (_bp((7, 2)), ("A", 6), 3),
    (_bp((9, 2)), ("A", 8), 5),
    (_bp((11, 2)), ("A", 10), 7),
    ({(3, 0): 1, (1, 2): 1}, ("D", 4), 5),
    ({(2, 1): 1, (0, 4): 1}, ("D", 5), 7),
    ({(2, 1): 1, (0, 6): 1}, ("D", 7), 5),
    ({(2, 1): 1, (0, 8): 1}, ("D", 9), 3),
    (_bp((3, 4)), ("E", 6), 5),
    ({(3, 0): 1, (1, 3): 1}, ("E", 7), 2),
    (_bp((3, 5)), ("E", 8), 2),
    (_bp((3, 3)), ("bp", (3, 3)), 2),
    (_bp((4, 4)), ("bp", (4, 4)), 3),
    (_bp((4, 5)), ("bp", (4, 5)), 7),
    (_bp((4, 7)), ("bp", (4, 7)), 3),
    (_bp((5, 6)), ("bp", (5, 6)), 7),
    (_bp((3, 7)), ("bp", (3, 7)), 5),
    (_bp((3, 6)), ("bp", (3, 6)), 7),
    (_bp((5, 5)), ("bp", (5, 5)), 3),
    (_bp((6, 2)), ("A", 5), 5),
    ({(2, 1): 1, (0, 5): 1}, ("D", 6), 3),
    # tame, 3 variables
    (_bp((4, 2, 2)), ("A", 3), 5),
    ({(3, 0, 0): 1, (1, 2, 0): 1, (0, 0, 2): 1}, ("D", 4), 5),
    # non-isolated mod p: every derivative, or all but one, vanishes
    (_bp((5, 5)), ("bp", (5, 5)), 5),
    (_bp((3, 3, 3)), ("bp", (3, 3, 3)), 3),
    (_bp((4, 2, 2)), ("A", 3), 2),
    # non-isolated mod p through the whole 20-order truncation loop
    (_bp((3, 4)), ("E", 6), 2),
    ({(3, 0): 1, (1, 2): 1}, ("D", 4), 3),
    # mixed: wild (mu_p > mu_0 finite) and tame, checked with sympy
    ({(3, 0): 1, (4, 0): 1, (0, 2): 1}, None, 3),
    ({(5, 0): 1, (6, 0): 1, (0, 2): 1}, None, 5),
    ({(7, 0): 1, (8, 0): 1, (0, 2): 1}, None, 7),
    ({(5, 0): 1, (6, 0): 1, (0, 3): 1}, None, 5),
    ({(3, 0): 1, (4, 0): 1, (0, 2): 1, (0, 0, 2): 1}, None, 3),
    ({(4, 0): 1, (0, 5): 1, (2, 2): 1}, None, 3),
    ({(3, 0): 1, (0, 4): 1, (1, 2): 1}, None, 7),
    ({(4, 0): 1, (0, 4): 1, (2, 1): 1}, None, 5),
    ({(2, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (0, 1, 1): 1}, None, 7),
]

# A_22: mu = 22, but the m^N truncation loop stops at n_max = 20 and the
# split reports "infinite" in both characteristics. Fixed, not seeded.
A22_FAULT = "A_22 has mu = 22 but local_dimension stops at n_max = 20 and reports infinite"


def _pad(terms: PolyDict, n: int) -> PolyDict:
    return {tuple(e) + (0,) * (n - len(e)): c for e, c in terms.items() if c}


def _milnor_job(terms: PolyDict, family, p: int, fault=None) -> Job:
    n = max(len(e) for e in terms)
    terms = _pad(terms, n)
    names = XYZ[:n]
    text = poly_text(terms, names)
    spec = {"terms": terms, "names": names, "p": p, "family": family}
    return Job("milnor", ("milnor", "--f", text, "--p", str(p), "--vars", ",".join(names)), spec, fault)


def milnor_jobs(rng: random.Random) -> List[Job]:
    jobs = []
    for terms, family, p in _MILNOR:
        if family is not None:
            terms = {e: rng.choice((1, -1)) * c for e, c in terms.items()}
        jobs.append(_milnor_job(terms, family, p))
    jobs.append(_milnor_job(_bp((23, 2)), ("A", 22), 5, A22_FAULT))
    rng.shuffle(jobs)
    return jobs


# -- enumerate ---------------------------------------------------------------


# Sizes are fixed per slot, so that every seed does the same amount of work
# and needs the same memory; the seed draws coefficients.
CURVE_PRIMES = (211, 401, 601, 809, 997, 1201)
ORBIT_SHAPES = [
    # (n, p, monomials per component, mode)
    (2, 101, [((2, 0), (0, 1)), ((1, 1), (0, 0))], "self-map"),
    (2, 139, [((1, 1), (0, 2)), ((2, 0), (1, 0))], "vector-field"),
    (2, 181, [((2, 0), (0, 1)), ((0, 2), (1, 0))], "self-map"),
    (2, 241, [((1, 1), (0, 2)), ((2, 0), (1, 0))], "vector-field"),
    (3, 23, [((1, 0, 1), (0, 2, 0)), ((2, 0, 0), (0, 0, 1)), ((0, 1, 1), (1, 0, 0))], "vector-field"),
    (3, 31, [((1, 1, 0), (0, 0, 1)), ((0, 2, 0), (1, 0, 0)), ((0, 0, 2), (1, 1, 0))], "self-map"),
]
INERTIA_ORDERS = (30, 120, 45, 140, 60, 160, 25, 180, 50, 130, 35, 150, 55, 170, 40, 199, 28, 110, 48)
INERTIA_PRIMES = (2, 3, 5, 7, 11, 13)
COLLATZ_K = (10, 11, 12, 13, 14, 15, 16)


def _curve_jobs(rng: random.Random) -> List[Job]:
    jobs = []
    for i, p in enumerate(CURVE_PRIMES):
        a = rng.randrange(1, p)
        # every third curve has b = 0, which is singular at the origin
        b = 0 if i % 3 == 1 else rng.randrange(1, p)
        jobs.append(Job("curve-count", ("curve-count", "--p", str(p), "--a", str(a), "--b", str(b)), {"p": p, "a": a, "b": b}))
    for _ in range(2):
        seed = rng.randrange(1 << 30)
        argv = ("curve-sweep", "--pmax", "101", "--samples", "2", "--seed", str(seed))
        jobs.append(Job("curve-sweep", argv, {"pmax": 101, "samples": 2}))
    return jobs


def _orbit_jobs(rng: random.Random) -> List[Job]:
    jobs = []
    for n, p, comp_monos, mode in ORBIT_SHAPES:
        names = XYZ[:n]
        comps = [{e: rng.randrange(1, p) for e in monos} for monos in comp_monos]
        h = rng.randrange(1, p) if mode == "vector-field" else 1
        system = "; ".join(poly_text(c, names) for c in comps)
        argv = ("orbits", "--p", str(p), "--system", system, "--mode", mode, "--h", str(h), "--vars", ",".join(names))
        jobs.append(Job("orbits", argv, {"p": p, "n": n, "comps": comps, "mode": mode, "h": h}))
    return jobs


def _inertia_jobs(rng: random.Random) -> List[Job]:
    """Operators sum_r c_r x^(s+r) d1^(t+r): each monomial goes to a multiple
    of one monomial, so kernels are counts of vanishing coefficients."""
    jobs = []
    for i, m in enumerate(INERTIA_ORDERS):
        p = INERTIA_PRIMES[i % len(INERTIA_PRIMES)]
        s, t, level = i % 3, 1 + i % 2, 1 + i % 3
        coeffs = [rng.randrange(1, p) for _ in range(1 + i % 3)]
        parts = []
        for r, c in enumerate(coeffs):
            xs = "" if s + r == 0 else ("x" if s + r == 1 else f"x^{s + r}")
            ds = "d1" if t + r == 1 else f"d1^{t + r}"
            parts.append("*".join(f for f in (str(c) if c != 1 else "", xs, ds) if f))
        op = " + ".join(parts)
        argv = ("inertia", "--p", str(p), "--module", f"x^{m}", "--op", op, "--level", str(level))
        jobs.append(Job("inertia", argv, {"p": p, "m": m, "s": s, "t": t, "coeffs": coeffs, "level": level}))
    return jobs


def enumerate_jobs(rng: random.Random) -> List[Job]:
    jobs = _curve_jobs(rng) + _orbit_jobs(rng) + _inertia_jobs(rng)
    for k in COLLATZ_K:
        jobs.append(Job("collatz-bijection", ("collatz-bijection", "--k", str(k)), {"k": k}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "milnor": milnor_jobs,
    "enumerate": enumerate_jobs,
    "enumerate-c": enumerate_jobs,
}


def job_list(workload: str, seed: int) -> List[Job]:
    return WORKLOADS[workload](random.Random(f"{workload.split('-')[0]}:{seed}"))
