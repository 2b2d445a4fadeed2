"""Checks of CLI output against computations made apart from the program.

Nothing here imports wildcycles. Milnor numbers come from closed forms or
from sympy, curve counts from Euler's criterion,
orbits from iterating images under this file's own evaluation of the map,
and inertia kernels from counting vanishing coefficients. Each check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import sympy

INF = "infinite"


def _payload(out: str) -> dict:
    return json.loads(out)["payload"]


# -- milnor ----------------------------------------------------------------


def _closed_form(family, nvars: int, p: int):
    """(mu_0, mu_p) for the ADE and Brieskorn-Pham families.

    mu_p is infinite exactly when some partial derivative vanishes mod p in a
    way that leaves a curve of critical points through the origin; otherwise
    the coefficients stay units and weighted homogeneity gives mu_p = mu_0.
    """
    kind, k = family
    if kind == "bp":
        mu0 = math.prod(a - 1 for a in k)
        return mu0, INF if any(a % p == 0 for a in k) else mu0
    # ADE in two variables, plus z^2 in three: p = 2 kills d(z^2) and d(y^2)
    if kind == "A":
        return k, INF if p == 2 or (k + 1) % p == 0 else k
    if kind == "D":  # x^2*y + y^(k-1)
        return k, INF if p == 2 or (k - 1) % p == 0 else k
    if kind == "E":
        bad = {6: (2, 3), 7: (3,), 8: (3, 5)}[k]
        if nvars == 3:
            bad = bad + (2,)
        return k, INF if p in bad else k
    raise ValueError(f"unknown family {family!r}")


def _opts(p: int) -> dict:
    return {"modulus": p} if p else {"domain": "QQ"}


def _leading_exponents(G, gens, order: str, p: int) -> List[Tuple[int, ...]]:
    return [sympy.Poly(g, *gens, **_opts(p)).monoms(order=order)[0] for g in G.exprs]


def _standard_monomials(leads, nvars: int) -> Optional[List[Tuple[int, ...]]]:
    """Monomials outside the leading-term ideal, or None if infinitely many."""
    if any(sum(e) == 0 for e in leads):
        return []
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leads if all(e[j] == 0 for j in range(nvars) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return [
        e
        for e in itertools.product(*(range(b) for b in bounds))
        if not any(all(a <= b for a, b in zip(le, e)) for le in leads)
    ]


def _quotient_dim(polys, gens, p: int) -> Optional[int]:
    G = sympy.groebner(polys, *gens, order="grevlex", **_opts(p))
    sm = _standard_monomials(_leading_exponents(G, gens, "grevlex", p), len(gens))
    return None if sm is None else len(sm)


def _critical_axis(J, gens, p: int) -> bool:
    """Some coordinate axis on which every partial derivative vanishes."""
    for i in range(len(gens)):
        sub = {g: 0 for j, g in enumerate(gens) if j != i}
        if all(sympy.Poly(q.subs(sub), *gens, **_opts(p)).is_zero for q in J):
            return True
    return False


@lru_cache(maxsize=None)
def _sympy_mu(terms_key, nvars: int, p: int):
    """Local Milnor number at the origin in characteristic p (0 for Q).

    If the global quotient k[x]/J has finite dimension d, then mu <= d and
    dim k[x]/(J + m^d) is mu. If it is infinite, mu is infinite when a
    coordinate axis is critical; any other case is left undecided.
    """
    gens = sympy.symbols(f"v0:{nvars}")
    f = sum(c * sympy.Mul(*(g**k for g, k in zip(gens, e))) for e, c in terms_key)
    J = [sympy.diff(f, g) for g in gens]
    J = [q for q in J if not sympy.Poly(q, *gens, **_opts(p)).is_zero]
    if not J:
        return INF
    d = _quotient_dim(J, gens, p)
    if d is None:
        if _critical_axis(J, gens, p):
            return INF
        raise ValueError("oracle cannot decide the local Milnor number")
    if d == 0:
        return 0
    trunc = [sympy.Mul(*(g**k for g, k in zip(gens, e))) for e in itertools.product(range(d + 1), repeat=nvars) if sum(e) == d]
    return _quotient_dim(J + trunc, gens, p)


def expected_milnor(spec: dict):
    nvars, p = len(spec["names"]), spec["p"]
    if spec["family"] is not None:
        return _closed_form(spec["family"], nvars, p)
    key = tuple(sorted(spec["terms"].items()))
    return _sympy_mu(key, nvars, 0), _sympy_mu(key, nvars, p)


def check_milnor(spec: dict, out: str) -> Optional[str]:
    pay = _payload(out)
    mu0, mup = expected_milnor(spec)
    got = (pay["char_0_dimension"], pay["char_p_dimension"])
    if got != (mu0, mup):
        return f"(mu_0, mu_p) = {got}, expected {(mu0, mup)}"
    wild = INF if mup == INF else mup - mu0
    if (pay["tame"], pay["wild"]) != (mu0, wild):
        return f"(tame, wild) = {(pay['tame'], pay['wild'])}, expected {(mu0, wild)}"
    return None


# -- curves ------------------------------------------------------------------


def expected_curve(p: int, a: int, b: int) -> dict:
    """Point count by Euler's criterion (every element is a square in F_2);
    slice counts from one histogram."""
    a, b = a % p, b % p
    half = (p - 1) // 2
    hist = [0] * p
    hist_mult = [0] * p
    count = 1  # the point at infinity
    singular = False
    for x in range(p):
        v = (a * x * x * x + b * x) % p
        # y^2 = -v has 1 + legendre(-v) solutions
        w = (-v) % p
        count += 1 if w == 0 or p == 2 else (2 if pow(w, half, p) == 1 else 0)
        # multiplicity of x as a root of a X^3 + b X + c with c = -v, from the
        # Hasse derivatives 3aX^2 + b and 3aX (a itself is nonzero)
        d1 = (3 * a * x * x + b) % p == 0
        mult = 1 + d1 + (d1 and (3 * a * x) % p == 0)
        hist[v] += 1
        hist_mult[v] += mult
        # a singular point needs 2y = 0: y = 0 for odd p, any y over F_2
        singular |= d1 and (v == 0 or p == 2)
    l = [hist[(-i * i) % p] for i in range(p)]
    l_mult = [hist_mult[(-i * i) % p] for i in range(p)]
    hasse = None if singular else abs(count - (p + 1)) <= 2 * math.isqrt(p) + 1
    return {
        "p": p,
        "a": a,
        "b": b,
        "l": l,
        "slice_sum_plus_one": count,
        "naive_count": count,
        "identity_holds": True,
        "singular": singular,
        "hasse_ok": hasse,
        "l_with_multiplicity": l_mult,
    }


def _check_curve_payload(pay: dict, p: int, a: int, b: int) -> Optional[str]:
    want = expected_curve(p, a, b)
    for k, v in want.items():
        if pay.get(k) != v:
            return f"curve p={p} a={a} b={b}: {k} = {str(pay.get(k))[:40]}, expected {str(v)[:40]}"
    return None


def check_curve_count(spec: dict, out: str) -> Optional[str]:
    return _check_curve_payload(_payload(out), spec["p"], spec["a"], spec["b"])


def check_curve_sweep(spec: dict, out: str) -> Optional[str]:
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    primes = [n for n in range(2, spec["pmax"] + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    got = [env["payload"]["p"] for env in lines]
    if got != [q for q in primes for _ in range(spec["samples"])]:
        return "sweep did not visit each prime samples times in order"
    for env in lines:
        pay = env["payload"]
        if not 0 < pay["a"] < pay["p"]:
            return f"sweep drew a = {pay['a']} outside 1..p-1"
        bad = _check_curve_payload(pay, pay["p"], pay["a"], pay["b"])
        if bad:
            return bad
    return None


# -- orbits ------------------------------------------------------------------


def _eval(terms: Dict[Tuple[int, ...], int], point: Sequence[int], p: int) -> int:
    return sum(c * math.prod(pow(v, k, p) for v, k in zip(point, e)) for e, c in terms.items()) % p


def check_orbits(spec: dict, out: str) -> Optional[str]:
    pay = _payload(out)
    p, n, h = spec["p"], spec["n"], spec["h"]
    states = list(itertools.product(range(p), repeat=n))
    if spec["mode"] == "vector-field":
        image = {s: tuple((s[i] + h * _eval(c, s, p)) % p for i, c in enumerate(spec["comps"])) for s in states}
    else:
        image = {s: tuple(_eval(c, s, p) for c in spec["comps"]) for s in states}
    # the images of the whole space shrink to the union of the cycles; the
    # number of shrinking steps is the longest tail
    current = set(states)
    steps = 0
    while True:
        nxt = {image[s] for s in current}
        if nxt == current:
            break
        current = nxt
        steps += 1
    cycles = [[tuple(s) for s in c] for c in pay["cycles"]]
    on_cycles = [s for c in cycles for s in c]
    if pay["periodic_count"] != len(current) or set(on_cycles) != current or len(on_cycles) != len(current):
        return f"periodic set of size {pay['periodic_count']}, expected {len(current)}"
    if sum(pay["cycle_lengths"]) != pay["periodic_count"] or pay["cycle_lengths"] != [len(c) for c in cycles]:
        return "cycle lengths do not sum to periodic_count"
    for c in cycles:
        if any(image[c[i]] != c[(i + 1) % len(c)] for i in range(len(c))):
            return "a reported cycle is not a cycle of the map"
    if pay["tail_state_count"] != p**n - len(current) or pay["max_tail_length"] != steps:
        return "tail statistics differ"
    return None


# -- inertia and collatz -------------------------------------------------------


def check_inertia(spec: dict, out: str) -> Optional[str]:
    """D = sum_r c_r x^(s+r) d^(t+r) composed with d^k sends x^j to
    (sum_r c_r * j!/(j-t-r-k)!) x^(j+s-t-k), so x^j is in the kernel exactly
    when that coefficient is 0 mod p or the image degree reaches m."""
    pay = _payload(out)
    p, m, s, t = spec["p"], spec["m"], spec["s"], spec["t"]
    per_k = []
    for k in range(spec["level"] + 1):
        dim = 0
        for j in range(m):
            coeff = sum(c * math.perm(j, t + r + k) for r, c in enumerate(spec["coeffs"])) % p
            dim += coeff == 0 or j + s - t - k >= m
        # x^0 always lies in the kernel (t >= 1), so dim 1 means constants only
        per_k.append({"k": k, "kernel_dimension": dim, "kernel_equals_constants": dim == 1})
    if pay["per_k"] != per_k:
        return "kernel dimensions differ"
    if pay["member"] != all(e["kernel_equals_constants"] for e in per_k):
        return "membership differs"
    if pay["module_dimension"] != m or pay["p"] != p or pay["level"] != spec["level"]:
        return "module echo differs"
    return None


def check_collatz_bijection(spec: dict, out: str) -> Optional[str]:
    # residues mod 2^k and parity vectors of length k are in bijection for every k
    pay = _payload(out)
    return None if pay == {"k": spec["k"], "bijection": True} else f"bijection payload {pay}"


CHECKS = {
    "milnor": check_milnor,
    "curve-count": check_curve_count,
    "curve-sweep": check_curve_sweep,
    "orbits": check_orbits,
    "inertia": check_inertia,
    "collatz-bijection": check_collatz_bijection,
}


def check(job, out: str) -> Optional[str]:
    return CHECKS[job.kind](job.spec, out)
