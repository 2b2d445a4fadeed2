"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import random
import time

from helpers import membership_oracle, random_poly, s_poly
from wildcycles.cli import run as cli_run
from wildcycles.curves import CurveSpec, verify_identity
from wildcycles.dynsys import (
    SelfMap,
    collatz_all_reach_one,
    collatz_orbit,
    orbit_decomposition,
    parity_bijection_check,
)
from wildcycles.fields import QQ, PrimeField, is_prime
from wildcycles.groebner import (
    buchberger,
    milnor_number,
    normal_form,
    quotient_dimension,
)
from wildcycles.inertia import QuotientModule, annihilation_check
from wildcycles.poly import MPoly, poly_parse
from wildcycles.weyl import WeylOperator, is_d_stable


def report(num, label, ok, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"criterion {num:>2} [{status}] {label}: {elapsed:.2f}s (limit {limit}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_tame_wild_split(capsys):
    t0 = time.perf_counter()
    code = cli_run(["milnor", "--f", "y^3+x^2+x^3", "--p", "2"])
    out = capsys.readouterr().out
    payload = json.loads(out)["payload"]
    ok = (
        code == 0
        and payload["char_p_dimension"] == 4
        and payload["tame"] == 2
        and payload["wild"] == 2
    )
    with capsys.disabled():
        report(1, "tame/wild split of y^3+x^2+x^3 at p=2", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_inertia_worked_example(capsys):
    t0 = time.perf_counter()
    ok = True
    for p, expect_zero in ((7, False), (11, False), (2, True), (3, True)):
        M = QuotientModule(p, 4)
        D = WeylOperator.partial(1, M.field, 0)
        u = poly_parse("1+x+x^2+x^3", ["x"], M.field)
        value, zero = annihilation_check(D, 2, u, M)
        if zero != expect_zero:
            ok = False
        if not expect_zero and value != MPoly.constant(1, M.field, 6 % p):
            ok = False
    with capsys.disabled():
        report(2, "third derivative of 1+x+x^2+x^3 is 6 mod p", ok, time.perf_counter() - t0, 1.0)


def _sweep_specs(seed=42, pmax=101, samples=20):
    rng = random.Random(seed)
    for p in range(2, pmax + 1):
        if not is_prime(p):
            continue
        for _ in range(samples):
            a = rng.randrange(1, p) if p > 2 else 1
            b = rng.randrange(0, p)
            yield CurveSpec(p, a, b)


def test_criterion_3_and_4_curve_identity_and_hasse(capsys):
    t0 = time.perf_counter()
    reports = [verify_identity(spec) for spec in _sweep_specs()]
    n = len(reports)
    identity_ok = all(r.identity_holds for r in reports)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(3, f"slice-count identity on {n} seeded cases, p <= 101", identity_ok, elapsed, 10.0)
    t1 = time.perf_counter()
    hasse_ok = all(r.hasse_ok for r in reports if not r.singular)
    nonsing = sum(1 for r in reports if not r.singular)
    with capsys.disabled():
        report(4, f"Hasse bound on all {nonsing} nonsingular cases", hasse_ok,
               elapsed + (time.perf_counter() - t1), 10.0)


def test_criterion_5_groebner_property_suite(capsys):
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(5)
    F2, F3 = PrimeField(2), PrimeField(3)

    # S-polynomials of returned bases reduce to zero
    for dom in (F2, F3, QQ):
        for _ in range(10):
            gens = [g for g in (random_poly(rng, 2, dom) for _ in range(3)) if not g.is_zero()]
            if not gens:
                continue
            G = buchberger(gens)
            gl = list(G.generators)
            for i in range(len(gl)):
                for j in range(i + 1, len(gl)):
                    if not normal_form(s_poly(gl[i], gl[j], G.order), G).is_zero():
                        ok = False

    # normal-form idempotence on 500 random polynomials
    G = buchberger([poly_parse("x^2-y", ["x", "y"], QQ), poly_parse("y^2", ["x", "y"], QQ)])
    for _ in range(500):
        f = random_poly(rng, 2, QQ, max_deg=4)
        r = normal_form(f, G)
        if normal_form(r, G) != r:
            ok = False

    # quotient dimension of (x^2, y^2) over F_2
    G2 = buchberger([poly_parse("x^2", ["x", "y"], F2), poly_parse("y^2", ["x", "y"], F2)])
    if quotient_dimension(G2) != 4:
        ok = False

    # membership agreement with the cofactor oracle on >= 200 instances
    checked = 0
    while checked < 200:
        dom = F2 if checked % 2 == 0 else F3
        gens = [
            g
            for g in (random_poly(rng, 2, dom, max_deg=3) for _ in range(rng.randrange(1, 4)))
            if not g.is_zero()
        ]
        if not gens:
            continue
        Gm = buchberger(gens)
        f = random_poly(rng, 2, dom, max_deg=3)
        if normal_form(f, Gm).is_zero() != membership_oracle(f, gens):
            ok = False
        checked += 1

    with capsys.disabled():
        report(5, "Groebner property suite", ok, time.perf_counter() - t0, 30.0)


def test_criterion_6_weyl_algebra(capsys):
    from test_weyl import random_operator

    t0 = time.perf_counter()
    ok = True
    rng = random.Random(6)
    domains = [PrimeField(2), PrimeField(3), PrimeField(5), QQ]
    for i in range(500):
        dom = domains[i % 4]
        Pop = random_operator(rng, 2, dom)
        Qop = random_operator(rng, 2, dom)
        f = random_poly(rng, 2, dom, max_deg=3)
        if Pop.compose(Qop).apply(f) != Pop.apply(Qop.apply(f)):
            ok = False
    for p in (2, 3, 5, 7):
        fp = PrimeField(p)
        dp = WeylOperator.partial(1, fp, 0, p)
        for deg in range(51):
            if not dp.apply(MPoly.monomial(1, fp, (deg,))).is_zero():
                ok = False
    for p in (2, 3, 5, 7):
        fp = PrimeField(p)
        if not is_d_stable([MPoly.monomial(1, fp, (p,))]).stable:
            ok = False
    if is_d_stable([MPoly.monomial(1, QQ, (2,))]).stable:
        ok = False
    with capsys.disabled():
        report(6, "Weyl compose/apply + d-stability", ok, time.perf_counter() - t0, 10.0)


def test_criterion_7_dynamics(capsys):
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3, 5, 7, 11])
        n = rng.choice([1, 2])
        while p**n > 10**5:
            p = rng.choice([2, 3, 5, 7, 11])
        fp = PrimeField(p)
        F = SelfMap(p, n, tuple(random_poly(rng, n, fp, max_deg=3) for _ in range(n)))
        dec = orbit_decomposition(F)
        if len({s for c in dec.cycles for s in c}) != dec.periodic_count:
            ok = False
        for cyc in dec.cycles:
            for i, s in enumerate(cyc):
                if F(s) != cyc[(i + 1) % len(cyc)]:
                    ok = False
    fp7 = PrimeField(7)
    F7 = SelfMap(7, 1, (poly_parse("x^2", ["x"], fp7),))
    if orbit_decomposition(F7).periodic_count != 4:
        ok = False
    with capsys.disabled():
        report(7, "orbit decompositions partition + replay", ok, time.perf_counter() - t0, 20.0)


def test_criterion_8_collatz(capsys):
    t0 = time.perf_counter()
    ok = collatz_all_reach_one(10**5, 10**4) == 0
    # spot-check the kernel claim against the orbit engine
    for start in (1, 27, 97, 703, 99999):
        rec = collatz_orbit(start, "paper", budget=10**4)
        if rec.budget_exhausted or set(rec.cycle) != {1, 2, 4}:
            ok = False
    for k in range(1, 15):
        if not parity_bijection_check(k):
            ok = False
    with capsys.disabled():
        report(8, "Collatz sweep to 1e5 + parity bijection k <= 14", ok, time.perf_counter() - t0, 30.0)


def test_criterion_9_local_dimension_oracle(capsys):
    t0 = time.perf_counter()
    # hand enumeration: ideal (3x^2, -2y) locally = (x^2, y),
    # standard monomials {1, x}; ideal (2x, 2y, 2z) -> {1}
    f1 = poly_parse("x^3 - y^2", ["x", "y"], QQ)
    f2 = poly_parse("x^2 + y^2 + z^2", ["x", "y", "z"], QQ)
    ok = milnor_number(f1) == 2 and milnor_number(f2) == 1
    with capsys.disabled():
        report(9, "Milnor oracle x^3-y^2 -> 2, sum of squares -> 1", ok, time.perf_counter() - t0, 1.0)


def _payload_bytes(capsys, argv):
    code = cli_run(argv)
    out = capsys.readouterr().out
    assert code == 0
    payloads = []
    for line in out.strip().splitlines():
        env = json.loads(line)
        payloads.append(json.dumps(env["payload"], sort_keys=True, separators=(",", ":")))
    return "\n".join(payloads).encode()


def test_criterion_10_determinism(capsys):
    t0 = time.perf_counter()
    ok = True
    cases = [
        ["curve-sweep", "--pmax", "31", "--samples", "5", "--seed", "42"],
        ["groebner", "--gens", "x^2-y;y^2", "--order", "grevlex", "--seed", "42"],
        ["orbits", "--p", "5", "--system", "y^2+x^3+x; y-3", "--h", "1", "--seed", "42"],
    ]
    for argv in cases:
        if _payload_bytes(capsys, argv) != _payload_bytes(capsys, argv):
            ok = False
    with capsys.disabled():
        report(10, "byte-identical payloads on re-run (same seed)", ok, time.perf_counter() - t0, 30.0)
