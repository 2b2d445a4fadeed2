import math
import random

import pytest

from helpers import brute_periodic_count, decode, random_poly
from wildcycles.dynsys import (
    DynamicalSystem,
    SelfMap,
    _transition_table,
    as_self_map,
    collatz_all_reach_one,
    collatz_orbit,
    collatz_step,
    euler_discretize,
    orbit_decomposition,
    parity_bijection_check,
    parity_vector,
    periodic_point_count,
)
from wildcycles.errors import StateBudgetExceeded
from wildcycles.fields import PrimeField
from wildcycles.poly import MPoly, poly_parse


def system(p, texts, names=None, mode="vector-field"):
    fp = PrimeField(p)
    names = names or (["x"] if len(texts) == 1 else ["x", "y"])
    comps = tuple(poly_parse(t, names, fp) for t in texts)
    return DynamicalSystem(p=p, n=len(texts), components=comps, mode=mode)


def test_euler_zero_field_identity():
    F = euler_discretize(system(5, ["0"]), 1)
    dec = orbit_decomposition(F)
    assert dec.periodic_count == 5
    assert all(len(c) == 1 for c in dec.cycles)


def test_euler_translation_single_cycle():
    F = euler_discretize(system(5, ["1"]), 1)
    dec = orbit_decomposition(F)
    assert dec.cycle_lengths == [5]


def test_euler_x2_minus_x_gives_squaring():
    F = euler_discretize(system(5, ["x^2 - x"]), 1)
    for x in range(5):
        assert F((x,)) == ((x * x) % 5,)


def test_orbit_x_plus_1_mod_5():
    fp = PrimeField(5)
    F = SelfMap(5, 1, (poly_parse("x + 1", ["x"], fp),))
    dec = orbit_decomposition(F)
    assert dec.periodic_count == 5
    assert dec.cycle_lengths == [5]


def test_orbit_squaring_mod_7():
    # full enumeration oracle: 3->2, 5->4, 6->1; cycles {0}, {1}, {2,4}
    fp = PrimeField(7)
    F = SelfMap(7, 1, (poly_parse("x^2", ["x"], fp),))
    dec = orbit_decomposition(F)
    assert dec.periodic_count == 4
    assert sorted(dec.cycle_lengths) == [1, 1, 2]
    assert ((2,), (4,)) in dec.cycles


def test_orbit_squaring_mod_5():
    # 2->4->1->1 and 3->4; cycles {0}, {1}
    fp = PrimeField(5)
    F = SelfMap(5, 1, (poly_parse("x^2", ["x"], fp),))
    dec = orbit_decomposition(F)
    assert dec.periodic_count == 2
    assert dec.cycles == (((0,),), ((1,),))
    assert dec.tail_lengths[(2,)] == 2
    assert dec.tail_lengths[(4,)] == 1


def test_partition_property_random_maps():
    rng = random.Random(79)
    for _ in range(25):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([1, 2])
        fp = PrimeField(p)
        comps = tuple(random_poly(rng, n, fp, max_deg=3) for _ in range(n))
        F = SelfMap(p, n, comps)
        dec = orbit_decomposition(F)
        assert dec.periodic_count + len(dec.tail_lengths) == p**n
        assert sum(dec.cycle_lengths) == dec.periodic_count
        # replay every cycle
        for cyc in dec.cycles:
            for i, s in enumerate(cyc):
                assert F(s) == cyc[(i + 1) % len(cyc)]


def test_transition_table_matches_pointwise_evaluation():
    rng = random.Random(89)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([1, 2, 3])
        fp = PrimeField(p)
        comps = []
        for _ in range(n):
            kind = rng.choice(["zero", "constant", "random"])
            if kind == "zero":
                comps.append(MPoly.zero(n, fp))
            elif kind == "constant":
                comps.append(MPoly.constant(n, fp, rng.randrange(1, p)))
            else:
                # total degree up to 2p, so exponents >= p occur
                comps.append(random_poly(rng, n, fp, max_deg=2 * p, max_terms=5))
        F = SelfMap(p, n, tuple(comps))
        nxt = _transition_table(F)
        assert len(nxt) == p**n
        for idx in range(p**n):
            image = F(decode(idx, p, n))
            assert nxt[idx] == sum(v * p**k for k, v in enumerate(image))


def test_periodic_count_matches_brute_force():
    rng = random.Random(83)
    for _ in range(10):
        p = rng.choice([3, 5])
        fp = PrimeField(p)
        comps = (random_poly(rng, 2, fp, max_deg=2), random_poly(rng, 2, fp, max_deg=2))
        F = SelfMap(p, 2, comps)
        assert orbit_decomposition(F).periodic_count == brute_periodic_count(F, p, 2)


def test_periodic_points_fixed_by_lcm_power():
    fp = PrimeField(7)
    F = SelfMap(7, 1, (poly_parse("x^2 + 1", ["x"], fp),))
    dec = orbit_decomposition(F)
    L = math.lcm(*dec.cycle_lengths) if dec.cycle_lengths else 1
    periodic = {s for c in dec.cycles for s in c}
    for x in range(7):
        s = (x,)
        t = s
        for _ in range(L):
            t = F(t)
        # after walking into the cycle, F^L fixes exactly the periodic states
        assert (t == s) == (s in periodic)


def test_cubic_vector_field_golden():
    # dx/ds = y^2 + x^3 + x, dy/ds = y - 3 over F_5, h = 1.
    # golden frozen from the brute-force oracle below
    sys_ = system(5, ["y^2 + x^3 + x", "y - 3"], ["x", "y"])
    count = periodic_point_count(sys_, h=1)
    F = euler_discretize(sys_, 1)
    assert count == brute_periodic_count(F, 5, 2)
    assert count == 10


def test_periodic_count_zero_field():
    assert periodic_point_count(system(3, ["0", "0"], ["x", "y"])) == 9


def test_periodic_count_negation():
    # g(x) = -x: F(x) = x - x = 0, only 0 is periodic
    assert periodic_point_count(system(5, ["-x"])) == 1


def test_budget_exceeded():
    F = euler_discretize(system(7, ["x", "y"], ["x", "y"]), 1)
    with pytest.raises(StateBudgetExceeded):
        orbit_decomposition(F, budget=10)


def test_collatz_start_1():
    rec = collatz_orbit(1, "paper")
    assert rec.cycle == (1, 4, 2)
    assert not rec.budget_exhausted


def test_collatz_start_0():
    rec = collatz_orbit(0, "paper")
    assert rec.cycle == (0,)


def test_collatz_start_6():
    rec = collatz_orbit(6, "paper")
    assert rec.steps_to_cycle == 6  # 6,3,10,5,16,8 then 4,2,1
    assert set(rec.cycle) == {1, 2, 4}


def test_collatz_cycle_replay():
    for start in (7, 27, 97):
        rec = collatz_orbit(start, "paper")
        x = rec.cycle[0]
        for _ in rec.cycle:
            x = collatz_step(x, "paper")
        assert x == rec.cycle[0]


def test_collatz_accelerated():
    rec = collatz_orbit(7, "accelerated")
    assert set(rec.cycle) == {1, 2}
    assert not rec.budget_exhausted


def test_collatz_budget_exhaustion_recorded():
    rec = collatz_orbit(27, "paper", budget=5)
    assert rec.budget_exhausted
    assert rec.cycle == ()


def test_collatz_sweep_kernel_small():
    assert collatz_all_reach_one(10_000, 10_000) == 0


def test_parity_bijection_small():
    assert parity_bijection_check(1)
    assert parity_bijection_check(2)
    # hand oracle for k = 2: 0 -> (0,0), 1 -> (1,0), 2 -> (0,1), 3 -> (1,1)
    vecs = {r: parity_vector(r, 2) for r in range(4)}
    assert len(set(vecs.values())) == 4


def test_parity_bijection_projection_consistency():
    for k in range(2, 9):
        assert parity_bijection_check(k)
        assert parity_bijection_check(k - 1)
