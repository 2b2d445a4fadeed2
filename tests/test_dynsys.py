import math
import random
import tracemalloc
from array import array

import pytest

from helpers import (
    available_backends,
    brute_periodic_count,
    decode,
    encode,
    lane_switch_primes,
    orbit_report_oracle,
    packed_parity_vectors,
    parity_vector,
    parity_vectors_oracle,
    random_poly,
    tail_distance_oracle,
)
from wildcycles import dynsys
from wildcycles.dynsys import (
    DynamicalSystem,
    SelfMap,
    _lane_width,
    _level_splits,
    collatz_all_reach_one,
    collatz_orbit,
    collatz_step,
    euler_discretize,
    orbit_decomposition,
    parity_bijection_check,
    periodic_point_count,
)
from wildcycles.errors import DomainMismatch, StateBudgetExceeded
from wildcycles.fields import PrimeField
from wildcycles.poly import MPoly, grid_table, poly_parse


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
    assert dec.max_tail_length == 2
    assert dec.to_json()["tail_state_count"] == 3


def test_maps_refuse_components_off_their_ring():
    # one component for a map F_5^2 -> F_5^2 once read as five 1-cycles, and
    # two components in one variable once reached the graph kernel as
    # indices past the state range
    F5, F7 = PrimeField(5), PrimeField(7)
    xy = poly_parse("x + y", ["x", "y"], F5)
    x = poly_parse("x", ["x"], F5)
    shapes = [
        (2, (xy,), "component count differs from n"),
        (1, (x, x), "component count differs from n"),
        (1, (xy,), "component over the wrong ring"),
        (2, (xy, poly_parse("x", ["x", "y"], F7)), "component over the wrong ring"),
    ]
    for n, comps, message in shapes:
        with pytest.raises(DomainMismatch, match=message):
            SelfMap(5, n, comps)
        for mode in ("vector-field", "self-map"):
            with pytest.raises(DomainMismatch, match=message):
                DynamicalSystem(p=5, n=n, components=comps, mode=mode)


def test_partition_property_random_maps():
    rng = random.Random(79)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        n = rng.choice([1, 2, 3])
        fp = PrimeField(p)
        comps = tuple(random_poly(rng, n, fp, max_deg=3) for _ in range(n))
        F = SelfMap(p, n, comps)
        dec = orbit_decomposition(F)
        assert len({s for c in dec.cycles for s in c}) == dec.periodic_count
        # replay every cycle
        for cyc in dec.cycles:
            for i, s in enumerate(cyc):
                assert F(s) == cyc[(i + 1) % len(cyc)]
        # the report against iteration of the pointwise map
        nxt = [encode(F(decode(i, p, n)), p) for i in range(p**n)]
        on_cycle, dist = tail_distance_oracle(nxt)
        report = dec.to_json()
        assert report["periodic_count"] == on_cycle.count(True)
        assert report["tail_state_count"] == on_cycle.count(False)
        assert report["max_tail_length"] == dec.max_tail_length == max(dist)
        cycles, _ = orbit_report_oracle(nxt)
        assert dec.cycles == tuple(tuple(decode(k, p, n) for k in c) for c in cycles)


def test_graph_kernel_matches_tail_distance_oracle():
    rng = random.Random(107)
    maps = [[rng.randrange(n) for _ in range(n)] for n in (1, 2, 3, 17, 64, 200, 343) for _ in range(4)]
    maps += [
        [],  # the empty map
        list(range(125)),  # all fixed points
        [(i + 1) % 5**3 for i in range(5**3)],  # one p^n-cycle
        [min(i + 1, 999) for i in range(1000)],  # a chain into a self-loop
    ]
    expected = [orbit_report_oracle(nxt) for nxt in maps]
    n = 10**5
    for name, lane in available_backends().items():
        for nxt, report in zip(maps, expected):
            assert lane.functional_graph_decompose(array("I", nxt)) == report, name
        # 10^5 states in one chain: too long for the quadratic oracle, so
        # checked against its closed form, as is the empty table
        chain = array("I", [min(i + 1, n - 1) for i in range(n)])
        assert lane.functional_graph_decompose(chain) == ([[n - 1]], n - 1), name
        assert lane.functional_graph_decompose(array("I")) == ([], 0), name


@pytest.mark.skipif("c" not in available_backends(), reason="compiled extension not built")
def test_orbit_decomposition_memory_on_the_compiled_lane(monkeypatch):
    """On the compiled lane the 1009^2 = 1,018,081 states of a quadratic map
    take the table, one 32-bit word a state, and the walk's distances and
    path, two Py_ssize_t a state: five tables in all. The traced peak may
    reach six, a table's room for the terms and the decoded periodic
    states; packed lanes for the table, or the walk's old copy of the
    successors, would pass it."""
    monkeypatch.setattr(dynsys, "kernels", available_backends()["c"])
    p = 1009
    fp = PrimeField(p)
    F = SelfMap(p, 2, tuple(poly_parse(t, ["x", "y"], fp) for t in ("7*x*y + 15*y", "18*x^2 + 4*y")))
    tracemalloc.start()
    try:
        report = orbit_decomposition(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < report.periodic_count < p**2
    assert peak <= 6 * 4 * p**2, peak / (4 * p**2)


def test_transition_table_memory_on_the_pure_lane():
    """The pure grid_image writes the table one block of p^(n-1) states at a
    time, so beside the array it holds only packed ints and lists of one
    block: at 1009^2 and 101^3, about 10^6 states each, the traced peak of
    grid_table stays within three arrays (it reads about 1.1 and 1.2).
    Packed lanes over every state at once pass the bound: a whole-table
    build peaked at 8.5 and 8.6 arrays."""
    pure = available_backends()["pure"]
    for p, names, texts in (
        (1009, ["x", "y"], ("7*x*y + 15*y", "18*x^2 + 4*y")),
        (101, ["x", "y", "z"], ("7*x*y + 15*z", "18*y^2 + 4*x", "3*z^2 + 5*x*y")),
    ):
        fp = PrimeField(p)
        fs = [poly_parse(t, names, fp) for t in texts]
        tracemalloc.start()
        try:
            table = grid_table(pure, fs, p, len(names))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = table.itemsize * len(table)
        assert peak <= 3 * size, (p, peak / size)


def components_with_terms(rng, p, n, terms, degree):
    """A first component of exactly `terms` terms, one of them x_0^degree,
    followed by a zero and a constant component, in turn."""
    fp = PrimeField(p)
    exps = {(degree,) + (0,) * (n - 1)}
    while len(exps) < terms:
        exps.add(tuple(rng.randrange(2 * p + 1) for _ in range(n)))
    comps = [MPoly(n, fp, {e: rng.randrange(1, p) for e in exps})]
    for i in range(1, n):
        comps.append(MPoly.constant(n, fp, rng.randrange(1, p)) if i % 2 == 0 else MPoly.zero(n, fp))
    return tuple(comps)


def test_transition_table_matches_pointwise_evaluation():
    """Random maps of F_p^n for p <= 7; then primes on both sides of every
    switch of grid_image's lane width under the default state budget:
    one-term maps of F_p (32 -> 64 -> 96 bits, the last at p = 2097143 /
    2097169), three-term maps of F_p^2 and 200-term maps of F_p^3, each with
    an exponent past p and with zero and constant components beside the
    first. Tables of more than 5000 states are checked at a
    seeded sample. Every lane writes each table."""
    for lane, kernels in available_backends().items():
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
            nxt = grid_table(kernels, F.components, p, n)
            assert len(nxt) == p**n
            for idx in range(p**n):
                image = F(decode(idx, p, n))
                assert nxt[idx] == encode(image, p)
        rng = random.Random(127)
        checked = 0
        for n, terms in ((1, 1), (2, 3), (3, 200)):
            for pair in lane_switch_primes(terms, n, dynsys.DEFAULT_STATE_BUDGET):
                for p in pair:
                    F = SelfMap(p, n, components_with_terms(rng, p, n, terms, p + 3))
                    nxt = grid_table(kernels, F.components, p, n)
                    total = p**n
                    assert len(nxt) == total
                    sample = range(total) if total <= 5000 else [0, total - 1] + rng.sample(range(total), 300)
                    for idx in sample:
                        assert nxt[idx] == encode(F(decode(idx, p, n)), p), (lane, p, n, idx)
                    checked += 1
        assert checked == 8


def test_exponents_past_p_give_the_table_of_their_reduction():
    """x^e and x^((e - 1) mod (p - 1) + 1) agree on F_p for e >= 1, so their
    tables do; and tables with exponents far past p, up to past 2^64,
    match pointwise, on every lane."""
    for lane, kernels in available_backends().items():
        p = 100003
        fp = PrimeField(p)
        big, small = (SelfMap(p, 1, (poly_parse(t, ["x"], fp),)) for t in (f"5*x^{p + 3}", "5*x^4"))
        assert grid_table(kernels, big.components, p, 1) == grid_table(kernels, small.components, p, 1)
        for p in (2, 3, 5, 7):
            fp = PrimeField(p)
            for e in (p - 1, p, p + 1, 2 * p - 1, 2 * p, 10**12, 10**12 + 1, 10**30):
                # x^p and x meet, and their coefficients add past p
                texts = (
                    f"3*x^{e} + y^{e + 1} + x^{e}*y^{e + 2}",
                    f"y^{e} + 2*x^{p}*y^{e + 1} + {p - 1}*x^{p} + {p - 1}*x + 1",
                )
                F = SelfMap(p, 2, tuple(poly_parse(t, ["x", "y"], fp) for t in texts))
                nxt = grid_table(kernels, F.components, p, 2)
                assert nxt.tolist() == [encode(F(decode(idx, p, 2)), p) for idx in range(p * p)], (lane, p, e)


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


def test_euler_step_zero_mod_p_rejected():
    for h in (0, 5, -10):
        with pytest.raises(ValueError, match="identity"):
            euler_discretize(system(5, ["x"]), h)


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


def test_collatz_cycle_replay_failure_raises(monkeypatch):
    # 0 -> 1 -> 2 -> 1 closes the cycle (1, 2); the replay then sees 1 -> 0
    images = iter([1, 2, 1, 0, 0])
    monkeypatch.setattr(dynsys, "collatz_step", lambda x, variant: next(images))
    with pytest.raises(RuntimeError, match="replay"):
        collatz_orbit(0)


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

    def steps_to_one(x):
        k = 0
        while x != 1:
            x = collatz_step(x)
            k += 1
        return k

    # a tight budget counts the whole orbit to 1, not the steps to a value
    # the sweep has already met: 7 needs 16 steps but meets 10 after 10
    for limit, budget in ((100, 10), (10_000, 200)):
        first = next(s for s in range(1, limit + 1) if steps_to_one(s) > budget)
        assert collatz_all_reach_one(limit, budget) == first


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


def test_parity_vectors_match_stepwise_parity_vector():
    for k in range(13):
        vecs = packed_parity_vectors(k)
        assert len(vecs) == 1 << k
        for r in range(1 << k):
            assert vecs[r] == sum(b << j for j, b in enumerate(parity_vector(r, k)))


def test_packed_parity_vectors_match_three_list_oracle():
    for k in range(19):
        assert packed_parity_vectors(k) == parity_vectors_oracle(k), k


def test_parity_lanes_narrow_with_their_values():
    """Level j of the lift to depth k keeps values below 2^(k-j), so its
    lanes take the least of 8, 16 and 32 bits that holds k - j + 3 bits:
    at k = 20, 32 bits for levels 0..6, 16 for 7..14 and 8 for 15..19.
    Each level's parity int sets only bit 0 of its 2^(j+1) lanes of that
    width."""
    assert [_lane_width(20, j) for j in range(20)] == [32] * 7 + [16] * 8 + [8] * 5
    for k in (0, 1, 5, 6, 13, 14, 24):
        widths = [_lane_width(k, j) for j in range(k)]
        assert all(k - j + 3 <= w and (w == 8 or k - j + 3 > w // 2) for j, w in enumerate(widths)), k
    for k in (6, 14, 18):
        for j, odd in enumerate(dynsys._parity_levels(k)):
            size = _lane_width(k, j) // 8
            ones = int.from_bytes((b"\x01" + bytes(size - 1)) * (2 << j), "little")
            assert odd & ones == odd, (k, j)


def test_parity_lift_memory_at_k_20():
    """At k = 20 the top levels' lanes are 8 bits wide, so each int of a
    level is at most 1 MiB: the traced peak stays within 12 of them (it
    read 7.3 MB; lanes of 32 bits at every level peaked at 31.3 MB)."""
    tracemalloc.start()
    try:
        assert parity_bijection_check(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20, peak / (1 << 20)


def test_parity_bijection_check_matches_distinct_oracle_vectors():
    for k in range(17):
        assert parity_bijection_check(k) == (len(set(parity_vectors_oracle(k))) == 1 << k), k


def lanes(width, odd_lanes):
    """A hand-built parity int: bit 0 set in each listed lane."""
    return sum(1 << (width * r) for r in odd_lanes)


def test_level_split_fails_when_one_pair_agrees():
    # level j = 2 holds lanes 0..7; lanes q and q + 4 must differ in bit 0
    for width in (8, 16, 32):
        good = lanes(width, (0, 2, 5, 7))
        assert _level_splits(good, 2, width)
        for q in range(4):
            for agree in (lanes(width, {0, 2, 5, 7} | {q, q + 4}), lanes(width, {0, 2, 5, 7} - {q, q + 4})):
                assert not _level_splits(agree, 2, width), (width, q, agree)


def test_parity_bijection_check_stops_at_the_first_level_that_fails(monkeypatch):
    # at k = 14 level 0 has 32-bit lanes and levels 1 and 2 16-bit ones;
    # level 0 splits lanes (0, 1); at level 1 lanes 0 and 2 are both even
    width = [_lane_width(14, j) for j in range(3)]
    assert width == [32, 16, 16]
    fake = [lanes(width[0], (1,)), lanes(width[1], (1, 3)), lanes(width[2], (1, 2, 4, 7))]
    seen = []

    def fake_levels(k):
        for odd in fake:
            seen.append(odd)
            yield odd

    monkeypatch.setattr(dynsys, "_parity_levels", fake_levels)
    assert not parity_bijection_check(14)
    assert seen == fake[:2]
    # levels read at level 0's width would not stop at level 1
    assert _level_splits(fake[1], 1, width[0])


def test_parity_bijection_range_guard():
    assert parity_bijection_check(0)
    for k in (-1, 25):
        with pytest.raises(ValueError):
            parity_bijection_check(k)
