"""The compiled kernels must agree with the pure-Python references exactly:
the graph kernel on tables of 32-bit words, where every lane must refuse a
successor outside the state range, the table kernel, which must refuse
malformed input and image indices past 2^32 before it writes, and the two
curve kernels, which must refuse a curve outside 2 <= p <= 0x10FFFF,
0 <= a, b < p before they allocate."""

import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from helpers import available_backends, random_poly
from wildcycles import backend, curves
from wildcycles import _kernels_py as pure
from wildcycles.fields import PrimeField, is_prime
from wildcycles.poly import grid_table

backends = available_backends()
compiled = backends.get("c")


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_graph_decompose_agrees():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randrange(1, 200)
        table = array("I", [rng.randrange(n) for _ in range(n)])
        assert compiled.functional_graph_decompose(table) == pure.functional_graph_decompose(table)


_CURVE_KERNELS = ("curve_affine_count", "curve_slice_counts")
# (args, error) that each compiled curve kernel refuses
_CURVE_REFUSALS = [
    ((0, 0, 0), ValueError),
    ((1, 0, 0), ValueError),
    ((0x110000, 1, 1), ValueError),
    ((5, -1, 1), ValueError),
    ((5, 5, 1), ValueError),
    ((5, 1, -1), ValueError),
    ((5, 1, 5), ValueError),
    ((1 << 64, 1, 1), ValueError),
    ((5.0, 1, 1), TypeError),
    ((5, 1), TypeError),
    ((5, 1, 1, 1), TypeError),
]


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_curve_kernels_agree():
    # every curve at every prime p < 60, then seeded ones up to p = 65537,
    # where the pure slice counts add up to the affine count in place of
    # the pure count's 2^32 pairs
    for p in filter(is_prime, range(60)):
        for a in range(1, p):
            for b in range(p):
                for name in _CURVE_KERNELS:
                    assert getattr(compiled, name)(p, a, b) == getattr(pure, name)(p, a, b), (name, p, a, b)
    rng = random.Random(163)
    for p in (997, 1201, 7681, 65537):
        a, b = rng.randrange(1, p), rng.randrange(p)
        l = pure.curve_slice_counts(p, a, b)
        assert compiled.curve_slice_counts(p, a, b) == l, (p, a, b)
        count = pure.curve_affine_count(p, a, b) if p < 10**4 else sum(l)
        assert compiled.curve_affine_count(p, a, b) == count, (p, a, b)


def test_curve_kernels_refuse_out_of_range_curves_on_every_lane():
    # the pure lane once counted a curve with a or b outside 0..p-1, which
    # the compiled one refuses
    for kernels in backends.values():
        for name in _CURVE_KERNELS:
            for args, error in _CURVE_REFUSALS:
                with pytest.raises(error):
                    getattr(kernels, name)(*args)


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_compiled_curve_kernels_refuse_out_of_range_curves():
    for name in _CURVE_KERNELS:
        for args, error in _CURVE_REFUSALS:
            with pytest.raises(error):
                getattr(compiled, name)(*args)
    # the largest p on both lanes, and the same single slice at p = 2
    assert compiled.curve_slice_counts(0x10FFFF, 1, 0) == pure.curve_slice_counts(0x10FFFF, 1, 0)
    assert compiled.curve_slice_counts(2, 1, 1) == [2, 0]


def test_curve_kernels_refuse_the_same_p_on_every_lane(monkeypatch):
    # p = 1114117 is a prime past sys.maxunicode, so a CurveSpec takes it
    # and only the kernels stand between it and a slice list; the O(p)
    # slices go first, so a missing refusal fails before the p^2 count
    for name, lane in backends.items():
        for p in (1, 0x110000, 1114117):
            for kernel in ("curve_slice_counts", "curve_affine_count"):
                with pytest.raises(ValueError, match=rf"^p = {p} is not in 2\.\.1114111$"):
                    getattr(lane, kernel)(p, 1, 0)
        monkeypatch.setattr(curves, "kernels", lane)
        with pytest.raises(ValueError):
            curves.slice_counts(curves.CurveSpec(1114117, 1, 0))
        with pytest.raises(ValueError):
            curves.slice_counts_with_multiplicity(curves.CurveSpec(1114117, 1, 0))
        assert lane.curve_slice_counts(2, 1, 1) == [2, 0], name


_DEBUG_HEAP_CHECK = """
import importlib.util, itertools, sys
from array import array
sys.path.insert(0, sys.argv[2])
sys.path.insert(0, sys.argv[3])
from wildcycles import _kernels_py as pure
from test_backends import _CURVE_KERNELS, _CURVE_REFUSALS
spec = importlib.util.spec_from_file_location("wildcycles._ckernels", sys.argv[1])
compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)
assert compiled.functional_graph_decompose(array("I", [0])) == ([[0]], 0)
for bad, error in (([0], TypeError), (array("i", [0]), TypeError), (array("Q", [0]), TypeError), (array("I", [0, 2]), IndexError)):
    try:
        compiled.functional_graph_decompose(bad)
    except error:
        pass
    else:
        raise AssertionError(bad)
for n in range(5):
    for nxt in itertools.product(range(n), repeat=n):
        table = array("I", nxt)
        assert compiled.functional_graph_decompose(table) == pure.functional_graph_decompose(table), nxt
for name in _CURVE_KERNELS:
    for args, error in _CURVE_REFUSALS:
        try:
            getattr(compiled, name)(*args)
        except error:
            pass
        else:
            raise AssertionError((name, args))
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(1, p):
            for b in range(p):
                assert getattr(compiled, name)(p, a, b) == getattr(pure, name)(p, a, b), (name, p, a, b)
    for p, a, b in ((997, 5, 0), (7681, 7680, 1234)):
        assert getattr(compiled, name)(p, a, b) == getattr(pure, name)(p, a, b), (name, p, a, b)
assert compiled.curve_slice_counts(0x10FFFF, 0x10FFFE, 3) == pure.curve_slice_counts(0x10FFFF, 0x10FFFE, 3)
"""


def run_check(script, extension, **env):
    """Runs one of the check scripts below in a fresh interpreter on the
    compiled extension at path `extension`, the pure lane selected."""
    here = Path(__file__).resolve().parent
    return subprocess.run(
        [sys.executable, "-c", script, str(extension), str(here.parent / "src"), str(here)],
        env={**os.environ, **env, "WILDCYCLES_BACKEND": "pure"},
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_graph_decompose_stays_in_its_buffer():
    # Python's debug allocator guards both ends of every block and aborts
    # on free when a write overran it; every map on up to 4 states runs, and
    # so do the refusals, and the curve kernels
    # on every curve at p <= 13, on a few up to the largest p, and on their
    # refusals.
    done = run_check(_DEBUG_HEAP_CHECK, compiled.__file__, PYTHONMALLOC="debug")
    assert done.returncode == 0, done.stderr[-2000:]


def test_graph_decompose_validity():
    # the cycles are disjoint, close under nxt, start at their least states
    # and come sorted by them; some state takes max_tail steps to reach a
    # periodic state and none takes more
    rng = random.Random(103)
    n = 500
    nxt = [rng.randrange(n) for _ in range(n)]
    for kernels in backends.values():
        cycles, max_tail = kernels.functional_graph_decompose(array("I", nxt))
        periodic = {s for c in cycles for s in c}
        assert len(periodic) == sum(map(len, cycles))
        for c in cycles:
            assert c[0] == min(c)
            assert [nxt[s] for s in c] == c[1:] + c[:1]
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        steps = []
        for s in range(n):
            k = 0
            while s not in periodic:
                s, k = nxt[s], k + 1
            steps.append(k)
        assert max(steps) == max_tail


def test_graph_decompose_rejects_out_of_range_successors():
    tables = [[5], [10**6], [3, 0], [2**32 - 1], [0, 2**32 - 1]]
    for kernels in backends.values():
        for nxt in tables:
            with pytest.raises(IndexError):
                kernels.functional_graph_decompose(array("I", nxt))


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_compiled_graph_decompose_reads_only_unsigned_word_arrays():
    two_d = memoryview(array("I", [0, 1])).cast("B").cast("I", [1, 2])
    for table in ([0], (0,), array("i", [0]), array("q", [0]), array("Q", [0]), array("H", [0]), bytes(4), two_d):
        with pytest.raises(TypeError):
            compiled.functional_graph_decompose(table)


def test_selected_backend_named():
    assert backend.BACKEND_NAME in ("pure", "c")


def random_terms(rng, p, n, m):
    """m components in n variables over F_p as the grid_image kernels take
    them, exponents not reduced: zero and constant components among them,
    and exponents at p, past it and at 10^12."""
    exps = [0, 1, 2, p - 1, p, p + 1, 2 * p, 10**12]
    comps = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.2:
            comps.append({})
        elif kind < 0.35:
            comps.append({(0,) * n: rng.randrange(1, p)})
        else:
            size = rng.randrange(1, 7)
            comps.append({tuple(rng.choice(exps) for _ in range(n)): rng.randrange(p) for _ in range(size)})
    return comps


def many_terms(rng, p, n, size):
    """One component of `size` distinct terms in n variables over F_p, with
    exponents below max(3p, 2 * size)."""
    bound = max(3 * p, 2 * size)
    keys = rng.sample(range(bound**n), size)
    return [{tuple(k // bound**i % bound for i in range(n)): rng.randrange(p) for k in keys}]


def barrett_tables(rng):
    """(terms, p, n) about the compiled table kernel's Barrett step: one
    variable on both sides of 2^16 and at 262139 < 2^18, each a sum of
    products that reaches 2 (p - 1)^2 at x = p - 1, plus a random constant;
    then one constant (n = 0) at 2^32 - 5, the largest prime whose indices
    fit a word."""
    cases = []
    for p in (65521, 65537, 262139):
        cases.append(([{(0,): rng.randrange(p), (1,): p - 1, (3,): p - 1}], p, 1))
    p = (1 << 32) - 5
    for c in (0, 1, p - 2, p - 1):
        cases.append(([{(): c}], p, 0))
    return cases


# (terms, p, n) whose image indices pass 2^32: two components at
# p = 65537 > 2^16, where an unchecked 32-bit write would drop the high
# bits, fourteen over F_5, and constants at primes past 2^32
PAST_32_BITS = [
    ([{(1,): 1}] * 2, 65537, 1),
    ([{(): 1}] * 2, 65537, 0),
    ([{(1,): 1}] * 14, 5, 1),
    ([{(): 1}], (1 << 32) + 15, 0),
    ([{(): (1 << 61) - 3}], (1 << 61) - 1, 0),
]


def filled(kernels, terms, p, n):
    """The table kernels.grid_image writes for terms, in 32-bit words as
    grid_table allocates them."""
    out = array("I", [0]) * p**n
    kernels.grid_image(terms, p, n, out)
    return out


def test_grid_image_refuses_indices_past_32_bits_on_every_lane():
    # every lane refuses with the same message before it writes; the pure
    # lane once wrote 131072 for x = 65536 in place of 65536 * 65538
    for terms, p, n in PAST_32_BITS:
        message = rf"^indices below {p}\^{len(terms)} do not fit 32-bit words$"
        for name, kernels in backends.items():
            out = array("I", [7]) * p**n
            with pytest.raises(ValueError, match=message):
                kernels.grid_image(terms, p, n, out)
            assert out == array("I", [7]) * p**n, (name, p, n)


def test_grid_image_refuses_an_out_of_the_wrong_length_on_every_lane():
    # the pure lane once left a short out unwritten past its end and filled
    # only the prefix of a long one
    for p, n in ((5, 1), (3, 2), (7, 0)):
        terms = [{(1,) * n: 1}] * n or [{(): 2}]
        for size in (0, p**n - 1, p**n + 1, 2 * p**n):
            for name, kernels in backends.items():
                out = array("I", [7]) * size
                with pytest.raises(ValueError, match=rf"^out must be a writable array of {p**n} words$"):
                    kernels.grid_image(terms, p, n, out)
                assert out == array("I", [7]) * size, (name, p, n, size)


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_grid_image_lanes_agree():
    """Both kernels write the same table, or both refuse it when the
    components outnumber the variables so far that the indices pass 2^32:
    from raw terms with exponents past p, from grid_table's reduced ones,
    past the blocks of x_0 (one term count above the block), past 2^16
    where a sum of products leaves 32 bits, and about the Barrett step of
    the compiled lane (barrett_tables)."""
    rng = random.Random(149)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 11, 101])
        n = rng.choice([0, 1, 2, 3]) if p < 20 else rng.choice([1, 2])
        m = rng.choice([0, 1, n, n + 1, 3 * n + 2])
        terms = random_terms(rng, p, n, m)
        if p**m > 1 << 32:
            for kernels in (compiled, pure):
                with pytest.raises(ValueError):
                    filled(kernels, terms, p, n)
            continue
        assert filled(compiled, terms, p, n) == filled(pure, terms, p, n), (p, n, terms)
    for p, n, size in ((331, 1, 100), (7, 1, 16385), (70001, 1, 3), (211, 2, 30)):
        terms = many_terms(rng, p, n, size)
        assert filled(compiled, terms, p, n) == filled(pure, terms, p, n), (p, n, size)
    for terms, p, n in barrett_tables(rng):
        assert filled(compiled, terms, p, n) == filled(pure, terms, p, n), (p, n, terms)
    for p, n in ((2, 3), (7, 2), (13, 2), (31, 1)):
        fs = [random_poly(rng, n, PrimeField(p), max_deg=3 * p, max_terms=6) for _ in range(n + 1)]
        assert grid_table(compiled, fs, p, n) == grid_table(pure, fs, p, n), (p, n)


_MALFORMED = [
    # (terms, p, n, out, error)
    (5, 5, 1, array("I", [0] * 5), TypeError),
    ([[((1,), 1)]], 5, 1, array("I", [0] * 5), TypeError),
    ([{1: 1}], 5, 1, array("I", [0] * 5), TypeError),
    ([{(1, 2): 1}], 5, 1, array("I", [0] * 5), ValueError),
    ([{(-1,): 1}], 5, 1, array("I", [0] * 5), ValueError),
    ([{(1 << 64,): 1}], 5, 1, array("I", [0] * 5), ValueError),
    ([{(1.0,): 1}], 5, 1, array("I", [0] * 5), TypeError),
    ([{(1,): 5}], 5, 1, array("I", [0] * 5), ValueError),
    ([{(1,): -1}], 5, 1, array("I", [0] * 5), ValueError),
    ([{(1,): "1"}], 5, 1, array("I", [0] * 5), TypeError),
    ([], 1, 1, array("I", [0]), ValueError),
    ([], -5, 1, array("I", [0] * 5), ValueError),
    ([], 5.0, 1, array("I", [0] * 5), TypeError),
    ([], 5, -1, array("I", [0] * 5), ValueError),
    ([], 5, 100, array("I", [0] * 5), ValueError),
    ([], 5, 1, array("I", [0] * 4), ValueError),
    ([], 5, 1, array("I", [0] * 6), ValueError),
    ([], 5, 1, array("i", [0] * 5), TypeError),
    ([], 5, 1, array("q", [0] * 5), TypeError),
    ([], 5, 1, bytes(20), TypeError),
    ([], 5, 1, [0] * 5, TypeError),
    ([], 5, 1, memoryview(array("I", [0] * 5)).toreadonly(), ValueError),
    ([], 5, 1, memoryview(array("I", [0] * 10))[::2], TypeError),
    ([], 5, 1, memoryview(array("I", [0] * 10)).cast("B").cast("I", [5, 2]), TypeError),
    ([{(1,): 1}] * 14, 5, 1, array("I", [0] * 5), ValueError),
    ([], 5, 1, array("Q", [0] * 5), TypeError),
]


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_compiled_grid_image_refuses_malformed_input():
    # each refusal comes before the first write
    for terms, p, n, out, error in _MALFORMED:
        before = bytes(out) if isinstance(out, (array, memoryview)) else None
        with pytest.raises(error):
            compiled.grid_image(terms, p, n, out)
        if before is not None:
            assert bytes(out) == before


_DEBUG_TABLE_CHECK = """
import importlib.util, random, sys
sys.path.insert(0, sys.argv[2])
sys.path.insert(0, sys.argv[3])
from wildcycles import _kernels_py as pure
from test_backends import _MALFORMED, PAST_32_BITS, barrett_tables, filled, many_terms, random_terms
spec = importlib.util.spec_from_file_location("wildcycles._ckernels", sys.argv[1])
compiled = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compiled)
for terms, p, n, out, error in _MALFORMED:
    try:
        compiled.grid_image(terms, p, n, out)
    except error:
        pass
    else:
        raise AssertionError((terms, p, n))
rng = random.Random(157)
for p in (2, 3, 5):
    for n in range(4):
        for m in range(4):
            for _ in range(3):
                terms = random_terms(rng, p, n, m)
                table = filled(compiled, terms, p, n)
                assert table == filled(pure, terms, p, n), (p, n, terms)
                if m == n:
                    assert compiled.functional_graph_decompose(table) == pure.functional_graph_decompose(table)
for p, n, size in ((331, 1, 100), (7, 1, 16385), (70001, 1, 3)):
    terms = many_terms(rng, p, n, size)
    assert filled(compiled, terms, p, n) == filled(pure, terms, p, n), (p, n, size)
for terms, p, n in PAST_32_BITS:
    try:
        filled(compiled, terms, p, n)
    except ValueError:
        pass
    else:
        raise AssertionError((p, n))
for terms, p, n in barrett_tables(rng):
    assert filled(compiled, terms, p, n) == filled(pure, terms, p, n), (p, n, terms)
"""


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_grid_image_stays_in_its_buffer():
    # under Python's debug allocator, which guards both ends of every block,
    # the table kernel writes tables of up to 3 variables and 3 components,
    # over several blocks of x_0, and goes through every refusal
    done = run_check(_DEBUG_TABLE_CHECK, compiled.__file__, PYTHONMALLOC="debug")
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.skipif(compiled is None, reason="compiled extension not built")
def test_kernels_do_nothing_undefined(ubsan_extension):
    # both check scripts again, on a build where the first overflow of a
    # signed type, over-wide shift or misaligned read aborts the process
    for script in (_DEBUG_HEAP_CHECK, _DEBUG_TABLE_CHECK):
        done = run_check(script, ubsan_extension)
        assert done.returncode == 0 and "runtime error" not in done.stderr, done.stderr[-2000:]
