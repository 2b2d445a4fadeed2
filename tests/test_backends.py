"""The compiled kernels must agree with the pure-Python reference exactly."""

import random

import pytest

from helpers import available_backends
from wildcycles import backend
from wildcycles import _kernels_py as pure

backends = available_backends()
compiled = backends.get("c")

pytestmark = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built"
)


def test_curve_kernels_agree():
    rng = random.Random(97)
    for p in (2, 3, 5, 7, 11, 13, 31, 97, 211, 1201):
        for _ in range(5):
            a = rng.randrange(1, p) if p > 2 else 1
            b = rng.randrange(0, p)
            assert compiled.curve_affine_count(p, a, b) == pure.curve_affine_count(p, a, b)
            assert list(compiled.curve_slice_counts(p, a, b)) == pure.curve_slice_counts(p, a, b)
            assert bool(compiled.curve_is_singular(p, a, b)) == pure.curve_is_singular(p, a, b)


def test_graph_decompose_agrees():
    rng = random.Random(101)
    for _ in range(30):
        n = rng.randrange(1, 200)
        nxt = [rng.randrange(n) for _ in range(n)]
        c_on, c_dist = compiled.functional_graph_decompose(nxt)
        p_on, p_dist = pure.functional_graph_decompose(nxt)
        assert list(c_on) == p_on
        assert list(c_dist) == p_dist


def test_graph_decompose_validity():
    # distances decrease by one along edges off the cycle
    rng = random.Random(103)
    n = 500
    nxt = [rng.randrange(n) for _ in range(n)]
    on, dist = pure.functional_graph_decompose(nxt)
    for s in range(n):
        if on[s]:
            assert dist[s] == 0
            assert on[nxt[s]]
        else:
            assert dist[s] == dist[nxt[s]] + 1


def test_collatz_sweep_agrees():
    assert compiled.collatz_sweep_reaches_one(5000, 10_000) == pure.collatz_sweep_reaches_one(5000, 10_000) == 0
    # tight budget makes some start fail, and both lanes name the same one
    c = compiled.collatz_sweep_reaches_one(100, 10)
    p = pure.collatz_sweep_reaches_one(100, 10)
    assert c == p != 0


def test_selected_backend_named():
    assert backend.BACKEND_NAME in ("pure", "c")
